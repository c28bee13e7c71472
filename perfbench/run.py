"""torwave benchmark: time to verdict of seeded `run_suite` workloads.

    python3 perfbench/run.py --workload linear_1d --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the benchmark imports torwave from `src/`
there and nothing else.  One process runs the workload's configs as a closed
loop with one client (the next config starts when the previous verdict
returns), pass after pass, until `--seconds` have gone by.

`--trace 0` reports the end-to-end metrics: `verdict_s` (median wall time of
one pass), `setup_s` (median over fresh processes of `import torwave` plus
the first cached constructions, see setup_time.py) and `peak_rss_mb`.
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of tracer.py (medians over traced passes) plus `trace.overhead_s`,
the traced minus the untraced median pass time.

Every pass is checked: a case fails when it records ok == false or a
non-finite number, or when its suite raises (then every configured case of
that suite fails).  Statistical drift verdicts are printed with their
margins and are not failures.  Each pass's canonical case records are
hashed; a pass whose digest differs from the first, or a traced pass that
differs from an untraced one, marks the run incorrect.  The command exits 1
when the run is incorrect and 2 when it cannot run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A full result with the environment block goes to `.perfbench_out/`.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# one process and no worker threads: pin BLAS/OpenMP before numpy loads
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import numbers  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from setup_time import construct  # noqa: E402
from tracer import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS, config_dicts, expected_cases  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
MIN_PASSES = 3
# almost_diagonal cases whose `ok` is the drift verdict of the widened fit
DRIFT_PARTS = {"composition_widened", "envelope_widened"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def load_average():
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def git_sha(root: Path):
    """HEAD commit read from `.git`, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, which names the code without git."""
    digest = hashlib.sha256()
    for path in sorted((src / "torwave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(numpy_version: str, loadavg) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(SRC),
        "loadavg_at_start": loadavg,
        "threads_pinned": {var: os.environ[var] for var in THREAD_VARS},
        "processes": "one benchmark process, no worker threads; "
                     "set-up probes run one at a time",
    }


def setup_seconds(workload: str) -> list:
    """Set-up time of `SETUP_REPEATS` fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_time.py"), workload, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_pass(harness, configs):
    """One pass of the closed loop: each config after the previous verdict."""
    outcomes = []
    start = time.perf_counter()
    for cfg in configs:
        try:
            outcomes.append(harness.run_suite(cfg))
        except Exception as exc:  # a raising suite fails its cases; go on
            outcomes.append(exc)
    return time.perf_counter() - start, outcomes


def case_failed(suite: str, case: dict) -> bool:
    for value in case.values():
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            return True
    drift_verdict = suite == "almost_diagonal" and case.get("part") in DRIFT_PARTS
    return "ok" in case and not case["ok"] and not drift_verdict


def drift_verdicts(report) -> list:
    """(name, measured drift, cap) of the suite's statistical drift verdicts."""
    s = report.summary
    if report.suite == "boundedness_sweep":
        drifts = dict(s["drifts"])
    elif report.suite == "h1b_equivalence":
        drifts = dict(s["band_drifts"], fitted_C=s["fitted_C_drift"])
    elif report.suite == "almost_diagonal":
        drifts = {"composition": s["composition_drift"],
                  "envelope": s["envelope_drift"]}
    else:
        return []
    return [(f"{report.suite}.{name}", value, s["drift_cap"])
            for name, value in drifts.items()]


def check_pass(harness, config_fields, outcomes):
    """Failed and attempted case counts, record digest and drift verdicts."""
    attempted = failed = 0
    digest = hashlib.sha256()
    drifts = []
    for fields, outcome in zip(config_fields, outcomes):
        expected = expected_cases(fields)
        attempted += expected
        if isinstance(outcome, Exception):
            failed += expected
            text = "".join(traceback.format_exception_only(outcome))
            print(f"# suite {fields['suite']} raised: {text.strip()}", file=sys.stderr)
            digest.update(text.encode())
            continue
        failed += sum(case_failed(outcome.suite, case) for case in outcome.cases)
        # wall_time is the one field outside the deterministic records
        digest.update(harness.emit_report(
            dataclasses.replace(outcome, wall_time=0.0)).encode())
        drifts.extend(drift_verdicts(outcome))
    return attempted, failed, digest.hexdigest(), drifts


def quartiles(values) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "count": len(values), "values": values}


def main(argv) -> int:
    args = parse_args(argv)
    loadavg = load_average()
    if not (SRC / "torwave" / "__init__.py").is_file():
        print(f"no torwave sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import torwave
    from torwave import harness
    if Path(torwave.__file__).resolve().parent != SRC / "torwave":
        print(f"imported torwave from {torwave.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    construct(torwave, args.workload)
    fields = config_dicts(args.workload, args.seed)
    configs = [harness.ExperimentConfig.from_dict(f) for f in fields]
    env = environment(numpy.__version__, loadavg)
    print("# env " + json.dumps(env, sort_keys=True))

    setup = setup_seconds(args.workload) if args.trace == 0 else []
    times = {False: [], True: []}        # pass seconds, keyed by traced
    tracers = []
    digests = []
    attempted = failed = 0
    drifts = []
    run_start = time.perf_counter()
    deadline = run_start + args.seconds
    while True:
        traced = args.trace == 1 and len(tracers) < len(times[False])
        if traced:
            tracer = Tracer()
            with tracer.installed():
                seconds, outcomes = run_pass(harness, configs)
            tracers.append(tracer)
        else:
            seconds, outcomes = run_pass(harness, configs)
        times[traced].append(seconds)
        a, f, digest, drifts = check_pass(harness, fields, outcomes)
        attempted += a
        failed += f
        digests.append(digest)
        passes = len(digests)
        enough = passes >= MIN_PASSES and (args.trace == 0 or tracers)
        if enough and time.perf_counter() >= deadline:
            break

    deterministic = len(set(digests)) == 1
    correct = failed == 0 and deterministic
    verdict = quartiles(times[False])
    mode = "traced and untraced" if args.trace else "untraced"
    print(f"# workload {args.workload} seed {args.seed}: {passes} {mode} passes of "
          f"{len(configs)} configs, closed loop with one client")
    print(f"# verdict_s median {verdict['median']:.4f} s, quartiles "
          f"{verdict['q1']:.4f}..{verdict['q3']:.4f}, over {verdict['count']} "
          "untraced passes (too few for a tail percentile)")
    print(f"# cases attempted {attempted}, failed {failed}")
    for name, value, cap in drifts:
        margin = cap / value if value > 0 else math.inf
        state = "holds" if value < cap else "FLIPPED"
        print(f"# drift {name} {value:.4g} cap {cap:g} margin {margin:.3g} {state} "
              "(statistical; moves with the root seed; not a failure)")
    print(f"# record digest {digests[0]} "
          f"({'identical in every' if deterministic else 'DIFFERS across'} "
          f"{'traced and untraced ' if args.trace else ''}pass)")
    print("# no wait-time metric: torwave is one thread in one process and "
          "nothing in it queues")

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "configs": fields, "pass_seconds": verdict,
              "digests": digests, "drift_verdicts": drifts}
    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        setup_q = quartiles(setup)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"# setup_s median {setup_q['median']:.4f} s over {len(setup)} "
              f"fresh processes; peak_rss_mb {rss_mb:.1f} MiB")
        result["setup_seconds"] = setup_q
        metrics = {"verdict_s": (verdict["median"], "s"),
                   "setup_s": (setup_q["median"], "s"),
                   "peak_rss_mb": (rss_mb, "MiB")}
    else:
        per_pass = [t.metrics() for t in tracers]
        layers = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        layers["trace.overhead_s"] = statistics.median(times[True]) - verdict["median"]
        units = metric_units()
        metrics = {name: (layers[name], units[name]) for name in units}
        top = sorted((n for n in layers if n.endswith(".self_s")),
                     key=layers.get, reverse=True)[:6]
        print(f"# traced pass median {statistics.median(times[True]):.4f} s over "
              f"{len(times[True])} passes; overhead {layers['trace.overhead_s']:.4f} s")
        print("# top self time: " + ", ".join(f"{n} {layers[n]:.3f}" for n in top))
        print("# numpy.*.bytes are computed from array sizes (input + output), "
              "not measured traffic")
        result["traced_pass_seconds"] = sorted(times[True])
        spans = OUT / f"{args.workload}-seed{args.seed}.spans.json.gz"
        with gzip.open(spans, "wt") as fh:
            json.dump([t.span_table(run_start) for t in tracers], fh)
        result["spans_file"] = str(spans.relative_to(ROOT))
    result["metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
