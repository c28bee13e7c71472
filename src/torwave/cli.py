"""Command line front end: suite runs, norm tables, decompositions, atoms.

Exit codes: 0 all checks passed, 1 one or more checks failed, 2 bad usage
or configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .commutators import atomic_decompose, make_qb_atom
from .core import DyadicCube
from .errors import TorwaveError, UsageError
from .harness import ExperimentConfig, emit_report, parse_report, resolution_level, run_suite
from .hlf import atomic_write, read_hlf, write_hlf
from .norms import norm_report, validate_atom
from .samples import derive_rng, random_psi_atom
from .wavelets import analyze, build_basis, default_coarse_level, synthesize, validate_psi_atom


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _parse_basis(text: str):
    family, _, order = text.partition(":")
    return build_basis(family, _int(order, "basis order") if order else 1)


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.suite:
        config.suite = args.suite
    if args.seed is not None:
        config.root_seed = args.seed
    if args.out:
        config.output_path = args.out
    report = run_suite(config)
    status = "PASS" if report.passed else "FAIL"
    finite = {k: v for k, v in report.summary["margins"].items() if v is not None}
    gate = min(finite, key=finite.get, default=None)
    tightest = f"{finite[gate]:.3g} ({gate})" if gate is not None else "null"
    print(f"[{status}] suite={report.suite} cases={len(report.cases)} "
          f"min_margin={tightest} wall_time={report.wall_time:.2f}s")
    for key, value in sorted(report.summary.items()):
        print(f"  {key}: {value}")
    if config.output_path:
        emit_report(report, "json", config.output_path)
        print(f"report written to {config.output_path}")
    else:
        print(emit_report(report, "json"))
    return 0 if report.passed else 1


def _cmd_norms(args) -> int:
    f = read_hlf(args.input)
    basis = _parse_basis(args.basis) if args.basis else build_basis("daubechies", 4)
    reports = [norm_report(f, space, basis, args.coarse_level)
               for space in args.space]
    width = max(len(r.space) for r in reports)
    print(f"{'space':<{width}}  {'value':>24}  method")
    for r in reports:
        print(f"{r.space:<{width}}  {r.value:>24.17g}  {r.method}")
    if args.out:
        atomic_write(args.out, json.dumps([dataclasses.asdict(r) for r in reports],
                                          indent=2, sort_keys=True))
        print(f"norm reports written to {args.out}")
    return 0


def _atom_triplets(tree) -> str:
    lines = []
    for cube, sigma, value in tree.iter_details():
        lines.append(f"{cube.key()}:s{''.join(map(str, sigma))} {value:.17g}")
    return "\n".join(lines)


def _cmd_decompose(args) -> int:
    f = read_hlf(args.input)
    basis = _parse_basis(args.basis) if args.basis else build_basis("daubechies", 4)
    tree = analyze(f, basis, args.coarse_level)
    deco = atomic_decompose(tree, basis)
    print(f"atoms: {len(deco.atoms)}  sum|lambda|: {deco.sum_abs_lambda:.6g}  "
          f"coarse_l1: {deco.coarse_l1:.3g}"
          + ("  [coarse part flagged]" if deco.coarse_flagged else ""))
    valid = all(bool(validate_psi_atom(t, R)) for _, t, R in deco.atoms)
    print(f"all atoms valid: {valid}")
    if args.out:
        blocks = []
        for i, (lam, tree_i, R) in enumerate(deco.atoms):
            blocks.append(f"# atom {i} lambda={lam:.17g} cube={R.key()}")
            blocks.append(_atom_triplets(tree_i))
        atomic_write(args.out, "\n".join(blocks) + "\n")
        print(f"atom triplets written to {args.out}")
    return 0 if valid else 1


def _cmd_atoms(args) -> int:
    offset = tuple(_int(k, "--offset entry") for k in args.offset.split(","))
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    J = resolution_level(args.resolution, len(offset), "--resolution")
    if args.kind == "qb":
        if not args.b_file:
            raise UsageError("qb atoms need --b-file")
        b = read_hlf(args.b_file)
        Q = DyadicCube(b.dim, 3 if args.level is None else args.level, offset)
        atom = make_qb_atom(Q, b, args.q, args.seed)
        check = validate_atom(atom, Q, args.q, b)
        print(check.describe())
        print(f"integral: {atom.integral():.3e}  weighted: {(atom * b).integral():.3e}")
        ok = bool(check)
    else:  # psi
        if args.level is not None or any(offset):
            raise UsageError("psi atoms draw their cube at random: give no --level, "
                             "and --offset only as zeros, one per axis")
        basis = _parse_basis(args.basis) if args.basis else build_basis("daubechies", 4)
        rng = derive_rng(args.seed)
        j0 = default_coarse_level(basis, args.coarse_level)
        tree, R = random_psi_atom(rng, len(offset), j0, J)
        atom = synthesize(tree, basis)
        check = validate_psi_atom(tree, R)
        print(check.describe(), f"(cube {R.key()})")
        ok = bool(check)
    if args.out:
        write_hlf(args.out, atom)
        print(f"atom written to {args.out}")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    report = parse_report(args.input)
    text = emit_report(report, args.format, args.out)
    if args.out:
        print(f"{args.format} report written to {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torwave",
        description="Wavelet paraproduct / commutator verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment suite from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--suite", help="override the configured suite")
    p_run.add_argument("--seed", type=int, help="override the root seed")
    p_run.add_argument("--out", help="override the report output path")
    p_run.set_defaults(func=_cmd_run)

    p_norms = sub.add_parser("norms", help="print a table of norms of a sampled function")
    p_norms.add_argument("--input", required=True, help="HLF1 file")
    p_norms.add_argument("--space", action="append", required=True,
                         help="e.g. Lp:2, weakLp:1.5, BMO, bmo, BMOlog, Llog, "
                              "H1_square, H1_maximal, h1, Hlog (repeatable)")
    p_norms.add_argument("--basis", help="family:order, e.g. daubechies:4")
    p_norms.add_argument("--coarse-level", type=int, dest="coarse_level")
    p_norms.add_argument("--out", help="also write JSON reports here")
    p_norms.set_defaults(func=_cmd_norms)

    p_dec = sub.add_parser("decompose", help="atomic decomposition of a sampled function")
    p_dec.add_argument("--input", required=True, help="HLF1 file")
    p_dec.add_argument("--basis", help="family:order")
    p_dec.add_argument("--coarse-level", type=int, dest="coarse_level")
    p_dec.add_argument("--out", help="write atom coefficient triplets here")
    p_dec.set_defaults(func=_cmd_decompose)

    p_atoms = sub.add_parser("atoms", help="generate and validate atoms")
    p_atoms.add_argument("--kind", choices=("qb", "psi"), required=True)
    p_atoms.add_argument("--resolution", type=int, default=512)
    p_atoms.add_argument("--level", type=int, help="cube level (qb atoms; default 3)")
    p_atoms.add_argument("--offset", default="0",
                         help="comma separated offsets (psi atoms: zeros, one per axis)")
    p_atoms.add_argument("--q", type=float, default=2.0)
    p_atoms.add_argument("--b-file", dest="b_file", help="HLF1 file with b (qb atoms)")
    p_atoms.add_argument("--basis", help="family:order (psi atoms)")
    p_atoms.add_argument("--coarse-level", type=int, dest="coarse_level")
    p_atoms.add_argument("--seed", type=int, default=0)
    p_atoms.add_argument("--out", help="write the atom as HLF1 here")
    p_atoms.set_defaults(func=_cmd_atoms)

    p_rep = sub.add_parser("report", help="re-serialize a report (json or csv)")
    p_rep.add_argument("--input", required=True, help="JSON report path")
    p_rep.add_argument("--format", choices=("json", "csv"), default="csv")
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TorwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
