"""Set-up cost every `torwave run` pays: import plus first cached constructions.

    python3 perfbench/setup_time.py <workload> <src-dir>

prints the seconds taken by `import torwave` and by the first construction,
through public constructors, of every cached object the workload uses:
`build_basis`, `grand_maximal` / `lusin_area` at each (dim, N) and
`mother_wavelet`.  `run.py` runs it in fresh child processes, one at a time.
"""

import sys
import time

from workloads import WORKLOADS, config_dicts

# cached sublinear operators that each suite builds per resolution
_SUBLINEAR_CONSTRUCTORS = {
    "sandwich": ("grand_maximal", "lusin_area"),
    "h1b_equivalence": ("grand_maximal",),
    "boundedness_sweep": ("lusin_area",),
}


def construct(torwave, workload: str) -> None:
    """Build every cached object that one pass of `workload` uses."""
    for fields in config_dicts(workload, 0):
        cfg = torwave.ExperimentConfig.from_dict(fields)
        basis = cfg.basis()
        for N in cfg.resolutions:
            for name in _SUBLINEAR_CONSTRUCTORS.get(cfg.suite, ()):
                getattr(torwave, name)(cfg.dim, N)
            if cfg.suite == "reconstruction":
                continue
            J = N.bit_length() - 1
            for level in range(cfg.j0(basis), J):
                for sigma in torwave.wavelets.sigma_set(cfg.dim):
                    torwave.wavelets.mother_wavelet(basis, cfg.dim, J, level, sigma)


def main(argv) -> int:
    workload, src = argv[1], argv[2]
    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    start = time.perf_counter()
    import torwave
    construct(torwave, workload)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
