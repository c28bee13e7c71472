"""The three benchmark workloads: which `run_suite` configs one pass runs.

The suite, dim, resolution and operator of every config define a workload;
sample counts only size a pass (a few seconds on a 2-core machine) so that
one run holds several passes.  This module imports nothing from torwave, so
that `setup_time.py` can time `import torwave` after importing it.
"""

WORKLOADS = {
    "linear_1d": {
        "why": ("filter bank and FFT multipliers at 1-D N<=1024, plus the scalar "
                "p_delta/wavelet_matrix envelope path; sublinear is barely reached"),
        "configs": [
            *[("reconstruction", dict(resolutions=[256, 1024], basis_family=family,
                                      basis_order=order, sample_count=20))
              for family, order in (("haar", 1), ("daubechies", 2),
                                    ("daubechies", 4), ("daubechies", 8))],
            ("product_identity", dict(resolutions=[256, 512], sample_count=20)),
            ("commutator_identity", dict(resolutions=[256, 512], operator="hilbert",
                                         sample_count=20)),
            ("commutator_identity", dict(resolutions=[256, 512], operator="ifrac:0.5",
                                         sample_count=20)),
            ("boundedness_sweep", dict(resolutions=[256, 512], sample_count=20)),
            ("almost_diagonal", dict(resolutions=[256], sample_count=4)),
        ],
    },
    "sublinear_1d": {
        "why": ("1-D window sups on partial windows (2r+1 < N): pointwise_shifted, "
                "window_max and window_mean dominate, the filter bank is minor"),
        "configs": [
            ("sandwich", dict(resolutions=[512], operator="maximal", sample_count=3)),
            ("sandwich", dict(resolutions=[512], operator="lusin", sample_count=3)),
            ("h1b_equivalence", dict(resolutions=[256, 512], sample_count=3)),
        ],
    },
    "grid_2d": {
        "why": ("2-D window sups over (2r+1)^2 shifts where full-torus windows "
                "dominate, plus the 3-orientation 2-D filter bank"),
        "configs": [
            ("commutator_identity", dict(resolutions=[64, 128], operator="riesz1",
                                         dim=2, sample_count=1)),
            ("sandwich", dict(resolutions=[32, 64], operator="maximal", dim=2,
                              sample_count=1)),
            ("sandwich", dict(resolutions=[32, 64], operator="lusin", dim=2,
                              sample_count=1)),
            ("h1b_equivalence", dict(resolutions=[32, 64], dim=2, sample_count=1)),
        ],
    },
}

def config_dicts(workload: str, seed: int) -> list[dict]:
    """The workload's configs as `ExperimentConfig.from_dict` input.

    Each config gets its own root seed, derived from the workload seed.
    """
    return [dict(suite=suite, root_seed=1000 * seed + index, **fields)
            for index, (suite, fields) in enumerate(WORKLOADS[workload]["configs"])]


def expected_cases(config: dict) -> int:
    """Number of case records the suite writes for `config`."""
    if config["suite"] == "almost_diagonal":
        return 5
    return len(config["resolutions"]) * config["sample_count"]
