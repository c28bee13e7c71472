"""Acceptance criteria, one test per criterion, each printing a verdict line
with the margin of every gate (`summary["margins"]` of each report).

Identity criteria are hard gates at fixed tolerances; boundedness criteria
fit sup-ratio constants and demand sub-2x drift when the resolution doubles;
the unboundedness probe passes on monotone growth.  Run with `pytest -s`
to see the verdict lines.
"""

import time

import numpy as np

from torwave import (ExperimentConfig, Gate, atomic_decompose, lp_norm, run_suite,
                     sup_norm, synthesize, validate_psi_atom,
                     wavelet_square_function)
from torwave.samples import derive_rng, random_h1_tree
from torwave.wavelets import build_basis


def _margins(reports: dict) -> dict:
    """Every gate margin of the labelled reports, keyed `label:gate`."""
    return {f"{label}:{name}" if label else name: margin
            for label, rep in reports.items()
            for name, margin in rep.summary["margins"].items()}


def _verdict(name, ok, margins, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    detail = "margins " + ", ".join(
        f"{gate}={'null' if m is None else f'{m:.3g}'}" for gate, m in margins.items())
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget}s"


def _run(name, reports, start, budget):
    _verdict(name, all(rep.passed for rep in reports.values()), _margins(reports),
             time.perf_counter() - start, budget)


def test_c01_perfect_reconstruction():
    start = time.perf_counter()
    reports = {}
    for family, order in [("haar", 1), ("daubechies", 2), ("daubechies", 4),
                          ("daubechies", 8)]:
        cfg = ExperimentConfig(suite="reconstruction", resolutions=[256, 1024],
                               basis_family=family, basis_order=order,
                               sample_count=100, root_seed=101)
        reports[f"{family}{order}"] = run_suite(cfg)
    _run("C1 perfect reconstruction", reports, start, 10.0)


def test_c02_product_decomposition():
    start = time.perf_counter()
    cfg = ExperimentConfig(suite="product_identity", resolutions=[256, 512],
                           sample_count=50, root_seed=102)
    _run("C2 product decomposition", {"": run_suite(cfg)}, start, 60.0)


def test_c03_bilinear_commutator_identity():
    start = time.perf_counter()
    reports = {}
    runs = [("hilbert", 1, [256, 512]), ("riesz1", 2, [64, 128]),
            ("ifrac:0.5", 1, [256, 512])]
    for op, dim, resolutions in runs:
        cfg = ExperimentConfig(suite="commutator_identity", resolutions=resolutions,
                               sample_count=50, root_seed=103, dim=dim, operator=op)
        reports[op] = run_suite(cfg)
    _run("C3 bilinear commutator identity", reports, start, 120.0)


def test_c04_subbilinear_sandwich():
    start = time.perf_counter()
    reports = {}
    for op in ("maximal", "lusin"):
        cfg = ExperimentConfig(suite="sandwich", resolutions=[512],
                               sample_count=30, root_seed=104, operator=op)
        reports[op] = run_suite(cfg)
    _run("C4 subbilinear sandwich", reports, start, 300.0)


def test_c05_boundedness_sweeps():
    start = time.perf_counter()
    cfg = ExperimentConfig(suite="boundedness_sweep", resolutions=[256, 512],
                           sample_count=200, root_seed=105)
    _run("C5 boundedness sweeps", {"": run_suite(cfg)}, start, 600.0)


def test_c06_h1b_equivalence():
    start = time.perf_counter()
    cfg = ExperimentConfig(suite="h1b_equivalence", resolutions=[256, 512],
                           sample_count=100, root_seed=106)
    _run("C6 equivalent characterizations", {"": run_suite(cfg)}, start, 300.0)


def test_c07_atomic_decomposition():
    start = time.perf_counter()
    basis = build_basis("daubechies", 4)
    atoms_valid = True
    errors, ratios = [], []
    for i in range(50):
        tree = random_h1_tree(derive_rng(107, i), 1, 2, 9)
        deco = atomic_decompose(tree, basis)
        rec = deco.reconstruct_tree().replace(scaling=tree.scaling)
        errors.append(sup_norm(synthesize(tree, basis) - synthesize(rec, basis)))
        atoms_valid &= all(bool(validate_psi_atom(t, R)) for _, t, R in deco.atoms)
        ratios.append(deco.sum_abs_lambda / lp_norm(wavelet_square_function(tree), 1.0))
    # np.max, unlike max, keeps a NaN, which then fails its gate
    gates = [Gate("reconstruction", float(np.max(errors)), 1e-8, "<"),
             Gate("sum_lambda_over_Wf", float(np.max(ratios)), 4.0, "<=")]
    _verdict("C7 atomic decomposition", atoms_valid and all(g.holds() for g in gates),
             {g.name: g.margin() for g in gates}, time.perf_counter() - start, 120.0)


def test_c08_almost_diagonal_machinery():
    start = time.perf_counter()
    cfg = ExperimentConfig(suite="almost_diagonal", resolutions=[256],
                           sample_count=50, root_seed=108)
    _run("C8 almost-diagonal machinery", {"": run_suite(cfg)}, start, 180.0)


def test_c09_unboundedness_probe():
    start = time.perf_counter()
    cfg = ExperimentConfig(suite="unboundedness_probe", resolutions=[4096],
                           sample_count=1, root_seed=109)
    _run("C9 unboundedness probe (pass is growth)", {"": run_suite(cfg)}, start, 60.0)


def test_c10_molecule_estimates():
    start = time.perf_counter()
    cfg = ExperimentConfig(suite="molecule", resolutions=[256, 512],
                           sample_count=50, root_seed=110)
    _run("C10 molecule estimates", {"": run_suite(cfg)}, start, 120.0)
