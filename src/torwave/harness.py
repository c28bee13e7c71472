"""Seeded experiment suites with deterministic, canonically serialized reports.

Each suite realizes one verification criterion: identity suites are hard
gates at fixed tolerances, boundedness suites fit sup-ratio constants and
require them to drift by less than a factor of two when the resolution
doubles, and the unboundedness probe passes on growth instead.  Reports are
reproducible byte for byte from (config, root_seed); wall time is recorded
outside the deterministic records.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .commutators import (bilinear_decomposition_batch, commutator_apply,
                          commutator_parts_batch, fractional_commutator_decomposition,
                          h1b_characterizations, make_qb_atom, molecule_norm,
                          subbilinear_envelope)
from .core import DyadicCube, SampledFunction, sup_norm, sup_norms
from .errors import UsageError
from .hlf import atomic_write
from .norms import hardy_norm, hardy_square_batch, lp_norm
from .operators import (almost_diagonal_envelope_fit, fractional_integral_operator,
                        hilbert_operator, identity_operator, k_class_ratio, p_delta,
                        pdelta_composition_check, riesz_operator, wavelet_matrix)
from .paraproducts import paraproducts_batch, s_operator_batch
from .samples import (derive_rng, random_bmo, random_bmo_batch, random_classical_atom,
                      random_cube, random_function, random_h1_tree,
                      truncated_log, two_sided_atom)
from .sublinear import grand_maximal, lusin_area
from .wavelets import (analyze_batch, build_basis, default_coarse_level, synthesize,
                       synthesize_batch)

SCHEMA_VERSION = "1"

SUITES = ("reconstruction", "product_identity", "commutator_identity", "sandwich",
          "boundedness_sweep", "h1b_equivalence", "unboundedness_probe",
          "almost_diagonal", "molecule", "fractional")

_DEFAULT_TOLERANCES = {
    "reconstruction_rel": 1e-10,
    "identity_rel": 1e-8,
    "sandwich_slack": 1e-9,
    "drift_factor": 2.0,
    "pdelta_match": 1e-14,
}

# column order of the per-case CSV rows, one schema per suite
CSV_SCHEMAS = {
    "reconstruction": ["resolution", "case", "residual_rel", "ok"],
    "product_identity": ["resolution", "case", "residual_inf", "bound", "ok"],
    "commutator_identity": ["resolution", "case", "operator", "residual_rel", "ok"],
    "sandwich": ["resolution", "case", "operator", "max_violation", "ok"],
    "boundedness_sweep": ["resolution", "case", "ratio_s", "ratio_remainder",
                          "ratio_pi4", "ratio_antisym"],
    "h1b_equivalence": ["resolution", "case", "v_square", "v_riesz", "v_T",
                        "norm_over_bmo"],
    "unboundedness_probe": ["resolution", "case", "width", "ratio"],
    "almost_diagonal": ["part", "value", "ok"],
    "molecule": ["resolution", "case", "part", "value"],
    "fractional": ["resolution", "case", "residual_rel", "weak_quasinorm",
                   "remainder_ratio", "ok"],
}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """Declarative description of one suite run."""

    suite: str
    resolutions: list = field(default_factory=lambda: [256, 512])
    basis_family: str = "daubechies"
    basis_order: int = 4
    sample_count: int = 50
    root_seed: int = 0
    tolerances: dict = field(default_factory=dict)
    output_path: str | None = None
    dim: int = 1
    coarse_level: int | None = None
    operator: str = "hilbert"

    def validate(self):
        if self.suite not in SUITES:
            raise UsageError(
                f"unknown suite {self.suite!r}; valid suites: {', '.join(SUITES)}")
        well_typed = {
            "resolutions": isinstance(self.resolutions, (list, tuple))
            and all(map(_is_int, self.resolutions)),
            "basis_family": isinstance(self.basis_family, str),
            "basis_order": _is_int(self.basis_order),
            "sample_count": _is_int(self.sample_count),
            "root_seed": _is_int(self.root_seed) and self.root_seed >= 0,
            "tolerances": isinstance(self.tolerances, dict)
            and all(isinstance(v, numbers.Real) for v in self.tolerances.values()),
            "output_path": self.output_path is None or isinstance(self.output_path, str),
            "dim": _is_int(self.dim) and self.dim in (1, 2),
            "coarse_level": self.coarse_level is None or _is_int(self.coarse_level),
            "operator": isinstance(self.operator, str),
        }
        for name, ok in well_typed.items():
            if not ok:
                raise UsageError(f"bad config value {name}={getattr(self, name)!r}")
        for n in self.resolutions:
            if n < 2 or n & (n - 1):
                raise UsageError(f"resolutions must be powers of two, got {n}")
        if self.sample_count < 1:
            raise UsageError("sample_count must be >= 1")
        return self

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, _DEFAULT_TOLERANCES[key]))

    def basis(self):
        return build_basis(self.basis_family, self.basis_order)

    def j0(self, basis) -> int:
        return self.coarse_level if self.coarse_level is not None \
            else default_coarse_level(basis)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite, "resolutions": list(self.resolutions),
            "basis_family": self.basis_family, "basis_order": self.basis_order,
            "sample_count": self.sample_count, "root_seed": self.root_seed,
            "tolerances": dict(self.tolerances), "output_path": self.output_path,
            "dim": self.dim, "coarse_level": self.coarse_level,
            "operator": self.operator,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise UsageError(f"a config is a JSON object, got {type(d).__name__}")
        d = dict(d)
        if "basis" in d:
            basis = d.pop("basis")
            if not isinstance(basis, (list, tuple)) or len(basis) != 2:
                raise UsageError(f"basis must be a [family, order] pair, got {basis!r}")
            d["basis_family"], d["basis_order"] = basis
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore
        unknown = set(d) - known
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown, key=str)}")
        if "suite" not in d:
            raise UsageError("config is missing the suite name")
        return cls(**d).validate()

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"config {path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)


@dataclass
class ExperimentReport:
    """Deterministic per-case records and the summary that decides pass/fail."""

    suite: str
    config: dict
    cases: list
    summary: dict
    passed: bool
    wall_time: float
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {"suite": self.suite, "schema_version": self.schema_version,
                "config": self.config, "cases": self.cases,
                "summary": self.summary, "passed": self.passed,
                "wall_time": self.wall_time}


def run_suite(config: ExperimentConfig) -> ExperimentReport:
    """Execute the configured suite; deterministic given the root seed."""
    config.validate()
    start = time.perf_counter()
    cases, summary, passed = _SUITE_FUNCS[config.suite](config)
    if not cases:
        passed = False
        summary = dict(summary, vacuous="no cases executed")
    return ExperimentReport(
        suite=config.suite, config=config.to_dict(), cases=cases,
        summary=summary, passed=bool(passed),
        wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _drift(values) -> float:
    vals = [v for v in values if v > 0]
    if len(vals) < 2:
        return 1.0
    return max(vals) / min(vals)


def _case_rngs(cfg: ExperimentConfig, ri: int) -> list:
    """The stream of every case at resolution index `ri`,
    `derive_rng(root_seed, ri, ci)`, in case order."""
    return [derive_rng(cfg.root_seed, ri, ci) for ci in range(cfg.sample_count)]


def _suite_reconstruction(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    tol = cfg.tol("reconstruction_rel")
    cases = []
    worst = 0.0
    for ri, N in enumerate(cfg.resolutions):
        f = np.stack([random_function(rng, cfg.dim, N, kind="white").values
                      for rng in _case_rngs(cfg, ri)])
        g = synthesize_batch(analyze_batch(f, basis, j0, cfg.dim), basis, j0, cfg.dim)
        errors, sizes = sup_norms(g - f, cfg.dim), sup_norms(f, cfg.dim)
        for ci in range(cfg.sample_count):
            rel = float(errors[ci]) / max(float(sizes[ci]), 1e-300)
            worst = max(worst, rel)
            cases.append({"resolution": N, "case": ci, "residual_rel": rel,
                          "ok": rel <= tol})
    return cases, {"max_residual_rel": worst, "tolerance": tol}, worst <= tol


def _tree_and_bmo(cfg: ExperimentConfig, ri: int, dim: int, j0: int, N: int):
    """Draw of the product and commutator suites, case index leading: per case an
    H^1 coefficient array, then a unit-BMO sample, normalized once per stack."""
    rngs = _case_rngs(cfg, ri)
    J = int(N).bit_length() - 1
    return (np.stack([random_h1_tree(rng, dim, j0, J).coeffs for rng in rngs]),
            random_bmo_batch(rngs, dim, N))


def _suite_product_identity(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    tol = cfg.tol("identity_rel")
    cases = []
    ok = True
    worst = 0.0
    for ri, N in enumerate(cfg.resolutions):
        ft, g = _tree_and_bmo(cfg, ri, cfg.dim, j0, N)
        parts = paraproducts_batch(ft, analyze_batch(g, basis, j0, cfg.dim), basis, j0,
                                   cfg.dim)
        fg_sup = sup_norms(synthesize_batch(ft, basis, j0, cfg.dim) * g, cfg.dim)
        for ci in range(cfg.sample_count):
            residual = float(parts.residual_inf[ci])
            bound = tol * (1.0 + float(fg_sup[ci]))
            good = residual <= bound
            ok &= good
            worst = max(worst, residual / bound)
            cases.append({"resolution": N, "case": ci,
                          "residual_inf": residual, "bound": bound,
                          "ok": good})
    return cases, {"worst_residual_over_bound": worst, "tolerance": tol}, ok


def parse_operator(spec: str, dim: int, resolution: int):
    """The operator named by `spec` in dimension `dim` on an N = `resolution` grid.

    The grammar is `identity`, `hilbert` (dim 1), `riesz<j>` (1 <= j <= dim),
    `ifrac:<alpha>` (0 < alpha < dim), `maximal` and `lusin`; anything else
    raises a TorwaveError.  Linear operators ignore `resolution`.
    """
    if spec == "identity":
        return identity_operator(dim)
    if spec == "hilbert" and dim == 1:
        return hilbert_operator()
    if spec == "maximal":
        return grand_maximal(dim, resolution)
    if spec == "lusin":
        return lusin_area(dim, resolution)
    if spec.startswith("riesz") and spec[5:] in [str(j) for j in range(1, dim + 1)]:
        return riesz_operator(int(spec[5:]) - 1, dim)
    if spec.startswith("ifrac:"):
        try:
            alpha = float(spec[6:])
        except ValueError:
            raise UsageError(f"operator {spec!r}: alpha is not a number") from None
        return fractional_integral_operator(alpha, dim)
    raise UsageError(f"unknown operator {spec!r} in dimension {dim} (use identity, "
                     "hilbert, riesz<j>, ifrac:<alpha>, maximal or lusin)")


def _suite_commutator_identity(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    tol = cfg.tol("identity_rel")
    dim = 2 if cfg.operator.startswith("riesz") else cfg.dim
    cases = []
    ok = True
    worst = 0.0
    for ri, N in enumerate(cfg.resolutions):
        T = parse_operator(cfg.operator, dim, N)
        ft, b = _tree_and_bmo(cfg, ri, dim, j0, N)
        f = synthesize_batch(ft, basis, j0, dim)
        dec = bilinear_decomposition_batch(b, T, f, basis, j0, dim)
        sizes = sup_norms(dec.commutator, dim)
        for ci in range(cfg.sample_count):
            rel = float(dec.residual_inf[ci]) / (1.0 + float(sizes[ci]))
            good = rel <= tol
            ok &= good
            worst = max(worst, rel)
            cases.append({"resolution": N, "case": ci, "operator": cfg.operator,
                          "residual_rel": rel, "ok": good})
    return cases, {"max_residual_rel": worst, "tolerance": tol}, ok


def _suite_sandwich(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    cases = []
    ok = True
    worst = 0.0
    for ri, N in enumerate(cfg.resolutions):
        J = int(N).bit_length() - 1
        T = parse_operator(cfg.operator, cfg.dim, N)
        for ci, rng in enumerate(_case_rngs(cfg, ri)):
            f = synthesize(random_h1_tree(rng, cfg.dim, j0, J), basis)
            b = random_bmo(rng, cfg.dim, N)
            env = subbilinear_envelope(b, T, f, basis, j0,
                                       slack_scale=cfg.tol("sandwich_slack"))
            ok &= env.sandwich_ok
            worst = max(worst, env.max_violation)
            cases.append({"resolution": N, "case": ci, "operator": cfg.operator,
                          "max_violation": env.max_violation, "ok": env.sandwich_ok})
    return cases, {"max_violation": worst}, ok


def _suite_boundedness_sweep(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    dim = cfg.dim
    H = hilbert_operator() if dim == 1 else riesz_operator(0, 2)
    H_adjoint = H.adjoint()

    def h1_square(values):
        """hardy_norm(., "H1_square") of every case: detail + coarse mass."""
        detail, coarse = hardy_square_batch(values, basis, j0, dim)
        return detail + coarse

    cases = []
    fits = {}
    for ri, N in enumerate(cfg.resolutions):
        sups = {"ratio_s": 0.0, "ratio_remainder": 0.0, "ratio_pi4": 0.0,
                "ratio_antisym": 0.0}
        ft, b = _tree_and_bmo(cfg, ri, dim, j0, N)
        f = synthesize_batch(ft, basis, j0, dim)
        bt = analyze_batch(b, basis, j0, dim)
        parts = paraproducts_batch(ft, bt, basis, j0, dim)
        remainder = commutator_parts_batch(b, H, f, parts).R_part
        antis = s_operator_batch(analyze_batch(H.apply(f), basis, j0, dim), bt, basis, j0, dim) \
            - s_operator_batch(ft, analyze_batch(H_adjoint.apply(b), basis, j0, dim), basis,
                               j0, dim)
        h1, h1_pi4, h1_antis = map(h1_square, (f, parts.pi4, antis))
        for ci in range(cfg.sample_count):
            base = max(float(h1[ci]) * 1.0, 1e-300)  # b has unit oscillation norm
            row = {
                "ratio_s": lp_norm(SampledFunction(parts.pi3[ci] * -1.0), 1.0) / base,
                "ratio_remainder": lp_norm(SampledFunction(remainder[ci]), 1.0) / base,
                "ratio_pi4": float(h1_pi4[ci]) / base,
                "ratio_antisym": float(h1_antis[ci]) / base,
            }
            for k, v in row.items():
                sups[k] = max(sups[k], v)
            cases.append({"resolution": N, "case": ci, **row})
        kh = k_class_ratio(H, atoms=max(cfg.sample_count // 5, 4), b_samples=5,
                           seed=cfg.root_seed + ri, dim=dim, resolution=N)
        ks = k_class_ratio(lusin_area(dim, N), atoms=max(cfg.sample_count // 5, 4),
                           b_samples=5, seed=cfg.root_seed + ri, dim=dim,
                           resolution=N)
        fits[N] = dict(sups, kclass_hilbert=kh, kclass_lusin=ks)
    drift_cap = cfg.tol("drift_factor")
    drifts = {k: _drift([fits[N][k] for N in cfg.resolutions])
              for k in next(iter(fits.values()))}
    finite = all(math.isfinite(v) for per in fits.values() for v in per.values())
    passed = finite and all(d < drift_cap for d in drifts.values())
    summary = {"fitted": {str(N): fits[N] for N in cfg.resolutions},
               "drifts": drifts, "drift_cap": drift_cap}
    return cases, summary, passed


def _suite_h1b_equivalence(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    cases = []
    per_res = {}
    for ri, N in enumerate(cfg.resolutions):
        J = int(N).bit_length() - 1
        ratios = {"square_over_riesz": [], "square_over_T": [], "riesz_over_T": []}
        fitted_C = 0.0
        for ci, rng in enumerate(_case_rngs(cfg, ri)):
            b = random_bmo(rng, cfg.dim, N)
            Q = random_cube(rng, cfg.dim, j0, J - 2)
            a = make_qb_atom(Q, b, 2.0, seed=int(rng.integers(0, 2 ** 31)))
            rep = h1b_characterizations(a, b, basis, j0)
            for key, val in rep.ratios().items():
                ratios[key].append(val)
            fitted_C = max(fitted_C, rep.norm)  # b has unit oscillation norm
            cases.append({"resolution": N, "case": ci, "v_square": rep.v_square,
                          "v_riesz": rep.v_riesz, "v_T": rep.v_T,
                          "norm_over_bmo": rep.norm})
        bands = {k: (max(v) / max(min(v), 1e-300)) for k, v in ratios.items()}
        per_res[N] = {"bands": bands, "fitted_C": fitted_C}
    drift_cap = cfg.tol("drift_factor")
    band_drifts = {k: _drift([per_res[N]["bands"][k] for N in cfg.resolutions])
                   for k in ("square_over_riesz", "square_over_T", "riesz_over_T")}
    c_drift = _drift([per_res[N]["fitted_C"] for N in cfg.resolutions])
    finite = all(math.isfinite(x) for per in per_res.values()
                 for x in [per["fitted_C"], *per["bands"].values()])
    passed = finite and c_drift < drift_cap and all(d < drift_cap
                                                    for d in band_drifts.values())
    summary = {"per_resolution": {str(N): per_res[N] for N in cfg.resolutions},
               "band_drifts": band_drifts, "fitted_C_drift": c_drift,
               "drift_cap": drift_cap}
    return cases, summary, passed


def _suite_unboundedness_probe(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    H = hilbert_operator()
    cases = []
    all_increasing = True
    for ri, N in enumerate(cfg.resolutions):
        b = truncated_log(1, N, (0.5,))
        ratios = []
        for e in range(3, 8):
            width = 2.0 ** -e
            a = two_sided_atom(N, width, 0.5)
            ratio = lp_norm(commutator_apply(b, H, a), 1.0) \
                / hardy_norm(a, "H1_square", basis, j0)
            ratios.append(ratio)
            cases.append({"resolution": N, "case": e, "width": width,
                          "ratio": ratio})
        all_increasing &= all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
    return cases, {"pass_is_growth": True, "monotone": all_increasing}, all_increasing


def _pdelta_reference(I: DyadicCube, I2: DyadicCube, delta: float) -> float:
    """Independent scalar evaluation of the envelope profile (oracle path)."""
    n = I.dim
    j, j2 = I.level, I2.level
    dist_sq = 0.0
    for a, bb in zip(I.center, I2.center):
        d = abs(a - bb) % 1.0
        d = min(d, 1.0 - d)
        dist_sq += d * d
    dist = math.sqrt(dist_sq)
    sides = 2.0 ** (-j) + 2.0 ** (-j2)
    return (2.0 ** (-abs(j - j2) * (delta / 2.0 + n / 2.0))
            / (1.0 + (j - j2) ** 2)
            * (sides / (sides + dist)) ** (n + delta / 2.0))


def _suite_almost_diagonal(cfg: ExperimentConfig):
    cases = []
    tolerance = cfg.tol("pdelta_match")
    drift_cap = cfg.tol("drift_factor")
    rng = derive_rng(cfg.root_seed, 0)
    cubes = [random_cube(rng, cfg.dim, 2, 7) for _ in range(2000)]
    levels = np.array([I.level for I in cubes])
    offsets = np.array([I.offset for I in cubes])
    profile = p_delta(levels[0::2], offsets[0::2], levels[1::2], offsets[1::2], 1.0)
    worst = max([0.0] + [abs(p - _pdelta_reference(I, I2, 1.0)) for p, I, I2
                         in zip(profile.tolist(), cubes[0::2], cubes[1::2])])
    match_ok = worst <= tolerance
    cases.append({"part": "pdelta_match", "value": worst, "ok": match_ok})

    comp_base = pdelta_composition_check(range(2, 7), 1.0, cfg.sample_count,
                                         dim=cfg.dim, seed=cfg.root_seed)
    comp_wide = pdelta_composition_check(range(2, 8), 1.0, cfg.sample_count,
                                         dim=cfg.dim, seed=cfg.root_seed)
    comp_drift = _drift([comp_base, comp_wide])
    comp_ok = math.isfinite(comp_wide) and comp_drift < drift_cap
    cases.append({"part": "composition_base", "value": comp_base, "ok": True})
    cases.append({"part": "composition_widened", "value": comp_wide, "ok": comp_ok})

    basis = cfg.basis()
    N = max(cfg.resolutions)
    J = int(N).bit_length() - 1
    H = hilbert_operator()
    fit_base = almost_diagonal_envelope_fit(
        wavelet_matrix(H, basis, range(2, J - 1), 1, N), 1.0).fitted_C
    fit_wide = almost_diagonal_envelope_fit(
        wavelet_matrix(H, basis, range(2, J), 1, N), 1.0).fitted_C
    fit_drift = _drift([fit_base, fit_wide])
    fit_ok = math.isfinite(fit_wide) and fit_drift < drift_cap
    cases.append({"part": "envelope_base", "value": fit_base, "ok": True})
    cases.append({"part": "envelope_widened", "value": fit_wide, "ok": fit_ok})

    summary = {"pdelta_worst_match": worst, "composition_drift": comp_drift,
               "envelope_drift": fit_drift, "drift_cap": drift_cap}
    return cases, summary, match_ok and comp_ok and fit_ok


def _suite_molecule(cfg: ExperimentConfig):
    H = hilbert_operator()
    cases = []
    fitted_atoms = 0.0
    per_res = {}
    for ri, N in enumerate(cfg.resolutions):
        fitted_comm = 0.0
        for ci, rng in enumerate(_case_rngs(cfg, ri)):
            a, Q = random_classical_atom(rng, cfg.dim, N)
            val = molecule_norm(a, 0.25, Q.center)
            fitted_atoms = max(fitted_atoms, val)
            cases.append({"resolution": N, "case": ci, "part": "atom", "value": val})
            if cfg.dim == 1:
                b = random_bmo(rng, 1, N)
                b_Q = float(b.values[Q.grid_slices(N)].mean())
                g = SampledFunction((b.values - b_Q) * H.apply(a).values)
                g = g - g.mean()
                ratio = molecule_norm(g, 0.25, Q.center)  # unit-BMO b
                fitted_comm = max(fitted_comm, ratio)
                cases.append({"resolution": N, "case": ci,
                              "part": "shifted_image", "value": ratio})
        per_res[N] = fitted_comm
    drift_cap = cfg.tol("drift_factor")
    drift = _drift(list(per_res.values()))
    finite = math.isfinite(fitted_atoms) and all(math.isfinite(v)
                                                 for v in per_res.values())
    summary = {"fitted_atoms": fitted_atoms,
               "fitted_shifted": {str(N): per_res[N] for N in per_res},
               "shifted_drift": drift, "drift_cap": drift_cap}
    return cases, summary, finite and drift < drift_cap


def _suite_fractional(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    tol = cfg.tol("identity_rel")
    alpha = 0.5
    cases = []
    ok = True
    sups = {}
    for ri, N in enumerate(cfg.resolutions):
        J = int(N).bit_length() - 1
        sup_ratio = 0.0
        for ci, rng in enumerate(_case_rngs(cfg, ri)):
            f = synthesize(random_h1_tree(rng, cfg.dim, j0, J), basis)
            b = random_bmo(rng, cfg.dim, N)
            dec, rep = fractional_commutator_decomposition(b, f, alpha, basis, j0)
            rel = dec.residual_inf / (1.0 + sup_norm(dec.commutator))
            h1 = hardy_norm(f, "H1_square", basis, j0)
            ratio = rep.remainder_lp / max(h1, 1e-300)
            sup_ratio = max(sup_ratio, ratio)
            good = rel <= tol
            ok &= good
            cases.append({"resolution": N, "case": ci, "residual_rel": rel,
                          "weak_quasinorm": rep.weak_quasinorm,
                          "remainder_ratio": ratio, "ok": good})
        sups[N] = sup_ratio
    drift = _drift(list(sups.values()))
    passed = ok and drift < cfg.tol("drift_factor")
    summary = {"alpha": alpha, "remainder_sups": {str(N): sups[N] for N in sups},
               "remainder_drift": drift, "tolerance": tol}
    return cases, summary, passed


_SUITE_FUNCS = {
    "reconstruction": _suite_reconstruction,
    "product_identity": _suite_product_identity,
    "commutator_identity": _suite_commutator_identity,
    "sandwich": _suite_sandwich,
    "boundedness_sweep": _suite_boundedness_sweep,
    "h1b_equivalence": _suite_h1b_equivalence,
    "unboundedness_probe": _suite_unboundedness_probe,
    "almost_diagonal": _suite_almost_diagonal,
    "molecule": _suite_molecule,
    "fractional": _suite_fractional,
}


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _canonical_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        s = "%.17g" % float(obj)
        if not any(c in s for c in ".eE") and s.lstrip("-").isdigit():
            s += ".0"
        return s
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + _canonical_json(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _canonical_json(obj[k], indent + 2)
            for k in sorted(obj, key=str))
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit_report(report: ExperimentReport, format: str = "json", path=None) -> str:
    """Serialize a report canonically (sorted keys, fixed float format) to `path`."""
    if format == "json":
        text = _canonical_json(report.to_dict()) + "\n"
    elif format == "csv":
        cols = CSV_SCHEMAS.get(report.suite)
        if cols is None:
            cols = sorted({k for case in report.cases for k in case})
        lines = [f"# schema_version={report.schema_version} suite={report.suite}",
                 ",".join(cols)]
        for case in report.cases:
            lines.append(",".join(_csv_cell(case.get(c)) for c in cols))
        text = "\n".join(lines) + "\n"
    else:
        raise UsageError(f"unknown report format {format!r} (json or csv)")
    if path is not None:
        atomic_write(path, text)
    return text


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def parse_report(source: str) -> ExperimentReport:
    """Rebuild a report from its canonical JSON text (or a path to it)."""
    if os.path.exists(source):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = json.loads(source)
    return ExperimentReport(
        suite=data["suite"], config=data["config"], cases=data["cases"],
        summary=data["summary"], passed=data["passed"],
        wall_time=data["wall_time"], schema_version=data.get("schema_version", "?"))
