"""Seeded experiment suites with deterministic, canonically serialized reports.

Each suite realizes one verification criterion and returns its cases, a summary
and its gates; `run_suite` alone turns them into the verdict.  Identity suites
gate at fixed tolerances, boundedness suites require fitted sup-ratio constants
to drift by less than a factor of two when the resolution doubles, and the
unboundedness probe gates on growth.  Reports are reproducible byte for byte
from (config, root_seed); wall time is recorded outside the deterministic records.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from operator import gt, le, lt
from pathlib import Path

import numpy as np

from .commutators import (bilinear_decomposition, commutator_apply, commutator_parts,
                          h1b_characterizations, make_qb_atom, molecule_norm,
                          subbilinear_envelope)
from .core import DyadicCube, SampledFunction, sup_norm
from .errors import UsageError
from .hlf import atomic_write
from .norms import hardy_norm, lp_norm, weak_lp_quasinorm
from .operators import (almost_diagonal_envelope_fit, k_class_image, k_class_ratio, p_delta,
                        parse_operator, pdelta_composition_check, wavelet_matrix)
from .paraproducts import paraproducts, s_operator
from .samples import (derive_rng, random_bmo, random_classical_atom, random_cube,
                      random_function, random_h1_tree, truncated_log, two_sided_atom)
from .wavelets import analyze, build_basis, default_coarse_level, synthesize

SCHEMA_VERSION = "1"

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
            # a finite float >= 0: NaN or a negative bound fails a gate, inf switches it off
            "tolerances": isinstance(self.tolerances, dict)
            and all(isinstance(v, numbers.Real) and 0 <= v <= sys.float_info.max
                    for v in self.tolerances.values()),
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
        unknown = set(self.tolerances) - set(_DEFAULT_TOLERANCES)
        if unknown:
            raise UsageError(f"unknown tolerance names {sorted(unknown, key=str)}; valid "
                             f"names: {', '.join(_DEFAULT_TOLERANCES)}")
        return self

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, _DEFAULT_TOLERANCES[key]))

    def basis(self):
        return build_basis(self.basis_family, self.basis_order)

    def j0(self, basis) -> int:
        return default_coarse_level(basis, self.coarse_level)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise UsageError(f"a config is a JSON object, got {type(d).__name__}")
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
    """Deterministic per-case records, the summary with gate margins, the verdict."""

    suite: str
    config: dict
    cases: list
    summary: dict
    passed: bool
    wall_time: float
    schema_version: str = SCHEMA_VERSION


@dataclass(frozen=True)
class Gate:
    """The pass condition `measured sense bound` of a suite: sense "<" or "<="
    is an upper bound, ">" is growth.  A non-finite measured value never holds.
    The margin is bound / measured (measured / bound for growth), or None when
    that ratio is not a finite number."""

    name: str
    measured: float
    bound: float
    sense: str

    def holds(self) -> bool:
        sense = {"<": lt, "<=": le, ">": gt}[self.sense]
        return math.isfinite(self.measured) and sense(self.measured, self.bound)

    def margin(self) -> float | None:
        num, den = (self.measured, self.bound) if self.sense == ">" \
            else (self.bound, self.measured)
        ratio = num / den if den else math.nan
        return ratio if math.isfinite(ratio) else None


def run_suite(config: ExperimentConfig) -> ExperimentReport:
    """Execute the configured suite; deterministic given the root seed.  It passes
    when it ran a case, every case's `ok` holds and every gate holds."""
    config.validate()
    start = time.perf_counter()
    cases, summary, gates = _SUITE_FUNCS[config.suite](config)
    summary = dict(summary, margins={gate.name: gate.margin() for gate in gates})
    if not cases:
        summary["vacuous"] = "no cases executed"
    passed = bool(cases) and all(case.get("ok", True) for case in cases) \
        and all(gate.holds() for gate in gates)
    return ExperimentReport(
        suite=config.suite, config=dict(asdict(config), resolutions=list(config.resolutions)),
        cases=cases, summary=summary, passed=passed, wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _sup(values) -> float:
    """max(0, *values), NaN when a value is NaN (the builtin max skips a NaN)."""
    return float(np.max([0.0, *values]))


def _drift_gate(cfg: ExperimentConfig, series: dict) -> tuple[dict, list]:
    """The drift of each named series of fitted values, max / min over its
    positive values (1.0 with fewer than two, NaN when a value is not
    finite), and one gate per series: its drift is below the drift cap."""
    drifts = {}
    for name, values in series.items():
        vals = [v for v in values if v > 0]
        drift = max(vals) / min(vals) if len(vals) > 1 else 1.0
        drifts[name] = drift if all(map(math.isfinite, values)) else math.nan
    return drifts, [Gate(name, drift, cfg.tol("drift_factor"), "<")
                    for name, drift in drifts.items()]


def _case_rngs(cfg: ExperimentConfig, ri: int) -> list:
    """The stream of every case at resolution index `ri`,
    `derive_rng(root_seed, ri, ci)`, in case order."""
    return [derive_rng(cfg.root_seed, ri, ci) for ci in range(cfg.sample_count)]


def _suite_reconstruction(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    tol = cfg.tol("reconstruction_rel")
    cases = []
    for ri, N in enumerate(cfg.resolutions):
        f = np.stack([random_function(rng, cfg.dim, N, kind="white").values
                      for rng in _case_rngs(cfg, ri)])
        g = synthesize(analyze(f, basis, j0, cfg.dim), basis, j0, cfg.dim)
        rels = sup_norm(g - f, cfg.dim) / np.maximum(sup_norm(f, cfg.dim), 1e-300)
        cases += [{"resolution": N, "case": ci, "residual_rel": rel, "ok": rel <= tol}
                  for ci, rel in enumerate(rels.tolist())]
    worst = _sup([case["residual_rel"] for case in cases])
    return (cases, {"max_residual_rel": worst, "tolerance": tol},
            [Gate("max_residual_rel", worst, tol, "<=")])


def _tree_and_bmo(cfg: ExperimentConfig, ri: int, j0: int, N: int):
    """Draw of the product and commutator suites, case index leading: per case an
    H^1 coefficient array, then a unit-BMO sample, normalized once per stack."""
    rngs = _case_rngs(cfg, ri)
    J = int(N).bit_length() - 1
    return (np.stack([random_h1_tree(rng, cfg.dim, j0, J).coeffs for rng in rngs]),
            random_bmo(rngs, cfg.dim, N))


def _suite_product_identity(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    tol = cfg.tol("identity_rel")
    cases = []
    for ri, N in enumerate(cfg.resolutions):
        ft, g = _tree_and_bmo(cfg, ri, j0, N)
        parts = paraproducts(ft, analyze(g, basis, j0, cfg.dim), basis, j0, cfg.dim)
        bounds = tol * (1.0 + sup_norm(synthesize(ft, basis, j0, cfg.dim) * g, cfg.dim))
        cases += [{"resolution": N, "case": ci, "residual_inf": residual, "bound": bound,
                   "ok": residual <= bound} for ci, (residual, bound)
                  in enumerate(zip(parts.residual_inf.tolist(), bounds.tolist()))]
    worst = _sup([c["residual_inf"] / c["bound"] for c in cases])
    return (cases, {"worst_residual_over_bound": worst, "tolerance": tol},
            [Gate("worst_residual_over_bound", worst, 1.0, "<=")])


def _commutator_stack(cfg: ExperimentConfig, ri: int, T, basis, j0: int, N: int):
    """The commutator identity on every case at resolution index `ri`: the
    stack f, its decomposition [b,T]f = R + T(S(f,b)), and each case's
    residual relative to 1 + sup |[b,T]f|."""
    ft, b = _tree_and_bmo(cfg, ri, j0, N)
    f = synthesize(ft, basis, j0, cfg.dim)
    dec = bilinear_decomposition(b, T, f, basis, j0, cfg.dim)
    return f, dec, (dec.residual_inf / (1.0 + sup_norm(dec.commutator, cfg.dim))).tolist()


def _suite_commutator_identity(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    tol = cfg.tol("identity_rel")
    cases = []
    for ri, N in enumerate(cfg.resolutions):
        T = parse_operator(cfg.operator, cfg.dim, N)
        _, _, rels = _commutator_stack(cfg, ri, T, basis, j0, N)
        cases += [{"resolution": N, "case": ci, "operator": cfg.operator,
                   "residual_rel": rel, "ok": rel <= tol} for ci, rel in enumerate(rels)]
    worst = _sup([case["residual_rel"] for case in cases])
    return (cases, {"max_residual_rel": worst, "tolerance": tol},
            [Gate("max_residual_rel", worst, tol, "<=")])


def _suite_sandwich(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    cases = []
    over_slack = []
    for ri, N in enumerate(cfg.resolutions):
        T = parse_operator(cfg.operator, cfg.dim, N)
        ft, b = _tree_and_bmo(cfg, ri, j0, N)
        f = synthesize(ft, basis, j0, cfg.dim)
        # the pointwise path runs once per point of b, so one case at a time
        for ci in range(cfg.sample_count):
            env = subbilinear_envelope(SampledFunction(b[ci]), T, SampledFunction(f[ci]),
                                       basis, j0, slack_scale=cfg.tol("sandwich_slack"))
            over_slack.append(env.max_violation / env.slack if env.slack
                              else 0.0 if env.sandwich_ok else math.inf)
            cases.append({"resolution": N, "case": ci, "operator": cfg.operator,
                          "max_violation": env.max_violation, "ok": env.sandwich_ok})
    worst = _sup([case["max_violation"] for case in cases])
    return (cases, {"max_violation": worst},
            [Gate("max_violation_over_slack", _sup(over_slack), 1.0, "<=")])


def _suite_boundedness_sweep(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    dim = cfg.dim
    cases = []
    fits = {}
    for ri, N in enumerate(cfg.resolutions):
        H = parse_operator("riesz1", dim, N)
        ft, b = _tree_and_bmo(cfg, ri, j0, N)
        f = synthesize(ft, basis, j0, dim)
        bt = analyze(b, basis, j0, dim)
        parts = paraproducts(ft, bt, basis, j0, dim)
        remainder = commutator_parts(b, H, f, parts).R_part
        antis = s_operator(analyze(H.apply(f), basis, j0, dim), bt, basis, j0, dim) \
            - s_operator(ft, analyze(H.adjoint().apply(b), basis, j0, dim), basis, j0, dim)
        # b has unit oscillation norm; S(f,b) = -pi3 has the L1 norm of pi3
        base = np.maximum(hardy_norm(f, "H1_square", basis, j0, dim), 1e-300)
        ratios = {k: (v / base).tolist() for k, v in [
            ("ratio_s", lp_norm(parts.pi3, 1.0, dim)),
            ("ratio_remainder", lp_norm(remainder, 1.0, dim)),
            ("ratio_pi4", hardy_norm(parts.pi4, "H1_square", basis, j0, dim)),
            ("ratio_antisym", hardy_norm(antis, "H1_square", basis, j0, dim))]}
        cases += [{"resolution": N, "case": ci, **dict(zip(ratios, row))}
                  for ci, row in enumerate(zip(*ratios.values()))]
        sups = {k: _sup(column) for k, column in ratios.items()}
        kh = k_class_ratio(H, atoms=max(cfg.sample_count // 5, 4), b_samples=5,
                           seed=cfg.root_seed + ri, dim=dim, resolution=N)
        ks = k_class_ratio(parse_operator("lusin", dim, N), atoms=max(cfg.sample_count // 5, 4),
                           b_samples=5, seed=cfg.root_seed + ri, dim=dim, resolution=N)
        fits[N] = dict(sups, kclass_hilbert=kh, kclass_lusin=ks)
    drifts, gates = _drift_gate(cfg, {k: [fits[N][k] for N in cfg.resolutions]
                                      for k in next(iter(fits.values()))})
    summary = {"fitted": {str(N): fits[N] for N in cfg.resolutions},
               "drifts": drifts, "drift_cap": cfg.tol("drift_factor")}
    return cases, summary, gates


def _suite_h1b_equivalence(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    cases = []
    per_res = {}
    for ri, N in enumerate(cfg.resolutions):
        J = int(N).bit_length() - 1
        ratios = {"square_over_riesz": [], "square_over_T": [], "riesz_over_T": []}
        norms = []
        for ci, rng in enumerate(_case_rngs(cfg, ri)):
            b = random_bmo(rng, cfg.dim, N)
            Q = random_cube(rng, cfg.dim, j0, J - 2)
            a = make_qb_atom(Q, b, 2.0, seed=int(rng.integers(0, 2 ** 31)))
            rep = h1b_characterizations(a, b, basis, j0)
            for key, val in rep.ratios().items():
                ratios[key].append(val)
            norms.append(rep.norm)  # b has unit oscillation norm
            cases.append({"resolution": N, "case": ci, "v_square": rep.v_square,
                          "v_riesz": rep.v_riesz, "v_T": rep.v_T,
                          "norm_over_bmo": rep.norm})
        bands = {k: (_sup(v) / max(min(v), 1e-300)) for k, v in ratios.items()}
        per_res[N] = {"bands": bands, "fitted_C": _sup(norms)}
    drifts, gates = _drift_gate(cfg, {
        **{k: [per_res[N]["bands"][k] for N in cfg.resolutions] for k in ratios},
        "fitted_C_drift": [per_res[N]["fitted_C"] for N in cfg.resolutions]})
    summary = {"per_resolution": {str(N): per_res[N] for N in cfg.resolutions},
               "fitted_C_drift": drifts.pop("fitted_C_drift"), "band_drifts": drifts,
               "drift_cap": cfg.tol("drift_factor")}
    return cases, summary, gates


def _suite_unboundedness_probe(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    cases = []
    steps = []  # r[i+1] / r[i] along shrinking widths; > 1 exactly when r[i] < r[i+1]
    for ri, N in enumerate(cfg.resolutions):
        H = parse_operator("hilbert", 1, N)
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
        steps += [r1 / r0 for r0, r1 in zip(ratios, ratios[1:])]
    growth = Gate("min_step_ratio", float(np.min(steps)), 1.0, ">")
    return cases, {"pass_is_growth": True, "monotone": growth.measured > 1.0}, [growth]


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
    rng = derive_rng(cfg.root_seed, 0)
    cubes = [random_cube(rng, cfg.dim, 2, 7) for _ in range(2000)]
    levels = np.array([I.level for I in cubes])
    offsets = np.array([I.offset for I in cubes])
    profile = p_delta(levels[0::2], offsets[0::2], levels[1::2], offsets[1::2], 1.0)
    worst = _sup([abs(p - _pdelta_reference(I, I2, 1.0)) for p, I, I2
                  in zip(profile.tolist(), cubes[0::2], cubes[1::2])])

    comp_base = pdelta_composition_check(range(2, 7), 1.0, cfg.sample_count,
                                         dim=cfg.dim, seed=cfg.root_seed)
    comp_wide = pdelta_composition_check(range(2, 8), 1.0, cfg.sample_count,
                                         dim=cfg.dim, seed=cfg.root_seed)

    basis = cfg.basis()
    N = max(cfg.resolutions)
    J = int(N).bit_length() - 1
    H = parse_operator("hilbert", 1, N)
    fit_base = almost_diagonal_envelope_fit(
        wavelet_matrix(H, basis, range(2, J - 1), 1, N), 1.0).fitted_C
    fit_wide = almost_diagonal_envelope_fit(
        wavelet_matrix(H, basis, range(2, J), 1, N), 1.0).fitted_C
    match = Gate("pdelta_worst_match", worst, cfg.tol("pdelta_match"), "<=")
    drifts, (comp, fit) = _drift_gate(cfg, {"composition_drift": [comp_base, comp_wide],
                                             "envelope_drift": [fit_base, fit_wide]})
    cases = [{"part": "pdelta_match", "value": worst, "ok": match.holds()},
             {"part": "composition_base", "value": comp_base, "ok": True},
             {"part": "composition_widened", "value": comp_wide, "ok": comp.holds()},
             {"part": "envelope_base", "value": fit_base, "ok": True},
             {"part": "envelope_widened", "value": fit_wide, "ok": fit.holds()}]
    summary = {"pdelta_worst_match": worst, **drifts, "drift_cap": cfg.tol("drift_factor")}
    return cases, summary, [match, comp, fit]


def _suite_molecule(cfg: ExperimentConfig):
    cases = []
    per_res = {}
    for ri, N in enumerate(cfg.resolutions):
        H = parse_operator("hilbert", 1, N)
        shifted = []
        for ci, rng in enumerate(_case_rngs(cfg, ri)):
            a, Q = random_classical_atom(rng, cfg.dim, N)
            val = molecule_norm(a, 0.25, Q.center)
            cases.append({"resolution": N, "case": ci, "part": "atom", "value": val})
            if cfg.dim == 1:
                g = k_class_image(random_bmo(rng, 1, N), Q, H.apply(a))
                g = g - g.mean()
                ratio = molecule_norm(g, 0.25, Q.center)  # unit-BMO b
                shifted.append(ratio)
                cases.append({"resolution": N, "case": ci,
                              "part": "shifted_image", "value": ratio})
        per_res[N] = _sup(shifted)
    drift, gates = _drift_gate(cfg, {"shifted_drift": list(per_res.values())})
    fitted_atoms = _sup([c["value"] for c in cases if c["part"] == "atom"])
    summary = {"fitted_atoms": fitted_atoms,
               "fitted_shifted": {str(N): per_res[N] for N in per_res},
               **drift, "drift_cap": cfg.tol("drift_factor")}
    # the atom seminorm has no bound here; its gate only demands a finite value
    return cases, summary, gates + [Gate("fitted_atoms", fitted_atoms, math.inf, "<")]


def _suite_fractional(cfg: ExperimentConfig):
    basis = cfg.basis()
    j0 = cfg.j0(basis)
    tol = cfg.tol("identity_rel")
    alpha = 0.5
    p = cfg.dim / (cfg.dim - alpha)  # the critical exponent n / (n - alpha)
    cases = []
    sups = {}
    for ri, N in enumerate(cfg.resolutions):
        T = parse_operator(f"ifrac:{alpha}", cfg.dim, N)
        f, dec, rels = _commutator_stack(cfg, ri, T, basis, j0, N)
        h1 = hardy_norm(f, "H1_square", basis, j0, cfg.dim)
        ratios = (lp_norm(dec.R_part, p, cfg.dim) / np.maximum(h1, 1e-300)).tolist()
        weak = weak_lp_quasinorm(dec.commutator, p, cfg.dim).tolist()
        cases += [{"resolution": N, "case": ci, "residual_rel": rel, "weak_quasinorm": w,
                   "remainder_ratio": ratio, "ok": rel <= tol}
                  for ci, (rel, w, ratio) in enumerate(zip(rels, weak, ratios))]
        sups[N] = _sup(ratios)
    drift, gates = _drift_gate(cfg, {"remainder_drift": list(sups.values())})
    summary = {"alpha": alpha, "remainder_sups": {str(N): sups[N] for N in sups},
               **drift, "tolerance": tol}
    worst = _sup([case["residual_rel"] for case in cases])
    return cases, summary, gates + [Gate("max_residual_rel", worst, tol, "<=")]


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
SUITES = tuple(_SUITE_FUNCS)


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
        if not math.isfinite(obj):
            return json.dumps(float(obj))  # NaN, Infinity, -Infinity: json.loads reads them
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
        text = _canonical_json(asdict(report)) + "\n"
    elif format == "csv":
        cols = CSV_SCHEMAS.get(report.suite) or sorted({k for case in report.cases for k in case})
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
    """Rebuild a report from its canonical JSON text (or a path to it); text
    that is not a report raises UsageError."""
    is_path = os.path.exists(source)
    try:
        text = Path(source).read_text() if is_path else source
        report = ExperimentReport(**{"schema_version": "?", **json.loads(text)})
        if not all(isinstance(case, dict) for case in report.cases):
            raise TypeError("cases is not a list of objects")
        return report
    except (ValueError, TypeError) as exc:
        what = f"report file {source}" if is_path else f"report text {source[:40]!r}"
        raise UsageError(f"{what} is not a torwave report: {exc!r}") from None
