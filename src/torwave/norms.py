"""Norm and quasinorm estimators for Lebesgue, oscillation and Hardy-type spaces.

Oscillation suprema run over all grid-representable dyadic cubes; on the unit
torus the whole domain is the single cube of measure >= 1, which is how the
local oscillation space degenerates here (recorded in the report method).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .core import DyadicCube, SampledFunction, distance_field, grid_level
from .errors import ConfigurationError, DomainError
from .wavelets import (WaveletBasis, analyze_batch, coarse_projection_batch,
                       default_coarse_level, square_function_batch)

OSCILLATION_MODES = ("BMO", "BMOplus", "bmo", "BMOlog")
HARDY_MODES = ("H1_square", "H1_maximal", "h1", "Hlog")


@dataclass(frozen=True)
class NormReport:
    """One computed norm value together with the estimator that produced it."""

    space: str
    value: float
    method: str
    resolution: int

    def to_dict(self) -> dict:
        return asdict(self)


def _finite_input(value: float, f: SampledFunction, what: str) -> float:
    """`value`, unless it is non-finite because a sample is: DomainError then.

    Finite input is not scanned, so it pays nothing for the check.
    """
    if not math.isfinite(value) and not np.isfinite(f.values).all():
        raise DomainError(f"{what} of non-finite samples")
    return value


def lp_norm(f: SampledFunction, p: float) -> float:
    """Grid Riemann-sum Lp norm; p = inf gives the sup norm."""
    if not p >= 1:
        raise DomainError(f"p must be >= 1, got {p}")
    a = np.abs(f.values)
    value = float(a.max()) if math.isinf(p) else float((a ** p).mean() ** (1.0 / p))
    return _finite_input(value, f, "Lp norm")


def weak_lp_quasinorm(f: SampledFunction, p: float) -> float:
    """sup over lambda of lambda * |{|f| > lambda}|^(1/p), exact for step data.

    The supremum over positive lambda is attained just below one of the
    attained values of |f|, so scanning the sorted value lattice is exact.
    """
    if not p >= 1:
        raise DomainError(f"p must be >= 1, got {p}")
    a = np.sort(np.abs(f.values).ravel())[::-1]
    if a[0] == 0.0:
        return 0.0
    measures = np.arange(1, a.size + 1) / a.size
    return _finite_input(float(np.max(a * measures ** (1.0 / p))), f, "weak Lp quasinorm")


def _level_oscillations(values: np.ndarray, level: int, dim: int) -> np.ndarray:
    """Mean oscillation (1/|I|) int_I |f - f_I| for every cube of one level,
    on the trailing `dim` axes of `values`."""
    step = values.shape[-1] >> level
    # from the end, axis 2a - 2dim counts the cubes along grid axis a, the next the cells
    blocks = values.reshape(values.shape[:values.ndim - dim] + (1 << level, step) * dim)
    inside = tuple(range(1 - 2 * dim, 0, 2))
    # np.add.reduce / count is what ndarray.mean computes, without its overhead
    means = np.add.reduce(blocks, axis=inside, keepdims=True) / step ** dim
    return np.add.reduce(np.abs(blocks - means), axis=inside) / step ** dim


def oscillation_norm_batch(values, dim: int, mode: str = "BMO") -> np.ndarray:
    """`oscillation_norm` of every grid on the trailing `dim` axes of
    `values`, as an array of the leading shape."""
    if mode not in OSCILLATION_MODES:
        raise ConfigurationError(f"unknown oscillation mode {mode!r}")
    v = np.asarray(values, dtype=float)
    J = grid_level(v.shape, dim)
    # a NaN oscillation would drop out of the running max below and read as 0
    if not np.isfinite(v).all():
        raise DomainError("oscillation norm of non-finite samples")
    grid = tuple(range(-dim, 0))
    sup = 0.0
    for level in range(0, J + 1):
        osc = _level_oscillations(v, level, dim)
        if mode == "BMOlog":
            axis = (np.arange(1 << level) + 0.5) * 2.0 ** (-level)  # cube centers
            dist = sum(np.minimum(c % 1.0, 1.0 - c % 1.0) ** 2
                       for c in np.meshgrid(*(axis,) * dim, indexing="ij"))
            osc = osc * (level * math.log(2.0) + np.log(math.e + np.sqrt(dist)))
        sup = np.maximum(sup, osc.max(axis=grid))
    if mode == "BMOplus":
        sup += np.abs(v.mean(axis=grid))
    elif mode == "bmo":
        # the only torus cube of measure >= 1 is the whole domain
        sup += np.abs(v).mean(axis=grid)
    return sup


def oscillation_norm(f: SampledFunction, mode: str = "BMO") -> float:
    """Dyadic-cube mean-oscillation norms: BMO, BMO with anchored average,
    the local variant, and the logarithmically weighted variant."""
    return float(oscillation_norm_batch(f.values, f.dim, mode))


def llog_quasinorm(f: SampledFunction, tol: float = 1e-6, max_iter: int = 200) -> float:
    """Luxemburg-type quasinorm with the weight log(e+|x|) + log(e+|f|/lambda).

    Found by bisection on lambda; the defining integral at the returned value
    lies within `tol` of 1 unless f is identically zero.  The integral depends
    on |f| / lambda only, so lambda scales with |f|: the bisection runs on
    |f| / max|f|, whose mean can neither overflow nor underflow, and the
    result is scaled back.
    """
    a = np.abs(f.values)
    if not a.any():
        return 0.0
    top = _finite_input(float(a.max()), f, "Llog quasinorm")
    a = a / top
    dist = distance_field(f.dim, f.resolution, (0.0,) * f.dim)
    logx = np.log(math.e + dist)

    def integral(lam: float) -> float:
        r = a / lam
        return float((r / (logx + np.log(math.e + r))).mean())

    hi = float(a.mean())
    while integral(hi) >= 1.0:
        hi *= 2.0
    lo = hi / 2.0
    while integral(lo) < 1.0:
        lo /= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        val = integral(mid)
        if abs(val - 1.0) <= tol:
            return mid * top
        if val > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * top


def hardy_square_batch(values, basis: WaveletBasis, coarse_level: int | None,
                       dim: int) -> tuple[np.ndarray, np.ndarray]:
    """`hardy_square_parts` of every grid on the trailing axes of `values`,
    as two arrays of the leading shape; the L1 means are taken per case."""
    j0 = default_coarse_level(basis) if coarse_level is None else coarse_level
    coeffs = analyze_batch(values, basis, j0, dim)
    grids = coeffs.shape[coeffs.ndim - dim:]
    square = square_function_batch(coeffs, j0, dim).reshape((-1,) + grids)
    coarse = coarse_projection_batch(coeffs, basis, j0, dim).reshape((-1,) + grids)
    batch = coeffs.shape[:coeffs.ndim - dim]
    return (np.reshape([lp_norm(SampledFunction(w), 1.0) for w in square], batch),
            np.reshape([float(np.abs(p).mean()) for p in coarse], batch))


def hardy_square_parts(f: SampledFunction, basis: WaveletBasis,
                       coarse_level: int | None = None) -> tuple[float, float]:
    """(detail, coarse) L1 masses of the square-function Hardy estimator.

    The coarse part is the L1 norm of the sampled coarse scaling projection;
    a genuinely cancellative input has a negligible coarse part.
    """
    detail, coarse = hardy_square_batch(f.values, basis, coarse_level, f.dim)
    return float(detail), float(coarse)


def hardy_norm(f: SampledFunction, mode: str, basis: WaveletBasis | None = None,
               coarse_level: int | None = None, maximal=None) -> float:
    """Hardy-scale estimators: wavelet square function, grand/local maximal
    function L1 norms, and the log-weighted maximal quasinorm."""
    if mode not in HARDY_MODES:
        raise ConfigurationError(f"unknown hardy mode {mode!r}")
    if mode == "H1_square":
        if basis is None:
            raise ConfigurationError("H1_square needs a wavelet basis")
        detail, coarse = hardy_square_parts(f, basis, coarse_level)
        return detail + coarse
    from .sublinear import maximal_function  # local import to avoid a cycle
    if mode == "H1_maximal":
        return lp_norm(maximal_function(f, local=False, operator=maximal), 1.0)
    if mode == "h1":
        return lp_norm(maximal_function(f, local=True, operator=maximal), 1.0)
    return llog_quasinorm(maximal_function(f, local=False, operator=maximal))


def norm_report(f: SampledFunction, space: str, basis: WaveletBasis | None = None,
                coarse_level: int | None = None) -> NormReport:
    """Compute one named norm and wrap it with its method description."""
    N = f.resolution
    if space.startswith(("Lp:", "weakLp:")):
        kind, _, text = space.partition(":")
        try:
            p = float(text)
        except ValueError:
            raise ConfigurationError(f"exponent of {space!r} is not a number") from None
        if kind == "Lp":
            return NormReport(space, lp_norm(f, p), f"riemann-sum-L{p:g}", N)
        return NormReport(space, weak_lp_quasinorm(f, p), "sorted-lattice-weak", N)
    if space == "Llog":
        return NormReport(space, llog_quasinorm(f), "luxemburg-bisection", N)
    if space in OSCILLATION_MODES:
        method = "dyadic-oscillation-sup"
        if space == "bmo":
            method += "[measure>=1 clause degenerates to the whole torus]"
        return NormReport(space, oscillation_norm(f, space), method, N)
    if space in HARDY_MODES:
        if space == "H1_square":
            detail, coarse = hardy_square_parts(f, basis, coarse_level)
            method = f"wavelet-square/{basis.family}{basis.order}"
            if coarse > 1e-8 * (1.0 + detail):
                method += f"[coarse part {coarse:.3g} flagged]"
            return NormReport(space, detail + coarse, method, N)
        return NormReport(space, hardy_norm(f, space), "maximal-dictionary", N)
    raise ConfigurationError(f"unknown space {space!r}")


@dataclass(frozen=True)
class AtomCheck:
    """Outcome of a classical/weighted atom validation."""

    ok: bool
    failed_clause: str
    support_leak: float
    size_norm: float
    size_budget: float
    mean_abs: float
    weighted_mean_abs: float | None

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "atom ok"
        return f"atom fails clause {self.failed_clause}"


def validate_atom(f: SampledFunction, Q: DyadicCube, q: float,
                  b: SampledFunction | None = None) -> AtomCheck:
    """Check support in Q, the Lq size bound and the cancellation clauses."""
    if not 1 < q:
        raise DomainError(f"q must lie in (1, inf], got {q}")
    outside = f.values.copy()
    outside[Q.grid_slices(f.resolution)] = 0.0
    support_leak = float(np.max(np.abs(outside)))
    size = lp_norm(f, q)
    budget = Q.measure ** (1.0 / q - 1.0) if not math.isinf(q) else 1.0 / Q.measure
    mean_abs = abs(f.integral())
    wmean = abs((f * b).integral()) if b is not None else None
    failed = ""
    if support_leak > 1e-12 * (1.0 + size):
        failed = "i (support)"
    elif size > budget * (1.0 + 1e-10):
        failed = "ii (size)"
    elif mean_abs > 1e-10:
        failed = "iii (cancellation)"
    elif wmean is not None and wmean > 1e-10:
        failed = "iii (weighted cancellation)"
    return AtomCheck(failed == "", failed, support_leak, size, budget, mean_abs, wmean)
