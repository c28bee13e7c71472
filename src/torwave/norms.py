"""Norm and quasinorm estimators for Lebesgue, oscillation and Hardy-type spaces.

Oscillation suprema run over all grid-representable dyadic cubes; on the unit
torus the whole domain is the single cube of measure >= 1, which is how the
local oscillation space degenerates here (recorded in the report method).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DyadicCube, SampledFunction, distance_field, grid_cases, sup_norm
from .errors import ConfigurationError, DomainError
from .sublinear import grand_maximal
from .wavelets import (WaveletBasis, analyze, coarse_projection, default_coarse_level,
                       wavelet_square_function)

OSCILLATION_MODES = ("BMO", "BMOplus", "bmo", "BMOlog")
HARDY_MODES = ("H1_square", "H1_maximal", "h1", "Hlog")


@dataclass(frozen=True)
class NormReport:
    """One computed norm value together with the estimator that produced it."""

    space: str
    value: float
    method: str
    resolution: int


def _finite_input(value, values: np.ndarray, what: str):
    """`value`, unless some of it is non-finite because a sample is: DomainError
    then.  Finite input is not scanned, so it pays nothing for the check."""
    if not np.isfinite(value).all() and not np.isfinite(values).all():
        raise DomainError(f"{what} of non-finite samples")
    return value


def lp_norm(f, p: float, dim: int | None = None):
    """Grid Riemann-sum Lp norm; p = inf gives the sup norm.  For an array,
    the norm of every grid on its trailing `dim` axes, as an array of the
    leading shape; each 1/p power is libm's `pow` on a Python float."""
    if not p >= 1:
        raise DomainError(f"p must be >= 1, got {p}")
    values, dim, J, single = grid_cases(f, dim)
    a = np.abs(values).reshape(values.shape[:values.ndim - dim] + (1 << J * dim,))
    value = a.max(axis=-1) if math.isinf(p) else np.asarray(
        np.frompyfunc(pow, 2, 1)((a ** p).mean(axis=-1), 1.0 / p), float)
    value = _finite_input(value, values, "Lp norm")
    return float(value) if single else value


def weak_lp_quasinorm(f, p: float, dim: int | None = None):
    """sup over lambda of lambda * |{|f| > lambda}|^(1/p), exact for step data
    (and per grid of an array, as `lp_norm`): the supremum is attained just
    below an attained value of |f|, so scanning the sorted values is exact."""
    if not p >= 1:
        raise DomainError(f"p must be >= 1, got {p}")
    values, dim, J, single = grid_cases(f, dim)
    a = np.sort(np.abs(values).reshape(values.shape[:values.ndim - dim] + (1 << J * dim,)),
                axis=-1)[..., ::-1]
    measures = np.arange(1, a.shape[-1] + 1) / a.shape[-1]
    value = _finite_input(np.max(a * measures ** (1.0 / p), axis=-1), values,
                          "weak Lp quasinorm")
    return float(value) if single else value


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


def oscillation_norm(f, mode: str = "BMO", dim: int | None = None):
    """Dyadic-cube mean-oscillation norms: BMO, BMO with anchored average,
    the local variant, and the logarithmically weighted variant.  For an
    array, the norm of every grid on its trailing `dim` axes, as an array of
    the leading shape."""
    if mode not in OSCILLATION_MODES:
        raise ConfigurationError(f"unknown oscillation mode {mode!r}")
    v, dim, J, single = grid_cases(f, dim)
    # a NaN oscillation would drop out of the running max below and read as 0
    if not np.isfinite(v).all():
        raise DomainError("oscillation norm of non-finite samples")
    grid = tuple(range(-dim, 0))
    sup = 0.0
    for level in range(0, J + 1):
        osc = _level_oscillations(v, level, dim)
        if mode == "BMOlog":
            # the centre (k + 1/2) / 2^level of cube k lies as far from 0 as
            # grid point k / 2^level does from -1 / 2^(level + 1)
            dist = distance_field(dim, 1 << level, (-0.5 / (1 << level),) * dim)
            osc = osc * (level * math.log(2.0) + np.log(math.e + dist))
        sup = np.maximum(sup, osc.max(axis=grid))
    if mode == "BMOplus":
        sup += np.abs(v.mean(axis=grid))
    elif mode == "bmo":
        # the only torus cube of measure >= 1 is the whole domain
        sup += np.abs(v).mean(axis=grid)
    return float(sup) if single else sup


def llog_quasinorm(f: SampledFunction) -> float:
    """Luxemburg-type quasinorm with the weight log(e+|x|) + log(e+|f|/lambda).

    Found by bisection on lambda, at most 200 steps; the defining integral at
    the returned value lies within 1e-6 of 1 unless f is identically zero.
    The integral depends on |f| / lambda only, so lambda scales with |f|: the
    bisection runs on |f| / max|f|, whose mean can neither overflow nor
    underflow, and the result is scaled back.
    """
    values, dim, J, _ = grid_cases(f)  # one case only
    a = np.abs(values)
    if not a.any():
        return 0.0
    top = _finite_input(float(a.max()), a, "Llog quasinorm")
    a = a / top
    dist = distance_field(dim, 1 << J, (0.0,) * dim)
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = integral(mid)
        if abs(val - 1.0) <= 1e-6:
            return mid * top
        if val > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * top


def _square_masses(f, basis: WaveletBasis | None, coarse_level: int | None,
                   dim: int | None = None):
    """(detail, coarse) L1 masses of the square-function Hardy estimator of
    one case, or of every case of a stack as two arrays of its leading shape.
    The coarse part is the L1 norm of the sampled coarse scaling projection; a
    genuinely cancellative input has a negligible coarse part."""
    if basis is None:
        raise ConfigurationError("H1_square needs a wavelet basis")
    values, dim, _, single = grid_cases(f, dim)
    j0 = default_coarse_level(basis, coarse_level)
    # a case whose squares could overflow is analyzed at 2^-e times its size, e
    # the binary exponent of its max |sample|, and its masses are scaled back:
    # the estimator is homogeneous under powers of two, bit for bit.  The
    # whole-stack test allocates nothing: a temporary |values| on every call
    # cost a `linear_1d` benchmark pass 2.7x the minor page faults
    e = 0
    if max(values.max(initial=0.0), -values.min(initial=0.0)) > 2.0 ** 500:
        top = sup_norm(values, dim)
        e = np.where(top > 2.0 ** 500, np.frexp(top)[1], 0)
        values = np.ldexp(values, -e.reshape(e.shape + (1,) * dim))
    coeffs = analyze(values, basis, j0, dim)
    masses = (np.ldexp(lp_norm(wavelet_square_function(coeffs, j0, dim), 1.0, dim), e),
              np.ldexp(lp_norm(coarse_projection(coeffs, basis, j0, dim), 1.0, dim), e))
    return tuple(map(float, masses)) if single else masses


def hardy_norm(f, mode: str, basis: WaveletBasis | None = None,
               coarse_level: int | None = None, dim: int | None = None):
    """Hardy-scale estimators: wavelet square function, grand/local maximal
    function L1 norms, and the log-weighted maximal quasinorm.  "H1_square"
    also takes an array, as `lp_norm` does; the maximal modes take one case."""
    if mode not in HARDY_MODES:
        raise ConfigurationError(f"unknown hardy mode {mode!r}")
    if mode == "H1_square":
        detail, coarse = _square_masses(f, basis, coarse_level, dim)
        return detail + coarse
    _, dim, J, _ = grid_cases(f)  # the maximal modes take one case
    M = grand_maximal(dim, 1 << J).apply(f, local=mode == "h1")
    return llog_quasinorm(M) if mode == "Hlog" else lp_norm(M, 1.0)


def norm_report(f: SampledFunction, space: str, basis: WaveletBasis | None = None,
                coarse_level: int | None = None) -> NormReport:
    """Compute one named norm and wrap it with its method description."""
    N = 1 << grid_cases(f)[2]  # one case only
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
            detail, coarse = _square_masses(f, basis, coarse_level)
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
    outside = grid_cases(f)[0].copy()  # one case only
    outside[Q.grid_slices(f.resolution)] = 0.0
    support_leak = float(np.max(np.abs(outside)))
    size = lp_norm(f, q)
    budget = Q.measure ** (1.0 / q - 1.0)
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
