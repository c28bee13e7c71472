"""Singular and fractional integral operators on the torus.

Multiplier operators act through the FFT on integer frequencies; real output
is enforced by taking the real part, which Hermitian-symmetrizes the symbol
at the self-conjugate Nyquist bins.  Wavelet-basis matrices hold grid inner
products of transformed wavelets against the basis, and the scale-and-distance
envelope machinery bounds their entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .core import DyadicCube, SampledFunction, torus_distance
from .errors import ConfigurationError, DomainError, ResolutionError, ShapeError
from .wavelets import (CoefficientTree, WaveletBasis, analyze, coeff_index,
                       sampled_wavelet, sigma_set)

MATRIX_ENTRY_FLOOR = 1e-14


@lru_cache(maxsize=64)
def frequency_grid(dim: int, resolution: int) -> tuple[np.ndarray, ...]:
    """Integer FFT frequencies per axis, meshgridded to the full shape."""
    k = np.fft.fftfreq(resolution, d=1.0 / resolution)
    if dim == 1:
        return (k,)
    return tuple(np.meshgrid(k, k, indexing="ij"))


class MultiplierOperator:
    """Linear Fourier multiplier operator with a derivable adjoint."""

    is_linear = True

    def __init__(self, name: str, symbol, dim: int, delta: float = 1.0,
                 bound: float | None = 1.0, unbounded_at_zero: bool = False):
        self.name = name
        self.symbol = symbol
        self.dim = dim
        self.delta = float(delta)
        self.bound = bound
        self.unbounded_at_zero = unbounded_at_zero

    def symbol_array(self, resolution: int) -> np.ndarray:
        k = frequency_grid(self.dim, resolution)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.asarray(self.symbol(*k), dtype=complex)
        origin = (0,) * self.dim
        if self.unbounded_at_zero:
            s[origin] = 0.0
        elif not np.isfinite(s[origin]):
            raise ConfigurationError(
                f"{self.name}: symbol is singular at frequency zero; "
                "flag it unbounded_at_zero to impose symbol(0)=0")
        if not np.all(np.isfinite(s)):
            raise ConfigurationError(f"{self.name}: symbol not finite on the grid")
        if self.bound is not None and np.max(np.abs(s)) > self.bound * (1 + 1e-12):
            raise ConfigurationError(
                f"{self.name}: symbol exceeds its declared bound {self.bound}")
        return s

    def apply(self, f: SampledFunction) -> SampledFunction:
        if f.dim != self.dim:
            raise ShapeError(f"{self.name} acts in dimension {self.dim}, input has {f.dim}")
        s = self.symbol_array(f.resolution)
        out = np.fft.ifftn(np.fft.fftn(f.values) * s).real
        return SampledFunction(out)

    def adjoint(self) -> "MultiplierOperator":
        orig = self.symbol
        return MultiplierOperator(
            self.name + "*", lambda *k: np.conj(orig(*k)), self.dim,
            delta=self.delta, bound=self.bound,
            unbounded_at_zero=self.unbounded_at_zero)

    def __repr__(self):
        return f"MultiplierOperator({self.name}, dim={self.dim})"


# -- stock operators ---------------------------------------------------------

def identity_operator(dim: int = 1) -> MultiplierOperator:
    return MultiplierOperator("identity", lambda *k: np.ones_like(k[0], dtype=complex),
                              dim, delta=1.0, bound=1.0)


def hilbert_operator() -> MultiplierOperator:
    return MultiplierOperator("hilbert", lambda k: -1j * np.sign(k), 1,
                              delta=1.0, bound=1.0)


def riesz_operator(axis: int, dim: int = 2) -> MultiplierOperator:
    if not 0 <= axis < dim:
        raise ConfigurationError(f"riesz axis {axis} outside dimension {dim}")
    if dim == 1:
        return MultiplierOperator("riesz1", lambda k: -1j * np.sign(k), 1,
                                  delta=1.0, bound=1.0)

    def symbol(*k):
        norm = np.sqrt(sum(ki ** 2 for ki in k))
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -1j * k[axis] / norm
        s[norm == 0] = 0.0
        return s

    return MultiplierOperator(f"riesz{axis + 1}", symbol, dim, delta=1.0, bound=1.0)


def fractional_integral_operator(alpha: float, dim: int = 1) -> MultiplierOperator:
    if not 0 < alpha < dim:
        raise DomainError(f"alpha must lie in (0, dim), got {alpha} with dim={dim}")

    def symbol(*k):
        norm = np.sqrt(sum(ki ** 2 for ki in k))
        with np.errstate(divide="ignore"):
            return (2.0 * math.pi * norm) ** (-alpha) + 0j

    return MultiplierOperator(f"ifrac{alpha:g}", symbol, dim, delta=1.0,
                              bound=None, unbounded_at_zero=True)


# ---------------------------------------------------------------------------
# wavelet-basis matrices
# ---------------------------------------------------------------------------

def _level_cubes(dim: int, level: int) -> list:
    return [DyadicCube(dim, level, offset)
            for offset in product(range(1 << level), repeat=dim)]


def _basis_index(dim: int, levels):
    for level in levels:
        for s in sigma_set(dim):
            for cube in _level_cubes(dim, level):
                yield cube, s


class WaveletMatrixOperator:
    """Sparse table of wavelet-pair inner products of a transformed basis."""

    is_linear = True
    kind = "wavelet_matrix"

    def __init__(self, name: str, dim: int, levels: range, entries: dict,
                 delta: float = 1.0):
        self.name = name
        self.dim = dim
        self.levels = levels
        self.entries = dict(entries)
        self.delta = float(delta)

    def transpose(self) -> "WaveletMatrixOperator":
        flipped = {(col, row): v for (row, col), v in self.entries.items()}
        return WaveletMatrixOperator(self.name + "^T", self.dim, self.levels,
                                     flipped, self.delta)

    def apply_tree(self, tree: CoefficientTree) -> CoefficientTree:
        """Apply the matrix to detail coefficients within the level range."""
        if tree.dim != self.dim or not (tree.coarse_level <= self.levels.start
                                        and self.levels.stop <= tree.finest_level):
            raise ShapeError(f"{self!r} does not fit {tree!r}")
        out = np.zeros_like(tree.coeffs)
        for (src, dst), v in self.entries.items():
            c = tree.coeffs[coeff_index(*src)]
            if c != 0.0:
                out[coeff_index(*dst)] += v * c
        return CoefficientTree(out, tree.coarse_level)

    def to_triplets(self) -> str:
        """Sorted text rows 'row-key col-key value' for external inspection."""
        rows = []
        for (src, dst), v in self.entries.items():
            rows.append(((src[0].key(), src[1], dst[0].key(), dst[1]), v))
        rows.sort(key=lambda r: r[0])
        return "\n".join(
            f"{rk}:s{''.join(map(str, rs))} {ck}:s{''.join(map(str, cs))} {v:.17g}"
            for (rk, rs, ck, cs), v in rows)

    def __repr__(self):
        return (f"WaveletMatrixOperator({self.name}, levels={self.levels.start}"
                f"..{self.levels.stop - 1}, nnz={len(self.entries)})")


def wavelet_matrix(op, basis: WaveletBasis, levels: range, dim: int,
                   resolution: int) -> WaveletMatrixOperator:
    """Assemble grid inner products of op applied to every basis wavelet.

    Entries below 1e-14 are dropped to keep the table sparse.
    """
    J = int(resolution).bit_length() - 1
    if levels.stop > J or levels.start < 0 or len(levels) == 0:
        raise ResolutionError(f"level range {levels} incompatible with resolution {resolution}")
    j0 = levels.start
    index = list(_basis_index(dim, levels))
    # per-axis positions of every basis coefficient in a coefficient array
    at = tuple(np.array(axis) for axis in zip(*(coeff_index(*key) for key in index)))
    entries = {}
    for key in index:
        psi = SampledFunction(sampled_wavelet(basis, J, *key))
        col = analyze(op.apply(psi), basis, j0).coeffs[at]
        for i in np.flatnonzero(np.abs(col) >= MATRIX_ENTRY_FLOOR):
            entries[(key, index[i])] = float(col[i])
    return WaveletMatrixOperator(getattr(op, "name", "op"), dim, levels, entries,
                                 delta=getattr(op, "delta", 1.0))


# ---------------------------------------------------------------------------
# almost-diagonal envelopes
# ---------------------------------------------------------------------------

def p_delta(I: DyadicCube, I2: DyadicCube, delta: float) -> float:
    """Scale-and-distance decay profile between two dyadic cubes.

    Uses the geodesic torus metric between the cube centers.
    """
    if I.dim != I2.dim:
        raise ShapeError("cubes of different dimensions")
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    n = I.dim
    j, j2 = I.level, I2.level
    sides = 2.0 ** (-j) + 2.0 ** (-j2)
    dist = torus_distance(I.center, I2.center)
    scale = 2.0 ** (-abs(j - j2) * (delta / 2.0 + n / 2.0)) / (1.0 + (j - j2) ** 2)
    return scale * (sides / (sides + dist)) ** (n + delta / 2.0)


@dataclass(frozen=True)
class PdeltaEnvelope:
    """Smallest envelope constant for a wavelet matrix and where it is attained."""

    delta: float
    fitted_C: float
    worst_pair: tuple

    def to_dict(self):
        (cube, s), (cube2, s2) = self.worst_pair
        return {"delta": self.delta, "fitted_C": self.fitted_C,
                "worst_row": cube.key(), "worst_col": cube2.key()}


def almost_diagonal_envelope_fit(matrix: WaveletMatrixOperator,
                                 delta: float) -> PdeltaEnvelope:
    """Fit the smallest C with |entry| <= C * p_delta over all stored entries.

    A matrix whose stored entries are all zero (or dropped) fits C = 0; a
    matrix without an index set is rejected.
    """
    if getattr(matrix, "kind", None) != "wavelet_matrix":
        raise ConfigurationError("envelope fit needs a wavelet_matrix operator")
    if len(matrix.levels) == 0:
        raise DomainError("empty matrix: no index set")
    if not matrix.entries:
        anchor = DyadicCube(matrix.dim, matrix.levels.start, (0,) * matrix.dim)
        key = (anchor, sigma_set(matrix.dim)[0])
        return PdeltaEnvelope(delta, 0.0, (key, key))
    best = -1.0
    worst = None
    for (src, dst), v in matrix.entries.items():
        ratio = abs(v) / p_delta(src[0], dst[0], delta)
        if ratio > best:
            best = ratio
            worst = (src, dst)
    return PdeltaEnvelope(delta, best, worst)


def pdelta_composition_check(levels: range, delta: float, samples: int,
                             dim: int = 1, seed: int = 0) -> float:
    """Max over sampled cube pairs of sum_I'' p(I,I'')p(I',I'') / p(I,I')."""
    if len(levels) == 0:
        raise DomainError("empty level range")
    from .samples import random_cube  # late to avoid cycle
    rng = np.random.default_rng(seed)
    mids = [cube for level in levels for cube in _level_cubes(dim, level)]
    worst = 0.0
    for _ in range(samples):
        I = random_cube(rng, dim, levels.start, levels.stop - 1)
        I2 = random_cube(rng, dim, levels.start, levels.stop - 1)
        total = sum(p_delta(I, mid, delta) * p_delta(I2, mid, delta) for mid in mids)
        worst = max(worst, total / p_delta(I, I2, delta))
    return worst


# ---------------------------------------------------------------------------
# membership-style ratio experiment for operators acting on atoms
# ---------------------------------------------------------------------------

def k_class_ratio(T, atoms: int, b_samples: int, seed: int, dim: int = 1,
                  resolution: int = 512) -> float:
    """sup of ||(b - b_Q) T a||_L1 over random atoms a on Q and unit-BMO b."""
    from .samples import random_classical_atom, random_bmo  # late to avoid cycle
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(atoms):
        a, Q = random_classical_atom(rng, dim, resolution)
        Ta = T.apply(a)
        for _ in range(b_samples):
            b = random_bmo(rng, dim, resolution)
            b_Q = float(b.values[Q.grid_slices(resolution)].mean())
            val = float((np.abs((b.values - b_Q) * Ta.values)).mean())
            worst = max(worst, val)
    return worst
