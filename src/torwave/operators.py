"""Singular and fractional integral operators on the torus.

Multiplier operators act through the FFT on integer frequencies; real output
is enforced by taking the real part, which Hermitian-symmetrizes the symbol
at the self-conjugate Nyquist bins.  Wavelet-basis matrices hold grid inner
products of transformed wavelets against the basis, and the scale-and-distance
envelope machinery bounds their entries.

A wavelet matrix is three COO arrays: entry i is <T psi_rows[i], psi_cols[i]>,
each wavelet named by its flat position in the `(2^stop,)*dim` coefficient array
(Mallat's layout, stop ending the level range), which fixes its level,
orientation and offset.  `p_delta` takes its powers on Python floats, i.e. libm
`pow`: `np.power` differs in the last bit on a few percent of matrix entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DyadicCube, SampledFunction, frequency_grid, grid_cases, torus_delta
from .errors import (ConfigurationError, ContractError, DomainError, ResolutionError,
                     ShapeError, UsageError)
from .samples import random_bmo, random_classical_atom, random_cube
from .sublinear import grand_maximal, lusin_area
from .wavelets import (CoefficientTree, WaveletBasis, _circular_shifts, analyze,
                       detail_cubes, detail_positions, mother_wavelet, sigma_set)

MATRIX_ENTRY_FLOOR = 1e-14


class MultiplierOperator:
    """Linear Fourier multiplier operator with a derivable adjoint.

    `apply` takes a sampled function, or an array whose trailing `dim` axes
    are (N,)*dim grids under any leading (batch) shape; it transforms the
    trailing axes only, so row i of a batched result equals the operator
    applied to row i alone: bit for bit for finite input, and for non-finite
    input at the same NaN positions, though a NaN's sign bit may differ.
    The symbol array of each resolution is computed once and kept read-only.
    """

    is_linear = True

    def __init__(self, name: str, symbol, dim: int, bound: float | None = 1.0,
                 unbounded_at_zero: bool = False):
        self.name = name
        self.symbol = symbol
        self.dim = dim
        self.bound = bound
        self.unbounded_at_zero = unbounded_at_zero
        self._symbols = {}

    def symbol_array(self, resolution: int) -> np.ndarray:
        if resolution in self._symbols:
            return self._symbols[resolution]
        k = frequency_grid(self.dim, resolution)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.array(self.symbol(*k), dtype=complex)
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
        s.flags.writeable = False
        self._symbols[resolution] = s
        return s

    def apply(self, f):
        """T f for a SampledFunction; for an array, T of every grid on its
        trailing axes, returned as an array."""
        values, dim, J, single = grid_cases(f, self.dim)
        if dim != self.dim:
            raise ShapeError(f"{self.name} acts in dimension {self.dim}, input has {dim}")
        axes = tuple(range(-self.dim, 0))
        # one complex buffer, transformed and multiplied in place
        spectrum = np.fft.fftn(values, axes=axes, out=np.empty(values.shape, complex))
        spectrum *= self.symbol_array(1 << J)
        out = np.fft.ifftn(spectrum, axes=axes, out=spectrum).real
        return SampledFunction(out) if single else out

    def adjoint(self) -> "MultiplierOperator":
        orig = self.symbol
        return MultiplierOperator(
            self.name + "*", lambda *k: np.conj(orig(*k)), self.dim,
            bound=self.bound, unbounded_at_zero=self.unbounded_at_zero)

    def __repr__(self):
        return f"MultiplierOperator({self.name}, dim={self.dim})"


def require_linear(T, hint: str) -> None:
    """ContractError (with `hint`) unless T is linear, and ContractError
    unless it has an `apply` on sampled functions and stacks of them."""
    if not getattr(T, "is_linear", False):
        raise ContractError(hint)
    if not callable(getattr(T, "apply", None)):
        raise ContractError(
            f"{getattr(T, 'name', 'T')} has no apply on sampled functions "
            "(a wavelet matrix acts on coefficient trees through apply_tree)")


# -- stock operators ---------------------------------------------------------

def parse_operator(spec: str, dim: int, resolution: int):
    """The operator named by `spec` in dimension `dim` on an N = `resolution` grid.

    The grammar is `identity`, `hilbert` (dim 1), `riesz<j>` (1 <= j <= dim),
    `ifrac:<alpha>` (0 < alpha < dim), `maximal` and `lusin`; anything else
    raises a TorwaveError.  Every operator's `name` is its spec.  Linear
    operators ignore `resolution`; `maximal` and `lusin` are the cached
    `grand_maximal` and `lusin_area` of the grid.
    """
    if spec == "maximal":
        return grand_maximal(dim, resolution)
    if spec == "lusin":
        return lusin_area(dim, resolution)
    if spec == "identity":
        return MultiplierOperator(spec, lambda *k: np.ones_like(k[0], dtype=complex), dim)
    if spec in ("hilbert", "riesz1") and dim == 1:
        # the sign symbol, whose k = 0 entry (0, -0.0) the Riesz formula gives as (0, +0.0)
        return MultiplierOperator(spec, lambda k: -1j * np.sign(k), 1)
    if spec.startswith("riesz") and spec[5:] in [str(j) for j in range(1, dim + 1)]:
        axis = int(spec[5:]) - 1

        def riesz(*k):
            norm = np.sqrt(sum(ki ** 2 for ki in k))
            s = -1j * k[axis] / norm
            s[norm == 0] = 0.0
            return s

        return MultiplierOperator(spec, riesz, dim)
    if spec.startswith("ifrac:"):
        try:
            alpha = float(spec[6:])
        except ValueError:
            raise UsageError(f"operator {spec!r}: alpha is not a number") from None
        if not 0 < alpha < dim:
            raise DomainError(f"alpha must lie in (0, dim), got {alpha} with dim={dim}")

        def ifrac(*k):
            return (2.0 * math.pi * np.sqrt(sum(ki ** 2 for ki in k))) ** (-alpha) + 0j

        return MultiplierOperator(spec, ifrac, dim, bound=None, unbounded_at_zero=True)
    raise UsageError(f"unknown operator {spec!r} in dimension {dim} (use identity, "
                     "hilbert, riesz<j>, ifrac:<alpha>, maximal or lusin)")


# ---------------------------------------------------------------------------
# wavelet-basis matrices
# ---------------------------------------------------------------------------

class WaveletMatrixOperator:
    """Wavelet-pair inner products of a transformed basis as COO arrays."""

    is_linear = True

    def __init__(self, name: str, dim: int, levels: range, rows, cols, values):
        self.name = name
        self.dim = dim
        self.levels = levels
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.values = np.asarray(values, dtype=float)
        # the positions unravelled here hold in every tree with these levels
        self.coeff_shape = (1 << levels.stop,) * dim

    def transpose(self) -> "WaveletMatrixOperator":
        return WaveletMatrixOperator(self.name + "^T", self.dim, self.levels,
                                     self.cols, self.rows, self.values)

    def apply_tree(self, tree: CoefficientTree) -> CoefficientTree:
        """Apply the matrix to detail coefficients within the level range."""
        if tree.dim != self.dim or not (tree.coarse_level <= self.levels.start
                                        and self.levels.stop <= tree.finest_level):
            raise ShapeError(f"{self!r} does not fit {tree!r}")
        out = np.zeros_like(tree.coeffs)
        c = tree.coeffs[np.unravel_index(self.rows, self.coeff_shape)]
        keep = c != 0.0
        # unbuffered and in entry order, so repeated targets add up as a loop would
        np.add.at(out, np.unravel_index(self.cols[keep], self.coeff_shape),
                  self.values[keep] * c[keep])
        return CoefficientTree(out, tree.coarse_level)

    def to_triplets(self) -> str:
        """Sorted text rows 'row-key col-key value' for external inspection."""
        keys = [[(f"{j}:" + ",".join(map(str, k)), "".join(map(str, s)))
                 for j, s, k in zip(*(a.tolist() for a in detail_cubes(flat, self.coeff_shape)))]
                for flat in (self.rows, self.cols)]
        rows = sorted(zip(*keys, self.values.tolist()), key=lambda r: r[:2])
        return "\n".join(f"{rk}:s{rs} {ck}:s{cs} {v:.17g}" for (rk, rs), (ck, cs), v in rows)

    def __repr__(self):
        return (f"WaveletMatrixOperator({self.name}, levels={self.levels.start}"
                f"..{self.levels.stop - 1}, nnz={self.values.size})")


def wavelet_matrix(op, basis: WaveletBasis, levels: range, dim: int,
                   resolution: int) -> WaveletMatrixOperator:
    """Assemble grid inner products of op applied to every basis wavelet.

    The wavelets of the level range form one stack, which goes through
    `op.apply` and `analyze` once.  Entries below 1e-14 are dropped to
    keep the table sparse.
    """
    require_linear(op, f"{getattr(op, 'name', 'op')} is not linear; a wavelet matrix "
                       "needs a linear operator")
    J = int(resolution).bit_length() - 1
    if levels.stop > J or levels.start < 0 or len(levels) == 0:
        raise ResolutionError(f"level range {levels} incompatible with resolution {resolution}")
    index = detail_positions(levels, dim)
    # the wavelets of one band, cube offsets in raster order as in `index`:
    # the mother wavelet rolled by offset * N / 2^j cells, as `sampled_wavelet` does
    psi = np.concatenate([
        _circular_shifts(mother_wavelet(basis, dim, J, j, s),
                         np.indices((1 << j,) * dim).reshape(dim, -1).T << (J - j))
        for j in levels for s in sigma_set(dim)])
    coeffs = analyze(op.apply(psi), basis, levels.start, dim)
    block = coeffs[(slice(None),) + np.unravel_index(index, (1 << levels.stop,) * dim)]
    rows, cols = np.nonzero(np.abs(block) >= MATRIX_ENTRY_FLOOR)
    return WaveletMatrixOperator(getattr(op, "name", "op"), dim, levels,
                                 index[rows], index[cols], block[rows, cols])


# ---------------------------------------------------------------------------
# almost-diagonal envelopes
# ---------------------------------------------------------------------------

def p_delta(level, offset, level2, offset2, delta: float):
    """Scale-and-distance decay profile between dyadic cubes given by broadcast
    arrays of levels and per-axis offsets (last axis), with the geodesic torus
    metric between the cube centers; a float for one pair of cubes.

    The two powers go through libm `pow` once per distinct value, not once
    per entry: the level gap takes a handful of values and the distance
    ratio a few hundred even on tens of thousands of cube pairs, so each
    power is taken on the sorted distinct values (`np.unique`) and gathered
    back.  Every entry gets the same operations on the same value as an
    entrywise loop, so the result is bitwise the same."""
    offset, offset2 = np.asarray(offset), np.asarray(offset2)
    if offset.ndim == 0 or offset2.ndim == 0 or offset.shape[-1:] != offset2.shape[-1:]:
        raise ShapeError("cubes of different dimensions")
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    n = offset.shape[-1]
    j, j2 = np.asarray(level), np.asarray(level2)
    try:
        np.broadcast_shapes(j.shape, j2.shape, offset.shape[:-1], offset2.shape[:-1])
    except ValueError:
        raise ShapeError(f"cube arrays of shapes {j.shape}, {offset.shape}, {j2.shape} and "
                         f"{offset2.shape} do not broadcast") from None
    if (any(a.dtype.kind not in "iu" for a in (j, j2, offset, offset2))
            or np.any(j < 0) or np.any(j2 < 0)):
        raise DomainError("cubes need integer offsets and integer levels >= 0")
    side, side2 = np.ldexp(1.0, -j), np.ldexp(1.0, -j2)
    sides = side + side2
    d = torus_delta((offset + 0.5) * side[..., None], (offset2 + 0.5) * side2[..., None])
    ratio = sides / (sides + np.sqrt(np.sum(d ** 2, axis=-1)))
    del side, side2, sides, d  # np.unique below needs room for a few copies of ratio
    gap = np.abs(j - j2)
    power = np.frompyfunc(pow, 2, 1)  # on Python floats, as the module docstring says
    scale = _per_distinct(gap, lambda g: np.asarray(
        power(2.0, -g * (delta / 2.0 + n / 2.0)), float) / (1.0 + g ** 2))
    decay = _per_distinct(ratio, lambda r: np.asarray(power(r, n + delta / 2.0), float))
    return (scale * decay)[()]


def _per_distinct(x: np.ndarray, f):
    """`f(x)` for an elementwise `f`, evaluated once on the distinct values of
    `x` and gathered back to its shape; a 0-d `x` goes to `f` as it is."""
    if x.ndim == 0:
        return f(x)
    values, at = np.unique(x, return_inverse=True)
    return f(values)[at.reshape(x.shape)]


@dataclass(frozen=True)
class PdeltaEnvelope:
    """Smallest envelope constant for a wavelet matrix and where it is attained."""

    delta: float
    fitted_C: float
    worst_pair: tuple


def almost_diagonal_envelope_fit(matrix: WaveletMatrixOperator,
                                 delta: float) -> PdeltaEnvelope:
    """Fit the smallest C with |entry| <= C * p_delta over all stored entries.

    A matrix whose stored entries are all zero (or dropped) fits C = 0; a
    matrix without an index set is rejected.
    """
    if not isinstance(matrix, WaveletMatrixOperator):
        raise ConfigurationError("envelope fit needs a WaveletMatrixOperator")
    if len(matrix.levels) == 0:
        raise DomainError("empty matrix: no index set")
    if not matrix.values.size:
        anchor = DyadicCube(matrix.dim, matrix.levels.start, (0,) * matrix.dim)
        key = (anchor, sigma_set(matrix.dim)[0])
        return PdeltaEnvelope(delta, 0.0, (key, key))
    (j, s, k), (j2, s2, k2) = (detail_cubes(flat, matrix.coeff_shape)
                               for flat in (matrix.rows, matrix.cols))
    ratios = np.abs(matrix.values) / p_delta(j, k, j2, k2, delta)
    i = int(np.argmax(ratios))
    worst = tuple((DyadicCube(matrix.dim, int(lv[i]), off[i]), tuple(sig[i].tolist()))
                  for lv, sig, off in ((j, s, k), (j2, s2, k2)))
    return PdeltaEnvelope(delta, float(ratios[i]), worst)


def pdelta_composition_check(levels: range, delta: float, samples: int,
                             dim: int = 1, seed: int = 0) -> float:
    """Max over sampled cube pairs of sum_I'' p(I,I'')p(I',I'') / p(I,I')."""
    if len(levels) == 0:
        raise DomainError("empty level range")
    if levels.start < 0:
        raise DomainError(f"levels must be >= 0, got {levels}")
    rng = np.random.default_rng(seed)
    mids = [np.indices((1 << j,) * dim).reshape(dim, -1).T for j in levels]
    mids = (np.repeat(levels, [len(k) for k in mids]), np.concatenate(mids))
    worst = 0.0
    for _ in range(samples):
        I = random_cube(rng, dim, levels.start, levels.stop - 1)
        I2 = random_cube(rng, dim, levels.start, levels.stop - 1)
        terms = (p_delta(I.level, I.offset, *mids, delta)
                 * p_delta(I2.level, I2.offset, *mids, delta))
        # Python's sum adds left to right; np.sum adds pairwise and rounds otherwise
        total = sum(terms.tolist())
        worst = max(worst, total / p_delta(I.level, I.offset, I2.level, I2.offset, delta))
    return float(worst)


# ---------------------------------------------------------------------------
# membership-style ratio experiment for operators acting on atoms
# ---------------------------------------------------------------------------

def k_class_image(b: SampledFunction, Q: DyadicCube, Ta: SampledFunction) -> SampledFunction:
    """(b - b_Q) T a, where b_Q is the mean of b on the cube Q."""
    b_Q = float(b.values[Q.grid_slices(b.resolution)].mean())
    return SampledFunction((b.values - b_Q) * Ta.values)


def k_class_ratio(T, atoms: int, b_samples: int, seed: int, dim: int = 1,
                  resolution: int = 512) -> float:
    """sup of ||(b - b_Q) T a||_L1 over random atoms a on Q and unit-BMO b."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(atoms):
        a, Q = random_classical_atom(rng, dim, resolution)
        Ta = T.apply(a)
        # one stack of b_samples draws, equal to that many one-row draws from rng
        for b in random_bmo([rng] * b_samples, dim, resolution):
            image = k_class_image(SampledFunction(b), Q, Ta)
            worst = max(worst, float(np.abs(image.values).mean()))
    return worst
