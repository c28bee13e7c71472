"""Periodized compactly supported orthonormal wavelet bases on the torus.

Coefficients follow the grid-L2 convention: a detail coefficient stored in a
tree equals the grid inner product of the function with the corresponding
discrete wavelet, and the synthesized wavelet of a unit coefficient has grid
L2 norm exactly 1.  All transforms are circular, so analysis/synthesis is an
orthogonal map and reconstruction is exact to roundoff.

A coefficient tree is one (N,)*dim array in Mallat's in-place layout.  The
scaling coefficients of the coarse level j0 fill the `[:2^j0]^dim` corner;
detail band (j, sigma) is the block `sigma_a 2^j : (sigma_a + 1) 2^j` on
each axis a (`band_index`).  `analyze` works on one copy of the samples: for
j = J-1 down to j0 it filters the `[:2^(j+1)]^dim` corner along each axis in
turn, low channel into the first half of the axis and high channel into the
second, so the corner's own `[:2^j]^dim` corner is the next level's scaling
array.  `scaling_cascade` (and with it `synthesize` and `projection_stack`)
runs the same loop backwards on one working copy, last axis first, handing
`_up` the two halves of the corner.  Neither loop depends on the dimension.

The filter-bank steps are polyphase.  Analysis (`_down`) reads tap m of every
decimated output through the strided view `pad[m : m+n : 2]` of one
wrap-padded copy.  Synthesis (`_up`) never forms the zero-stuffed upsampled
array: output entry 2k+r meets only the taps m = r (mod 2), so each pair of
taps reads one view of a circularly pre-padded copy.  `projection_stack`
carries every P_j f up a scaling-only ladder, because the detail channel of
that ladder is exactly zero; `coarse_projection` carries P_{j0} f alone.
All of them add their terms in the order of the plain per-tap circular
convolution (tap by tap, scaling before detail), so they agree with it to
the last bit; `tests/oracles.py` keeps that convolution as the reference.
The terms the zero-stuffed sum also added were all +-0.0, at least one of
them +0.0, so it never returned -0.0.  `_up` ends with `+ 0.0` to keep that
sign of zero, which the JSON case records carry.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .core import DyadicCube, SampledFunction
from .errors import ConfigurationError, DomainError, ResolutionError, ShapeError

# Detail (high-pass) filters for the standard minimum-phase Daubechies family,
# order = number of vanishing moments, filter length 2*order.
_DETAIL_TAPS = {
    1: [-0.7071067811865476, 0.7071067811865476],
    2: [-0.48296291314469025, 0.836516303737469, -0.22414386804185735,
        -0.12940952255092145],
    3: [-0.3326705529509569, 0.8068915093133388, -0.4598775021193313,
        -0.13501102001039084, 0.08544127388224149, 0.035226291882100656],
    4: [-0.23037781330885523, 0.7148465705525415, -0.6308807679295904,
        -0.02798376941698385, 0.18703481171888114, 0.030841381835986965,
        -0.032883011666982945, -0.010597401784997278],
    5: [-0.160102397974125, 0.6038292697974729, -0.7243085284385744,
        0.13842814590110342, 0.24229488706619015, -0.03224486958502952,
        -0.07757149384006515, -0.006241490213011705, 0.012580751999015526,
        0.003335725285001549],
    6: [-0.11154074335008017, 0.4946238903983854, -0.7511339080215775,
        0.3152503517092432, 0.22626469396516913, -0.12976686756709563,
        -0.09750160558707936, 0.02752286553001629, 0.031582039318031156,
        0.0005538422009938016, -0.004777257511010651, -0.00107730108499558],
    7: [-0.07785205408506236, 0.39653931948230575, -0.7291320908465551,
        0.4697822874053586, 0.14390600392910627, -0.22403618499416572,
        -0.07130921926705004, 0.0806126091510659, 0.03802993693503463,
        -0.01657454163101562, -0.012550998556013784, 0.00042957797300470274,
        0.0018016407039998328, 0.0003537138000010399],
    8: [-0.05441584224308161, 0.3128715909144659, -0.6756307362980128,
        0.5853546836548691, 0.015829105256023893, -0.2840155429624281,
        -0.00047248457399797254, 0.128747426620186, 0.01736930100202211,
        -0.04408825393106472, -0.013981027917015516, 0.008746094047015655,
        0.00487035299301066, -0.0003917403729959771, -0.0006754494059985568,
        -0.00011747678400228192],
    9: [-0.03807794736316728, 0.24383467463766728, -0.6048231236767786,
        0.6572880780366389, -0.13319738582208895, -0.29327378327258685,
        0.09684078322087904, 0.14854074933476008, -0.030725681478322865,
        -0.06763282905952399, -0.00025094711499193845, 0.022361662123515244,
        0.004723204757894831, -0.004281503681904723, -0.0018476468829611268,
        0.00023038576399541288, 0.0002519631889981789, 3.9347319995026124e-05],
    10: [-0.026670057900950818, 0.18817680007762133, -0.5272011889309198,
         0.6884590394525921, -0.2811723436604265, -0.24984642432648865,
         0.19594627437659665, 0.12736934033574265, -0.09305736460380659,
         -0.07139414716586077, 0.02945753682194567, 0.03321267405893324,
         -0.0036065535669883944, -0.010733175482979604, -0.0013953517469940798,
         0.00199240529499085, 0.0006858566950046825, -0.0001164668549943862,
         -9.358867000108985e-05, -1.326420300235487e-05],
}

MAX_DAUBECHIES_ORDER = max(_DETAIL_TAPS)


@dataclass(frozen=True, eq=False)
class WaveletBasis:
    """Quadrature-mirror filter pair with its derived metadata."""

    family: str
    order: int
    scaling_filter: np.ndarray = field(repr=False)
    detail_filter: np.ndarray = field(repr=False)
    support_factor: float
    vanishing_moments: int
    # the scaling and detail taps as the two rows of one (2, L) array
    filter_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("scaling_filter", "detail_filter"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        rows = np.stack([self.scaling_filter, self.detail_filter])
        rows.flags.writeable = False
        object.__setattr__(self, "filter_rows", rows)

    # identity is (family, order); the filters are a pure function of it
    def __eq__(self, other):
        return (isinstance(other, WaveletBasis)
                and (self.family, self.order) == (other.family, other.order))

    def __hash__(self):
        return hash((self.family, self.order))

    def __repr__(self):
        return f"WaveletBasis({self.family}, order={self.order})"


def _constraint_residuals(h: np.ndarray, order: int) -> np.ndarray:
    """Defining equations of the order-p Daubechies scaling taps (zero at solution)."""
    L = len(h)
    rows = [np.dot(h[: L - s], h[s:]) - (1.0 if s == 0 else 0.0)
            for s in range(0, L, 2)]
    rows.append(h.sum() - math.sqrt(2.0))
    g = ((-1.0) ** np.arange(L)) * h[::-1]
    k = np.arange(L) / L
    rows.extend(np.dot(k ** p, g) for p in range(order))
    return np.array(rows)


def _refine_taps(h: np.ndarray, order: int) -> np.ndarray:
    """Polish tabulated taps to machine precision by Gauss-Newton on the constraints."""
    h = h.astype(float).copy()
    for _ in range(4):
        res = _constraint_residuals(h, order)
        if np.max(np.abs(res)) < 1e-15:
            break
        jac = np.empty((len(res), len(h)))
        eps = 1e-7
        for i in range(len(h)):
            bump = np.zeros_like(h)
            bump[i] = eps
            jac[:, i] = (_constraint_residuals(h + bump, order)
                         - _constraint_residuals(h - bump, order)) / (2 * eps)
        h -= np.linalg.lstsq(jac, res, rcond=None)[0]
    return h


_REFINED_SCALING_TAPS: dict[int, np.ndarray] = {}


def _scaling_taps(order: int) -> np.ndarray:
    if order not in _REFINED_SCALING_TAPS:
        raw = np.array([(-1.0) ** (i + 1) * v
                        for i, v in enumerate(_DETAIL_TAPS[order])])
        _REFINED_SCALING_TAPS[order] = _refine_taps(raw, order)
    return _REFINED_SCALING_TAPS[order]


def build_basis(family: str, order: int) -> WaveletBasis:
    """Construct a haar or daubechies(order) basis and check its filter identities."""
    if family == "haar":
        if order != 1:
            raise ConfigurationError(f"haar admits only order 1, got order={order}")
    elif family == "daubechies":
        if order not in _DETAIL_TAPS:
            raise ConfigurationError(
                f"daubechies order must be in 1..{MAX_DAUBECHIES_ORDER}, got {order}")
    else:
        raise ConfigurationError(f"unsupported wavelet family {family!r}")

    h = _scaling_taps(1 if family == "haar" else order)
    L = len(h)
    g = np.array([(-1.0) ** m * h[L - 1 - m] for m in range(L)])

    basis = WaveletBasis(
        family=family,
        order=order,
        scaling_filter=h,
        detail_filter=g,
        support_factor=float(2 * L - 3) if L > 2 else 1.0,
        vanishing_moments=order,
    )
    _check_filters(basis)
    return basis


def _check_filters(basis: WaveletBasis):
    h, g = basis.scaling_filter, basis.detail_filter
    L = len(h)
    for shift in range(0, L, 2):
        target = 1.0 if shift == 0 else 0.0
        if abs(np.dot(h[: L - shift], h[shift:]) - target) > 1e-12:
            raise ConfigurationError(f"{basis}: filter fails orthonormality at shift {shift}")
    if abs(h.sum() - math.sqrt(2.0)) > 1e-12:
        raise ConfigurationError(f"{basis}: scaling taps do not sum to sqrt(2)")
    if abs(g.sum()) > 1e-12:
        raise ConfigurationError(f"{basis}: detail taps do not sum to 0")
    if basis.order >= 2 and abs(np.dot(np.arange(L), g)) > 1e-10:
        raise ConfigurationError(f"{basis}: first discrete moment of detail taps not 0")


def min_coarse_level(basis: WaveletBasis) -> int:
    """Smallest coarse level with exact circular orthogonality.

    The coarsest transform step circularly convolves an array of 2^(j0+1)
    entries; the filter must not wrap onto itself, i.e. len <= 2^(j0+1).
    """
    L = len(basis.scaling_filter)
    return max(0, (L - 1).bit_length() - 1)


def default_coarse_level(basis: WaveletBasis) -> int:
    return max(2, min_coarse_level(basis))


def sigma_set(dim: int) -> tuple[tuple[int, ...], ...]:
    """Detail orientations: all 0/1 tuples of length dim except all zeros."""
    if dim not in (1, 2):
        raise DomainError(f"dim must be 1 or 2, got {dim}")
    return tuple(product((0, 1), repeat=dim))[1:]


# ---------------------------------------------------------------------------
# circular filter-bank steps
# ---------------------------------------------------------------------------

def _along(ndim: int, axis: int, index) -> tuple:
    """Index tuple applying `index` on `axis` and taking everything elsewhere."""
    return (slice(None),) * axis + (index,) + (slice(None),) * (ndim - axis - 1)


def _wrap(a: np.ndarray, before: int, after: int, axis: int) -> np.ndarray:
    """`a` extended circularly by `before` leading and `after` trailing entries."""
    n = a.shape[axis]
    return np.take(a, np.arange(-before, n + after) % n, axis=axis)


def _down(a: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Circular convolution with each row of `taps`, then dyadic decimation.

    The results for the rows of the (rows, L) array `taps` are stacked on a
    new leading axis.  Tap m reads the strided view `pad[m : m+n : 2]` of one
    wrap-padded copy of `a`.
    """
    n = a.shape[axis]
    length = taps.shape[1]
    pad = _wrap(a, 0, length - 1, axis)
    col = taps.reshape(taps.shape + (1,) * a.ndim)
    acc = col[:, 0] * pad[_along(a.ndim, axis, slice(0, n, 2))]
    for m in range(1, length):
        acc += col[:, m] * pad[_along(a.ndim, axis, slice(m, m + n, 2))]
    return acc


def _up(channels: tuple, taps: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of `_down`: upsample every channel, filter it with its row of
    `taps`, and add.

    Output entry 2k+r takes only the taps m = r + 2q, applied to entry k-q of
    each channel, so both phases r of tap pair q come from one view of a
    circularly pre-padded copy.  The two phases sit on a length-2 axis after
    `axis`; the final reshape interleaves them.
    """
    first = channels[0]
    n = first.shape[axis]
    back = taps.shape[1] // 2 - 1
    phase = [1] * (first.ndim + 1)
    phase[axis + 1] = 2
    pairs = [(np.expand_dims(_wrap(c, back, 0, axis), axis + 1),
              row.reshape(-1, *phase)) for c, row in zip(channels, taps)]
    terms = (row[q] * pad[_along(first.ndim + 1, axis, slice(back - q, back - q + n))]
             for q in range(back + 1) for pad, row in pairs)
    acc = next(terms)
    for term in terms:
        acc += term
    acc += 0.0  # a zero output is +0.0, as in the zero-stuffed sum
    shape = list(first.shape)
    shape[axis] *= 2
    return acc.reshape(shape)


# ---------------------------------------------------------------------------
# coefficient trees
# ---------------------------------------------------------------------------

def band_index(level: int, sigma) -> tuple:
    """Block `sigma_a 2^level : (sigma_a + 1) 2^level` on each axis a of a
    coefficient array: detail band (level, sigma), or with sigma all zeros
    the corner that holds the level's scaling coefficients."""
    n = 1 << level
    return tuple(slice(s * n, (s + 1) * n) for s in sigma)


def coeff_index(cube: DyadicCube, sigma) -> tuple:
    """Position of the (cube, sigma) detail coefficient in a coefficient array."""
    return tuple((s << cube.level) + k for s, k in zip(sigma, cube.offset))


def detail_cubes(flat, shape: tuple) -> tuple:
    """(level, sigma, offset) arrays of the detail coefficients at flat
    positions of a coefficient array of `shape`, inverting `coeff_index`: on
    axis a the position is sigma_a 2^level + offset_a, and the largest
    position has sigma_a = 1."""
    at = np.stack(np.unravel_index(flat, shape), axis=-1)
    level = np.frexp(at.max(axis=-1))[1] - 1
    sigma = at >> level[:, None]
    return level, sigma, at - (sigma << level[:, None])


class CoefficientTree:
    """Scaling coefficients at one coarse level plus detail bands up to J-1,
    in Mallat's layout: one read-only (N,)*dim array `coeffs`, the scaling
    coefficients in its `[:2^j0]^dim` corner and band (j, sigma) at
    `band_index(j, sigma)`."""

    __slots__ = ("coeffs", "dim", "coarse_level", "finest_level")

    def __init__(self, coeffs, coarse_level: int):
        coeffs = np.array(coeffs, dtype=float)
        sigma_set(coeffs.ndim)  # DomainError unless dim is 1 or 2
        n = coeffs.shape[0]
        if n < 1 or n & (n - 1) or coeffs.shape != (n,) * coeffs.ndim:
            raise ShapeError(f"coefficient array has shape {coeffs.shape}, "
                             f"need (N,)*dim with N a power of two")
        finest_level = n.bit_length() - 1
        coarse_level = _integral_level(coarse_level)
        if not 0 <= coarse_level < finest_level:
            raise ResolutionError(
                f"need 0 <= coarse_level < finest_level, got {coarse_level}, {finest_level}")
        coeffs.flags.writeable = False
        self.coeffs = coeffs
        self.dim = coeffs.ndim
        self.coarse_level = coarse_level
        self.finest_level = finest_level

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, coarse_level: int, finest_level: int) -> "CoefficientTree":
        sigma_set(dim)  # checked before N^dim entries are allocated
        # a negative J gives N = 1, which fails the coarse-level check
        return cls(np.zeros((1 << max(finest_level, 0),) * dim), coarse_level)

    @classmethod
    def unit_detail(cls, cube: DyadicCube, sigma: tuple, coarse_level: int,
                    finest_level: int) -> "CoefficientTree":
        zero = cls.zeros(cube.dim, coarse_level, finest_level)
        zero.band(cube.level, sigma)  # ShapeError for a band the tree lacks
        coeffs = np.array(zero.coeffs)
        coeffs[coeff_index(cube, sigma)] = 1.0
        return cls(coeffs, coarse_level)

    def replace(self, scaling) -> "CoefficientTree":
        scaling = np.asarray(scaling, dtype=float)
        if scaling.shape != self.scaling.shape:
            raise ShapeError(f"scaling array has shape {scaling.shape}")
        coeffs = np.array(self.coeffs)
        coeffs[band_index(self.coarse_level, (0,) * self.dim)] = scaling
        return CoefficientTree(coeffs, self.coarse_level)

    # -- accessors ------------------------------------------------------------

    @property
    def resolution(self) -> int:
        return 1 << self.finest_level

    @property
    def scaling(self) -> np.ndarray:
        return self.coeffs[band_index(self.coarse_level, (0,) * self.dim)]

    def levels(self) -> range:
        return range(self.coarse_level, self.finest_level)

    def band(self, j: int, sigma) -> np.ndarray:
        """Read-only view of detail band (j, sigma)."""
        if j not in self.levels() or tuple(sigma) not in sigma_set(self.dim):
            raise ShapeError(f"{self!r} has no detail band ({j}, {tuple(sigma)})")
        return self.coeffs[band_index(j, sigma)]

    def detail(self, cube: DyadicCube, sigma: tuple) -> float:
        return float(self.band(cube.level, sigma)[cube.offset])

    def iter_details(self, threshold: float = 0.0):
        """Yield (cube, sigma, value) with |value| > threshold, in fixed order."""
        for j in self.levels():
            for s in sigma_set(self.dim):
                arr = self.band(j, s)
                for idx in np.argwhere(np.abs(arr) > threshold):
                    off = tuple(int(i) for i in idx)
                    yield DyadicCube(self.dim, j, off), s, float(arr[off])

    def energy(self) -> float:
        total = float(np.sum(self.scaling ** 2))
        return total + self.detail_energy()

    def detail_energy(self) -> float:
        return float(sum(np.sum(self.band(j, s) ** 2) for j in self.levels()
                         for s in sigma_set(self.dim)))

    # -- linear structure -----------------------------------------------------

    def _binary(self, other, op):
        same_layout(self, other)
        return CoefficientTree(op(self.coeffs, other.coeffs), self.coarse_level)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, c):
        return CoefficientTree(float(c) * self.coeffs, self.coarse_level)

    __rmul__ = __mul__

    def __repr__(self):
        return (f"CoefficientTree(dim={self.dim}, j0={self.coarse_level}, "
                f"J={self.finest_level})")


def same_layout(*trees: CoefficientTree) -> None:
    ref = (trees[0].dim, trees[0].coarse_level, trees[0].finest_level)
    for t in trees[1:]:
        if (t.dim, t.coarse_level, t.finest_level) != ref:
            raise ShapeError("tree layouts do not match")


# ---------------------------------------------------------------------------
# analysis / synthesis
# ---------------------------------------------------------------------------

def _integral_level(level) -> int:
    """`level` as an int; ResolutionError unless integral (numpy ints pass)."""
    try:
        return operator.index(level)
    except TypeError:
        raise ResolutionError(f"coarse level must be an integer, got {level!r}") from None


def _require_valid_levels(basis: WaveletBasis, coarse_level: int, finest_level: int):
    if not 0 <= _integral_level(coarse_level) < finest_level:
        raise ResolutionError(
            f"need 0 <= coarse_level < J, got {coarse_level} and J={finest_level}")
    L = len(basis.scaling_filter)
    if L > 1 << (coarse_level + 1):
        raise ResolutionError(
            f"filter length {L} wraps on the coarsest step; "
            f"need coarse_level >= {min_coarse_level(basis)} for {basis}")


def analyze(f: SampledFunction, basis: WaveletBasis,
            coarse_level: int | None = None) -> CoefficientTree:
    """Decompose a sampled function into its coefficient tree."""
    J = f.finest_level
    j0 = default_coarse_level(basis) if coarse_level is None else coarse_level
    _require_valid_levels(basis, j0, J)
    work = f.values * float(f.resolution) ** (-f.dim / 2.0)
    for j in range(J - 1, j0 - 1, -1):
        corner = work[band_index(j + 1, (0,) * f.dim)]
        for axis in range(f.dim):
            # the low channel fills the first half of the axis, the high the second
            np.concatenate(_down(corner, basis.filter_rows, axis), axis=axis, out=corner)
    return CoefficientTree(work, j0)


def scaling_cascade(tree: CoefficientTree, basis: WaveletBasis) -> dict:
    """Scaling coefficient arrays at every level j0..J (J entry reproduces f)."""
    _require_valid_levels(basis, tree.coarse_level, tree.finest_level)
    out = {tree.coarse_level: tree.scaling}
    work = np.array(tree.coeffs)
    for j in tree.levels():
        corner = band_index(j + 1, (0,) * tree.dim)
        s = work[corner]
        for axis in range(tree.dim - 1, -1, -1):
            halves = (s[_along(tree.dim, axis, slice(0, 1 << j))],
                      s[_along(tree.dim, axis, slice(1 << j, None))])
            s = _up(halves, basis.filter_rows, axis)
        work[corner] = out[j + 1] = s
    return out


def synthesize(tree: CoefficientTree, basis: WaveletBasis) -> SampledFunction:
    """Reconstruct the sampled function from its coefficient tree."""
    s = scaling_cascade(tree, basis)[tree.finest_level]
    return SampledFunction(s * float(tree.resolution) ** (tree.dim / 2.0))


def _ladder_step(stack: np.ndarray, dim: int, basis: WaveletBasis) -> np.ndarray:
    """One scaling-only synthesis step of every row of `stack`, last axis
    first as in `scaling_cascade`; the detail channel is zero, so it is left out."""
    for axis in range(dim, 0, -1):
        stack = _up((stack,), basis.filter_rows, axis)
    return stack


def projection_stack(tree: CoefficientTree, basis: WaveletBasis) -> dict:
    """Sampled scaling-space projections P_j f for j = j0..J.

    P_J f equals the synthesized function exactly; successive differences
    P_{j+1}f - P_j f are the sampled detail layers.
    """
    cascade = scaling_cascade(tree, basis)
    scale = float(tree.resolution) ** (tree.dim / 2.0)
    # row i carries P_{j0+i} up the scaling-only ladder, all levels at once
    stack = cascade[tree.coarse_level][None]
    for j in tree.levels():
        stack = np.concatenate([_ladder_step(stack, tree.dim, basis),
                                cascade[j + 1][None]])
    levels = range(tree.coarse_level, tree.finest_level + 1)
    return {j: s * scale for j, s in zip(levels, stack)}


def coarse_projection(tree: CoefficientTree, basis: WaveletBasis) -> np.ndarray:
    """P_{j0} f alone, equal to `projection_stack(tree, basis)[j0]` bit for
    bit: the coarse scaling array carried up the same ladder, with no
    synthesis cascade."""
    row = tree.scaling[None]
    for _ in tree.levels():
        row = _ladder_step(row, tree.dim, basis)
    return row[0] * float(tree.resolution) ** (tree.dim / 2.0)


@lru_cache(maxsize=512)
def mother_wavelet(basis: WaveletBasis, dim: int, finest_level: int, level: int,
                   sigma: tuple) -> np.ndarray:
    """Sampled wavelet of a unit coefficient at offset 0 (read-only array).

    Every same-level wavelet is a circular shift of this one by multiples of
    N / 2^level grid cells per axis.
    """
    cube = DyadicCube(dim, level, (0,) * dim)
    tree = CoefficientTree.unit_detail(cube, sigma, level, finest_level)
    vals = synthesize(tree, basis).values
    vals.flags.writeable = False
    return vals


def sampled_wavelet(basis: WaveletBasis, finest_level: int, cube: DyadicCube,
                    sigma: tuple) -> np.ndarray:
    base = mother_wavelet(basis, cube.dim, finest_level, cube.level, tuple(sigma))
    shift = tuple(k * ((1 << finest_level) >> cube.level) for k in cube.offset)
    return np.roll(base, shift, axis=tuple(range(cube.dim)))


# ---------------------------------------------------------------------------
# square function and psi-atoms
# ---------------------------------------------------------------------------

def _expand(arr: np.ndarray, factor: int) -> np.ndarray:
    """Blow a level array up to the sampling grid (piecewise constant)."""
    out = arr
    for axis in range(arr.ndim):
        out = np.repeat(out, factor, axis=axis)
    return out


def wavelet_square_function(tree: CoefficientTree) -> SampledFunction:
    """Pointwise l2 aggregate of detail coefficients weighted by 1/|I| on each cube."""
    N = tree.resolution
    acc = np.zeros((N,) * tree.dim)
    for j in tree.levels():
        sq = sum(tree.band(j, s) ** 2 for s in sigma_set(tree.dim))
        acc += _expand(sq, N >> j) * 2.0 ** (j * tree.dim)
    return SampledFunction(np.sqrt(acc))


@dataclass(frozen=True)
class PsiAtomCheck:
    """Outcome of a psi-atom validation with the offending data when it fails."""

    ok: bool
    coeff_l2: float
    budget: float
    bad_cubes: tuple
    scaling_max: float

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return f"psi-atom ok: coefficient l2 {self.coeff_l2:.6g} within {self.budget:.6g}"
        parts = []
        if self.scaling_max > 0:
            parts.append(f"scaling coefficients present (max {self.scaling_max:.3g})")
        if self.bad_cubes:
            listed = ", ".join(c.key() for c in self.bad_cubes[:8])
            parts.append(f"coefficients outside the cube on: {listed}")
        if self.coeff_l2 > self.budget:
            parts.append(f"coefficient l2 {self.coeff_l2:.6g} exceeds budget {self.budget:.6g}")
        return "psi-atom violations: " + "; ".join(parts)


def validate_psi_atom(tree: CoefficientTree, R: DyadicCube,
                      tol: float = 1e-10) -> PsiAtomCheck:
    """Check that a tree is a unit-budget wavelet packet supported inside R."""
    if R.level < 0 or R.dim != tree.dim:
        raise ShapeError("cube dimension does not match the tree")
    l2 = math.sqrt(tree.detail_energy())
    zero_tol = 1e-12 * (1.0 + l2)
    scaling_max = float(np.max(np.abs(tree.scaling))) if tree.scaling.size else 0.0
    bad = []
    for j in tree.levels():
        inside = _inside_mask(tree.dim, j, R)
        for s in sigma_set(tree.dim):
            hit = np.abs(tree.band(j, s)) > zero_tol
            if inside is not None:
                hit &= ~inside
            for idx in np.argwhere(hit):
                bad.append(DyadicCube(tree.dim, j, tuple(int(i) for i in idx)))
    budget = R.measure ** -0.5 * (1.0 + tol)
    ok = (not bad) and scaling_max <= zero_tol and l2 <= budget
    return PsiAtomCheck(ok, l2, budget, tuple(bad), 0.0 if scaling_max <= zero_tol else scaling_max)


def _inside_mask(dim: int, level: int, R: DyadicCube):
    """Boolean array over level-`level` offsets marking cubes contained in R."""
    if level < R.level:
        return np.zeros((1 << level,) * dim, dtype=bool)
    shift = level - R.level
    axes = [(np.arange(1 << level) >> shift) == k for k in R.offset]
    return reduce(np.logical_and.outer, axes)
