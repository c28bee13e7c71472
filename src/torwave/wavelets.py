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
array.  `_cascade` (and with it `synthesize` and `projection_stack`)
runs the same loop backwards on one working copy, last axis first, handing
`_up` the two halves of the corner.  Neither loop depends on the dimension.

The filter-bank steps are polyphase.  Analysis (`_down`) reads tap m of every
decimated output through the strided view `pad[m : m+n : 2]` of one
wrap-padded copy.  Synthesis (`_up`) never forms the zero-stuffed upsampled
array: output entry 2k+r meets only the taps m = r (mod 2), so each phase r
is one contiguous sum of views of a circularly pre-padded copy, and the two
phases are interleaved once at the end.  `projection_stack`
carries every P_j f up a scaling-only ladder, because the detail channel of
that ladder is exactly zero; `coarse_projection` carries P_{j0} f alone.
All of them add their terms in the order of the plain per-tap circular
convolution (tap by tap, scaling before detail), so they agree with it to
the last bit; `tests/oracles.py` keeps that convolution as the reference.
The terms the zero-stuffed sum also added were all +-0.0, at least one of
them +0.0, so it never returned -0.0.  `_up` ends with `+ 0.0` to keep that
sign of zero, which the JSON case records carry.

Leading batch axis: every loop acts on the trailing `dim` axes of an array
with any leading shape, and the steps take their axis counted from the end.
Each layer has one name.  `analyze` takes a `SampledFunction` and returns a
`CoefficientTree`; `synthesize`, `projection_stack` and
`wavelet_square_function` take a tree.  Given instead an array plus `dim`
(and, for coefficient arrays, the coarse level), each pushes the whole
stack of cases through every step at once and returns arrays, as
`MultiplierOperator.apply` does; `coarse_projection` takes the stack only.
Every step is elementwise across the leading axes, so case i of a stacked
result equals the result for case i alone, bit for bit.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .core import DyadicCube, SampledFunction, _along, _wrap, check_dim, grid_level
from .errors import ConfigurationError, ResolutionError, ShapeError

# Scaling (low-pass) taps of the minimum-phase Daubechies family, order =
# number of vanishing moments, filter length 2*order, polished to machine
# precision: the even-shift orthonormality, the sum sqrt(2) and the discrete
# moments of the detail taps hold to <= 4.4e-16 (tests/test_wavelets.py).
# As constants, they do not depend on the BLAS kernel the CPU selects.
_SCALING_TAPS = {
    1: [0.7071067811865476, 0.7071067811865476],
    2: [0.48296291314453416, 0.8365163037378079, 0.2241438680420135,
        -0.1294095225512603],
    3: [0.3326705529500825, 0.8068915093110925, 0.4598775021184917,
        -0.13501102001025456, -0.08544127388202664, 0.035226291885709526],
    4: [0.2303778133088969, 0.714846570552916, 0.6308807679298584,
        -0.027983769416860253, -0.18703481171909286, 0.03084138183556082,
        0.03288301166688523, -0.010597401785069011],
    5: [0.16010239797419298, 0.6038292697971895, 0.724308528437773,
        0.13842814590132066, -0.24229488706638208, -0.03224486958463805,
        0.07757149384004557, -0.006241490212798364, -0.012580751999081855,
        0.0033357252854737895],
    6: [0.11154074335009447, 0.4946238903984117, 0.7511339080210933,
        0.3152503517092668, -0.22626469396541846, -0.12976686756730643,
        0.0975016055873241, 0.02752286553032642, -0.0315820393174944,
        0.000553842201158225, 0.004777257510948719, -0.0010773010853090735],
    7: [0.07785205408493726, 0.39653931948167304, 0.7291320908461155,
        0.4697822874055672, -0.14390600392825456, -0.22403618499411507,
        0.07130921926668711, 0.08061260915125426, -0.03802993693500639,
        -0.016574541630739275, 0.012550998556124222, 0.0004295779729313661,
        -0.001801640704055585, 0.00035371379997603796],
    8: [0.054415842242832295, 0.3128715909132092, 0.6756307362963321,
        0.5853546836555539, -0.015829105254222063, -0.28401554296210085,
        0.0004724845725597416, 0.1287474266210915, -0.01736930100125685,
        -0.044088253931274544, 0.013981027917336998, 0.008746094047599616,
        -0.004870352993502658, -0.0003917403734036186, 0.0006754494064681083,
        -0.00011747678412760204],
    9: [0.038077947363794114, 0.2438346746120607, 0.6048231236891916,
        0.6572880780516157, 0.13319738582699175, -0.2932737832788624,
        -0.09684078322486422, 0.14854074933825615, 0.03072568148081534,
        -0.06763282906197143, 0.0002509471141023678, 0.022361662124311846,
        -0.00472320475763606, -0.004281503682752867, 0.0018476468831226476,
        0.00023038576356928674, -0.0002519631889699873, 3.934732032044474e-05],
    10: [0.026670057906063187, 0.18817680010579782, 0.5272011889747475,
         0.6884590394449654, 0.28117234358366855, -0.24984642436262613,
         -0.19594627433026085, 0.12736934035744346, 0.09305736457402632,
         -0.07139414717188487, -0.029457536806937842, 0.03321267405763827,
         0.003606553562092271, -0.010733175481389133, 0.0013953517477493147,
         0.001992405294558307, -0.0006858566948960868, -0.00011646685506382642,
         9.35886702953101e-05, -1.3264202891661344e-05],
}

MAX_DAUBECHIES_ORDER = max(_SCALING_TAPS)


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


def build_basis(family: str, order: int) -> WaveletBasis:
    """Construct a haar or daubechies(order) basis and check its filter identities."""
    if family == "haar":
        if order != 1:
            raise ConfigurationError(f"haar admits only order 1, got order={order}")
    elif family == "daubechies":
        if order not in _SCALING_TAPS:
            raise ConfigurationError(
                f"daubechies order must be in 1..{MAX_DAUBECHIES_ORDER}, got {order}")
    else:
        raise ConfigurationError(f"unsupported wavelet family {family!r}")

    h = np.array(_SCALING_TAPS[1 if family == "haar" else order])
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


def default_coarse_level(basis: WaveletBasis, coarse_level: int | None = None) -> int:
    """`coarse_level` if one is given, else max(2, `min_coarse_level(basis)`)."""
    return max(2, min_coarse_level(basis)) if coarse_level is None else coarse_level


def sigma_set(dim: int) -> tuple[tuple[int, ...], ...]:
    """Detail orientations: all 0/1 tuples of length dim except all zeros."""
    check_dim(dim)
    return tuple(product((0, 1), repeat=dim))[1:]


# ---------------------------------------------------------------------------
# circular filter-bank steps
# ---------------------------------------------------------------------------

def _down(a: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Circular convolution with each row of `taps` along the negative
    `axis`, then dyadic decimation.

    The results for the rows of the (rows, L) array `taps` are stacked on a
    new leading axis.  Tap m reads the strided view `pad[m : m+n : 2]` of one
    wrap-padded copy of `a`.
    """
    n = a.shape[axis]
    length = taps.shape[1]
    pad = _wrap(a, 0, length - 1, axis)
    col = taps.reshape(taps.shape + (1,) * a.ndim)
    acc = col[:, 0] * pad[_along(axis, slice(0, n, 2))]
    for m in range(1, length):
        acc += col[:, m] * pad[_along(axis, slice(m, m + n, 2))]
    return acc


def _up(channels: tuple, taps: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of `_down`: upsample every channel along the negative `axis`,
    filter it with its row of `taps`, and add.

    Output entry 2k+r takes only the taps m = r + 2q, applied to entry k-q of
    each channel, i.e. to the view `pad[back-q : back-q+n]` of the channel's
    circularly pre-padded copy.  The loop is phase-major: each phase r is
    summed in one contiguous accumulator, for q = 0, 1, ... and within each q
    channel by channel, and then copied into its slot of a new length-2 axis
    after `axis`; the final reshape interleaves the phases.  Summing into
    that length-2 axis directly would run every multiply and add of a step
    along the last axis through numpy's inner loop two elements at a time,
    several times slower for the same sums in the same order.
    """
    first = channels[0]
    n = first.shape[axis]
    back = taps.shape[1] // 2 - 1
    pads = [_wrap(c, back, 0, axis) for c in channels]
    # (taps 2q and 2q+1 of the channel's row, the view tap pair q reads)
    terms = [(row[2 * q:2 * q + 2], pad[_along(axis, slice(back - q, back - q + n))])
             for q in range(back + 1) for row, pad in zip(taps.tolist(), pads)]
    at = first.ndim + axis
    out = np.empty(first.shape[:at] + (n, 2) + first.shape[at + 1:])
    acc, term = np.empty(first.shape), np.empty(first.shape)
    for r in (0, 1):
        (pair, view), *rest = terms
        np.multiply(pair[r], view, out=acc)
        for pair, view in rest:
            acc += np.multiply(pair[r], view, out=term)
        acc += 0.0  # a zero output is +0.0, as in the zero-stuffed sum
        out[_along(axis, r)] = acc
    shape = list(first.shape)
    shape[axis] *= 2
    return out.reshape(shape)


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


def detail_positions(levels: range, dim: int) -> np.ndarray:
    """Flat positions of every detail coefficient of `levels` in a
    (2^levels.stop,)*dim coefficient array, band by band: levels ascending,
    sigma in `sigma_set` order, and the offsets of a band in raster order."""
    flat = np.arange(1 << (levels.stop * dim)).reshape((1 << levels.stop,) * dim)
    return np.concatenate([flat[band_index(j, s)].ravel() for j in levels for s in sigma_set(dim)])


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
        check_dim(coeffs.ndim)
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

    def iter_details(self):
        """Yield (cube, sigma, value) of every nonzero detail, in `detail_positions` order."""
        at = detail_positions(self.levels(), self.dim)
        at = at[np.abs(self.coeffs.take(at)) > 0.0]
        cubes = (a.tolist() for a in detail_cubes(at, self.coeffs.shape))
        for j, s, k, v in zip(*cubes, self.coeffs.take(at).tolist()):
            yield DyadicCube(self.dim, j, tuple(k)), tuple(s), v

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


def _corner(level: int, dim: int) -> tuple:
    """Index of the `[:2^level]^dim` corner of every case of a batch."""
    return (Ellipsis,) + band_index(level, (0,) * dim)


def analyze(f, basis: WaveletBasis, coarse_level: int | None = None, dim: int | None = None):
    """Decompose a sampled function into its coefficient tree; for an array,
    the coefficient arrays (Mallat's layout) of every (N,)*dim grid on its
    trailing axes, returned as an array."""
    single = isinstance(f, SampledFunction)
    values = f.values if single else np.asarray(f, dtype=float)
    dim = f.dim if single else dim
    J = grid_level(values.shape, dim)
    j0 = default_coarse_level(basis, coarse_level)
    _require_valid_levels(basis, j0, J)
    work = values * float(1 << J) ** (-dim / 2.0)
    for j in range(J - 1, j0 - 1, -1):
        corner = work[_corner(j + 1, dim)]
        for axis in range(-dim, 0):
            # the low channel fills the first half of the axis, the high the second
            np.concatenate(_down(corner, basis.filter_rows, axis), axis=axis, out=corner)
    return CoefficientTree(work, j0) if single else work


def _coefficients(tree, coarse_level: int | None, dim: int | None) -> tuple:
    """(coefficient array, coarse level, dim, single) of a CoefficientTree,
    or of a stack of coefficient arrays with the given level and dim."""
    if isinstance(tree, CoefficientTree):
        return tree.coeffs, tree.coarse_level, tree.dim, True
    return np.asarray(tree, dtype=float), _integral_level(coarse_level), dim, False


def _cascade(coeffs: np.ndarray, basis: WaveletBasis, coarse_level: int,
             dim: int) -> dict:
    """Scaling arrays of every case at every level j0..J (J entry reproduces f)."""
    J = grid_level(coeffs.shape, dim)
    _require_valid_levels(basis, coarse_level, J)
    out = {coarse_level: coeffs[_corner(coarse_level, dim)]}
    work = np.array(coeffs, dtype=float)
    for j in range(coarse_level, J):
        s = work[_corner(j + 1, dim)]
        for axis in range(-1, -dim - 1, -1):
            halves = (s[_along(axis, slice(0, 1 << j))], s[_along(axis, slice(1 << j, None))])
            s = _up(halves, basis.filter_rows, axis)
        work[_corner(j + 1, dim)] = out[j + 1] = s
    return out


def synthesize(tree, basis: WaveletBasis, coarse_level: int | None = None,
               dim: int | None = None):
    """Reconstruct the sampled function from its coefficient tree; for a stack
    of coefficient arrays with their coarse level and dim, the sampled
    functions of every one, returned as an array."""
    coeffs, j0, dim, single = _coefficients(tree, coarse_level, dim)
    J = grid_level(coeffs.shape, dim)
    values = _cascade(coeffs, basis, j0, dim)[J] * float(1 << J) ** (dim / 2.0)
    return SampledFunction(values) if single else values


def _ladder_step(stack: np.ndarray, dim: int, basis: WaveletBasis) -> np.ndarray:
    """One scaling-only synthesis step of every case in `stack`, last axis
    first as in `_cascade`; the detail channel is zero, so it is left out."""
    for axis in range(-1, -dim - 1, -1):
        stack = _up((stack,), basis.filter_rows, axis)
    return stack


def projection_stack(tree, basis: WaveletBasis, coarse_level: int | None = None,
                     dim: int | None = None) -> dict:
    """Sampled scaling-space projections P_j f for j = j0..J, as arrays; for
    a stack of coefficient arrays, those of every case on the leading axes.

    P_J f equals the synthesized function exactly; successive differences
    P_{j+1}f - P_j f are the sampled detail layers.
    """
    coeffs, j0, dim, _ = _coefficients(tree, coarse_level, dim)
    cascade = _cascade(coeffs, basis, j0, dim)
    J = max(cascade)
    # row i carries P_{j0+i} up the scaling-only ladder, all levels at once
    stack = cascade[j0][None]
    for j in range(j0, J):
        stack = np.concatenate([_ladder_step(stack, dim, basis), cascade[j + 1][None]])
    stack *= float(1 << J) ** (dim / 2.0)
    return dict(zip(range(j0, J + 1), stack))


def coarse_projection(coeffs, basis: WaveletBasis, coarse_level: int,
                      dim: int) -> np.ndarray:
    """P_{j0} f of every case alone, equal to `projection_stack(...)[j0]` bit
    for bit: the coarse scaling arrays carried up the same ladder, with no
    synthesis cascade."""
    coeffs = np.asarray(coeffs, dtype=float)
    J = grid_level(coeffs.shape, dim)
    _require_valid_levels(basis, coarse_level, J)
    row = coeffs[_corner(coarse_level, dim)]
    for _ in range(coarse_level, J):
        row = _ladder_step(row, dim, basis)
    return row * float(1 << J) ** (dim / 2.0)


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


def _circular_shifts(base: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Stack of `base` rolled by each row of the (count, dim) cell counts
    `shifts`, as `np.roll` would, gathered in one indexing step."""
    count, dim = shifts.shape
    n = base.shape[0]
    at = tuple(((np.arange(n) - shifts[:, a, None]) % n).reshape(
        (count,) + (1,) * a + (n,) + (1,) * (dim - 1 - a)) for a in range(dim))
    return base[at]


def sampled_wavelet(basis: WaveletBasis, finest_level: int, cube: DyadicCube,
                    sigma: tuple) -> np.ndarray:
    base = mother_wavelet(basis, cube.dim, finest_level, cube.level, tuple(sigma))
    shift = [k * ((1 << finest_level) >> cube.level) for k in cube.offset]
    return _circular_shifts(base, np.array([shift]))[0]


# ---------------------------------------------------------------------------
# square function and psi-atoms
# ---------------------------------------------------------------------------

def _expand(arr: np.ndarray, factor: int, dim: int) -> np.ndarray:
    """Blow level arrays up to the sampling grid (piecewise constant)."""
    for axis in range(-dim, 0):
        arr = np.repeat(arr, factor, axis=axis)
    return arr


def wavelet_square_function(tree, coarse_level: int | None = None, dim: int | None = None):
    """Pointwise l2 aggregate of detail coefficients weighted by 1/|I| on each
    cube; for a stack of coefficient arrays with their coarse level and dim,
    that of every one, returned as an array."""
    coeffs, j0, dim, single = _coefficients(tree, coarse_level, dim)
    J = grid_level(coeffs.shape, dim)
    acc = np.zeros(coeffs.shape)
    for j in range(j0, J):
        sq = sum(coeffs[(Ellipsis,) + band_index(j, s)] ** 2 for s in sigma_set(dim))
        acc += _expand(sq, 1 << (J - j), dim) * 2.0 ** (j * dim)
    out = np.sqrt(acc)
    return SampledFunction(out) if single else out


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


def validate_psi_atom(tree: CoefficientTree, R: DyadicCube) -> PsiAtomCheck:
    """Check that a tree is a unit-budget wavelet packet supported inside R,
    with a relative slack of 1e-10 on the budget."""
    if R.level < 0 or R.dim != tree.dim:
        raise ShapeError("cube dimension does not match the tree")
    l2 = math.sqrt(tree.detail_energy())
    zero_tol = 1e-12 * (1.0 + l2)
    scaling_max = float(np.max(np.abs(tree.scaling))) if tree.scaling.size else 0.0
    at = detail_positions(tree.levels(), tree.dim)
    level, _, offset = detail_cubes(at[np.abs(tree.coeffs.take(at)) > zero_tol], tree.coeffs.shape)
    # a cube lies in R iff it is at least as fine and R is its ancestor
    outside = (level < R.level) | np.any(
        offset >> np.maximum(level - R.level, 0)[:, None] != R.offset, axis=-1)
    bad = [DyadicCube(tree.dim, j, tuple(k))
           for j, k in zip(level[outside].tolist(), offset[outside].tolist())]
    budget = R.measure ** -0.5 * (1.0 + 1e-10)
    ok = (not bad) and scaling_max <= zero_tol and l2 <= budget
    return PsiAtomCheck(ok, l2, budget, tuple(bad), 0.0 if scaling_max <= zero_tol else scaling_max)
