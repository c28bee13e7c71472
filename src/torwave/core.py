"""Grid primitives: dyadic cubes and sampled functions on the unit torus [0,1)^n."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ShapeError


def check_dim(dim: int) -> None:
    """DomainError unless `dim` is 1 or 2, the dimensions torwave supports."""
    if dim not in (1, 2):
        raise DomainError(f"dim must be 1 or 2, got {dim}")


@dataclass(frozen=True)
class DyadicCube:
    """Dyadic cube of side 2**-level identified by per-axis integer offsets."""

    dim: int
    level: int
    offset: tuple[int, ...]

    def __post_init__(self):
        check_dim(self.dim)
        try:  # integers only; numpy integers pass
            object.__setattr__(self, "level", operator.index(self.level))
            object.__setattr__(self, "offset", off := tuple(map(operator.index, self.offset)))
        except TypeError:
            raise DomainError(f"cube level and offsets must be integers, got "
                              f"{self.level!r}, {self.offset!r}") from None
        if self.level < 0:
            raise DomainError(f"level must be >= 0, got {self.level}")
        if len(off) != self.dim:
            raise ShapeError(f"offset {off} has {len(off)} entries, dim is {self.dim}")
        top = 1 << self.level
        for k in off:
            if not 0 <= k < top:
                raise DomainError(f"offset {off} outside [0, 2^{self.level}) per axis")

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def measure(self) -> float:
        return 2.0 ** (-self.level * self.dim)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((k + 0.5) * self.side for k in self.offset)

    def grid_slices(self, resolution: int) -> tuple[slice, ...]:
        """Index slices selecting this cube's cells on a 2^J grid."""
        step = resolution >> self.level
        if step == 0:
            raise ShapeError(f"cube level {self.level} finer than resolution {resolution}")
        return tuple(slice(k * step, (k + 1) * step) for k in self.offset)

    def key(self) -> str:
        """Stable text key 'level:offsets' used by triplet exports."""
        return f"{self.level}:" + ",".join(str(k) for k in self.offset)


class SampledFunction:
    """Real function sampled on the uniform 2^J grid of the unit torus.

    Values are stored as an n-dimensional float array of shape (N,)*n with
    N a power of two; grid point i corresponds to x = i/N per axis.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.array(values, dtype=float)
        grid_level(v.shape, v.ndim)
        v.flags.writeable = False
        self.values = v

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def resolution(self) -> int:
        return self.values.shape[0]

    @property
    def finest_level(self) -> int:
        return int(self.resolution).bit_length() - 1

    def mean(self) -> float:
        return float(self.values.mean())

    def integral(self) -> float:
        # cell measure is N^-n, so the grid integral is the plain mean
        return self.mean()

    # -- arithmetic (pointwise; scalars broadcast) ----------------------------

    def _coerce(self, other):
        if isinstance(other, SampledFunction):
            if other.values.shape != self.values.shape:
                raise ShapeError("mismatched resolutions")
            return other.values
        return other

    def __add__(self, other):
        return SampledFunction(self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return SampledFunction(self.values - self._coerce(other))

    def __mul__(self, other):
        return SampledFunction(self.values * self._coerce(other))

    __rmul__ = __mul__

    def __abs__(self):
        return SampledFunction(np.abs(self.values))

    def __repr__(self):
        return f"SampledFunction(dim={self.dim}, N={self.resolution})"


def grid_level(shape: tuple, dim: int) -> int:
    """J of an array shape whose trailing `dim` axes are an (N,)*dim grid
    with N = 2^J; any leading (batch) axes are allowed.  The one power-of-two
    check of a grid: an empty one is a ShapeError too."""
    check_dim(dim)
    n = operator.index(shape[-1]) if shape else 0
    if n < 1 or n & (n - 1) or tuple(shape[len(shape) - dim:]) != (n,) * dim:
        raise ShapeError(f"array of shape {tuple(shape)} does not end in an (N,)*{dim} "
                         f"grid with N a power of two")
    return n.bit_length() - 1


def grid_cases(f, dim: int | None = None) -> tuple[np.ndarray, int, int, bool]:
    """(values, dim, J, single) of one case, a `SampledFunction`, or of a
    stack, an array of grids on its trailing `dim` axes.  A layer that takes
    one case only calls it without a dim, so an array is a ShapeError there."""
    if isinstance(f, SampledFunction):
        return f.values, f.dim, f.finest_level, True
    if dim is None:
        raise ShapeError("an array is a stack of grids and needs their dim; "
                         "one case is a SampledFunction")
    values = np.asarray(f, dtype=float)
    return values, dim, grid_level(values.shape, dim), False


class _GridOperator:
    """An operator built for one (N,)*dim grid: its dim, N, level J and
    trailing FFT axes, and the one check that an input lies on that grid."""

    is_linear = False

    def __init__(self, dim: int, resolution: int):
        self._level = grid_level((resolution,) * dim, dim)
        self.dim, self.resolution = dim, resolution
        self._axes = tuple(range(-dim, 0))

    def _check(self, f, *others, dim: int | None = None) -> tuple[np.ndarray, bool]:
        """(values, single) of `f` by `grid_cases(f, dim)`, so a stack only
        with a dim; a ShapeError unless `f` lies on this operator's grid and
        every one case in `others` on the grid of `f`."""
        values, dim, J, single = grid_cases(f, dim)
        if dim != self.dim or J != self._level:
            raise ShapeError(f"{self.name} is built for N = {self.resolution} in dimension "
                             f"{self.dim}, input has N = {1 << J} in dimension {dim}")
        if any(grid_cases(g)[0].shape != values.shape for g in others):
            raise ShapeError("mismatched resolutions")
        return values, single


def _along(axis: int, index) -> tuple:
    """Index tuple applying `index` on the negative `axis` and taking
    everything elsewhere."""
    return (Ellipsis, index) + (slice(None),) * (-axis - 1)


def _wrap(a: np.ndarray, before: int, after: int, axis: int) -> np.ndarray:
    """`a` extended circularly by `before` leading and `after` trailing entries.

    A pad of at most n entries on each side is two slices of `a` concatenated
    around it; only a longer pad, which wraps more than once, takes the
    modular index gather.
    """
    n = a.shape[axis]
    if before <= n and after <= n:
        return np.concatenate((a[_along(axis, slice(n - before, n))], a,
                               a[_along(axis, slice(0, after))]), axis=axis)
    return np.take(a, np.arange(-before, n + after) % n, axis=axis)


def grid_coordinates(dim: int, resolution: int) -> tuple[np.ndarray, ...]:
    """Meshgrid coordinate arrays (each of shape (N,)*n) for the sampling lattice."""
    axis = np.arange(resolution) / resolution
    return tuple(np.meshgrid(*(axis,) * dim, indexing="ij"))


@lru_cache(maxsize=64)
def frequency_grid(dim: int, resolution: int) -> tuple[np.ndarray, ...]:
    """Integer FFT frequencies per axis, meshgridded to the full shape."""
    k = np.fft.fftfreq(resolution, d=1.0 / resolution)
    return tuple(np.meshgrid(*(k,) * dim, indexing="ij"))


def torus_delta(a, b):
    """Per-axis geodesic distance on the unit torus, vectorized."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d)


def distance_field(dim: int, resolution: int, center) -> np.ndarray:
    """Grid array of torus distances from each grid point to `center`."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape != (dim,):
        raise ShapeError(f"center {center!r} needs {dim} entries")
    coords = grid_coordinates(dim, resolution)
    sq = np.zeros((resolution,) * dim)
    for axis in range(dim):
        sq += torus_delta(coords[axis], c[axis]) ** 2
    return np.sqrt(sq)


def inner(f: SampledFunction, g: SampledFunction) -> float:
    """Grid L2 inner product (Riemann sum with cell measure N^-n)."""
    x, y = grid_cases(f)[0], grid_cases(g)[0]  # one case each
    if x.shape != y.shape:
        raise ShapeError("mismatched resolutions")
    return float((x * y).mean())


def sup_norm(f, dim: int | None = None):
    """Largest |value| of a `SampledFunction`; for an array, that of every
    grid on its trailing `dim` axes, as an array of the leading shape (a
    max, so no summation order is involved)."""
    values, dim, J, single = grid_cases(f, dim)
    top = np.abs(values).reshape(values.shape[:values.ndim - dim] + (1 << J * dim,)).max(axis=-1)
    return float(top) if single else top
