"""Grand maximal operator, its local variant, and the Lusin area integral.

Both operators are built from finitely many linear convolution fields
(a fixed bump dictionary over a dyadic scale grid for the maximal operator,
Poisson-extension gradients over a dyadic height grid for the area integral).
Because of that, the pointwise-shifted commutator input (b(x) - b(.)) f(.)
expands algebraically: T((b(x) f - h))(x) is computed exactly without one
operator application per grid point.  Every window is the same discrete
circular box of per-axis radius r, read from circularly padded copies
(or, when it covers the whole torus, from the convex hull of the point
cloud it contains), and every window sup or sum reproduces the explicit
shift-by-shift result bit for bit; the subadditivity used by the sandwich
estimates is then exact.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import SampledFunction
from .errors import ConfigurationError, ShapeError
from .operators import frequency_grid

_BUMP_SHAPES = ((0.5, 2), (0.75, 3), (1.0, 4))  # (width, polynomial power)


def default_scales(resolution: int, top_exponent: int = 1,
                   bottom_exponent: int = -14, min_cells: int = 4) -> tuple:
    """Dyadic scale grid 2^top .. 2^bottom, dropping scales under min_cells cells."""
    ts = [2.0 ** e for e in range(top_exponent, bottom_exponent - 1, -1)]
    return tuple(t for t in ts if t * resolution >= min_cells)


def _bump(u: np.ndarray, width: float, power: int) -> np.ndarray:
    inside = u < width
    out = np.zeros_like(u)
    out[inside] = (1.0 - (u[inside] / width) ** 2) ** power
    return out


def _bump_grad(u: np.ndarray, width: float, power: int) -> np.ndarray:
    inside = u < width
    out = np.zeros_like(u)
    r = u[inside] / width
    out[inside] = power * (1.0 - r ** 2) ** (power - 1) * 2.0 * r / width
    return out


def _bump_amplitude(width: float, power: int, dim: int) -> float:
    """Largest multiple keeping |phi| + |grad phi| under (1+|x|^2)^-(dim+1)."""
    u = np.linspace(0.0, width, 4001)
    size = _bump(u, width, power) + np.abs(_bump_grad(u, width, power))
    cap = (1.0 + u ** 2) ** (-(dim + 1))
    with np.errstate(divide="ignore"):
        ratio = np.where(size > 0, cap / size, np.inf)
    return float(0.999 * ratio.min())


def _bump_mass(width: float, power: int, dim: int) -> float:
    """Integral of the normalized bump over the plane/line."""
    amp = _bump_amplitude(width, power, dim)
    u = np.linspace(0.0, width, 20001)
    vals = amp * _bump(u, width, power)
    if dim == 1:
        return float(2.0 * np.trapezoid(vals, u))
    return float(2.0 * math.pi * np.trapezoid(vals * u, u))


def _window_radius(t: float, resolution: int) -> int:
    return min(int(t * resolution), resolution // 2)


def _axis_slice(ndim: int, axis: int, start: int, stop: int) -> tuple:
    index = [slice(None)] * ndim
    index[axis] = slice(start, stop)
    return tuple(index)


def _wrap_pad(a: np.ndarray, radius: int, axis: int) -> np.ndarray:
    width = [(0, 0)] * a.ndim
    width[axis] = (radius, radius)
    return np.pad(a, width, mode="wrap")


def _axis_window_max(a: np.ndarray, radius: int, axis: int) -> np.ndarray:
    n = a.shape[axis]
    length = 2 * radius + 1
    if length >= n:
        return np.broadcast_to(a.max(axis=axis, keepdims=True), a.shape).copy()
    # doubling table: after the loop m[i] is the max over padded[i : i + span],
    # and two overlapping runs of length span cover each window of `length`
    m = _wrap_pad(a, radius, axis)
    span = 1
    while 2 * span <= length:
        m = np.maximum(m[_axis_slice(a.ndim, axis, 0, -span)],
                       m[_axis_slice(a.ndim, axis, span, None)])
        span *= 2
    return np.maximum(m[_axis_slice(a.ndim, axis, 0, n)],
                      m[_axis_slice(a.ndim, axis, length - span, length - span + n)])


def window_max(a: np.ndarray, radius: int) -> np.ndarray:
    """Max over the circular box window of per-axis radius `radius`.

    O(log radius) array maxima per axis; exact, since max is idempotent and
    overlapping runs change nothing.
    """
    out = a
    for axis in range(a.ndim):
        out = _axis_window_max(out, radius, axis)
    return out


def window_mean(a: np.ndarray, radius: int) -> np.ndarray:
    """Mean over the circular box window of per-axis radius `radius`.

    Sums shifted views of a circularly padded copy in the fixed order
    x, x[.-1], x[.+1], x[.-2], ... so the rounding never depends on the
    window's position.
    """
    out = a
    for axis in range(a.ndim):
        n = out.shape[axis]
        padded = _wrap_pad(out, radius, axis)
        acc = out.copy()
        for d in range(1, radius + 1):
            acc += padded[_axis_slice(a.ndim, axis, radius - d, radius - d + n)]
            acc += padded[_axis_slice(a.ndim, axis, radius + d, radius + d + n)]
        out = acc / (2 * radius + 1)
    return out


_SUP_BUFFER_ELEMENTS = 1 << 15  # bounds the candidate blocks of the window sups


def _monotone_chain(xs: list, ys: list, points: list) -> list:
    """Andrew's monotone chain: the lower convex chain of `points`, indices
    into xs/ys in increasing x order."""
    chain = []
    for k in points:
        while len(chain) >= 2:
            i, j = chain[-2], chain[-1]
            if (xs[j] - xs[i]) * (ys[k] - ys[i]) > (ys[j] - ys[i]) * (xs[k] - xs[i]):
                break
            chain.pop()
        chain.append(k)
    return chain


_SMALL_SEGMENT = 64  # quickhull hands segments this small to the monotone chain


def _lower_chain(xs: np.ndarray, ys: np.ndarray) -> list:
    """Indices of the lower convex chain of points with strictly increasing xs.

    Quickhull keeps, per chord, only the points strictly below it (vectorized)
    and splits at the lowest; small segments go to the monotone chain.
    """
    xl, yl = xs.tolist(), ys.tolist()
    chain = [0]
    stack = [(0, xs.size - 1, np.arange(1, xs.size - 1))]
    while stack:
        i, j, idx = stack.pop()
        if idx.size <= _SMALL_SEGMENT:
            chain += _monotone_chain(xl, yl, [i, *idx.tolist(), j])[1:]
            continue
        cross = (xs[j] - xs[i]) * (ys[idx] - ys[i]) - (ys[j] - ys[i]) * (xs[idx] - xs[i])
        below = cross < 0.0
        idx, cross = idx[below], cross[below]
        if idx.size == 0:
            chain.append(j)
            continue
        k = idx[np.argmin(cross)]
        stack.append((k, j, idx[idx > k]))
        stack.append((i, k, idx[idx < k]))
    return chain


def _hull_candidates(a: np.ndarray, h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Indices i among which max_i fl|fl(b a[i]) - h[i]| is attained for every b.

    The exact max is attained on the convex hull of the points (a[i], h[i]):
    max of b a - h on the lower chain, of h - b a on the upper one.  A point
    lying above the lower chain by v is beaten there by at least v at every b,
    since its value is at most a convex combination of two chain vertices'
    values minus v.  Rounding (unit roundoff u = eps/2) moves each computed
    value by at most ~3u(|b| max|a| + max|h|) and the vertical distances by
    ~12u max|h|,
    so a point is dropped only when it lies inside both chains by more than
    `margin`, which bounds both with room to spare.  Then every floating-point
    maximizer survives, and the sup over the survivors is bitwise the sup over
    all points.  Non-finite data keeps every point, and a point whose distance
    overflows is kept.
    """
    # a NaN in b is NaN at its own x whatever the candidates, so it sets no bound
    bound = np.fmax.reduce(np.abs(b), axis=None, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        margin = 64.0 * np.finfo(float).eps * (bound * np.abs(a).max() + np.abs(h).max())
    if not np.isfinite(margin):
        return np.arange(a.size)
    margin += np.finfo(float).tiny
    order = np.lexsort((h, a))
    sa, sh = a[order], h[order]
    distinct = np.r_[True, (sa[1:] != sa[:-1]) | (sh[1:] != sh[:-1])]
    order, sa, sh = order[distinct], sa[distinct], sh[distinct]  # equal points, equal values
    new_a = np.r_[True, sa[1:] != sa[:-1]]
    last_a = np.r_[sa[1:] != sa[:-1], True]
    inside = np.ones(sa.size, dtype=bool)
    for run, sign in ((new_a, 1.0), (last_a, -1.0)):
        xs, ys = sa[run], sign * sh[run]  # the upper chain is the lower one of -h
        with np.errstate(over="ignore", invalid="ignore"):
            chain = _lower_chain(xs, ys)
            depth = sign * sh - np.interp(sa, xs[chain], ys[chain])
        inside &= (depth > margin) & np.isfinite(depth)
    return order[~inside]


def _torus_sup(out: np.ndarray, b: np.ndarray, A: np.ndarray, H: np.ndarray) -> None:
    """out = max(out, max over all y of |b A(y) - H(y)|), over hull candidates."""
    a, h = A.ravel(), H.ravel()
    keep = _hull_candidates(a, h, b)
    a, h = a[keep, None], h[keep, None]
    flat_out, flat_b = out.reshape(-1), b.reshape(-1)
    block = max(1, _SUP_BUFFER_ELEMENTS // b.size)
    buf = np.empty((min(block, a.size), b.size))
    for start in range(0, a.size, block):
        cand = buf[:min(block, a.size - start)]
        np.multiply(flat_b, a[start:start + block], out=cand)
        np.subtract(cand, h[start:start + block], out=cand)
        np.abs(cand, out=cand)
        np.maximum(flat_out, np.maximum.reduce(cand, axis=0), out=flat_out)


def _window_sup(out: np.ndarray, b: np.ndarray, A: np.ndarray, H: np.ndarray,
                radius: int) -> None:
    """out = max(out, max over the box window at x of |b(x) A(y) - H(y)|).

    Loops over the window's shifts, reading them as views of circularly
    padded copies of A and H; shifts along the last axis go in blocks.
    """
    n, span = A.shape[0], 2 * radius + 1
    Ap = np.pad(A, radius, mode="wrap")
    Hp = np.pad(H, radius, mode="wrap")
    block = max(1, min(span, _SUP_BUFFER_ELEMENTS // b.size))
    buf = np.empty((block,) + A.shape)
    for lead in product(range(span), repeat=A.ndim - 1):
        rows = tuple(slice(k, k + n) for k in lead)
        # shifted[k][..., j] = padded[rows][..., k + j]
        A_shifted = np.moveaxis(sliding_window_view(Ap[rows], n, axis=-1), -2, 0)
        H_shifted = np.moveaxis(sliding_window_view(Hp[rows], n, axis=-1), -2, 0)
        for start in range(0, span, block):
            cand = buf[:min(block, span - start)]
            np.multiply(b, A_shifted[start:start + block], out=cand)
            np.subtract(cand, H_shifted[start:start + block], out=cand)
            np.abs(cand, out=cand)
            np.maximum(out, np.maximum.reduce(cand, axis=0), out=out)


class GrandMaximal:
    """Nontangential maximal operator over a finite bump dictionary.

    The true object takes a sup over an infinite family of test functions;
    this realization fixes three spline bumps normalized into the admissible
    class and a dyadic scale grid, which is all the norm equivalences used
    here require (constants are fitted, never assumed).
    """

    is_linear = False

    def __init__(self, dim: int, resolution: int, scales=None):
        self.dim = dim
        self.resolution = resolution
        self.scales = tuple(scales) if scales is not None else default_scales(resolution)
        if not self.scales:
            raise ConfigurationError("empty scale grid for the maximal operator")
        self.name = "grand_maximal"
        self._kernel_ffts = {}
        for width, power in _BUMP_SHAPES:
            amp = _bump_amplitude(width, power, dim)
            for t in self.scales:
                self._kernel_ffts[(width, power, t)] = np.fft.fftn(
                    self._sampled_kernel(width, power, amp, t))
        self.dictionary_mass = max(_bump_mass(w, p, dim) for w, p in _BUMP_SHAPES)

    def _sampled_kernel(self, width, power, amp, t):
        """Periodized dilation t^-n phi(./t) sampled on the grid."""
        N, dim = self.resolution, self.dim
        axis = np.arange(N) / N
        reach = int(math.ceil(width * t + 1.0))
        shifts = range(-reach, reach + 1)
        out = np.zeros((N,) * dim)
        if dim == 1:
            for m in shifts:
                out += _bump(np.abs(axis + m) / t, width, power)
        else:
            ax0, ax1 = np.meshgrid(axis, axis, indexing="ij")
            for m0 in shifts:
                for m1 in shifts:
                    r = np.sqrt((ax0 + m0) ** 2 + (ax1 + m1) ** 2) / t
                    out += _bump(r, width, power)
        return amp * out / t ** dim

    def _scale_set(self, local: bool):
        ts = [t for t in self.scales if (t < 1.0 if local else True)]
        if not ts:
            raise ConfigurationError("no scales under 1 available for the local variant")
        return ts

    def _fields(self, f: SampledFunction, local: bool):
        F = np.fft.fftn(f.values)
        for (width, power, t), K in self._kernel_ffts.items():
            if local and t >= 1.0:
                continue
            u = np.fft.ifftn(F * K).real / f.values.size
            yield t, u

    def apply(self, f: SampledFunction, local: bool = False) -> SampledFunction:
        self._check(f)
        self._scale_set(local)
        out = np.zeros_like(f.values)
        for t, u in self._fields(f, local):
            r = _window_radius(t, self.resolution)
            np.maximum(out, window_max(np.abs(u), r), out=out)
        return SampledFunction(out)

    def pointwise_shifted(self, b: SampledFunction, f: SampledFunction,
                          h: SampledFunction, local: bool = False) -> SampledFunction:
        """x -> value at x of the operator applied to b(x) f(.) - h(.).

        Exact: the convolution fields A of f and H of h are formed once per
        (bump, scale), and the window sup of |b(x) A(y) - H(y)| is taken two
        ways, both bitwise equal to looping over every shift of the window:

        - a window with 2r+1 >= N covers the whole torus, so the sup depends
          on x only through b(x): it is the support function of the cloud
          {(A(y), H(y))} in the directions +-(b(x), -1).  It is evaluated over
          the cloud's convex-hull vertices plus every point within a roundoff
          margin of the hull, which contains every floating-point maximizer
          (see `_hull_candidates`);
        - a smaller window loops over its shifts, reading shifted views of
          circularly padded copies of A and H.
        """
        self._check(f)
        if b.values.shape != f.values.shape or h.values.shape != f.values.shape:
            raise ShapeError("mismatched resolutions")
        F = np.fft.fftn(f.values)
        H = np.fft.fftn(h.values)
        bv = b.values
        out = np.zeros_like(f.values)
        size = f.values.size
        for (width, power, t), K in self._kernel_ffts.items():
            if local and t >= 1.0:
                continue
            A = np.fft.ifftn(F * K).real / size
            Hh = np.fft.ifftn(H * K).real / size
            r = _window_radius(t, self.resolution)
            if 2 * r + 1 >= self.resolution:
                _torus_sup(out, bv, A, Hh)
            else:
                _window_sup(out, bv, A, Hh, r)
        return SampledFunction(out)

    def _check(self, f):
        if f.dim != self.dim or f.resolution != self.resolution:
            raise ShapeError("operator built for a different grid")


class LusinArea:
    """Area integral of the Poisson extension over discretized cones.

    The cone integral is a fixed nonnegative quadrature over a dyadic height
    grid: weight t^(1-n) * dt * window measure times the window mean of
    |grad u|^2, so the operator is an exact L2 norm of linear fields.
    """

    is_linear = False

    def __init__(self, dim: int, resolution: int, scales=None):
        self.dim = dim
        self.resolution = resolution
        self.scales = tuple(scales) if scales is not None else default_scales(
            resolution, top_exponent=-1, bottom_exponent=-13, min_cells=1)
        if not self.scales:
            raise ConfigurationError("empty height grid for the area integral")
        self.name = "lusin_area"
        k = frequency_grid(dim, resolution)
        self._knorm = np.sqrt(sum(ki ** 2 for ki in k))
        self._kaxes = k

    def _gradient_multipliers(self, t: float):
        pois = np.exp(-2.0 * math.pi * t * self._knorm)
        mults = [2.0j * math.pi * ka * pois for ka in self._kaxes]
        mults.append(-2.0 * math.pi * self._knorm * pois)
        return mults

    def _weights(self):
        N = self.resolution
        for t in self.scales:
            r = _window_radius(t, N)
            measure = ((2 * r + 1) / N) ** self.dim
            yield t, r, t ** (1 - self.dim) * (t / 2.0) * measure

    def _cone_quadratic(self, F, G) -> np.ndarray:
        """Cone quadrature of the product of gradient fields of two inputs."""
        acc = np.zeros((self.resolution,) * self.dim)
        for t, r, w in self._weights():
            dot = np.zeros_like(acc)
            for mult in self._gradient_multipliers(t):
                a = np.fft.ifftn(F * mult).real
                bb = a if G is F else np.fft.ifftn(G * mult).real
                dot += a * bb
            acc += w * window_mean(dot, r)
        return acc

    def apply(self, f: SampledFunction) -> SampledFunction:
        self._check(f)
        F = np.fft.fftn(f.values)
        return SampledFunction(np.sqrt(np.maximum(self._cone_quadratic(F, F), 0.0)))

    def pointwise_shifted(self, b: SampledFunction, f: SampledFunction,
                          h: SampledFunction) -> SampledFunction:
        """x -> area integral at x of b(x) f(.) - h(.), by quadratic expansion."""
        self._check(f)
        if b.values.shape != f.values.shape or h.values.shape != f.values.shape:
            raise ShapeError("mismatched resolutions")
        F = np.fft.fftn(f.values)
        H = np.fft.fftn(h.values)
        qa = self._cone_quadratic(F, F)
        qc = self._cone_quadratic(F, H)
        qb = self._cone_quadratic(H, H)
        bv = b.values
        return SampledFunction(np.sqrt(np.maximum(bv * bv * qa - 2.0 * bv * qc + qb, 0.0)))

    def _check(self, f):
        if f.dim != self.dim or f.resolution != self.resolution:
            raise ShapeError("operator built for a different grid")


_MAXIMAL_CACHE: dict = {}
_LUSIN_CACHE: dict = {}


def grand_maximal(dim: int, resolution: int) -> GrandMaximal:
    key = (dim, resolution)
    if key not in _MAXIMAL_CACHE:
        _MAXIMAL_CACHE[key] = GrandMaximal(dim, resolution)
    return _MAXIMAL_CACHE[key]


def lusin_area(dim: int, resolution: int) -> LusinArea:
    key = (dim, resolution)
    if key not in _LUSIN_CACHE:
        _LUSIN_CACHE[key] = LusinArea(dim, resolution)
    return _LUSIN_CACHE[key]


def maximal_function(f: SampledFunction, local: bool = False,
                     operator: GrandMaximal | None = None) -> SampledFunction:
    """Grand maximal function of f (sup restricted to scales < 1 when local)."""
    op = operator if operator is not None else grand_maximal(f.dim, f.resolution)
    return op.apply(f, local=local)


def lusin_area_integral(f: SampledFunction,
                        operator: LusinArea | None = None) -> SampledFunction:
    """Lusin area integral of f over the default cone quadrature."""
    op = operator if operator is not None else lusin_area(f.dim, f.resolution)
    return op.apply(f)
