"""Grand maximal operator, its local variant, and the Lusin area integral.

Both operators are built from finitely many linear convolution fields (a bump
dictionary over a dyadic scale grid, Poisson-extension gradients over a dyadic
height grid), so the pointwise-shifted commutator input (b(x) - b(.)) f(.)
expands algebraically: T((b(x) f - h))(x) is exact without one operator
application per grid point.  Each call makes one pass over the dictionary:
kernel spectra sit in one read-only stack sorted by window radius, fields come
from one inverse FFT per input and radius (per height for the area integral),
and the full-torus windows of a radius share one convex hull, of the union of
their point clouds.  The other windows of a radius, and every height's window
mean, are read from one circularly padded stack: a 1-D window sup sweeps all
its shifts, and a 2-D one skips every window row whose bound, from segment
maxima of the fields, cannot raise the running sup, which holds the smaller
radii's sups first.  Every window sup or sum reproduces the kernel-by-kernel,
shift-by-shift result bit for bit, so the subadditivity used by the sandwich
estimates is exact.
"""

from __future__ import annotations

import functools
import math
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import SampledFunction, _GridOperator, _along, _wrap, frequency_grid
from .errors import ConfigurationError, DomainError

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


def _window_radius(t: float, resolution: int) -> int:
    return min(int(t * resolution), resolution // 2)


def _shifted(padded: np.ndarray, n: int, axis: int) -> np.ndarray:
    """View whose entry s is `padded` from s to s + n along the negative `axis`."""
    return np.moveaxis(sliding_window_view(padded, n, axis=axis), (axis - 1, -1), (0, axis))


def _axis_window_max(a: np.ndarray, radius: int, axis: int) -> np.ndarray:
    n = a.shape[axis]
    length = 2 * radius + 1
    if length >= n:
        return np.broadcast_to(a.max(axis=axis, keepdims=True), a.shape).copy()
    # doubling table: after the loop m[i] is the max over padded[i : i + span],
    # and two overlapping runs of length span cover each window of `length`
    m = _wrap(a, radius, radius, axis)
    span = 1
    while 2 * span <= length:
        m = np.maximum(m[_along(axis, slice(0, -span))], m[_along(axis, slice(span, None))])
        span *= 2
    return np.maximum(m[_along(axis, slice(0, n))],
                      m[_along(axis, slice(length - span, length - span + n))])


def window_max(a: np.ndarray, radius: int, dim: int | None = None) -> np.ndarray:
    """Max over the circular box window of per-axis radius `radius` on the
    trailing `dim` axes of `a` (all by default): O(log radius) array maxima
    per axis, exact since max is idempotent and overlapping runs change nothing."""
    if radius < 0:
        raise DomainError(f"window radius must be >= 0, got {radius}")
    out = a
    for axis in range(-(a.ndim if dim is None else dim), 0):
        out = _axis_window_max(out, radius, axis)
    return out


def window_mean(a: np.ndarray, radius, dim: int | None = None) -> np.ndarray:
    """Mean over the circular box window of per-axis radius `radius` (one int,
    or one per row of the leading axis, non-increasing) on the trailing `dim`
    axes of `a` (all by default).  Each row sums shifted views of one copy
    padded at the largest radius in the fixed order x, x[.-1], x[.+1], ...,
    the rows still short of their radius taking a prefix, so the rounding
    depends neither on the window's position nor on the other rows."""
    radii = np.atleast_1d(radius)
    if np.any(radii < 0):
        raise DomainError(f"window radius must be >= 0, got {radius}")
    if np.any(radii[1:] > radii[:-1]):
        raise DomainError("per-row window radii must be non-increasing")
    out = a if np.ndim(radius) else a[None]
    top = int(radii[0])
    rows = np.searchsorted(-radii, -np.arange(1, top + 1), side="right").tolist()
    for axis in range(-(a.ndim if dim is None else dim), 0):
        shifted = _shifted(_wrap(out, top, top, axis), out.shape[axis], axis)
        out = out.copy()
        for d, m in enumerate(rows, 1):
            out[:m] += shifted[top - d, :m]
            out[:m] += shifted[top + d, :m]
        del shifted
        out /= (2 * radii + 1).reshape((-1,) + (1,) * (out.ndim - 1))
    return out if np.ndim(radius) else out[0]


_SUP_BUFFER_ELEMENTS = 1 << 15  # bounds the candidate blocks of the window sups
_HULL_CHUNK = 1 << 13  # bounds the points one hull filter sorts at a time
_SMALL_SEGMENT = 64  # quickhull hands segments this small to the monotone chain


def _monotone_chain(xs: list, ys: list) -> list:
    """Andrew's monotone chain: the lower convex chain of the points
    (xs[k], ys[k]), given in increasing x order, as positions k."""
    chain = []
    for k in range(len(xs)):
        while len(chain) >= 2:
            i, j = chain[-2], chain[-1]
            if (xs[j] - xs[i]) * (ys[k] - ys[i]) > (ys[j] - ys[i]) * (xs[k] - xs[i]):
                break
            chain.pop()
        chain.append(k)
    return chain


def _lower_chain(xs: np.ndarray, ys: np.ndarray) -> list:
    """Indices of the lower convex chain of points with strictly increasing xs.

    Quickhull keeps, per chord, only the points strictly below it (vectorized)
    and splits at the lowest; small segments go to the monotone chain.
    """
    chain = [0]
    stack = [(0, xs.size - 1, np.arange(1, xs.size - 1))]
    while stack:
        i, j, idx = stack.pop()
        cross = (xs[j] - xs[i]) * (ys[idx] - ys[i]) - (ys[j] - ys[i]) * (xs[idx] - xs[i])
        below = cross < 0.0
        idx, cross = idx[below], cross[below]
        if idx.size <= _SMALL_SEGMENT:
            points = np.r_[i, idx, j]
            chain += points[_monotone_chain(xs[points].tolist(), ys[points].tolist())[1:]].tolist()
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
    ~12u max|h|, so a point is dropped only when it lies inside both chains by
    more than `margin`, which bounds both with room to spare.  Then every
    floating-point maximizer survives, and the sup over the survivors is
    bitwise the sup over all points.  Non-finite data keeps every point, and a
    point whose distance overflows is kept.
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


def _block_sup(out: np.ndarray, b: np.ndarray, A: np.ndarray, H: np.ndarray) -> None:
    """out = max(out, max over i of |b A[i] - H[i]| reduced to the shape of
    `out`), with the terms i in blocks of at most `_SUP_BUFFER_ELEMENTS`
    elements (one term at least)."""
    shape = np.broadcast_shapes(b.shape, A.shape[1:])
    block = max(1, _SUP_BUFFER_ELEMENTS // math.prod(shape))
    buf = np.empty((min(block, len(A)),) + shape)
    for start in range(0, len(A), block):
        cand = buf[:min(block, len(A) - start)]
        np.multiply(b, A[start:start + block], out=cand)
        np.subtract(cand, H[start:start + block], out=cand)
        np.abs(cand, out=cand)
        np.maximum(out, np.maximum.reduce(cand.reshape((-1,) + out.shape)), out=out)


def _torus_sup(out: np.ndarray, b: np.ndarray, A: np.ndarray, H: np.ndarray) -> None:
    """out = max(out, max over all points y of |b A(y) - H(y)|), over hull
    candidates: the cloud (the union of the rows of stacked A, H) is filtered
    in chunks of `_HULL_CHUNK` points and their survivors once more, each
    filter keeping every floating-point maximizer."""
    a, h = A.ravel(), H.ravel()
    keep = np.concatenate([start + _hull_candidates(a[start:start + _HULL_CHUNK],
                                                    h[start:start + _HULL_CHUNK], b)
                           for start in range(0, a.size, _HULL_CHUNK)])
    if a.size > _HULL_CHUNK:
        keep = keep[_hull_candidates(a[keep], h[keep], b)]
    points = (-1,) + (1,) * b.ndim
    _block_sup(out, b, a[keep].reshape(points), h[keep].reshape(points))


def _finite_or_nan(a: np.ndarray) -> np.ndarray:
    """`a` with every infinite entry NaN, so that no bound it enters prunes."""
    return np.where(np.isinf(a), np.nan, a)


def _take_rows(part: np.ndarray, b: np.ndarray, segments: list, top: int,
               live: np.ndarray) -> None:
    """part = max(part, the sup over window row l at point c, for every c, l
    with live[c, l]), where part and b are the grid lines from `top` on,
    points c index them flattened, and segments[i][line, column] is the row
    segment of A (i = 0) or H (i = 1), padded on both grid axes with the
    kernel axis last, from that line and column on.  The (c, l) pairs are
    gathered, one contiguous segment each, and both gathered fields fill at
    most `_SUP_BUFFER_ELEMENTS`."""
    n, width, terms = part.shape[1], live.shape[1], segments[0].shape[-1]
    flat, bflat, pairs = part.reshape(-1), b.reshape(-1), np.flatnonzero(live)
    block = max(1, _SUP_BUFFER_ELEMENTS // (2 * terms))
    for start in range(0, pairs.size, block):
        point, row = np.divmod(pairs[start:start + block], width)
        line, col = np.divmod(point, n)
        cand, h = (S[top + line + row, col] for S in segments)
        np.multiply(bflat[point, None], cand, out=cand)
        np.subtract(cand, h, out=cand)
        np.abs(cand, out=cand)
        sups = np.maximum.reduce(cand, axis=1)
        del cand, h  # before the next gather
        np.maximum.at(flat, point, sups)


def _window_sup(out: np.ndarray, b: np.ndarray, A: np.ndarray, H: np.ndarray,
                radius: int) -> None:
    """out = max(out, max over the rows of A, H and the box window at x of
    |b(x) A(y) - H(y)|), from copies of A and H padded circularly on every
    grid axis.

    In 1-D the window is one segment, and every shift is a view (`_shifted`).
    In 2-D the window at x is 2r+1 rows, each one segment along the last
    axis.  Row l at x is bounded by U = fl(fl(|b(x)| WA) + WH), where WA and
    WH are the segment maxima of max_k |A_k| and max_k |H_k|: rounding is
    monotone and odd, so every computed |fl(b a) - h| in the row, which is
    fl(|fl(b a) - h|) with |fl(b a) - h| <= fl(|b| WA) + WH, is at most U.
    Max is exact, so a row with U <= out cannot change a bit.  Infinite
    data or b could put a NaN (inf - inf, 0 * inf) under an infinite U, so
    there U is NaN and the row is kept.  The points go in blocks of whole
    lines whose bounds fill at most `_SUP_BUFFER_ELEMENTS`.  In a block,
    each point first takes its row of largest bound, then every row whose
    bound still exceeds out there (`_take_rows`).
    """
    n, width = b.shape[0], 2 * radius + 1
    if b.ndim == 1:
        _block_sup(out, b, *(_shifted(_wrap(F, radius, radius, -1), n, -1) for F in (A, H)))
        return
    kernels = len(A)
    pads = [_wrap(_wrap(np.moveaxis(F, 0, -1), radius, radius, -3), radius, radius, -2)
            for F in (A, H)]
    segments = [sliding_window_view(F.reshape(len(F), -1), width * kernels, axis=-1)[:, ::kernels]
                for F in pads]
    size = _finite_or_nan(np.abs(b))[..., None]
    wa, wh = (_axis_window_max(_finite_or_nan(np.abs(F).max(axis=0)), radius, -1) for F in (A, H))
    # [x0, x1, l]: WA (WH) of window row l at x
    wa, wh = (np.moveaxis(_shifted(_wrap(W, radius, radius, -2), n, -2), 0, -1) for W in (wa, wh))
    lines = max(1, _SUP_BUFFER_ELEMENTS // (width * n))
    buffer = np.empty(width * min(lines, n) * n)  # the bounds of every block in turn
    for top in range(0, n, lines):
        part = out[top:top + lines].copy()  # contiguous, for `flat` and `_take_rows`
        rows = len(part)
        flat = part.reshape(-1)
        # bound[c, l]: the bound of window row l at point c of the lines
        bound = np.multiply(size[top:top + rows], wa[top:top + rows],
                            out=buffer[:rows * n * width].reshape(rows, n, width))
        bound += wh[top:top + rows]
        bound = bound.reshape(-1, width)
        # each point first takes its row of largest bound (a NaN bound counts as largest)
        first = bound.argmax(axis=1)
        at = np.flatnonzero(~(np.take_along_axis(bound, first[:, None], 1)[:, 0] <= flat))
        taken = np.zeros(bound.shape, dtype=bool)
        taken[at, first[at]] = True
        _take_rows(part, b[top:top + rows], segments, top, taken)
        live = ~(bound <= flat[:, None])
        live[taken] = False
        _take_rows(part, b[top:top + rows], segments, top, live)
        out[top:top + rows] = part


class GrandMaximal(_GridOperator):
    """Nontangential maximal operator over a finite bump dictionary.

    The true object takes a sup over an infinite family of test functions;
    this realization fixes three spline bumps normalized into the admissible
    class and a dyadic scale grid, which is all the norm equivalences used
    here require (constants are fitted, never assumed).
    """

    def __init__(self, dim: int, resolution: int):
        super().__init__(dim, resolution)
        self.scales = default_scales(resolution)
        if not self.scales:
            raise ConfigurationError("empty scale grid for the maximal operator")
        self.name = "maximal"
        # one row per (bump, scale), sorted by (window radius, scale): every
        # radius is a slice, and the local rows (t < 1) come first, since
        # t >= 1 always takes the largest radius N // 2
        rows = sorted(((_window_radius(t, resolution), t, shape)
                       for shape in _BUMP_SHAPES for t in self.scales), key=lambda row: row[:2])
        amps = {shape: _bump_amplitude(*shape, dim) for shape in _BUMP_SHAPES}
        self._spectra = np.empty((len(rows),) + (resolution,) * dim, dtype=complex)
        for spectrum, (_, t, shape) in zip(self._spectra, rows):
            np.fft.fftn(self._sampled_kernel(*shape, amps[shape], t), out=spectrum)
        self._spectra.flags.writeable = False
        self._kernel_scales = tuple(t for _, t, _ in rows)
        self._radii = np.array([r for r, _, _ in rows])
        self._local_rows = sum(t < 1.0 for t in self._kernel_scales)

    def _sampled_kernel(self, width, power, amp, t):
        """Periodized dilation t^-n phi(./t) sampled on the grid."""
        N, dim = self.resolution, self.dim
        reach = int(math.ceil(width * t + 1.0))
        squares = (np.arange(N) / N + np.arange(-reach, reach + 1)[:, None]) ** 2
        out = np.zeros((N,) * dim)
        for square in product(squares, repeat=dim):  # (x_a + m_a)^2 per axis a
            out += _bump(np.sqrt(functools.reduce(np.add.outer, square)) / t, width, power)
        return amp * out / t ** dim

    def _field_groups(self, values: np.ndarray, local: bool):
        """(radius, fields) per window-radius group: fields[i][k] is values[i]
        convolved with the group's k-th kernel, one inverse FFT per input."""
        if local and not self._local_rows:
            raise ConfigurationError("no scales under 1 available for the local variant")
        spectra = np.fft.fftn(values, axes=self._axes)
        radii = self._radii[:self._local_rows if local else None]
        starts = np.flatnonzero(np.diff(radii, prepend=-1)).tolist()
        for start, stop in zip(starts, starts[1:] + [radii.size]):
            yield int(radii[start]), [self._convolve(s, slice(start, stop)) for s in spectra]

    def _convolve(self, spectrum: np.ndarray, rows: slice) -> np.ndarray:
        u = spectrum * self._spectra[rows]
        return np.fft.ifftn(u, axes=self._axes, out=u).real / spectrum.size

    def apply(self, f: SampledFunction, local: bool = False) -> SampledFunction:
        self._check(f)
        out = np.zeros_like(f.values)
        for r, (u,) in self._field_groups(f.values[None], local):
            np.maximum(out, np.maximum.reduce(window_max(np.abs(u, out=u), r, self.dim)), out=out)
        return SampledFunction(out)

    def pointwise_shifted(self, b: SampledFunction, f: SampledFunction,
                          h: SampledFunction, local: bool = False) -> SampledFunction:
        """x -> value at x of the operator applied to b(x) f(.) - h(.).

        Exact: the sup of |b(x) A(y) - H(y)| over the fields A of f and H of h
        of one window radius is bitwise the kernel-by-kernel, shift-by-shift
        one.  A window with 2r+1 >= N covers the torus, so the sup is the
        support function of the union of the clouds {(A(y), H(y))} in the
        directions +-(b(x), -1), evaluated over the hull vertices plus every
        point within a roundoff margin of the hull (`_hull_candidates`).  A
        smaller window goes to `_window_sup`: in 1-D it takes every shift,
        and in 2-D it takes only the window rows whose bound exceeds the
        running sup, which the radii, in ascending order, raise first.
        """
        self._check(f, b, h)
        bv = b.values
        out = np.zeros_like(f.values)
        for r, (A, H) in self._field_groups(np.stack([f.values, h.values]), local):
            if 2 * r + 1 >= self.resolution:
                _torus_sup(out, bv, A, H)
            else:
                _window_sup(out, bv, A, H, r)
        return SampledFunction(out)


class LusinArea(_GridOperator):
    """Area integral of the Poisson extension over discretized cones.

    The cone integral is a fixed nonnegative quadrature over a dyadic height
    grid: weight t^(1-n) * dt * window measure times the window mean of
    |grad u|^2, so the operator is an exact L2 norm of linear fields.
    """

    def __init__(self, dim: int, resolution: int):
        super().__init__(dim, resolution)
        self.scales = default_scales(resolution, top_exponent=-1, bottom_exponent=-13,
                                     min_cells=1)
        if not self.scales:
            raise ConfigurationError("empty height grid for the area integral")
        self.name = "lusin"
        self._kaxes = frequency_grid(dim, resolution)
        self._knorm = np.sqrt(sum(ki ** 2 for ki in self._kaxes))
        # (height t, window radius r, weight t^(1-n) * dt * window measure)
        self._heights = [(t, r, t ** (1 - dim) * (t / 2.0) * ((2 * r + 1) / resolution) ** dim)
                         for t, r in ((t, _window_radius(t, resolution)) for t in self.scales)]

    def _gradient_multipliers(self, t: float):
        pois = np.exp(-2.0 * math.pi * t * self._knorm)
        for ka in self._kaxes:
            yield 2.0j * math.pi * ka * pois
        yield -2.0 * math.pi * self._knorm * pois

    def _height_dots(self, values: np.ndarray, pairs) -> np.ndarray:
        """dots[q, row] = sum over k of grad_k(values[i]) * grad_k(values[j])
        at the row-th height, for pairs[q] = (i, j); the gradient fields of
        every input come from one inverse FFT per height."""
        spectra = np.fft.fftn(values, axes=self._axes)
        dots = np.zeros((len(pairs), len(self.scales)) + values.shape[1:])
        grads = np.empty((len(values), self.dim + 1) + values.shape[1:], dtype=complex)
        for row, t in enumerate(self.scales):
            for k, mult in enumerate(self._gradient_multipliers(t)):
                np.multiply(spectra, mult, out=grads[:, k])
            np.fft.ifftn(grads, axes=self._axes, out=grads)
            for k in range(self.dim + 1):
                for dot, (p, q) in zip(dots, pairs):
                    dot[row] += grads[p, k].real * grads[q, k].real
        return dots

    def _cone_quadratics(self, values: np.ndarray, pairs) -> list:
        """Cone quadrature of the product of the gradient fields of values[i]
        and values[j], per pair (i, j): all heights' window means in one
        sweep (the heights come in non-increasing window radius), one
        quadrature at a time, then w * mean added in height order."""
        radii = [r for _, r, _ in self._heights]
        quadratics = []
        for dot in self._height_dots(values, pairs):
            means = window_mean(dot, radii, self.dim)
            quadratics.append(np.zeros(values.shape[1:]))
            for (_, _, w), mean in zip(self._heights, means):
                quadratics[-1] += w * mean
            del means
        return quadratics

    def apply(self, f: SampledFunction) -> SampledFunction:
        self._check(f)
        qa, = self._cone_quadratics(f.values[None], [(0, 0)])
        return SampledFunction(np.sqrt(np.maximum(qa, 0.0)))

    def pointwise_shifted(self, b: SampledFunction, f: SampledFunction,
                          h: SampledFunction) -> SampledFunction:
        """x -> area integral at x of b(x) f(.) - h(.), by quadratic expansion."""
        self._check(f, b, h)
        qa, qc, qb = self._cone_quadratics(np.stack([f.values, h.values]),
                                           [(0, 0), (0, 1), (1, 1)])
        bv = b.values
        return SampledFunction(np.sqrt(np.maximum(bv * bv * qa - 2.0 * bv * qc + qb, 0.0)))


@functools.cache
def grand_maximal(dim: int, resolution: int) -> GrandMaximal:
    return GrandMaximal(dim, resolution)


@functools.cache
def lusin_area(dim: int, resolution: int) -> LusinArea:
    return LusinArea(dim, resolution)
