"""The window kernels of `sublinear` against the shift-loop oracles, bit for bit.

`pointwise_shifted` takes full-torus windows through a convex hull.  Its
other windows are padded views in 1-D; in 2-D they skip every window row
whose bound cannot raise the running sup, gather the rows left at each
point, and sweep a row densely where it is left at most points.
`window_max` uses a doubling max and `window_mean` padded views.  All of
them must reproduce the one-`np.roll`-per-shift loops in `oracles` exactly,
degenerate point clouds, tied bounds, subnormal, overflowing and
non-finite data included, down to the sign of zero that the JSON records
carry.  The operators run one pass over stacked kernels and heights; they
must reproduce the one-kernel, one-height loops in `oracles` exactly too.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import assert_bitwise_equal
from torwave import SampledFunction, grand_maximal, lusin_area
from torwave.errors import DomainError
from torwave.samples import derive_rng, random_bmo, random_function
from torwave import sublinear
from torwave.sublinear import _torus_sup, _window_sup, window_max, window_mean

GRIDS = [(1, 64), (1, 256), (1, 512), (2, 16), (2, 32), (2, 64)]


def _radii(N):
    return [0, 1, 5, N // 2 - 1, N // 2, N + 3]


@pytest.mark.parametrize("dim,N", GRIDS)
@pytest.mark.parametrize("kernel,oracle", [(window_max, oracles.window_max),
                                           (window_mean, oracles.window_mean)],
                         ids=["window_max", "window_mean"])
def test_window_kernels_match_shift_loop(dim, N, kernel, oracle):
    a = np.random.default_rng(N + dim).standard_normal((N,) * dim)
    for radius in _radii(N):
        assert_bitwise_equal(kernel(a, radius), oracle(a, radius))


@pytest.mark.parametrize("dim,N", GRIDS)
def test_stacked_window_kernels_match_per_row(dim, N):
    rng = np.random.default_rng(N + dim)
    stack = rng.standard_normal((5,) + (N,) * dim)
    for radius in _radii(N):  # one radius for the whole stack
        for kernel, oracle in ((window_max, oracles.window_max),
                               (window_mean, oracles.window_mean)):
            for row, a in zip(kernel(stack, radius, dim), stack):
                assert_bitwise_equal(row, oracle(a, radius))
    mixed = [N + 3, N // 2, 5, 5, 0]  # one radius per row, as in the height sweep
    for row, a, radius in zip(window_mean(stack, mixed, dim), stack, mixed):
        assert_bitwise_equal(row, oracles.window_mean(a, radius))
    with pytest.raises(DomainError):
        window_mean(stack, mixed[::-1], dim)


def test_negative_window_radius_is_a_domain_error():
    with pytest.raises(DomainError):
        window_mean(np.arange(8.0), -1)
    with pytest.raises(DomainError):  # one radius per row
        window_mean(np.ones((2, 8)), [2, -1], 1)
    with pytest.raises(DomainError):
        window_max(np.arange(8.0), -1)


@pytest.mark.parametrize("dim,N", GRIDS)
def test_operator_apply_matches_per_kernel_loop(dim, N):
    rng = derive_rng(92, dim, N)
    f = random_function(rng, dim, N)
    maximal, lusin = grand_maximal(dim, N), lusin_area(dim, N)
    for local in (False, True):
        assert_bitwise_equal(maximal.apply(f, local).values,
                             oracles.maximal_apply(maximal, f, local).values)
    assert_bitwise_equal(lusin.apply(f).values, oracles.lusin_apply(lusin, f).values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite b
@pytest.mark.parametrize("dim,N", GRIDS)
@pytest.mark.parametrize("bad", [None, np.nan, np.inf])
def test_lusin_pointwise_shifted_matches_per_height_loop(dim, N, bad):
    rng = derive_rng(93, dim, N)
    f = random_function(rng, dim, N)
    bv = random_bmo(rng, dim, N).values.copy()
    if bad is not None:
        bv.flat[[1, N // 2]] = bad
    b = SampledFunction(bv)
    op = lusin_area(dim, N)
    for h in (b * f, random_function(rng, dim, N)):
        new = op.pointwise_shifted(b, f, h).values
        old = oracles.lusin_pointwise_shifted(op, b, f, h).values
        # numpy's inverse FFT of a stack carries NaN operands through in
        # another order than that of one row, so only a NaN's sign bit may
        # differ; unlike the maximal operator, no abs() clears it here
        assert_bitwise_equal(np.where(np.isnan(new), np.nan, new),
                             np.where(np.isnan(old), np.nan, old))


@pytest.mark.parametrize("dim,N", GRIDS)
@pytest.mark.parametrize("independent_h", [False, True])
def test_pointwise_shifted_matches_shift_loop(dim, N, independent_h):
    rng = derive_rng(90, dim, N)
    f = random_function(rng, dim, N)
    b = random_bmo(rng, dim, N)
    h = random_function(rng, dim, N) if independent_h else b * f
    op = grand_maximal(dim, N)
    for local in (False, True):
        assert_bitwise_equal(op.pointwise_shifted(b, f, h, local).values,
                             oracles.pointwise_shifted(op, b, f, h, local).values)


def _family_values(kind, draw, shape):
    """Grid values of one degenerate family."""
    if kind == "zero":
        return np.zeros(shape)
    if kind == "constant":
        return np.full(shape, float(draw(st.integers(-3, 3))))
    if kind == "small_int":
        return np.array(draw(st.lists(st.integers(-2, 2), min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape)))),
                        dtype=float).reshape(shape)
    return np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal(shape)


KINDS = ["zero", "constant", "small_int", "random"]


@settings(deadline=None, max_examples=60)
@given(data=st.data(), grid=st.sampled_from([(1, 8), (1, 32), (2, 4), (2, 8), (2, 16)]),
       f_kind=st.sampled_from(KINDS), b_kind=st.sampled_from(KINDS[1:]),
       h_kind=st.sampled_from(["b*f", *KINDS]))
def test_pointwise_shifted_degenerate_clouds(data, grid, f_kind, b_kind, h_kind):
    dim, N = grid
    shape = (N,) * dim
    f = SampledFunction(_family_values(f_kind, data.draw, shape))
    b = SampledFunction(_family_values(b_kind, data.draw, shape))
    h = b * f if h_kind == "b*f" else SampledFunction(_family_values(h_kind, data.draw, shape))
    op = grand_maximal(dim, N)
    assert_bitwise_equal(op.pointwise_shifted(b, f, h).values,
                         oracles.pointwise_shifted(op, b, f, h).values)


def _every_point_sup(b, a, h):
    out = np.zeros_like(b)
    for ai, hi in zip(a, h):
        np.maximum(out, np.abs(b * ai - hi), out=out)
    return out


@settings(deadline=None, max_examples=100)
@given(points=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       min_size=1, max_size=40),
       scale=st.sampled_from([1.0, 1e-3, 1e7, 0.1]),
       b=st.lists(st.integers(-4, 4), min_size=1, max_size=16),
       chunk=st.integers(1, 48))
def test_torus_sup_on_integer_clouds(points, scale, b, chunk):
    # raw clouds with exact duplicates, collinear runs and tied directions,
    # filtered whole or in chunks whose survivors are filtered once more
    a = np.array([p[0] for p in points], dtype=float) * scale
    h = np.array([p[1] for p in points], dtype=float) * scale
    bv = np.array(b, dtype=float)
    out = np.zeros_like(bv)
    with mock.patch.object(sublinear, "_HULL_CHUNK", chunk):
        _torus_sup(out, bv, a, h)
    assert_bitwise_equal(out, _every_point_sup(bv, a, h))


def test_torus_sup_near_collinear_ties():
    # points on a line up to rounding, probed at slopes within a few ulps of
    # it: floating point then picks maximizers just inside the exact hull,
    # which only the roundoff margin keeps
    rng = np.random.default_rng(1)
    for _ in range(2000):
        slope, offset = rng.standard_normal(2)
        a = rng.standard_normal(12)
        h = slope * a + offset
        bv = np.r_[slope, slope + rng.standard_normal(8) * 1e-15 * rng.choice([1, 1e3, 1e6])]
        out = np.zeros_like(bv)
        _torus_sup(out, bv, a, h)
        assert_bitwise_equal(out, _every_point_sup(bv, a, h))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # FFTs of non-finite input
@pytest.mark.parametrize("grid", [(1, 8), (1, 64), (2, 8), (2, 16)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("independent_h", [False, True])
def test_pointwise_shifted_non_finite_b(grid, bad, independent_h):
    dim, N = grid
    rng = derive_rng(91, dim, N)
    f = random_function(rng, dim, N)
    bv = random_bmo(rng, dim, N).values.copy()
    bv.flat[[1, N // 2]] = bad
    b = SampledFunction(bv)
    h = random_function(rng, dim, N) if independent_h else b * f
    op = grand_maximal(dim, N)
    new = op.pointwise_shifted(b, f, h).values
    assert_bitwise_equal(new, oracles.pointwise_shifted(op, b, f, h).values)
    if independent_h:  # only the points where b is bad go non-finite
        np.testing.assert_array_equal(~np.isfinite(new), ~np.isfinite(bv))
    else:  # h = b f carries the bad value into every field
        assert not np.isfinite(new).any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # FFTs of non-finite input
@pytest.mark.parametrize("dim,N", GRIDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pointwise_shifted_non_finite_b_local(dim, N, bad):
    rng = derive_rng(94, dim, N)
    f = random_function(rng, dim, N)
    bv = random_bmo(rng, dim, N).values.copy()
    bv.flat[[1, N // 2]] = bad
    b = SampledFunction(bv)
    h = b * f if np.isnan(bad) else random_function(rng, dim, N)
    op = grand_maximal(dim, N)
    for local in (False, True):
        assert_bitwise_equal(op.pointwise_shifted(b, f, h, local).values,
                             oracles.pointwise_shifted(op, b, f, h, local).values)


SUP_N = 16  # 2-D partial radii 1..7
# (module constant, value): as set, one line and one pair per block, every
# kept row swept densely, no row swept densely
SUP_VARIANTS = [("_DENSE_ROW_SHARE", sublinear._DENSE_ROW_SHARE), ("_SUP_BUFFER_ELEMENTS", 64),
                ("_DENSE_ROW_SHARE", 0.0), ("_DENSE_ROW_SHARE", np.inf)]


def _sup_fields(kind, scale, b_scale, rng):
    """(b, A, H) of one 2-D family: three kernels on an SUP_N grid."""
    shape = (3, SUP_N, SUP_N)
    if kind == "ties":  # constant fields: every row's bound ties at every point
        A, H = (np.broadcast_to(rng.integers(-3, 4, (3, 1, 1)), shape) for _ in range(2))
        b = np.full(shape[1:], rng.integers(-3, 4))
    elif kind == "integers":  # exact duplicates and tied maximizers
        A, H = rng.integers(-3, 4, (2,) + shape)
        b = rng.integers(-4, 5, shape[1:])
    else:
        A, H = rng.standard_normal((2,) + shape)
        b = rng.standard_normal(shape[1:])
    return b * b_scale, A * scale, H * scale


def _assert_window_sup_matches(b, A, H):
    for radius in (1, 3, 7):
        for out in (np.zeros_like(b), oracles.window_sup(np.zeros_like(b), b, A, H, 0)):
            expected = oracles.window_sup(out, b, A, H, radius)
            for variant in SUP_VARIANTS:
                got = out.copy()
                with mock.patch.object(sublinear, *variant):
                    _window_sup(got, b, A, H, radius)
                assert_bitwise_equal(got, expected)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow to inf
@pytest.mark.parametrize("kind", ["ties", "integers", "normal"])
@pytest.mark.parametrize("scale,b_scale", [(1.0, 1.0), (1e-3, 1.0), (1e7, 1.0), (1e-310, 1.0),
                                           (1e-310, 1e-310), (1e300, 1e300)],
                         ids=["1", "1e-3", "1e7", "subnormal", "underflow", "overflow"])
def test_window_sup_matches_shift_loop(kind, scale, b_scale):
    # 2-D partial windows from a zero and from a running sup, with blocks of
    # one line and one pair, and with every or no kept row swept densely;
    # at 1e-310 the products are subnormal or zero, at 1e300 they overflow
    # and the row bound is inf
    b, A, H = _sup_fields(kind, scale, b_scale, np.random.default_rng(17))
    _assert_window_sup_matches(b, A, H)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, 0 * inf
@pytest.mark.parametrize("kind", ["integers", "normal"])
@pytest.mark.parametrize("where", [0, 1, 2], ids=["b", "A", "H"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_window_sup_non_finite(kind, where, bad):
    fields = list(_sup_fields(kind, 1.0, 1.0, np.random.default_rng(18)))
    fields[where] = fields[where].copy()
    fields[where].flat[[5, 77, fields[where].size - 1]] = bad
    if where:  # the same points of H (A) as well, so that inf - inf occurs
        fields[3 - where] = fields[3 - where].copy()
        fields[3 - where].flat[5] = bad
    _assert_window_sup_matches(*fields)


def test_pointwise_shifted_memory_is_bounded():
    # the row bounds and gathered rows go in blocks of `_SUP_BUFFER_ELEMENTS`;
    # one whole-grid bound array alone would take 8.1 MiB here
    N = 128
    rng = derive_rng(95, 2, N)
    f, b, h = random_function(rng, 2, N), random_bmo(rng, 2, N), random_function(rng, 2, N)
    op = grand_maximal(2, N)
    tracemalloc.start()
    try:
        op.pointwise_shifted(b, f, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20, peak / 2 ** 20
