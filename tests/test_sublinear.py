import tracemalloc

import numpy as np
import pytest

from oracles import assert_bitwise_equal, pointwise_commutator_naive
from torwave import (ConfigurationError, DomainError, SampledFunction, distance_field,
                     grand_maximal, lusin_area)
from torwave.samples import derive_rng, random_bmo, random_function, two_sided_atom
from torwave.sublinear import GrandMaximal, LusinArea, _BUMP_SHAPES, _bump, _bump_amplitude


def test_maximal_of_zero():
    out = grand_maximal(1, 128).apply(SampledFunction(np.zeros(128)))
    assert np.all(out.values == 0.0)


def test_local_below_global(rng):
    # the local variant takes its sup over a strict subset of scales, so the
    # bound is exact; on the unit torus the two often coincide pointwise
    f = random_function(rng, 1, 256) + 2.0
    op = grand_maximal(1, 256)
    M = op.apply(f, local=False)
    m = op.apply(f, local=True)
    assert np.all(m.values <= M.values)
    assert 0 < op._local_rows < len(op._kernel_scales)


def test_maximal_dominates_scaled_pointwise_values():
    N = 1024
    x = np.arange(N) / N
    f = SampledFunction(np.sin(2 * np.pi * x))
    op = grand_maximal(1, N)
    M = op.apply(f)
    def mass(width, power):
        """Integral over the line of the normalized bump."""
        u = np.linspace(0.0, width, 20001)
        return 2.0 * np.trapezoid(_bump_amplitude(width, power, 1) * _bump(u, width, power), u)

    largest = max(mass(w, p) for w, p in _BUMP_SHAPES)
    assert np.all(M.values >= largest * np.abs(f.values) - 1e-3)


def test_empty_scale_grid_rejected():
    # at N = 1 no scale of either grid covers enough cells
    with pytest.raises(ConfigurationError):
        GrandMaximal(1, 1)
    with pytest.raises(ConfigurationError):
        LusinArea(1, 1)


def test_local_without_scales_under_one_rejected():
    # at N = 4 the scale grid is (2, 1): the local variant has nothing to take
    op = grand_maximal(1, 4)
    f = SampledFunction(np.arange(4.0))
    for call in (lambda: op.apply(f, local=True),
                 lambda: op.pointwise_shifted(f, f, 0 * f, local=True)):
        with pytest.raises(ConfigurationError):
            call()


@pytest.mark.parametrize("cls", [GrandMaximal, LusinArea])
@pytest.mark.parametrize("dim", [0, 3])
def test_unsupported_dimension_rejected(cls, dim):
    with pytest.raises(DomainError):
        cls(dim, 8)


def test_lusin_heights_come_in_non_increasing_radius():
    # window_mean sweeps the heights in their stored order, which needs this
    for J in range(1, 15):
        radii = [r for _, r, _ in LusinArea(1, 1 << J)._heights]
        assert radii == sorted(radii, reverse=True), J


def test_sampled_kernel_single_formula_keeps_1d_bits():
    # sqrt(fl(y^2)) = |y| in binary64, so the dimension-free radius
    # reproduces the former 1-D kernel, sum of bumps at |x + m| / t
    N = 256
    op = grand_maximal(1, N)
    axis = np.arange(N) / N
    for width, power in _BUMP_SHAPES:
        amp = _bump_amplitude(width, power, 1)
        for t in op.scales:
            reach = int(np.ceil(width * t + 1.0))
            old = np.zeros(N)
            for m in range(-reach, reach + 1):
                old += _bump(np.abs(axis + m) / t, width, power)
            assert_bitwise_equal(op._sampled_kernel(width, power, amp, t), amp * old / t)


@pytest.mark.parametrize("factory", [grand_maximal, lusin_area])
def test_pointwise_shifted_transient_memory(factory):
    # the commutator_identity riesz1 run at N = 128 peaks at about 4.5 MiB of
    # transients; the sublinear stacks at N = 64 must stay under that
    rng = derive_rng(83)
    f = random_function(rng, 2, 64)
    b = random_bmo(rng, 2, 64)
    h = b * f
    op = factory(2, 64)
    tracemalloc.start()
    try:
        op.pointwise_shifted(b, f, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def test_lusin_of_constant_and_homogeneity(rng):
    op = lusin_area(1, 256)
    assert np.all(op.apply(SampledFunction(np.full(256, 5.0))).values == 0.0)
    f = random_function(rng, 1, 256)
    np.testing.assert_array_equal(op.apply(2.0 * f).values, 2.0 * op.apply(f).values)


def test_lusin_atom_decay_slope():
    # tail of the area integral of a small atom decays like distance^-(n+1)
    N, r = 2048, 2.0 ** -6
    a = two_sided_atom(N, r, 0.5)
    S = lusin_area(1, N).apply(a)
    d = distance_field(1, N, (0.5 + r,))  # atom support starts at the edge
    mask = (d > 4 * r) & (d < 0.25)
    slope = np.polyfit(np.log(d[mask]), np.log(S.values[mask] + 1e-300), 1)[0]
    assert abs(slope - (-2.0)) < 0.3


@pytest.mark.parametrize("factory", [grand_maximal, lusin_area])
def test_pointwise_shifted_matches_literal_definition(factory):
    N = 64
    rng = derive_rng(81)
    f = random_function(rng, 1, N)
    b = random_bmo(rng, 1, N)
    op = factory(1, N)
    fast = op.pointwise_shifted(b, f, b * f)
    naive = pointwise_commutator_naive(op, b, f)
    np.testing.assert_allclose(fast.values, naive.values, atol=1e-12)


def test_pointwise_shifted_matches_literal_definition_2d():
    N = 16
    rng = derive_rng(82)
    f = random_function(rng, 2, N)
    b = random_bmo(rng, 2, N)
    for op in (grand_maximal(2, N), lusin_area(2, N)):
        fast = op.pointwise_shifted(b, f, b * f)
        naive = pointwise_commutator_naive(op, b, f)
        np.testing.assert_allclose(fast.values, naive.values, atol=1e-12)


def test_subadditivity_of_realized_operators(rng):
    # exact for the discretizations: max of |linear| and L2 of linear fields
    f = random_function(rng, 1, 128)
    g = random_function(rng, 1, 128)
    for op in (grand_maximal(1, 128), lusin_area(1, 128)):
        lhs = op.apply(f + g).values
        rhs = op.apply(f).values + op.apply(g).values
        assert np.all(lhs <= rhs + 1e-12)
