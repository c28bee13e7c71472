"""The polyphase filter bank of `wavelets` against the per-tap roll steps in
`oracles`, byte for byte.

`_down` reads strided views of one wrap-padded copy, `_up` computes each
output phase from the taps of matching parity, and `projection_stack` and
`coarse_projection` climb a scaling-only ladder.  They keep the oracles'
order of adds, so every array must be identical down to the sign of zero and
the NaN payload.
"""

import numpy as np
import pytest

import oracles
from oracles import assert_bitwise_equal
from torwave import (CoefficientTree, SampledFunction, analyze, build_basis,
                     coarse_projection, projection_stack, synthesize)
from torwave.wavelets import (_down, _up, default_coarse_level, min_coarse_level,
                              scaling_cascade, sigma_set)

BASES = {"haar": ("haar", 1), "db2": ("daubechies", 2), "db4": ("daubechies", 4),
         "db8": ("daubechies", 8), "db10": ("daubechies", 10)}
KINDS = ["random", "zeros", "signed_zeros", "small_int"]


def _basis(name):
    return build_basis(*BASES[name])


def _values(kind, rng, shape):
    if kind == "random":
        return rng.standard_normal(shape)
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "signed_zeros":  # mostly ±0.0, so outputs hold exact zeros of either sign
        return rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0], shape)
    return rng.integers(-2, 3, shape).astype(float)


def _cases(dim, sizes):
    """(basis, grid shape, coarse level) at the smallest and the default coarse level."""
    out = []
    for name in BASES:
        basis = _basis(name)
        for j0 in sorted({min_coarse_level(basis), default_coarse_level(basis)}):
            out += [(name, (N,) * dim, j0) for N in sizes if N > 1 << j0]
    return out


CASES = _cases(1, [1 << k for k in range(1, 11)]) + _cases(2, [16, 32, 64])


def _tree(kind, rng, dim, j0, J):
    details = {j: {s: _values(kind, rng, (1 << j,) * dim) for s in sigma_set(dim)}
               for j in range(j0, J)}
    return CoefficientTree(dim, j0, J, _values(kind, rng, (1 << j0,) * dim), details)


@pytest.mark.parametrize("name,shape,j0", CASES,
                         ids=[f"{n}-{len(s)}d-N{s[0]}-j0={j}" for n, s, j in CASES])
@pytest.mark.parametrize("kind", KINDS)
def test_filter_bank_matches_roll_steps(name, shape, j0, kind):
    basis = _basis(name)
    dim, J = len(shape), shape[0].bit_length() - 1
    rng = np.random.default_rng([J, dim, j0, KINDS.index(kind)])

    f = SampledFunction(_values(kind, rng, shape))
    tree = analyze(f, basis, j0)
    scaling, details = oracles.roll_analyze(f, basis, j0)
    assert_bitwise_equal(tree.scaling, scaling)
    for j in tree.levels():
        for s in sigma_set(dim):
            assert_bitwise_equal(tree.details[j][s], details[j][s])

    tree = _tree(kind, rng, dim, j0, J)
    assert_bitwise_equal(synthesize(tree, basis).values, oracles.roll_synthesize(tree, basis))
    for new, old in [(scaling_cascade(tree, basis), oracles.roll_scaling_cascade(tree, basis)),
                     (projection_stack(tree, basis), oracles.roll_projection_stack(tree, basis))]:
        assert new.keys() == old.keys()
        for j in old:
            assert_bitwise_equal(new[j], old[j])


@pytest.mark.parametrize("name,shape,j0", CASES,
                         ids=[f"{n}-{len(s)}d-N{s[0]}-j0={j}" for n, s, j in CASES])
@pytest.mark.parametrize("kind", KINDS)
def test_coarse_projection_is_the_bottom_of_the_stack(name, shape, j0, kind):
    # P_{j0} alone climbs the same ladder as row 0 of the stack, so no bit moves
    basis = _basis(name)
    dim, J = len(shape), shape[0].bit_length() - 1
    tree = _tree(kind, np.random.default_rng([J, dim, j0, KINDS.index(kind), 1]),
                 dim, j0, J)
    assert_bitwise_equal(coarse_projection(tree, basis), projection_stack(tree, basis)[j0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the sums
@pytest.mark.parametrize("name", BASES)
@pytest.mark.parametrize("shape,axis", [((32,), 0), ((16, 8), 0), ((8, 16), 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernels_on_non_finite_and_integer_input(name, shape, axis, bad):
    basis = _basis(name)
    h, g = basis.scaling_filter, basis.detail_filter
    rng = np.random.default_rng(len(h))
    lo = rng.standard_normal(shape)
    hi = rng.choice([0.0, -0.0, 2.0], shape)
    lo.flat[[0, 5]] = bad
    hi.flat[[3, 5, -1]] = [bad, -bad, bad]

    assert_bitwise_equal(_up((lo, hi), basis.filter_rows, axis),
                         oracles._up_pair(lo, hi, h, g, axis))
    assert_bitwise_equal(_up((lo,), basis.filter_rows, axis),
                         oracles._up_pair(lo, np.zeros(shape), h, g, axis))
    down = _down(lo, basis.filter_rows, axis)
    assert_bitwise_equal(down[0], oracles._down(lo, h, axis))
    assert_bitwise_equal(down[1], oracles._down(lo, g, axis))

    ints = rng.integers(-3, 4, shape)
    assert_bitwise_equal(_up((ints, ints[::-1]), basis.filter_rows, axis),
                         oracles._up_pair(ints, ints[::-1], h, g, axis))
    down = _down(ints, basis.filter_rows, axis)
    assert_bitwise_equal(down[0], oracles._down(ints, h, axis))
    assert_bitwise_equal(down[1], oracles._down(ints, g, axis))
