"""The polyphase filter bank of `wavelets` against the per-tap roll steps in
`oracles`, byte for byte, and every batched layer against its own rows.

`_down` reads strided views of one wrap-padded copy, `_up` sums each output
phase as one contiguous accumulator over the taps of matching parity and
interleaves the two phases once, and `projection_stack` and
`coarse_projection` climb a scaling-only ladder.  They keep the oracles'
order of adds, so every array must be identical down to the sign of zero and
the NaN payload.
"""

import numpy as np
import pytest

import oracles
from oracles import assert_bitwise_equal
from torwave import (CoefficientTree, CommutatorDecomposition, ProductDecomposition,
                     SampledFunction, analyze, bilinear_decomposition, build_basis,
                     coarse_projection, commutator_parts, hardy_norm, paraproducts,
                     parse_operator, projection_stack, s_operator, synthesize,
                     wavelet_square_function)
from torwave.core import _wrap
from torwave.norms import _square_masses
from torwave.wavelets import (MAX_DAUBECHIES_ORDER, _cascade, _down, _up, band_index,
                              default_coarse_level, min_coarse_level, sigma_set)

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
    coeffs = np.zeros((1 << J,) * dim)
    for j in range(j0, J):
        for s in sigma_set(dim):
            coeffs[band_index(j, s)] = _values(kind, rng, (1 << j,) * dim)
    coeffs[band_index(j0, (0,) * dim)] = _values(kind, rng, (1 << j0,) * dim)
    return CoefficientTree(coeffs, j0)


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
            assert_bitwise_equal(tree.band(j, s), details[j][s])

    tree = _tree(kind, rng, dim, j0, J)
    assert_bitwise_equal(synthesize(tree, basis).values, oracles.roll_synthesize(tree, basis))
    cascade = _cascade(tree.coeffs, basis, tree.coarse_level, tree.dim)
    for new, old in [(cascade, oracles.roll_scaling_cascade(tree, basis)),
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
    assert_bitwise_equal(coarse_projection(tree.coeffs, basis, j0, dim),
                         projection_stack(tree, basis)[j0])


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
    axis -= len(shape)  # the kernels take the axis counted from the end

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


# -- the phase-major `_up` and the circular pad --------------------------------
#
# One case and stacks with leading shape (2, 3), along the one axis of a 1-D
# grid and along both axes of a 2-D one.  An axis of 8 is shorter than the
# longer filters, so their pad wraps more than once.

UP_LAYOUTS = [((), (32,), -1), ((), (8, 16), -1), ((), (16, 8), -2),
              ((2, 3), (32,), -1), ((2, 3), (8, 16), -1), ((2, 3), (16, 8), -2)]


@pytest.mark.parametrize("lead,shape,axis", UP_LAYOUTS,
                         ids=[f"{len(lead)}lead-{len(shape)}d-axis{axis}"
                              for lead, shape, axis in UP_LAYOUTS])
@pytest.mark.parametrize("order", range(1, MAX_DAUBECHIES_ORDER + 1))
def test_up_matches_the_zero_stuffed_oracle(order, lead, shape, axis):
    basis = build_basis("daubechies", order)
    h, g = basis.scaling_filter, basis.detail_filter
    rng = np.random.default_rng(order)
    sparse = rng.choice([0.0, -0.0], (2,) + lead + shape)
    sparse.flat[[0, -1]] = [1.5, -2.0]
    for lo, hi in [(_values(kind, rng, lead + shape), _values(kind, rng, lead + shape))
                   for kind in KINDS] + [tuple(sparse)]:
        both = _up((lo, hi), basis.filter_rows, axis)
        assert_bitwise_equal(both, oracles._up_pair(lo, hi, h, g, axis))
        assert_bitwise_equal(_up((lo,), basis.filter_rows, axis),
                             oracles._up_pair(lo, np.zeros_like(lo), h, g, axis))
    # the signed zeros away from the two nonzero inputs sum to +0.0
    zeros = both[both == 0.0]
    assert zeros.size and not np.signbit(zeros).any()


@pytest.mark.parametrize("lead", [(), (2, 3)])
@pytest.mark.parametrize("n", [1, 5, 8])
@pytest.mark.parametrize("axis", [-1, -2])
def test_wrap_equals_the_modular_gather(lead, n, axis):
    """Pads of at most n entries are concatenated slices, longer ones a
    gather; both must give `np.take`'s bytes, -0.0 and a NaN payload kept."""
    shape = lead + ((n, 3) if axis == -2 else (3, n))
    a = np.random.default_rng(n).standard_normal(shape)
    a.flat[::4] = -0.0
    a.view(np.uint64).flat[1] = 0x7FF8000000000123
    for before, after in [(0, 0), (0, n), (n, 0), (n, n), (1, 0), (0, 1),
                          (n + 1, 0), (0, n + 1), (2 * n + 3, 3 * n + 1)]:
        want = np.take(a, np.arange(-before, n + after) % n, axis=axis)
        assert_bitwise_equal(_wrap(a, before, after, axis), want)


# -- the leading batch axis ---------------------------------------------------
#
# Every batched layer must give each case of a stack the bytes it gives that
# case alone.  The stacks have leading shape (2, 3) and mix the value kinds,
# so rows of zeros and of signed zeros sit beside random rows.

LEAD = (2, 3)
BATCH_CASES = [(name, dim, N) for name in ("haar", "db2", "db8")
               for dim, N in ((1, 64), (2, 16))]
BATCH_IDS = [f"{name}-{dim}d-N{N}" for name, dim, N in BATCH_CASES]


def _stack(rng, shape):
    rows = [_values(KINDS[i % len(KINDS)], rng, shape) for i in range(np.prod(LEAD))]
    return np.stack(rows).reshape(LEAD + shape)


def _tree_stack(rng, dim, j0, J):
    rows = [_tree(KINDS[i % len(KINDS)], rng, dim, j0, J).coeffs
            for i in range(np.prod(LEAD))]
    return np.stack(rows).reshape(LEAD + ((1 << J),) * dim)


@pytest.mark.parametrize("name,dim,N", BATCH_CASES, ids=BATCH_IDS)
def test_batched_filter_bank_equals_its_rows(name, dim, N):
    basis = _basis(name)
    j0, J = min_coarse_level(basis), N.bit_length() - 1
    rng = np.random.default_rng([N, dim, len(basis.scaling_filter)])

    values = _stack(rng, (N,) * dim)
    coeffs = analyze(values, basis, j0, dim)
    trees = _tree_stack(rng, dim, j0, J)
    synthesized = synthesize(trees, basis, j0, dim)
    cascade = _cascade(trees, basis, j0, dim)
    projections = projection_stack(trees, basis, j0, dim)
    coarse = coarse_projection(trees, basis, j0, dim)
    square = wavelet_square_function(trees, j0, dim)
    for i in np.ndindex(LEAD):
        assert_bitwise_equal(coeffs[i], analyze(SampledFunction(values[i]), basis, j0).coeffs)
        tree = CoefficientTree(trees[i], j0)
        assert_bitwise_equal(synthesized[i], synthesize(tree, basis).values)
        single = _cascade(trees[i], basis, j0, dim)
        assert cascade.keys() == single.keys()
        for j in single:
            assert_bitwise_equal(cascade[j][i], single[j])
        single = projection_stack(tree, basis)
        assert projections.keys() == single.keys()
        for j in single:
            assert_bitwise_equal(projections[j][i], single[j])
        assert_bitwise_equal(coarse[i], coarse_projection(trees[i], basis, j0, dim))
        assert_bitwise_equal(square[i], wavelet_square_function(tree).values)


@pytest.mark.parametrize("name,dim,N", BATCH_CASES, ids=BATCH_IDS)
def test_batched_hardy_estimate_equals_its_rows(name, dim, N):
    basis = _basis(name)
    values = _stack(np.random.default_rng([N, dim, 7]), (N,) * dim)
    j0 = min_coarse_level(basis)
    detail, coarse = _square_masses(values, basis, j0, dim)
    total = hardy_norm(values, "H1_square", basis, j0, dim)
    for i in np.ndindex(LEAD):
        f = SampledFunction(values[i])
        single = _square_masses(f, basis, j0)
        assert_bitwise_equal(np.array([detail[i], coarse[i]]), np.array(single))
        assert_bitwise_equal(total[i], np.float64(hardy_norm(f, "H1_square", basis, j0)))
        # a stack of no leading axes is one case too
        assert_bitwise_equal(np.array(_square_masses(values[i], basis, j0, dim)),
                             np.array(single))


@pytest.mark.parametrize("op", ["hilbert", "ifrac:0.5", "riesz1", "riesz2", "identity"])
def test_batched_multiplier_equals_its_rows(op):
    dim = 2 if op.startswith("riesz") else 1
    T = parse_operator(op, dim, 32)
    values = _stack(np.random.default_rng(len(op)), (32,) * dim)
    out = T.apply(values)
    assert out.shape == values.shape
    for i in np.ndindex(LEAD):
        assert_bitwise_equal(out[i], T.apply(SampledFunction(values[i])).values)


@pytest.mark.parametrize("name,dim,N", BATCH_CASES, ids=BATCH_IDS)
def test_batched_paraproducts_equal_their_rows(name, dim, N):
    basis = _basis(name)
    j0, J = min_coarse_level(basis), N.bit_length() - 1
    rng = np.random.default_rng([N, dim, 11])
    fc, gc = _tree_stack(rng, dim, j0, J), _tree_stack(rng, dim, j0, J)
    # one case of f without the coarsest detail level, and one case of g with
    # no detail at all: the diagonal layer skips cases, not whole bands
    fc[0, 1][band_index(j0 + 1, (0,) * dim)] = 0.0
    scaling = gc[1, 2][band_index(j0, (0,) * dim)].copy()
    gc[1, 2] = 0.0
    gc[1, 2][band_index(j0, (0,) * dim)] = scaling
    batch = paraproducts(fc, gc, basis, j0, dim)
    diagonal = s_operator(fc, gc, basis, j0, dim)
    T = parse_operator(f"riesz{dim}", dim, N)  # the Hilbert transform in 1-D
    b = _stack(rng, (N,) * dim)
    f = synthesize(fc, basis, j0, dim)
    commutator = commutator_parts(b, T, f, batch)
    decomposition = bilinear_decomposition(b, T, f, basis, j0, dim)
    # a stack gets the one-case result types, with array fields
    assert type(batch) is ProductDecomposition
    assert type(commutator) is type(decomposition) is CommutatorDecomposition
    assert batch.residual_inf.shape == decomposition.residual_inf.shape == LEAD
    for i in np.ndindex(LEAD):
        f_tree, g_tree = CoefficientTree(fc[i], j0), CoefficientTree(gc[i], j0)
        single = paraproducts(f_tree, g_tree, basis)
        for part in ("pi1", "pi2", "pi3", "pi4", "coarse"):
            assert_bitwise_equal(getattr(batch, part)[i], getattr(single, part).values)
        assert_bitwise_equal(batch.residual_inf[i], np.float64(single.residual_inf))
        assert_bitwise_equal(diagonal[i], s_operator(f_tree, g_tree, basis).values)
        row = commutator_parts(b[i], T, f[i], paraproducts(fc[i], gc[i], basis, j0, dim))
        for part in ("R_part", "S_image", "commutator", "residual_inf"):
            assert_bitwise_equal(getattr(commutator, part)[i], getattr(row, part))
        case = bilinear_decomposition(SampledFunction(b[i]), T, SampledFunction(f[i]),
                                      basis, j0)
        for part in ("R_part", "S_image", "commutator"):
            assert_bitwise_equal(getattr(decomposition, part)[i], getattr(case, part).values)
        assert_bitwise_equal(decomposition.residual_inf[i], np.float64(case.residual_inf))
