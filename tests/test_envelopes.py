"""The array envelope machinery against the cube-keyed oracles, bit for bit.

`tests/oracles.py` keeps the wavelet matrix as a dict keyed by cube pairs and
evaluates `p_delta` one pair of cubes at a time.  The COO matrix, the
broadcast `p_delta` and their callers must give the same bytes: the same
entries in the same order, the same applied trees and triplet text, and the
same fitted and composition constants.  delta = 0.5 makes the scale
exponent non-integral.
"""

import numpy as np
import pytest

from torwave import (CoefficientTree, ConfigurationError, almost_diagonal_envelope_fit,
                     build_basis, p_delta, parse_operator, pdelta_composition_check,
                     wavelet_matrix)
from torwave.samples import random_cube
from torwave.wavelets import coeff_index

import oracles
from oracles import assert_bitwise_equal

# (basis, dim, N, levels), with R_1, the Hilbert transform in 1-D
MATRICES = {
    "haar-1d": (("haar", 1), 1, 256, range(2, 7)),
    "db4-1d": (("daubechies", 4), 1, 256, range(2, 7)),
    "haar-2d": (("haar", 1), 2, 32, range(1, 3)),
}


@pytest.fixture(scope="module", params=sorted(MATRICES))
def matrices(request):
    (family, order), dim, N, levels = MATRICES[request.param]
    basis = build_basis(family, order)
    op = parse_operator("riesz1", dim, N)
    return wavelet_matrix(op, basis, levels), oracles.wavelet_matrix_entries(op, basis, levels)


def test_coo_arrays_list_the_entries_in_order(matrices):
    mat, entries = matrices
    shape = (1 << mat.levels.stop,) * mat.dim
    flat = lambda key: np.ravel_multi_index(coeff_index(*key), shape)
    assert mat.rows.tolist() == [flat(src) for src, _ in entries]
    assert mat.cols.tolist() == [flat(dst) for _, dst in entries]
    assert_bitwise_equal(mat.values, np.array(list(entries.values())))


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_coo_arrays_equal_the_per_column_loop(name):
    # one stacked op.apply and analyze against one wavelet at a time
    (family, order), dim, N, levels = MATRICES[name]
    basis = build_basis(family, order)
    op = parse_operator("riesz1", dim, N)
    mat = wavelet_matrix(op, basis, levels)
    rows, cols, values = oracles.wavelet_matrix_columns(op, basis, levels)
    assert_bitwise_equal(mat.rows, rows)
    assert_bitwise_equal(mat.cols, cols)
    assert_bitwise_equal(mat.values, values)


def test_triplet_text_is_unchanged(matrices):
    mat, entries = matrices
    assert mat.to_triplets() == oracles.to_triplets(entries)


def test_apply_tree_matches_the_entry_loop(matrices):
    mat, entries = matrices
    rng = np.random.default_rng(61)
    for J in (mat.levels.stop, mat.levels.stop + 2):
        coeffs = rng.standard_normal((1 << J,) * mat.dim)
        coeffs[rng.random(coeffs.shape) < 0.3] = 0.0  # entries the loop skips
        coeffs[rng.random(coeffs.shape) < 0.1] = -0.0
        tree = CoefficientTree(coeffs, mat.levels.start)
        assert_bitwise_equal(mat.apply_tree(tree).coeffs,
                             oracles.apply_tree(entries, tree).coeffs)
        assert_bitwise_equal(mat.transpose().apply_tree(tree).coeffs,
                             oracles.apply_tree({(dst, src): v for (src, dst), v
                                                 in entries.items()}, tree).coeffs)


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_p_delta_over_all_entries(matrices, delta):
    _, entries = matrices
    src = [cube for (cube, _), _ in entries]
    dst = [cube for _, (cube, _) in entries]
    profile = p_delta(np.array([I.level for I in src]), np.array([I.offset for I in src]),
                      np.array([I.level for I in dst]), np.array([I.offset for I in dst]),
                      delta)
    assert_bitwise_equal(profile, np.array([oracles.p_delta(I, I2, delta)
                                            for I, I2 in zip(src, dst)]))


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_envelope_fit_matches_the_entry_loop(matrices, delta):
    mat, entries = matrices
    fit = almost_diagonal_envelope_fit(mat, delta)
    expected = oracles.almost_diagonal_envelope_fit(entries, mat.dim, mat.levels, delta)
    assert_bitwise_equal(fit.fitted_C, expected.fitted_C)
    assert fit.worst_pair == expected.worst_pair


def test_envelope_fit_needs_a_wavelet_matrix():
    with pytest.raises(ConfigurationError):
        almost_diagonal_envelope_fit(parse_operator("hilbert", 1, 64), 1.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_p_delta_on_random_pairs(dim, delta):
    rng = np.random.default_rng(100 + dim)
    pairs = [(random_cube(rng, dim, 0, 9), random_cube(rng, dim, 0, 9))
             for _ in range(600)]
    expected = np.array([oracles.p_delta(I, I2, delta) for I, I2 in pairs])
    levels = np.array([[I.level, I2.level] for I, I2 in pairs]).reshape(20, 30, 2)
    offsets = np.array([[I.offset, I2.offset] for I, I2 in pairs]).reshape(20, 30, 2, dim)
    profile = p_delta(levels[..., 0], offsets[..., 0, :], levels[..., 1],
                      offsets[..., 1, :], delta)
    assert_bitwise_equal(profile, expected.reshape(20, 30))
    I, I2 = pairs[0]
    one = p_delta(I.level, I.offset, I2.level, I2.offset, delta)
    assert type(one) is np.float64 and one == expected[0]


@pytest.mark.parametrize("dim, levels, samples", [(1, range(2, 7), 30), (1, range(2, 8), 10),
                                                  (2, range(2, 6), 4)])
@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_composition_check_matches_the_cube_loop(dim, levels, samples, delta):
    got = pdelta_composition_check(levels, delta, samples, dim=dim, seed=9)
    assert type(got) is float
    assert_bitwise_equal(got, oracles.pdelta_composition_check(levels, delta, samples,
                                                               dim=dim, seed=9))
