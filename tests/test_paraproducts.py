import numpy as np
import pytest

from torwave import (CoefficientTree, DyadicCube, ResolutionError, SampledFunction,
                     ShapeError, analyze, diagonal_coefficient_sum, paraproducts,
                     s_operator, sampled_wavelet, shift_invariance_check, sup_norm,
                     synthesize)
from torwave.samples import derive_rng, random_bmo, random_h1_tree

from oracles import literal_paraproducts


def _tree_pair(rng, basis, N, dim=1, j0=2):
    J = int(N).bit_length() - 1
    ft = random_h1_tree(rng, dim, j0, J)
    g = random_bmo(rng, dim, N)
    return ft, analyze(g, basis, j0)


def test_single_wavelet_pair_is_purely_diagonal(db4):
    cube = DyadicCube(1, 4, (3,))
    tree = CoefficientTree.unit_detail(cube, (1,), 2, 8)
    parts = paraproducts(tree, tree, db4)
    psi = sampled_wavelet(db4, 8, cube, (1,))
    np.testing.assert_allclose(parts.pi3.values, psi ** 2, atol=1e-10)
    for part in (parts.pi1, parts.pi2, parts.pi4, parts.coarse):
        assert sup_norm(part) < 1e-10
    assert parts.residual_inf < 1e-10


def test_constant_second_factor_kills_detail_parts(db4, rng):
    N = 256
    ft = random_h1_tree(rng, 1, 2, 8)
    g = SampledFunction(np.full(N, 4.2))
    gt = analyze(g, db4, 2)
    parts = paraproducts(ft, gt, db4)
    for part in (parts.pi1, parts.pi3, parts.pi4):
        assert sup_norm(part) < 1e-10
    f = synthesize(ft, db4)
    assert sup_norm(f * g - (parts.pi2 + parts.coarse)) <= 1e-8 * (1 + sup_norm(f * g))


@pytest.mark.parametrize("N", [256, 512])
def test_decomposition_identity_random(db4, N):
    rng = derive_rng(31, N)
    ft, gt = _tree_pair(rng, db4, N)
    parts = paraproducts(ft, gt, db4)
    fg = synthesize(ft, db4) * synthesize(gt, db4)
    assert parts.residual_inf <= 1e-8 * (1.0 + sup_norm(fg))
    # the residual reported is against the independently formed product
    assert sup_norm(fg - parts.parts_sum()) <= 1e-8 * (1.0 + sup_norm(fg))


def test_decomposition_identity_2d(db4):
    rng = derive_rng(32)
    ft, gt = _tree_pair(rng, db4, 64, dim=2)
    parts = paraproducts(ft, gt, db4)
    fg = synthesize(ft, db4) * synthesize(gt, db4)
    assert parts.residual_inf <= 1e-8 * (1.0 + sup_norm(fg))


@pytest.mark.parametrize("family,order,N", [("haar", 1, 16), ("daubechies", 2, 32)])
def test_against_literal_sums(family, order, N):
    # every part matches the term-by-term evaluation of its defining sum
    from torwave import build_basis
    basis = build_basis(family, order)
    rng = derive_rng(33, order)
    f = rng.standard_normal(N)
    g = rng.standard_normal(N)
    j0 = 2
    ft = analyze(SampledFunction(f), basis, j0)
    gt = analyze(SampledFunction(g), basis, j0)
    parts = paraproducts(ft, gt, basis)
    lit1, lit2, lit3, lit4, litc = literal_paraproducts(f, g, basis, j0)
    np.testing.assert_allclose(parts.pi1.values, lit1, atol=1e-11)
    np.testing.assert_allclose(parts.pi2.values, lit2, atol=1e-11)
    np.testing.assert_allclose(parts.pi3.values, lit3, atol=1e-11)
    np.testing.assert_allclose(parts.pi4.values, lit4, atol=1e-11)
    np.testing.assert_allclose(parts.coarse.values, litc, atol=1e-11)


def test_s_operator_is_negated_diagonal(db4, rng):
    ft, gt = _tree_pair(rng, db4, 256)
    parts = paraproducts(ft, gt, db4)
    S = s_operator(ft, gt, db4)
    assert np.array_equal(S.values, -parts.pi3.values)


def test_s_operator_on_constant_and_single_wavelet(db4):
    cube = DyadicCube(1, 3, (2,))
    tree = CoefficientTree.unit_detail(cube, (1,), 2, 8)
    gt = analyze(SampledFunction(np.full(256, 7.0)), db4, 2)
    assert sup_norm(s_operator(tree, gt, db4)) < 1e-12

    S = s_operator(tree, tree, db4)
    psi = sampled_wavelet(db4, 8, cube, (1,))
    np.testing.assert_allclose(S.values, -psi ** 2, atol=1e-10)
    assert abs(S.integral() + 1.0) < 1e-10


def test_integral_identity(db4, rng):
    # grid integral of the diagonal part balances the coefficient sum
    ft, gt = _tree_pair(rng, db4, 256)
    S = s_operator(ft, gt, db4)
    assert abs(S.integral() + diagonal_coefficient_sum(ft, gt)) < 1e-10


def test_pi3_bilinearity(db4):
    rng = derive_rng(34)
    ft1, gt = _tree_pair(rng, db4, 128)
    ft2, _ = _tree_pair(rng, db4, 128)
    a, b = 2.5, -1.25
    left = paraproducts(a * ft1 + b * ft2, gt, db4).pi3
    right = a * paraproducts(ft1, gt, db4).pi3 + b * paraproducts(ft2, gt, db4).pi3
    assert sup_norm(left - right) < 1e-10


def test_pi4_symmetry(db4, rng):
    ft, gt = _tree_pair(rng, db4, 256)
    p_fg = paraproducts(ft, gt, db4).pi4
    p_gf = paraproducts(gt, ft, db4).pi4
    assert sup_norm(p_fg - p_gf) < 1e-10


def test_shift_invariance(db4, rng):
    ft, gt = _tree_pair(rng, db4, 256)
    assert shift_invariance_check(ft, gt, db4, 0.0) == 0.0
    f_sup = sup_norm(synthesize(ft, db4))
    assert shift_invariance_check(ft, gt, db4, 5.0) <= 1e-9 * 6.0 * max(f_sup, 1.0)


def test_shift_invariance_haar_small_grid_brute_force(haar):
    # 8-sample grid: adding 1 to g leaves every detail coefficient unchanged
    rng = derive_rng(35)
    f = rng.standard_normal(8)
    g = rng.standard_normal(8)
    j0 = 1
    ft = analyze(SampledFunction(f), haar, j0)
    gt = analyze(SampledFunction(g), haar, j0)
    gt_c = analyze(SampledFunction(g + 1.0), haar, j0)
    for j in gt.levels():
        np.testing.assert_allclose(gt.band(j, (1,)), gt_c.band(j, (1,)), atol=1e-14)
    parts = paraproducts(ft, gt, haar)
    moved = paraproducts(ft, gt_c, haar)
    for a, b in [(parts.pi1, moved.pi1), (parts.pi3, moved.pi3),
                 (parts.pi4, moved.pi4)]:
        assert sup_norm(a - b) < 1e-13


def test_mismatched_layouts_rejected(db4, rng):
    ft = random_h1_tree(rng, 1, 2, 8)
    gt = random_h1_tree(rng, 1, 3, 8)
    with pytest.raises(ShapeError):
        paraproducts(ft, gt, db4)


@pytest.mark.parametrize("layer", [paraproducts, s_operator])
@pytest.mark.parametrize("level", [None, 2.5, -1, 0, 6])
def test_stack_without_a_valid_coarse_level_rejected(db2, layer, level):
    # no level, a fraction, out of 0..J-1, and a level db2's filter wraps on
    with pytest.raises(ResolutionError):
        layer(np.zeros((2, 64)), np.zeros((2, 64)), db2, level, dim=1)


@pytest.mark.parametrize("layer", [paraproducts, s_operator])
def test_tree_paired_with_an_array_rejected(db2, layer):
    tree = analyze(SampledFunction(np.zeros(64)), db2, 2)
    with pytest.raises(ShapeError, match="pairs only with"):
        layer(tree, np.zeros(64), db2, 2, 1)
    with pytest.raises(ShapeError, match="pairs only with"):
        layer(np.zeros(64), tree, db2, 2, 1)
