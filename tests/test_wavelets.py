import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torwave
from torwave import (CoefficientTree, ConfigurationError, DomainError, DyadicCube,
                     ResolutionError, SampledFunction, ShapeError, analyze, build_basis,
                     default_coarse_level, hardy_norm, lp_norm, min_coarse_level,
                     sampled_wavelet, synthesize, validate_psi_atom,
                     wavelet_square_function)
from torwave.samples import (derive_rng, random_cube, random_function, random_h1_tree,
                             random_psi_atom, random_tree)
from torwave.wavelets import MAX_DAUBECHIES_ORDER, band_index, mother_wavelet, sigma_set

import oracles
from oracles import assert_bitwise_equal, daubechies_residuals, literal_detail_coefficients

ALL_BASES = [("haar", 1), ("daubechies", 2), ("daubechies", 4),
             ("daubechies", 8), ("daubechies", 10)]


def test_haar_filters_are_forced():
    b = build_basis("haar", 1)
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(b.scaling_filter, [s, s], atol=1e-15)
    np.testing.assert_allclose(b.detail_filter, [s, -s], atol=1e-15)


def test_db2_filter_identities():
    b = build_basis("daubechies", 2)
    assert len(b.scaling_filter) == 4
    assert abs(b.scaling_filter.sum() - math.sqrt(2.0)) < 1e-12
    assert abs(np.dot(np.arange(4), b.detail_filter)) < 1e-10


@pytest.mark.parametrize("family,order", ALL_BASES)
def test_filter_invariants(family, order):
    b = build_basis(family, order)
    h, g = b.scaling_filter, b.detail_filter
    L = len(h)
    for shift in range(0, L, 2):
        target = 1.0 if shift == 0 else 0.0
        assert abs(np.dot(h[: L - shift], h[shift:]) - target) < 1e-12
    assert abs(h.sum() - math.sqrt(2.0)) < 1e-12
    assert abs(g.sum()) < 1e-12
    if order >= 2:
        assert abs(np.dot(np.arange(L), g)) < 1e-10
    assert b.support_factor >= 1.0


@pytest.mark.parametrize("order", range(1, MAX_DAUBECHIES_ORDER + 1))
def test_tabulated_taps_solve_the_defining_equations(order):
    b = build_basis("daubechies", order)
    assert len(b.scaling_filter) == 2 * order
    residuals = daubechies_residuals(b.scaling_filter, b.detail_filter, order)
    assert np.abs(residuals).max() <= 1e-15


TAP_BYTES = """
import sys
from torwave import build_basis
taps = [build_basis("daubechies", o).filter_rows for o in range(1, int(sys.argv[1]) + 1)]
sys.stdout.write(b"".join(t.tobytes() for t in taps).hex())
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_taps_do_not_depend_on_the_blas_kernel(coretype):
    # OpenBLAS picks its kernels from the CPU unless OPENBLAS_CORETYPE names one
    src = str(Path(torwave.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", TAP_BYTES, str(MAX_DAUBECHIES_ORDER)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    here = [build_basis("daubechies", o).filter_rows
            for o in range(1, MAX_DAUBECHIES_ORDER + 1)]
    assert done.stdout == b"".join(t.tobytes() for t in here).hex()


def test_bad_configurations():
    with pytest.raises(ConfigurationError, match="haar admits only order 1"):
        build_basis("haar", 3)
    with pytest.raises(ConfigurationError, match="order"):
        build_basis("daubechies", 11)
    with pytest.raises(ConfigurationError):
        build_basis("meyer", 1)


@pytest.mark.parametrize("family,order", ALL_BASES)
@pytest.mark.parametrize("dim,N", [(1, 256), (2, 64)])
def test_perfect_reconstruction(family, order, dim, N, rng):
    basis = build_basis(family, order)
    f = SampledFunction(rng.standard_normal((N,) * dim))
    tree = analyze(f, basis)
    g = synthesize(tree, basis)
    err = np.max(np.abs(g.values - f.values)) / np.max(np.abs(f.values))
    assert err <= 1e-10
    rel = abs(tree.energy() - (f.values ** 2).mean()) / (f.values ** 2).mean()
    assert rel <= 1e-10


def test_filter_longer_than_coarse_grid_is_rejected():
    basis = build_basis("daubechies", 8)  # 16 taps
    f = SampledFunction(np.random.default_rng(0).standard_normal(256))
    with pytest.raises(ResolutionError, match="filter length"):
        analyze(f, basis, coarse_level=2)
    assert min_coarse_level(basis) == 3
    analyze(f, basis, coarse_level=3)  # smallest admissible level works


def test_analyze_of_synthesized_wavelet_is_a_unit_coefficient(db4):
    cube = DyadicCube(1, 4, (7,))
    psi = SampledFunction(sampled_wavelet(db4, 8, cube, (1,)))
    tree = analyze(psi, db4, 2)
    assert abs(tree.detail(cube, (1,)) - 1.0) < 1e-10
    others = tree.energy() - tree.detail(cube, (1,)) ** 2
    assert others < 1e-20
    assert abs(lp_norm(psi, 2.0) - 1.0) < 1e-10
    assert abs(psi.integral()) < 1e-10  # sampled wavelets have mean zero


def test_analyze_zero(db4):
    tree = analyze(SampledFunction(np.zeros(128)), db4, 2)
    assert tree.energy() == 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2]))
def test_round_trip_and_parseval_property(seed, dim):
    basis = build_basis("daubechies", 2)
    rng = derive_rng(seed)
    J = 7 if dim == 1 else 5
    tree = random_tree(rng, dim, 2, J)
    f = synthesize(tree, basis)
    back = analyze(f, basis, 2)
    assert abs(back.energy() - tree.energy()) <= 1e-10 * (1.0 + tree.energy())
    np.testing.assert_allclose(back.coeffs, tree.coeffs, atol=1e-10)


def test_constant_scaling_tree_synthesizes_constant(haar):
    for dim in (1, 2):
        j0, J, c = 2, 6, 3.0
        tree = CoefficientTree.zeros(dim, j0, J)
        tree = tree.replace(scaling=np.full((1 << j0,) * dim,
                                            c * 2.0 ** (-j0 * dim / 2.0)))
        out = synthesize(tree, haar)
        np.testing.assert_allclose(out.values, c, atol=1e-12)


def test_orthonormality_random_pairs(db4, rng):
    J = 8
    seen = set()
    for _ in range(100):
        j = int(rng.integers(3, J))
        k = int(rng.integers(0, 1 << j))
        j2 = int(rng.integers(3, J))
        k2 = int(rng.integers(0, 1 << j2))
        w1 = sampled_wavelet(db4, J, DyadicCube(1, j, (k,)), (1,))
        w2 = sampled_wavelet(db4, J, DyadicCube(1, j2, (k2,)), (1,))
        ip = float((w1 * w2).mean())
        if (j, k) == (j2, k2):
            assert abs(ip - 1.0) < 1e-8
        else:
            assert abs(ip) < 1e-8
        seen.add(((j, k), (j2, k2)))
    assert len(seen) > 50


@pytest.mark.parametrize("dim,J,level", [(1, 6, 3), (2, 4, 2)])
def test_sampled_wavelet_is_the_rolled_mother_wavelet(db4, dim, J, level):
    # the shift is a gather, so it must give np.roll's bytes
    for sigma in sigma_set(dim):
        base = mother_wavelet(db4, dim, J, level, sigma)
        for offset in np.ndindex((1 << level,) * dim):
            shift = tuple(k << (J - level) for k in offset)
            assert_bitwise_equal(
                sampled_wavelet(db4, J, DyadicCube(dim, level, offset), sigma),
                np.roll(base, shift, axis=tuple(range(dim))))


def test_square_function_single_coefficient():
    cube = DyadicCube(1, 4, (5,))
    tree = CoefficientTree.unit_detail(cube, (1,), 3, 8)
    w = wavelet_square_function(tree)
    inside = np.zeros(256, dtype=bool)
    inside[cube.grid_slices(256)] = True
    np.testing.assert_allclose(w.values[inside], cube.measure ** -0.5, atol=1e-12)
    assert np.all(w.values[~inside] == 0.0)
    assert abs(lp_norm(w, 1.0) - cube.measure ** 0.5) < 1e-12


def test_square_function_zero():
    tree = CoefficientTree.zeros(1, 2, 7)
    assert np.all(wavelet_square_function(tree).values == 0.0)


def test_square_function_vs_maximal_estimator_band(db4):
    # the two Hardy estimators stay within a resolution-stable fitted band;
    # atoms stay one dyadic step coarser than the dictionary's finest scale
    bands = []
    for N in (256, 512):
        J = int(N).bit_length() - 1
        ratios = []
        for i in range(12):
            tree, _ = random_psi_atom(derive_rng(99, N, i), 1, 2, J,
                                      level_high=J - 3)
            f = synthesize(tree, db4)
            ratios.append(hardy_norm(f, "H1_maximal")
                          / lp_norm(wavelet_square_function(tree), 1.0))
        bands.append((min(ratios), max(ratios)))
    for lo, hi in bands:
        assert 0.0 < lo <= hi < np.inf
    width = [hi / lo for lo, hi in bands]
    assert max(width) / min(width) < 2.0


def test_psi_atom_validation_cases(rng):
    R = DyadicCube(1, 4, (5,))
    tree = CoefficientTree.unit_detail(R, (1,), 3, 8) * (R.measure ** -0.5)
    assert validate_psi_atom(tree, R)

    outside = CoefficientTree.unit_detail(DyadicCube(1, 5, (1,)), (1,), 3, 8)
    check = validate_psi_atom(outside, R)
    assert not check
    assert any(c.key() == "5:1" for c in check.bad_cubes)

    atom, R2 = random_psi_atom(rng, 1, 2, 8)
    check = validate_psi_atom(atom, R2)
    assert check
    # independent summation of the coefficient budget
    total = float(np.sum(atom.coeffs ** 2))
    assert math.sqrt(total) <= R2.measure ** -0.5 * (1.0 + 1e-10)


@pytest.mark.parametrize("dim,J", [(1, 9), (2, 5)])
@pytest.mark.parametrize("kind", ["psi", "h1", "white"])
def test_cube_lists_match_the_per_band_scans(kind, dim, J):
    """`iter_details` and `validate_psi_atom`'s bad cubes, both read from the
    one cube list, against per-band scans, for cubes R coarser than, equal
    to and finer than the tree's cubes."""
    for seed in range(4):
        rng = derive_rng(49, dim, seed)
        if kind == "psi":
            tree, R = random_psi_atom(rng, dim, 2, J)
        elif kind == "h1":
            tree, R = random_h1_tree(rng, dim, 2, J), random_cube(rng, dim, 2, J - 2)
        else:
            white = random_function(rng, dim, 1 << J, kind="white")
            tree, R = analyze(white, build_basis("haar", 1), 2), random_cube(rng, dim, 2, J - 2)
        details = list(tree.iter_details())
        assert details == list(oracles.iter_details(tree))
        assert all(type(v) is float and type(s) is tuple for _, s, v in details)
        for cube in (DyadicCube(dim, 0, (0,) * dim),
                     DyadicCube(dim, R.level - 1, tuple(k >> 1 for k in R.offset)), R,
                     DyadicCube(dim, R.level + 1, tuple(2 * k + 1 for k in R.offset)),
                     DyadicCube(dim, J, (0,) * dim)):
            assert validate_psi_atom(tree, cube).bad_cubes \
                == oracles.psi_atom_bad_cubes(tree, cube)


@pytest.mark.parametrize("level, offset", [(2, (1.5,)), (2, ("1",)), (2.5, (1,)),
                                           (2, None), (None, (1,))])
def test_cube_level_and_offsets_are_integers(level, offset):
    with pytest.raises(DomainError):
        DyadicCube(1, level, offset)


def test_cube_takes_numpy_integers():
    cube = DyadicCube(2, np.int64(3), np.array([1, 7]))
    assert cube == DyadicCube(2, 3, (1, 7))
    assert type(cube.level) is int and all(type(k) is int for k in cube.offset)


def test_square_function_of_atom_has_unit_l1_budget(rng):
    for i in range(20):
        atom, _ = random_psi_atom(derive_rng(5, i), 1, 2, 9)
        w = wavelet_square_function(atom)
        assert lp_norm(w, 1.0) <= 1.0 + 1e-8


def test_detail_coefficients_match_literal_inner_products(db2, rng):
    # cascade coefficients == grid inner products with synthesized wavelets
    f = rng.standard_normal(64)
    tree = analyze(SampledFunction(f), db2, 2)
    literal = literal_detail_coefficients(f, db2, 2)
    for j in literal:
        np.testing.assert_allclose(tree.band(j, (1,)), literal[j], atol=1e-12)


def test_default_coarse_level_respects_filters():
    assert default_coarse_level(build_basis("haar", 1)) == 2
    assert default_coarse_level(build_basis("daubechies", 4)) == 2
    assert default_coarse_level(build_basis("daubechies", 8)) == 3
    assert default_coarse_level(build_basis("daubechies", 10)) == 4


# -- the coefficient array -------------------------------------------------------

@pytest.mark.parametrize("shape", [(8, 16), (16, 8), (12,), (12, 12), (0,)])
def test_tree_rejects_non_square_or_non_dyadic_arrays(shape):
    with pytest.raises(ShapeError):
        CoefficientTree(np.zeros(shape), 1)


@pytest.mark.parametrize("shape,j0", [((16,), -1), ((16,), 4), ((16,), 5), ((1,), 0),
                                      ((8, 8), 3)])
def test_tree_rejects_bad_coarse_levels(shape, j0):
    with pytest.raises(ResolutionError):
        CoefficientTree(np.zeros(shape), j0)


def test_zero_tree_rejects_bad_levels():
    for j0, J in [(0, -1), (3, 3), (-1, 4)]:
        with pytest.raises(ResolutionError):
            CoefficientTree.zeros(1, j0, J)


def test_non_integral_coarse_levels_are_resolution_errors(db4):
    f = SampledFunction(np.random.default_rng(0).standard_normal(64))
    calls = [lambda: analyze(f, db4, 2.0), lambda: CoefficientTree(np.zeros(16), 2.0),
             lambda: CoefficientTree.zeros(1, 2.0, 4), lambda: analyze(f, db4, "2")]
    for call in calls:
        with pytest.raises(ResolutionError, match="integer"):
            call()
    # numpy integers are integral
    tree = analyze(f, db4, np.int64(2))
    assert type(tree.coarse_level) is int
    assert CoefficientTree.zeros(1, np.int32(2), 4).coarse_level == 2


def test_tree_rejects_other_dimensions():
    for coeffs in (np.zeros((4, 4, 4)), np.float64(1.0)):
        with pytest.raises(DomainError):
            CoefficientTree(coeffs, 1)
    with pytest.raises(DomainError):
        CoefficientTree.zeros(3, 1, 2)


@pytest.mark.parametrize("dim", [1, 2])
def test_tree_blocks_are_read_only_and_tile_the_array(dim):
    tree = random_tree(derive_rng(9), dim, 2, 5)
    blocks = [band_index(2, (0,) * dim)] + [band_index(j, s) for j in tree.levels()
                                             for s in sigma_set(dim)]
    count = np.zeros(tree.coeffs.shape, dtype=int)
    for block in blocks:
        count[block] += 1
    assert (count == 1).all()
    views = [tree.coeffs, tree.scaling] + [tree.band(j, s) for j in tree.levels()
                                           for s in sigma_set(dim)]
    for view in views:
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[(0,) * dim] = 1.0


def test_tree_rejects_blocks_it_lacks():
    tree = CoefficientTree.zeros(2, 2, 5)
    for j, s in [(1, (1, 1)), (5, (0, 1)), (3, (0, 0)), (3, (1,)), (3, (2, 0))]:
        with pytest.raises(ShapeError):
            tree.band(j, s)
    with pytest.raises(ShapeError):
        tree.replace(scaling=np.zeros(4))
    with pytest.raises(ShapeError):
        CoefficientTree.unit_detail(DyadicCube(2, 1, (0, 1)), (1, 1), 2, 5)


def test_orientation_names_the_detail_axes(db4):
    # constant along axis 0, one wavelet along axis 1: only band (3, (0, 1)) is hit
    psi = sampled_wavelet(db4, 5, DyadicCube(1, 3, (2,)), (1,))
    tree = analyze(SampledFunction(np.tile(psi, (32, 1))), db4, 2)
    hit = [(j, s) for j in tree.levels() for s in sigma_set(2)
           if np.abs(tree.band(j, s)).max() > 1e-12]
    assert hit == [(3, (0, 1))]
    assert np.abs(tree.scaling).max() < 1e-12
