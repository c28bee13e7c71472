import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torwave import (CoefficientTree, ConfigurationError, ContractError, DomainError,
                     ResolutionError, ShapeError, MultiplierOperator, SampledFunction,
                     almost_diagonal_envelope_fit, analyze, grand_maximal, inner,
                     k_class_ratio, lusin_area, p_delta, parse_operator,
                     pdelta_composition_check, synthesize, wavelet_matrix)
from torwave.core import frequency_grid
from torwave.operators import WaveletMatrixOperator
from torwave.samples import derive_rng, random_bmo, random_classical_atom, random_cube, random_h1_tree

import oracles


def test_hilbert_on_cosine():
    x = np.arange(256) / 256
    out = parse_operator("hilbert", 1, 256).apply(SampledFunction(np.cos(2 * np.pi * x)))
    np.testing.assert_allclose(out.values, np.sin(2 * np.pi * x), atol=1e-10)


def test_hilbert_annihilates_constants():
    H = parse_operator("hilbert", 1, 128)
    out = H.apply(SampledFunction(np.full(128, 3.0)))
    assert np.all(out.values == 0.0)
    # mean of any image vanishes: the symbol is zero at frequency zero
    rng = np.random.default_rng(1)
    img = H.apply(SampledFunction(rng.standard_normal(128)))
    assert abs(img.integral()) < 1e-14


def test_fractional_symbol_on_single_frequency():
    x = np.arange(256) / 256
    k, alpha = 3, 0.5
    f = SampledFunction(np.cos(2 * np.pi * k * x))
    out = parse_operator(f"ifrac:{alpha}", 1, 256).apply(f)
    np.testing.assert_allclose(out.values,
                               (2 * np.pi * k) ** -alpha * f.values, atol=1e-12)


# every linear spec of the grammar in dims 1 and 2, and its closed-form symbol
SYMBOL_FORMULAS = {
    (1, "identity"): oracles.identity_symbol, (1, "hilbert"): oracles.hilbert_symbol,
    (1, "riesz1"): oracles.hilbert_symbol, (1, "ifrac:0.5"): oracles.fractional_symbol(0.5),
    (2, "identity"): oracles.identity_symbol, (2, "riesz1"): oracles.riesz_symbol(0),
    (2, "riesz2"): oracles.riesz_symbol(1), (2, "ifrac:0.5"): oracles.fractional_symbol(0.5),
    (2, "ifrac:1.5"): oracles.fractional_symbol(1.5),
}


@pytest.mark.parametrize("dim, spec", sorted(SYMBOL_FORMULAS))
def test_spec_symbol_is_its_formula_bit_for_bit(dim, spec):
    # the sign of every zero included: the 1-D sign symbol is (0, -0.0) at
    # k = 0, where the Riesz formula imposes (0, +0.0)
    N = 64 if dim == 1 else 16
    want = np.array(SYMBOL_FORMULAS[dim, spec](*frequency_grid(dim, N)), dtype=complex)
    if spec.startswith("ifrac:"):
        want[(0,) * dim] = 0.0
    assert parse_operator(spec, dim, N).symbol_array(N).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, spec", sorted(SYMBOL_FORMULAS)
                         + [(dim, spec) for dim in (1, 2) for spec in ("maximal", "lusin")])
def test_operator_name_parses_back_to_the_operator(dim, spec):
    N = 64 if dim == 1 else 16
    T = parse_operator(spec, dim, N)
    U = parse_operator(T.name, T.dim, N)
    assert T.name == U.name == spec
    if T.is_linear:
        assert U.symbol_array(N).tobytes() == T.symbol_array(N).tobytes()
    else:
        assert U is T is (grand_maximal if spec == "maximal" else lusin_area)(dim, N)


def test_unflagged_singular_symbol_is_a_configuration_error():
    bad = MultiplierOperator("inv", lambda k: 1.0 / np.abs(k), 1, bound=None)
    with pytest.raises(ConfigurationError, match="unbounded_at_zero"):
        bad.apply(SampledFunction(np.ones(64)))


def test_linearity_and_adjoint(rng):
    H = parse_operator("hilbert", 1, 128)
    f = SampledFunction(rng.standard_normal(128))
    g = SampledFunction(rng.standard_normal(128))
    a, b = 1.7, -0.3
    lhs = H.apply(a * f + b * g)
    rhs = a * H.apply(f) + b * H.apply(g)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)
    assert abs(inner(H.apply(f), g) - inner(f, H.adjoint().apply(g))) < 1e-10
    R = parse_operator("riesz1", 2, 32)
    f2 = SampledFunction(rng.standard_normal((32, 32)))
    g2 = SampledFunction(rng.standard_normal((32, 32)))
    assert abs(inner(R.apply(f2), g2) - inner(f2, R.adjoint().apply(g2))) < 1e-10


# -- p_delta -----------------------------------------------------------------

def test_p_delta_diagonal_and_domain():
    assert p_delta(3, (1,), 3, (1,), 1.0) == 1.0
    with pytest.raises(DomainError):
        p_delta(3, (1,), 3, (1,), 1.5)
    with pytest.raises(DomainError):
        p_delta(3, (1,), 3, (1,), 0.0)
    with pytest.raises(ShapeError):
        p_delta(3, (1,), 3, (1, 1), 1.0)
    for bad in [(2.5, (1,)), (-1, (0,)), (3, (0.5,)), (np.array([2, -1]), [(1,), (0,)])]:
        with pytest.raises(DomainError):
            p_delta(*bad, 3, (1,), 1.0)
        with pytest.raises(DomainError):
            p_delta(3, (1,), *bad, 1.0)


def test_p_delta_hand_value():
    # n=1, delta=1, levels 3 and 4, centers 3/16 and 9/32: distance 3/32,
    # sides sum 3/16, so the ratio term is (2/3)^(3/2); scale term is 1/4.
    expected = 0.25 * (2.0 / 3.0) ** 1.5
    assert abs(p_delta(3, (1,), 4, (4,), 1.0) - expected) < 1e-12
    assert abs(expected - 0.13608276348795434) < 1e-15


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 31))
def test_p_delta_symmetry(seed):
    rng = derive_rng(seed)
    I = random_cube(rng, 1, 2, 7)
    I2 = random_cube(rng, 1, 2, 7)
    assert (p_delta(I.level, I.offset, I2.level, I2.offset, 1.0)
            == p_delta(I2.level, I2.offset, I.level, I.offset, 1.0))


def test_composition_single_cube():
    assert pdelta_composition_check(range(0, 1), 1.0, 3) == 1.0


def test_composition_widening_stability():
    base = pdelta_composition_check(range(2, 6), 1.0, 50, seed=3)
    wide = pdelta_composition_check(range(2, 7), 1.0, 50, seed=3)
    assert math.isfinite(wide)
    assert max(base, wide) / min(base, wide) < 2.0


# -- wavelet matrices ---------------------------------------------------------

def test_identity_matrix(db4):
    mat = wavelet_matrix(parse_operator("identity", 1, 128), db4, range(2, 6), 1, 128)
    assert set(mat.rows[mat.rows == mat.cols]) == set(range(4, 64))
    np.testing.assert_allclose(mat.values, (mat.rows == mat.cols).astype(float),
                               rtol=0, atol=1e-10)
    env = almost_diagonal_envelope_fit(mat, 1.0)
    assert abs(env.fitted_C - 1.0) < 1e-10


def test_wavelet_matrix_needs_a_linear_operator(haar):
    # a sublinear operator, and a wavelet matrix itself, which has no `apply`
    mat = wavelet_matrix(parse_operator("hilbert", 1, 64), haar, range(2, 4), 1, 64)
    for op, match in [(grand_maximal(1, 64), "not linear"), (mat, "apply_tree")]:
        with pytest.raises(ContractError, match=match):
            wavelet_matrix(op, haar, range(2, 4), 1, 64)


def test_zero_matrix_fits_zero(db4):
    zero = MultiplierOperator("zero", lambda k: np.zeros_like(k, dtype=complex), 1)
    mat = wavelet_matrix(zero, db4, range(2, 5), 1, 128)
    env = almost_diagonal_envelope_fit(mat, 1.0)
    assert env.fitted_C == 0.0
    with pytest.raises(DomainError):
        almost_diagonal_envelope_fit(
            WaveletMatrixOperator("none", 1, range(2, 2), [], [], []), 1.0)


def test_hilbert_haar_matrix_is_antisymmetric(haar):
    mat = wavelet_matrix(parse_operator("hilbert", 1, 128), haar, range(2, 6), 1, 128)
    entries = dict(zip(zip(mat.rows.tolist(), mat.cols.tolist()), mat.values.tolist()))
    assert len(entries) == mat.values.size
    for (src, dst), v in entries.items():
        assert abs(v + entries.get((dst, src), 0.0)) < 1e-10


def test_matrix_apply_matches_apply_then_analyze(db4):
    N, J = 256, 8
    levels = range(2, 7)
    H = parse_operator("hilbert", 1, N)
    mat = wavelet_matrix(H, db4, levels, 1, N)
    inside = slice(1 << levels.start, 1 << levels.stop)  # the bands of `levels`
    for i in range(20):
        rng = derive_rng(71, i)
        coeffs = np.zeros(N)
        coeffs[inside] = random_h1_tree(rng, 1, 2, J).coeffs[inside]
        tree = CoefficientTree(coeffs, 2)
        out_mat = mat.apply_tree(tree)
        out_dir = analyze(H.apply(synthesize(tree, db4)), db4, 2)
        worst = np.abs(out_mat.coeffs[inside] - out_dir.coeffs[inside]).max()
        scale = np.abs(out_dir.coeffs[inside]).max()
        assert worst <= 1e-6 * max(scale, 1e-12)


def test_matrix_triplet_export(db4):
    mat = wavelet_matrix(parse_operator("identity", 1, 64), db4, range(2, 4), 1, 64)
    text = mat.to_triplets()
    lines = text.splitlines()
    assert len(lines) == mat.values.size
    assert lines == sorted(lines)
    level, offsets = lines[0].split(" ")[0].split(":")[:2]
    assert level == "2" and offsets == "0"


def test_envelope_stability_when_levels_widen(db4):
    H = parse_operator("hilbert", 1, 256)
    fit1 = almost_diagonal_envelope_fit(
        wavelet_matrix(H, db4, range(2, 6), 1, 256), 1.0).fitted_C
    fit2 = almost_diagonal_envelope_fit(
        wavelet_matrix(H, db4, range(2, 7), 1, 256), 1.0).fitted_C
    assert max(fit1, fit2) / min(fit1, fit2) < 2.0


# -- membership ratios ---------------------------------------------------------

def test_k_class_constant_b_contributes_zero(rng):
    a, Q = random_classical_atom(rng, 1, 256)
    Ta = parse_operator("hilbert", 1, 256).apply(a)
    b_const = SampledFunction(np.full(256, 9.9))
    b_Q = float(b_const.values[Q.grid_slices(256)].mean())
    val = float(np.abs((b_const.values - b_Q) * Ta.values).mean())
    assert val == 0.0


def test_k_class_identity_direct(rng):
    # with T = identity the ratio reduces to a direct atom computation
    val = k_class_ratio(parse_operator("identity", 1, 256), atoms=5, b_samples=3, seed=2,
                        resolution=256)
    assert 0.0 < val < np.inf
    a, Q = random_classical_atom(derive_rng(2), 1, 256)
    b = random_bmo(derive_rng(2, 1), 1, 256)
    b_Q = float(b.values[Q.grid_slices(256)].mean())
    direct = float(np.abs((b.values - b_Q) * a.values).mean())
    assert direct < np.inf


def test_k_class_hilbert_finite():
    val = k_class_ratio(parse_operator("hilbert", 1, 512), atoms=10, b_samples=3, seed=1,
                        resolution=512)
    assert 0.0 < val < np.inf


def test_k_class_other_members_finite():
    val = k_class_ratio(grand_maximal(1, 256), atoms=4, b_samples=2, seed=2,
                        resolution=256)
    assert 0.0 < val < np.inf
    val = k_class_ratio(parse_operator("riesz1", 2, 64), atoms=3, b_samples=2, seed=2,
                        dim=2, resolution=64)
    assert 0.0 < val < np.inf


@pytest.mark.parametrize("spec, dim, N", [("hilbert", 1, 256), ("riesz1", 2, 32)])
def test_k_class_ratio_equals_one_row_draws(spec, dim, N):
    """Each atom's BMO samples are one stack of `[rng] * b_samples`, equal
    to that many one-row draws bit for bit."""
    T = parse_operator(spec, dim, N)
    got = k_class_ratio(T, atoms=3, b_samples=4, seed=6, dim=dim, resolution=N)
    assert got == oracles.k_class_ratio(T, atoms=3, b_samples=4, seed=6, dim=dim,
                                        resolution=N)


def test_typed_errors_of_the_envelope_and_k_class_family():
    with pytest.raises(ShapeError):  # (2,) and (3,) cube arrays do not broadcast
        p_delta(np.array([1, 2]), np.array([[0], [1]]), np.array([1, 2, 3]),
                np.array([[0], [1], [2]]), 0.5)
    with pytest.raises(ShapeError):  # offsets need a per-axis last axis
        p_delta(1, 0, 1, 0, 0.5)
    with pytest.raises(DomainError):  # a negative level
        pdelta_composition_check(range(-1, 3), 1.0, 2)
    with pytest.raises(ResolutionError):  # classical atoms need N >= 16
        k_class_ratio(parse_operator("hilbert", 1, 8), 2, 2, 1, 1, 8)


def test_matrix_transpose_swaps_keys(haar):
    mat = wavelet_matrix(parse_operator("hilbert", 1, 128), haar, range(2, 5), 1, 128)
    trans = mat.transpose()
    np.testing.assert_array_equal(trans.rows, mat.cols)
    np.testing.assert_array_equal(trans.cols, mat.rows)
    np.testing.assert_array_equal(trans.values, mat.values)
    # <M^T x, y> = <x, M y> over the bands of the levels
    rng = np.random.default_rng(5)
    x, y = (CoefficientTree(rng.standard_normal(128), 2) for _ in range(2))
    inside = slice(4, 32)
    lhs = np.dot(trans.apply_tree(x).coeffs[inside], y.coeffs[inside])
    rhs = np.dot(x.coeffs[inside], mat.apply_tree(y).coeffs[inside])
    assert abs(lhs - rhs) < 1e-12



MULTIPLIERS = {"hilbert": ("hilbert", 1), "riesz1": ("riesz1", 2), "ifrac": ("ifrac:0.5", 1)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # nan and inf in the transforms
@pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", MULTIPLIERS)
def test_batched_multiplier_rows_against_one_row_calls(name, bad):
    """Finite rows of a batched apply equal the one-row result bit for bit; a
    row holding a non-finite sample comes out NaN where the one-row result is
    NaN, but a NaN's sign bit may differ between the two."""
    spec, dim = MULTIPLIERS[name]
    N = 64 if dim == 1 else 16
    T = parse_operator(spec, dim, N)
    X = derive_rng(71, dim).standard_normal((3,) + (N,) * dim)
    if bad is not None:
        X[1].flat[5] = bad
    Y = T.apply(X)
    for i in range(3):
        y = T.apply(SampledFunction(X[i])).values
        if bad is None or i != 1:
            assert Y[i].tobytes() == y.tobytes()
        else:
            np.testing.assert_array_equal(np.isnan(Y[i]), np.isnan(y))
            assert np.isnan(y).any()
            keep = ~np.isnan(y)
            assert Y[i][keep].tobytes() == y[keep].tobytes()
