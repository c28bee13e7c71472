from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from oracles import assert_bitwise_equal
from torwave import (CancellationError, ContractError, DegeneracyError, DomainError,
                     DyadicCube, MultiplierOperator, SampledFunction, ShapeError, analyze,
                     atomic_decompose, bilinear_decomposition, commutator_apply,
                     commutator_parts, h1b_characterizations, inner, lp_norm, make_qb_atom,
                     molecule_norm, paraproducts, parse_operator, subbilinear_envelope, sup_norm,
                     synthesize, validate_atom, validate_psi_atom, wavelet_matrix,
                     wavelet_square_function, weak_lp_quasinorm)
from torwave.samples import (derive_rng, random_bmo, random_classical_atom,
                             random_function, random_h1_tree, random_psi_atom)
from torwave.sublinear import grand_maximal, lusin_area
from torwave.wavelets import CoefficientTree, build_basis


def _pair(seed, N=512, dim=1, j0=2, basis=None):
    rng = derive_rng(seed)
    J = int(N).bit_length() - 1
    ft = random_h1_tree(rng, dim, j0, J)
    f = synthesize(ft, basis)
    b = random_bmo(rng, dim, N)
    return f, b


# -- commutator_apply ----------------------------------------------------------

def test_constant_symbol_vanishes(db4):
    f, _ = _pair(1, basis=db4)
    b = SampledFunction(np.full(512, 4.0))
    H = parse_operator("hilbert", 1, 512)
    assert sup_norm(commutator_apply(b, H, f)) < 1e-12
    M = grand_maximal(1, 512)
    assert sup_norm(commutator_apply(b, M, f)) < 1e-12


def test_linearity_in_f(db4):
    f, b = _pair(2, basis=db4)
    H = parse_operator("hilbert", 1, 512)
    lhs = commutator_apply(b, H, 3.0 * f)
    rhs = 3.0 * commutator_apply(b, H, f)
    assert sup_norm(lhs - rhs) <= 1e-10 * (1 + sup_norm(rhs))


def test_frequency_domain_oracle():
    # convolution-theorem values: [cos, H]cos = 0 and [cos, H]sin = -1/2
    x = np.arange(256) / 256
    b = SampledFunction(np.cos(2 * np.pi * x))
    H = parse_operator("hilbert", 1, 256)
    out = commutator_apply(b, H, SampledFunction(np.cos(2 * np.pi * x)))
    assert sup_norm(out) < 1e-12
    out = commutator_apply(b, H, SampledFunction(np.sin(2 * np.pi * x)))
    np.testing.assert_allclose(out.values, -0.5, atol=1e-12)


def test_sublinear_operator_takes_the_pointwise_form(db4):
    f, b = _pair(3, N=64, basis=db4)
    for M in (grand_maximal(1, 64), lusin_area(1, 64)):
        assert_bitwise_equal(commutator_apply(b, M, f).values,
                             M.pointwise_shifted(b, f, b * f).values)


def test_wavelet_matrix_is_no_operator_on_sampled_functions(haar, db4):
    # it is linear, but acts on coefficient trees only: a typed error, not an
    # AttributeError from a missing `apply`
    mat = wavelet_matrix(parse_operator("hilbert", 1, 64), haar, range(2, 4), 1, 64)
    f, b = _pair(6, N=64, basis=db4)
    parts = paraproducts(analyze(f, db4, 2).coeffs, analyze(b, db4, 2).coeffs, db4, 2, 1)
    with pytest.raises(ContractError, match="apply_tree"):
        commutator_apply(b, mat, f)
    with pytest.raises(ContractError, match="apply_tree"):
        commutator_parts(b.values, mat, f.values, parts)
    with pytest.raises(ContractError, match="apply_tree"):
        bilinear_decomposition(b, mat, f, db4, 2)


def test_sublinear_form_needs_the_pointwise_path(db4):
    # the literal per-point evaluation lives in tests/oracles.py, not in the library
    f, b = _pair(3, N=64, basis=db4)
    with pytest.raises(ContractError, match="pointwise_shifted"):
        commutator_apply(b, SimpleNamespace(name="opaque", is_linear=False), f)
    with pytest.raises(ContractError, match="pointwise_shifted"):
        subbilinear_envelope(b, parse_operator("hilbert", 1, 64), f, db4, 2)


_F8 = SampledFunction(np.linspace(-1.0, 1.0, 8))
# each one-case layer with the array np.ones(8) in place of one SampledFunction
ONE_CASE_LAYERS = {
    "inner": lambda x: inner(x, _F8),
    "commutator_apply": lambda x: commutator_apply(_F8, parse_operator("hilbert", 1, 8), x),
    "molecule_norm": lambda x: molecule_norm(x, 0.25, (0.5,)),
    "subbilinear_envelope": lambda x: subbilinear_envelope(x, grand_maximal(1, 8), _F8,
                                                           build_basis("haar", 1)),
    "make_qb_atom": lambda x: make_qb_atom(DyadicCube(1, 1, (0,)), x, 2.0, seed=0),
    "GrandMaximal.apply": lambda x: grand_maximal(1, 8).apply(x),
    "LusinArea.apply": lambda x: lusin_area(1, 8).apply(x),
    "LusinArea.pointwise_shifted": lambda x: lusin_area(1, 8).pointwise_shifted(x, _F8, _F8),
}


@pytest.mark.parametrize("layer", ONE_CASE_LAYERS)
def test_one_case_layer_refuses_an_array(layer):
    # an array is a stack and needs its dim; these layers take one case only
    with pytest.raises(ShapeError, match="one case is a SampledFunction"):
        ONE_CASE_LAYERS[layer](np.ones(8))


# -- bilinear decomposition ------------------------------------------------------

@pytest.mark.parametrize("spec", ["hilbert", "ifrac:0.5"], ids=["hilbert", "ifrac"])
def test_bilinear_identity_against_direct_commutator(db4, spec):
    T = parse_operator(spec, 1, 512)
    worst = 0.0
    for i in range(10):
        rng = derive_rng(40, i)
        tree, _ = random_psi_atom(rng, 1, 2, 9)
        f = synthesize(tree, db4)
        b = random_bmo(rng, 1, 512)
        dec = bilinear_decomposition(b, T, f, db4, 2)
        comm = commutator_apply(b, T, f)
        worst = max(worst, dec.residual_inf / (1.0 + sup_norm(comm)))
    assert worst <= 1e-8


def test_commutator_parts_from_tree_paraproducts(db4):
    # the boundedness sweep passes the paraproducts of the drawn trees, not of
    # re-analyzed functions; the remainder keeps the inline operand order
    rng = derive_rng(42)
    ft = random_h1_tree(rng, 1, 2, 9)
    f = synthesize(ft, db4)
    b = random_bmo(rng, 1, 512)
    parts = paraproducts(ft.coeffs, analyze(b, db4, 2).coeffs, db4, 2, 1)
    H = parse_operator("hilbert", 1, 512)
    dec = commutator_parts(b.values, H, f.values, parts)
    remainder = (b.values * H.apply(f.values) - H.apply(parts.pi2) - H.apply(parts.coarse)
                 - H.apply(parts.pi1 + parts.pi4))
    assert_bitwise_equal(dec.R_part, remainder)
    assert_bitwise_equal(dec.S_image, H.apply(-1.0 * parts.pi3))
    assert_bitwise_equal(dec.commutator, commutator_apply(b, H, f).values)
    assert dec.residual_inf <= 1e-8 * (1.0 + np.abs(dec.commutator).max())


def test_bilinear_decomposition_applies_T_once_per_input(db4, monkeypatch):
    # T(f), T(b f), T(pi2), T(coarse), T(pi1 + pi4) and T(-pi3): six, not nine
    inputs = []
    H = parse_operator("hilbert", 1, 256)
    apply = MultiplierOperator.apply
    monkeypatch.setattr(MultiplierOperator, "apply",
                        lambda self, g: inputs.append(g) or apply(self, g))
    f, b = _pair(13, N=256, basis=db4)
    dec = bilinear_decomposition(b, H, f, db4, 2)
    assert len(inputs) == 6
    assert sum(g is f.values for g in inputs) == 1
    assert_bitwise_equal(dec.commutator.values,
                         (b * apply(H, f) - apply(H, b * f)).values)


def test_bilinear_constant_b(db4):
    f, _ = _pair(4, basis=db4)
    b = SampledFunction(np.full(512, -1.5))
    dec = bilinear_decomposition(b, parse_operator("hilbert", 1, 512), f, db4, 2)
    assert sup_norm(dec.R_part) < 1e-10
    assert sup_norm(dec.S_image) < 1e-10


def test_bilinear_rejects_sublinear_operator(db4):
    f, b = _pair(5, basis=db4)
    with pytest.raises(ContractError, match="subbilinear_envelope"):
        bilinear_decomposition(b, grand_maximal(1, 512), f, db4, 2)


# -- subbilinear envelope ---------------------------------------------------------

@pytest.mark.parametrize("factory", [grand_maximal, lusin_area])
def test_sandwich_holds_pointwise(db4, factory):
    T = factory(1, 512)
    for i in range(5):
        rng = derive_rng(41, i)
        tree, _ = random_psi_atom(rng, 1, 2, 9)
        f = synthesize(tree, db4)
        b = random_bmo(rng, 1, 512)
        env = subbilinear_envelope(b, T, f, db4, 2)
        assert env.sandwich_ok
        assert env.max_violation <= 1e-9 * (1 + sup_norm(env.commutator_abs))


def test_sandwich_collapses_for_constant_b(db4):
    f, _ = _pair(6, basis=db4)
    b = SampledFunction(np.full(512, 2.0))
    env = subbilinear_envelope(b, grand_maximal(1, 512), f, db4, 2)
    assert sup_norm(env.R_env) < 1e-9
    assert sup_norm(env.commutator_abs) < 1e-9
    assert env.sandwich_ok


# -- qb atoms ----------------------------------------------------------------------

def test_qb_atom_double_cancellation(db4):
    b = random_bmo(derive_rng(42), 1, 512)
    Q = DyadicCube(1, 3, (5,))
    a = make_qb_atom(Q, b, 2.0, seed=7)
    assert validate_atom(a, Q, 2.0, b)
    assert abs(a.integral()) < 1e-10
    assert abs((a * b).integral()) < 1e-10
    # (b - b_Q) a keeps mean zero: the removed average is irrelevant
    b_Q = float(b.values[Q.grid_slices(512)].mean())
    assert abs(((b - b_Q) * a).integral()) < 1e-10


def test_qb_atom_constant_b_degenerates_to_classical(db4):
    b = SampledFunction(np.full(256, 3.3))
    Q = DyadicCube(1, 2, (1,))
    a = make_qb_atom(Q, b, 2.0, seed=1)
    assert validate_atom(a, Q, 2.0)
    assert abs((a * b).integral()) < 1e-10


def test_qb_atom_toy_grid_matches_least_squares():
    # independent oracle: project out span{1, b} on Q by lstsq and compare
    N = 8
    b = SampledFunction(np.arange(N, dtype=float) / N)
    Q = DyadicCube(1, 1, (0,))
    a = make_qb_atom(Q, b, 2.0, seed=3)
    sl = Q.grid_slices(N)[0]
    block = a.values[sl]
    basis = np.stack([np.ones(sl.stop - sl.start), b.values[sl]], axis=1)
    coeffs, *_ = np.linalg.lstsq(basis, block, rcond=None)
    assert np.abs(basis @ coeffs).max() < 1e-12  # already orthogonal to both
    assert abs(a.integral()) < 1e-12 and abs((a * b).integral()) < 1e-12
    assert abs(lp_norm(a, 2.0) - Q.measure ** -0.5) < 1e-12


def test_qb_atom_infinity_norm():
    b = random_bmo(derive_rng(43), 1, 256)
    Q = DyadicCube(1, 2, (2,))
    a = make_qb_atom(Q, b, np.inf, seed=2)
    assert abs(lp_norm(a, np.inf) - 1.0 / Q.measure) < 1e-12


def test_qb_atom_degenerate_two_cell_cube():
    # two cells minus two orthogonality constraints against a non-constant b
    # leaves nothing: every draw collapses
    from torwave import DegeneracyError
    b = random_bmo(derive_rng(52), 1, 256)
    Q = DyadicCube(1, 7, (3,))
    with pytest.raises(DegeneracyError):
        make_qb_atom(Q, b, 2.0, seed=1)


# -- characterizations ---------------------------------------------------------------

def test_h1b_zero_input(db4):
    b = random_bmo(derive_rng(44), 1, 256)
    rep = h1b_characterizations(SampledFunction(np.zeros(256)), b, db4, 2)
    assert rep.v_maximal == rep.v_square == rep.v_riesz == rep.v_T == 0.0
    assert rep.base == 0.0 and rep.norm == 0.0


def test_h1b_rejects_constant_b(db4):
    f, _ = _pair(7, N=256, basis=db4)
    with pytest.raises(DomainError):
        h1b_characterizations(f, SampledFunction(np.ones(256)), db4, 2)


def test_h1b_atom_bound(db4):
    # single b-atoms have norm controlled by the oscillation norm of b
    worst = 0.0
    for i in range(10):
        rng = derive_rng(45, i)
        b = random_bmo(rng, 1, 256)
        Q = DyadicCube(1, int(rng.integers(2, 5)), (int(rng.integers(0, 4)),))
        a = make_qb_atom(Q, b, 2.0, seed=int(rng.integers(0, 2 ** 31)))
        rep = h1b_characterizations(a, b, db4, 2)
        worst = max(worst, rep.norm)  # unit-BMO b
    assert worst < np.inf and worst > 0.0


def test_h1b_with_linear_and_sublinear_T(db4):
    f, b = _pair(8, N=256, basis=db4)
    rep_lin = h1b_characterizations(f, b, db4, 2, T=parse_operator("hilbert", 1, 256))
    rep_sub = h1b_characterizations(f, b, db4, 2, T=lusin_area(1, 256))
    assert rep_lin.v_T > 0.0 and rep_sub.v_T > 0.0


# -- atomic decomposition --------------------------------------------------------------

def test_atomic_decompose_empty_for_zero(db4):
    deco = atomic_decompose(CoefficientTree.zeros(1, 2, 8), db4)
    assert deco.atoms == ()
    assert deco.sum_abs_lambda == 0.0


def test_atomic_decompose_single_atom(db4):
    tree, _ = random_psi_atom(derive_rng(46), 1, 2, 9)
    deco = atomic_decompose(tree, db4)
    w1 = lp_norm(wavelet_square_function(tree), 1.0)
    assert deco.sum_abs_lambda <= 4.0 * w1
    assert len(deco.atoms) >= 1


def test_atomic_decompose_reconstruction_and_validity(db4):
    for i in range(10):
        tree = random_h1_tree(derive_rng(47, i), 1, 2, 9)
        deco = atomic_decompose(tree, db4)
        rec = deco.reconstruct_tree()
        f0 = synthesize(tree, db4)
        f1 = synthesize(rec.replace(scaling=tree.scaling), db4)
        assert sup_norm(f0 - f1) < 1e-8
        assert all(validate_psi_atom(t, R) for _, t, R in deco.atoms)
        assert deco.sum_abs_lambda <= 4.0 * lp_norm(wavelet_square_function(tree), 1.0)
        assert not deco.coarse_flagged


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("dim,J", [(1, 9), (2, 5)])
@pytest.mark.parametrize("kind", ["h1", "psi", "white"])
def test_atomic_decompose_matches_label_oracle(order, dim, J, kind):
    basis = build_basis("haar" if order == 1 else "daubechies", order)
    for seed in range(8):
        rng = derive_rng(48, order, dim, seed)
        if kind == "h1":
            tree = random_h1_tree(rng, dim, 2, J)
        elif kind == "psi":
            tree, _ = random_psi_atom(rng, dim, 2, J)
        else:
            tree = analyze(random_function(rng, dim, 1 << J, kind="white"), basis, 2)
        deco, want = atomic_decompose(tree, basis), oracles.atomic_decompose(tree, basis)
        assert [R.key() for _, _, R in deco.atoms] == [R.key() for _, _, R in want.atoms]
        assert_bitwise_equal([lam for lam, _, _ in deco.atoms], [lam for lam, _, _ in want.atoms])
        for (_, got, _), (_, ref, _) in zip(deco.atoms, want.atoms):
            assert_bitwise_equal(got.coeffs, ref.coeffs)
        assert_bitwise_equal(deco.sum_abs_lambda, want.sum_abs_lambda)
        assert_bitwise_equal(deco.coarse_l1, want.coarse_l1)
        assert deco.coarse_flagged == want.coarse_flagged


def test_atomic_decompose_flags_coarse_part(db4):
    f = SampledFunction(np.full(256, 2.0))
    deco = atomic_decompose(analyze(f, db4, 2), db4)
    assert deco.coarse_flagged
    assert deco.coarse_l1 > 1.0


def test_atomic_decompose_rejects_underflowing_square_function(db4):
    # 1e-200 squared underflows to 0, which used to reach log2 as a math domain error
    tree = CoefficientTree.unit_detail(DyadicCube(1, 4, (3,)), (1,), 2, 8) * 1e-200
    with pytest.raises(DegeneracyError, match="underflows"):
        atomic_decompose(tree, db4)


# -- molecules ---------------------------------------------------------------------------

def test_molecule_rejects_nonzero_mean():
    with pytest.raises(CancellationError):
        molecule_norm(SampledFunction(np.ones(128)), 0.25, (0.0,))
    with pytest.raises(DomainError):
        molecule_norm(SampledFunction(np.zeros(128)), 0.75, (0.0,))


def test_molecule_center_has_dim_entries():
    g = SampledFunction(np.outer([1.0, -1.0] * 4, np.ones(8)))
    for y0 in [(0.5,), (0.5, 0.5, 0.5)]:
        with pytest.raises(ShapeError):
            molecule_norm(g, 0.25, y0)


def test_molecule_uniform_over_atoms():
    vals = []
    for i in range(30):
        a, Q = random_classical_atom(derive_rng(48, i), 1, 512)
        vals.append(molecule_norm(a, 0.25, Q.center))
    assert max(vals) < np.inf and max(vals) < 10.0 * min(vals) + 10.0


def test_molecule_of_shifted_image(db4):
    H = parse_operator("hilbert", 1, 512)
    for i in range(10):
        rng = derive_rng(49, i)
        a, Q = random_classical_atom(rng, 1, 512)
        b = random_bmo(rng, 1, 512)
        b_Q = float(b.values[Q.grid_slices(512)].mean())
        g = (b - b_Q) * H.apply(a)
        g = g - g.mean()
        assert molecule_norm(g, 0.25, Q.center) < np.inf


# -- antisymmetric paraproducts ------------------------------------------------------------

def test_antisymmetric_zero_sum_hypothesis(db4):
    H = parse_operator("hilbert", 1, 256)
    for i in range(20):
        rng = derive_rng(50, i)
        f = random_function(rng, 1, 256)
        g = random_function(rng, 1, 256)
        Tf = H.apply(f)
        Tg = H.adjoint().apply(g)
        assert abs((Tf * g - f * Tg).integral()) <= 1e-10


# -- fractional commutators -------------------------------------------------------------------

# The fractional integral of order 1/2 in dim 1 goes through the same decomposition
# as any linear T; its reports are taken at the critical exponent n / (n - alpha) = 2.

def test_fractional_identity_and_reports(db4):
    T = parse_operator("ifrac:0.5", 1, 512)
    for i in range(5):
        rng = derive_rng(51, i)
        tree, _ = random_psi_atom(rng, 1, 2, 9)
        f = synthesize(tree, db4)
        b = random_bmo(rng, 1, 512)
        dec = bilinear_decomposition(b, T, f, db4, 2)
        comm = commutator_apply(b, T, f)
        assert dec.residual_inf <= 1e-8 * (1.0 + sup_norm(comm))
        assert 0.0 <= weak_lp_quasinorm(dec.commutator, 2.0) < np.inf
        assert 0.0 <= lp_norm(dec.R_part, 2.0) < np.inf


def test_fractional_constant_b(db4):
    f, _ = _pair(11, basis=db4)
    b = SampledFunction(np.full(512, 1.0))
    dec = bilinear_decomposition(b, parse_operator("ifrac:0.5", 1, 512), f, db4, 2)
    assert sup_norm(dec.R_part) < 1e-10
    assert sup_norm(dec.S_image) < 1e-10
    assert weak_lp_quasinorm(dec.commutator, 2.0) < 1e-10


def test_fractional_alpha_domain(db4):
    f, b = _pair(12, N=256, basis=db4)
    with pytest.raises(DomainError):
        bilinear_decomposition(b, parse_operator("ifrac:1.5", 1, 256), f, db4, 2)


@pytest.mark.parametrize("dim, N", [(1, 64), (2, 16)])
def test_lower_medians_are_per_cube_order_statistics(dim, N):
    from torwave.commutators import _lower_medians
    values = np.random.default_rng(8).standard_normal((N,) * dim)
    for level in range(N.bit_length() - 1):
        step = N >> level
        got = _lower_medians(values, level)
        assert got.shape == (1 << level,) * dim
        for cube in np.ndindex(got.shape):
            block = np.sort(values[tuple(slice(k * step, (k + 1) * step) for k in cube)], axis=None)
            assert got[cube] == block[block.size - block.size // 2 - 1]
