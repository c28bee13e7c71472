import numpy as np
import pytest

from oracles import assert_bitwise_equal
from torwave import (CancellationError, ContractError, DegeneracyError, DomainError,
                     DyadicCube, HypothesisError, MultiplierOperator,
                     SampledFunction, analyze, antisymmetric_paraproduct,
                     atomic_decompose, bilinear_decomposition, commutator_apply,
                     commutator_parts, paraproducts,
                     fractional_commutator_decomposition, fractional_integral_operator,
                     h1b_characterizations, hilbert_operator, identity_operator,
                     lp_norm, make_qb_atom, molecule_norm, subbilinear_envelope,
                     sup_norm, synthesize, validate_atom, validate_psi_atom,
                     wavelet_square_function)
from torwave.samples import (derive_rng, random_bmo, random_classical_atom,
                             random_function, random_h1_tree, random_psi_atom)
from torwave.sublinear import grand_maximal, lusin_area
from torwave.wavelets import CoefficientTree


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
    H = hilbert_operator()
    assert sup_norm(commutator_apply(b, H, f)) < 1e-12
    M = grand_maximal(1, 512)
    assert sup_norm(commutator_apply(b, M, f, sublinear=True)) < 1e-12


def test_linearity_in_f(db4):
    f, b = _pair(2, basis=db4)
    H = hilbert_operator()
    lhs = commutator_apply(b, H, 3.0 * f)
    rhs = 3.0 * commutator_apply(b, H, f)
    assert sup_norm(lhs - rhs) <= 1e-10 * (1 + sup_norm(rhs))


def test_frequency_domain_oracle():
    # convolution-theorem values: [cos, H]cos = 0 and [cos, H]sin = -1/2
    x = np.arange(256) / 256
    b = SampledFunction(np.cos(2 * np.pi * x))
    H = hilbert_operator()
    out = commutator_apply(b, H, SampledFunction(np.cos(2 * np.pi * x)))
    assert sup_norm(out) < 1e-12
    out = commutator_apply(b, H, SampledFunction(np.sin(2 * np.pi * x)))
    np.testing.assert_allclose(out.values, -0.5, atol=1e-12)


def test_sublinear_flag_contract(db4):
    f, b = _pair(3, basis=db4)
    with pytest.raises(ContractError):
        commutator_apply(b, grand_maximal(1, 512), f)


def test_sublinear_form_needs_the_pointwise_path(db4):
    # the literal per-point evaluation lives in tests/oracles.py, not in the library
    f, b = _pair(3, N=64, basis=db4)
    with pytest.raises(ContractError, match="pointwise_shifted"):
        commutator_apply(b, hilbert_operator(), f, sublinear=True)
    with pytest.raises(ContractError, match="pointwise_shifted"):
        subbilinear_envelope(b, hilbert_operator(), f, db4, 2)


# -- bilinear decomposition ------------------------------------------------------

@pytest.mark.parametrize("opname", ["hilbert", "ifrac"])
def test_bilinear_identity_against_direct_commutator(db4, opname):
    T = hilbert_operator() if opname == "hilbert" \
        else fractional_integral_operator(0.5, 1)
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
    parts = paraproducts(ft, analyze(b, db4, 2), db4)
    H = hilbert_operator()
    dec = commutator_parts(b, H, f, parts)
    remainder = (b * H.apply(f) - H.apply(parts.pi2) - H.apply(parts.coarse)
                 - H.apply(parts.pi1 + parts.pi4))
    assert_bitwise_equal(dec.R_part.values, remainder.values)
    assert_bitwise_equal(dec.S_image.values, H.apply(-1.0 * parts.pi3).values)
    assert_bitwise_equal(dec.commutator.values, commutator_apply(b, H, f).values)
    assert dec.residual_inf <= 1e-8 * (1.0 + sup_norm(dec.commutator))


def test_bilinear_decomposition_applies_T_once_per_input(db4, monkeypatch):
    # T(f), T(b f), T(pi2), T(coarse), T(pi1 + pi4) and T(-pi3): six, not nine
    inputs = []
    apply = MultiplierOperator.apply
    monkeypatch.setattr(MultiplierOperator, "apply",
                        lambda self, g: inputs.append(g) or apply(self, g))
    f, b = _pair(13, N=256, basis=db4)
    dec = bilinear_decomposition(b, hilbert_operator(), f, db4, 2)
    assert len(inputs) == 6
    assert sum(g is f for g in inputs) == 1
    assert_bitwise_equal(dec.commutator.values,
                         (b * apply(hilbert_operator(), f)
                          - apply(hilbert_operator(), b * f)).values)


def test_bilinear_constant_b(db4):
    f, _ = _pair(4, basis=db4)
    b = SampledFunction(np.full(512, -1.5))
    dec = bilinear_decomposition(b, hilbert_operator(), f, db4, 2)
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
    rep_lin = h1b_characterizations(f, b, db4, 2, T=hilbert_operator())
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


def test_molecule_uniform_over_atoms():
    vals = []
    for i in range(30):
        a, Q = random_classical_atom(derive_rng(48, i), 1, 512)
        vals.append(molecule_norm(a, 0.25, Q.center))
    assert max(vals) < np.inf and max(vals) < 10.0 * min(vals) + 10.0


def test_molecule_of_shifted_image(db4):
    H = hilbert_operator()
    for i in range(10):
        rng = derive_rng(49, i)
        a, Q = random_classical_atom(rng, 1, 512)
        b = random_bmo(rng, 1, 512)
        b_Q = float(b.values[Q.grid_slices(512)].mean())
        g = (b - b_Q) * H.apply(a)
        g = g - g.mean()
        assert molecule_norm(g, 0.25, Q.center) < np.inf


# -- antisymmetric paraproducts ------------------------------------------------------------

def test_antisymmetric_constant_second_factor(db4):
    f, _ = _pair(9, N=256, basis=db4)
    g = SampledFunction(np.full(256, 3.0))
    P, est = antisymmetric_paraproduct(f, g, hilbert_operator(), db4, 2)
    assert sup_norm(P) < 1e-10
    assert est < 1e-9


def test_antisymmetric_zero_sum_hypothesis(db4):
    H = hilbert_operator()
    for i in range(20):
        rng = derive_rng(50, i)
        f = random_function(rng, 1, 256)
        g = random_function(rng, 1, 256)
        Tf = H.apply(f)
        Tg = H.adjoint().apply(g)
        assert abs((Tf * g - f * Tg).integral()) <= 1e-10


def test_antisymmetric_rejects_noncancelling_operator(db4):
    f, b = _pair(10, N=256, basis=db4)
    with pytest.raises(HypothesisError):
        antisymmetric_paraproduct(f, b, identity_operator(1), db4, 2)


# -- fractional commutators -------------------------------------------------------------------

def test_fractional_identity_and_reports(db4):
    for i in range(5):
        rng = derive_rng(51, i)
        tree, _ = random_psi_atom(rng, 1, 2, 9)
        f = synthesize(tree, db4)
        b = random_bmo(rng, 1, 512)
        dec, rep = fractional_commutator_decomposition(b, f, 0.5, db4, 2)
        comm = commutator_apply(b, fractional_integral_operator(0.5, 1), f)
        assert dec.residual_inf <= 1e-8 * (1.0 + sup_norm(comm))
        assert rep.exponent == 2.0
        assert 0.0 <= rep.weak_quasinorm < np.inf
        assert 0.0 <= rep.remainder_lp < np.inf


def test_fractional_constant_b(db4):
    f, _ = _pair(11, basis=db4)
    b = SampledFunction(np.full(512, 1.0))
    dec, rep = fractional_commutator_decomposition(b, f, 0.5, db4, 2)
    assert sup_norm(dec.R_part) < 1e-10
    assert sup_norm(dec.S_image) < 1e-10
    assert rep.weak_quasinorm < 1e-10


def test_fractional_alpha_domain(db4):
    f, b = _pair(12, N=256, basis=db4)
    with pytest.raises(DomainError):
        fractional_commutator_decomposition(b, f, 1.5, db4, 2)


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
