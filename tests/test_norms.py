import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import assert_bitwise_equal
from torwave import (ConfigurationError, DomainError, DyadicCube,
                     SampledFunction, build_basis, distance_field, hardy_norm,
                     llog_quasinorm, lp_norm, norm_report,
                     oscillation_norm, sup_norm, synthesize,
                     validate_atom, weak_lp_quasinorm)
from torwave.errors import ShapeError, TorwaveError
from torwave.norms import OSCILLATION_MODES, _square_masses
from torwave.samples import derive_rng, random_function, random_psi_atom


@pytest.mark.parametrize("dim, shape", [(1, (64,)), (1, (3, 64)), (2, (2, 3, 16, 16)),
                                        (2, (0, 8, 8))])
def test_sup_norm_of_a_stack_is_the_one_case_values(dim, shape):
    values = derive_rng(50).standard_normal(shape)
    grids = values.reshape((-1,) + shape[len(shape) - dim:])
    want = np.reshape([sup_norm(SampledFunction(g)) for g in grids], shape[:len(shape) - dim])
    assert_bitwise_equal(sup_norm(values, dim), want)


@pytest.mark.parametrize("dim, shape", [(None, (2, 8)), (3, (2, 8)), (1, (2, 6)),
                                        (2, (4, 8))])
def test_sup_norm_of_an_array_needs_its_grid_dim(dim, shape):
    with pytest.raises(TorwaveError):
        sup_norm(np.zeros(shape), dim)


@pytest.mark.parametrize("dim, center", [(2, (0.5,)), (1, (0.5, 0.5)), (2, (0.1, 0.2, 0.3))])
def test_distance_field_center_has_dim_entries(dim, center):
    with pytest.raises(ShapeError):
        distance_field(dim, 8, center)


def test_lp_of_constant_one():
    f = SampledFunction(np.ones(128))
    assert lp_norm(f, 2.0) == 1.0
    assert lp_norm(f, np.inf) == 1.0
    with pytest.raises(DomainError):
        lp_norm(f, 0.5)


def test_weak_lp_quarter_indicator():
    vals = np.zeros(256)
    vals[:64] = 1.0
    assert weak_lp_quasinorm(SampledFunction(vals), 1.0) == 0.25


def test_weak_lp_below_strong(rng):
    for _ in range(50):
        f = random_function(rng, 1, 128, kind="white")
        assert weak_lp_quasinorm(f, 1.0) <= lp_norm(f, 1.0) + 1e-14


def test_oscillation_of_constant():
    f = SampledFunction(np.full(64, -2.5))
    assert oscillation_norm(f, "BMO") == 0.0
    assert abs(oscillation_norm(f, "BMOplus") - 2.5) < 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", ["BMO", "BMOplus", "bmo", "BMOlog"])
@pytest.mark.parametrize("dim", [1, 2])
def test_oscillation_rejects_non_finite_samples(rng, bad, mode, dim):
    # one NaN used to read as a BMO norm of 0: max(0.0, nan) keeps the 0.0
    vals = random_function(rng, dim, 16).values.copy()
    vals.flat[3] = bad
    with pytest.raises(DomainError, match="non-finite"):
        oscillation_norm(SampledFunction(vals), mode)


ESTIMATORS = {
    "Lp:1": lambda f: lp_norm(f, 1.0),
    "Lp:2": lambda f: lp_norm(f, 2.0),
    "Lp:inf": lambda f: lp_norm(f, np.inf),
    "weakLp": lambda f: weak_lp_quasinorm(f, 1.5),
    "Llog": llog_quasinorm,
    "H1_square": lambda f: hardy_norm(f, "H1_square", build_basis("daubechies", 2), 2),
    "H1_maximal": lambda f: hardy_norm(f, "H1_maximal"),
    "h1": lambda f: hardy_norm(f, "h1"),
    "Hlog": lambda f: hardy_norm(f, "Hlog"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a typed error comes before any warning
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("dim", [1, 2])
def test_norms_reject_non_finite_samples(rng, bad, estimator, dim):
    # these used to return nan (or inf) for one bad sample
    vals = random_function(rng, dim, 16).values.copy()
    vals.flat[3] = bad
    with pytest.raises(DomainError, match="non-finite"):
        ESTIMATORS[estimator](SampledFunction(vals))


_DB2 = build_basis("daubechies", 2)
STACK_NORMS = {
    "Lp:1": lambda f, dim=None: lp_norm(f, 1.0, dim),
    "Lp:4/3": lambda f, dim=None: lp_norm(f, 4 / 3, dim),
    "Lp:2": lambda f, dim=None: lp_norm(f, 2.0, dim),
    "Lp:inf": lambda f, dim=None: lp_norm(f, np.inf, dim),
    "weakLp:1": lambda f, dim=None: weak_lp_quasinorm(f, 1.0, dim),
    "weakLp:4/3": lambda f, dim=None: weak_lp_quasinorm(f, 4 / 3, dim),
    "weakLp:2": lambda f, dim=None: weak_lp_quasinorm(f, 2.0, dim),
    "H1_square": lambda f, dim=None: hardy_norm(f, "H1_square", _DB2, 2, dim),
}


@pytest.mark.parametrize("dim, N", [(1, 64), (2, 16)])
@pytest.mark.parametrize("norm", STACK_NORMS)
def test_stacked_norms_equal_their_rows(norm, dim, N):
    call = STACK_NORMS[norm]
    rng = derive_rng(63, dim, N)
    grid = (N,) * dim
    rows = [rng.standard_normal(grid), np.zeros(grid), rng.integers(-2, 3, grid) * 1.0,
            rng.choice([0.0, -0.0, 1.0], grid), 1e-3 * rng.standard_normal(grid),
            1e150 * rng.standard_normal(grid)]
    values = np.stack(rows).reshape((2, 3) + grid)
    stacked = call(values, dim)
    assert stacked.shape == (2, 3)
    for i in np.ndindex(2, 3):
        single = call(SampledFunction(values[i]))
        assert type(single) is float
        assert_bitwise_equal(stacked[i], np.float64(single))
    assert stacked[0, 1] == 0.0  # the all-zero row
    assert_bitwise_equal(call(np.zeros((0,) + grid), dim), np.zeros(0))


@pytest.mark.parametrize("p", [4 / 3, 1.5, 3.0])
def test_lp_root_is_libm_pow(p):
    # NumPy's AVX-512 power differs from libm in the last bit on a few percent
    # of arguments, which would tie a record to the CPU running it
    values = derive_rng(65).standard_normal((400, 16))
    means = (np.abs(values) ** p).mean(axis=-1)
    want = np.array([math.pow(m, 1.0 / p) for m in means.tolist()])
    assert_bitwise_equal(lp_norm(values, p, 1), want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the transforms
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("norm", STACK_NORMS)
def test_stacked_norms_reject_a_non_finite_row(norm, bad):
    values = derive_rng(64).standard_normal((3, 64))
    values[1, 5] = bad
    with pytest.raises(DomainError, match="non-finite"):
        STACK_NORMS[norm](values, 1)


@pytest.mark.parametrize("call", [
    lambda: llog_quasinorm(np.ones(8)),
    lambda: validate_atom(np.ones(8), DyadicCube(1, 1, (0,)), 2.0),
    lambda: lp_norm(np.ones(8), 1.0),
    lambda: weak_lp_quasinorm(np.ones(8), 1.0),
    lambda: hardy_norm(np.ones(8), "H1_maximal"),
    lambda: norm_report(np.ones(8), "BMO"),
], ids=["llog", "validate_atom", "lp_without_dim", "weak_lp_without_dim", "H1_maximal",
        "norm_report"])
def test_one_case_norms_reject_an_array_with_a_typed_error(call):
    # each of these ended in a bare AttributeError
    with pytest.raises(TorwaveError):
        call()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflow_of_finite_samples_is_not_a_domain_error():
    # only non-finite samples raise; a finite sum may still overflow to inf
    f = SampledFunction(np.full(64, 1e200))
    assert lp_norm(f, 2.0) == np.inf
    assert lp_norm(f, 1.0) == pytest.approx(1e200)


def test_oscillation_ordering(rng):
    for _ in range(50):
        f = random_function(rng, 1, 128)
        bmo = oscillation_norm(f, "BMO")
        plus = oscillation_norm(f, "BMOplus")
        local = oscillation_norm(f, "bmo")
        assert bmo <= plus + 1e-14
        assert plus <= local + 1e-14


def test_log_profile_bmo_stable_across_resolutions():
    # singular center off the sampling lattice: the estimator then tracks the
    # continuum value instead of the floor sample at the singular grid point
    vals = []
    for N in (512, 1024, 2048):
        f = SampledFunction(np.log(distance_field(1, N, (1.0 / 3.0,)) + 1e-4))
        vals.append(oscillation_norm(f, "BMO"))
    assert max(vals) / min(vals) < 1.10


def test_oscillation_translation_invariance(rng):
    f = random_function(rng, 1, 128)
    g = SampledFunction(np.roll(f.values, 32))
    for mode in ("BMO", "bmo"):
        assert abs(oscillation_norm(f, mode) - oscillation_norm(g, mode)) < 1e-12


def test_dyadic_dilation_invariance_of_bmo():
    # dilating/translating a profile along the dyadic grid keeps the sup
    base = np.zeros(256)
    base[:32] = 1.0
    f = oscillation_norm(SampledFunction(base), "BMO")
    dilated = np.zeros(256)
    dilated[:64] = 1.0
    assert abs(oscillation_norm(SampledFunction(dilated), "BMO") - f) < 1e-10
    translated = np.zeros(256)
    translated[128:160] = 1.0
    assert abs(oscillation_norm(SampledFunction(translated), "BMO") - f) < 1e-10


def test_llog_zero_and_monotone(rng):
    assert llog_quasinorm(SampledFunction(np.zeros(64))) == 0.0
    for _ in range(50):
        f = random_function(rng, 1, 128)
        assert llog_quasinorm(2.0 * f) >= llog_quasinorm(f) - 1e-12


def _llog_integral(f, lam):
    dist = distance_field(f.dim, f.resolution, (0.0,) * f.dim)
    r = np.abs(f.values) / lam
    return float((r / (np.log(math.e + dist) + np.log(math.e + r))).mean())


def test_llog_defining_integral_is_one(rng):
    for i in range(20):
        f = random_function(derive_rng(61, i), 1, 128, amplitude=5.0)
        assert abs(_llog_integral(f, llog_quasinorm(f)) - 1.0) <= 1e-6


@pytest.mark.parametrize("c", [1e308, 1e-305, 1.0])
def test_llog_of_extreme_constants(c):
    # the mean of 1e308 samples overflows, 1e-305 ones fell below the old bracket
    f = SampledFunction(np.full(64, c))
    lam = llog_quasinorm(f)
    assert math.isfinite(lam) and lam > 0.0
    assert abs(_llog_integral(f, lam) - 1.0) <= 1e-6


@pytest.mark.parametrize("c", [1e-300, 1e-3, 7.0, 1e300])
def test_llog_is_positively_homogeneous(rng, c):
    f = random_function(rng, 1, 128)
    assert abs(llog_quasinorm(c * f) / (c * llog_quasinorm(f)) - 1.0) <= 1e-5


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31), c=st.floats(0.1, 30.0))
def test_norm_homogeneity(seed, c):
    f = random_function(derive_rng(seed), 1, 64)
    for p in (1.0, 2.0, np.inf):
        assert abs(lp_norm(c * f, p) - c * lp_norm(f, p)) <= 1e-10 * (1 + lp_norm(f, p) * c)
    assert abs(oscillation_norm(c * f, "BMO") - c * oscillation_norm(f, "BMO")) \
        <= 1e-10 * (1 + c)
    assert abs(weak_lp_quasinorm(c * f, 1.5) - c * weak_lp_quasinorm(f, 1.5)) \
        <= 1e-10 * (1 + c)


def test_hardy_zero_everywhere(db4):
    z = SampledFunction(np.zeros(256))
    for mode in ("H1_square", "H1_maximal", "h1", "Hlog"):
        assert hardy_norm(z, mode, db4, 2) == 0.0


def test_hardy_orderings(db4, rng):
    f = random_function(rng, 1, 256)
    h1_max = hardy_norm(f, "H1_maximal")
    assert hardy_norm(f, "h1") <= h1_max + 1e-12
    assert hardy_norm(f, "Hlog") <= h1_max + 1e-12


def test_hardy_square_mode_needs_basis():
    with pytest.raises(ConfigurationError):
        hardy_norm(SampledFunction(np.zeros(64)), "H1_square")
    # the check lives in `_square_masses`, so every caller gets the typed error
    with pytest.raises(ConfigurationError, match="needs a wavelet basis"):
        norm_report(SampledFunction(np.ones(64)), "H1_square")
    with pytest.raises(ConfigurationError, match="needs a wavelet basis"):
        hardy_norm(np.ones((3, 64)), "H1_square", None, None, 1)
    with pytest.raises(ConfigurationError, match="needs a wavelet basis"):
        _square_masses(np.ones((3, 64)), None, None, 1)


def test_psi_atoms_have_unit_square_norm_and_stable_cross_band(db4):
    sups = []
    bands = []
    for N in (256, 512):
        J = int(N).bit_length() - 1
        ratios = []
        for i in range(100):
            tree, _ = random_psi_atom(derive_rng(62, N, i), 1, 2, J,
                                      level_high=J - 3)
            f = synthesize(tree, db4)
            sq = hardy_norm(f, "H1_square", db4, 2)
            sups.append(sq)
            ratios.append(hardy_norm(f, "H1_maximal") / sq)
        bands.append(max(ratios) / min(ratios))
    assert max(sups) <= 1.0 + 1e-8
    assert max(bands) / min(bands) < 2.0


def test_square_norm_flags_coarse_part(db4):
    f = SampledFunction(np.full(256, 3.0))
    detail, coarse = _square_masses(f, db4, 2)
    assert_bitwise_equal(np.concatenate(_square_masses(f.values[None], db4, 2, 1)),
                         np.array([detail, coarse]))
    assert detail < 1e-12
    assert abs(coarse - 3.0) < 1e-12
    rep = norm_report(f, "H1_square", db4, 2)
    assert "flagged" in rep.method
    assert abs(rep.value - 3.0) < 1e-12


def test_validate_atom_clauses(db4):
    N = 256
    Q = DyadicCube(1, 3, (2,))
    # indicator profile: support and size fine, no cancellation
    vals = np.zeros(N)
    vals[Q.grid_slices(N)] = 1.0 / Q.measure
    check = validate_atom(SampledFunction(vals), Q, np.inf)
    assert not check
    assert check.failed_clause.startswith("iii")

    # two-block profile normalized in Lq: a classical atom
    q = 2.0
    vals = np.zeros(N)
    sl = Q.grid_slices(N)[0]
    half = (sl.start + sl.stop) // 2
    vals[sl.start:half] = 1.0
    vals[half:sl.stop] = -1.0
    a = SampledFunction(vals)
    a = a * (Q.measure ** (1.0 / q - 1.0) / lp_norm(a, q))
    assert validate_atom(a, Q, q)
    assert validate_atom(a, Q, q, b=SampledFunction(np.zeros(N)))
    assert validate_atom(a, Q, q).describe() == "atom ok"

    # a leak outside Q, twice the size budget, and a b that a does not cancel
    leak = a.values.copy()
    leak[0] = 1.0
    for check, clause in [(validate_atom(SampledFunction(leak), Q, q), "i (support)"),
                          (validate_atom(2.0 * a, Q, q), "ii (size)"),
                          (validate_atom(a, Q, q, b=SampledFunction(np.arange(N) / N)),
                           "iii (weighted cancellation)")]:
        assert not check
        assert check.describe() == f"atom fails clause {clause}"
    for q in (1.0, 0.5, math.nan):
        with pytest.raises(DomainError, match="q must lie in"):
            validate_atom(a, Q, q)


def test_unknown_hardy_mode_and_space_are_configuration_errors():
    f = SampledFunction(np.ones(8))
    with pytest.raises(ConfigurationError, match="unknown hardy mode 'H2'"):
        hardy_norm(f, "H2")
    with pytest.raises(ConfigurationError, match="unknown space 'Sobolev'"):
        norm_report(f, "Sobolev")


def test_norm_report_serialization(db4, rng):
    f = random_function(rng, 1, 128)
    rep = norm_report(f, "Lp:2")
    d = dataclasses.asdict(rep)
    assert d["space"] == "Lp:2" and d["resolution"] == 128
    rep = norm_report(f, "bmo")
    assert "whole torus" in rep.method


@pytest.mark.parametrize("dim, N", [(1, 64), (2, 16)])
def test_level_oscillations_are_per_cube_mean_oscillations(dim, N):
    from torwave.norms import _level_oscillations
    values = np.random.default_rng(9).standard_normal((N,) * dim)
    for level in range(N.bit_length()):
        step = N >> level
        got = _level_oscillations(values, level, dim)
        assert got.shape == (1 << level,) * dim
        for cube in np.ndindex(got.shape):
            block = values[tuple(slice(k * step, (k + 1) * step) for k in cube)]
            assert abs(got[cube] - np.abs(block - block.mean()).mean()) < 1e-14


def _oscillation_stack(seed: int, batch: tuple, dim: int, N: int) -> np.ndarray:
    """Rough and smooth rows, with a constant, mean-offset row among them."""
    rng = derive_rng(seed, dim, N)
    rows = [rng.standard_normal((N,) * dim) * rng.uniform(0.1, 10.0) + rng.normal()
            if i % 2 else random_function(rng, dim, N).values
            for i in range(int(np.prod(batch)))]
    if rows:
        rows[-1] = np.full((N,) * dim, 2.5)
    return np.reshape(rows, batch + (N,) * dim)


@pytest.mark.parametrize("mode", OSCILLATION_MODES)
@pytest.mark.parametrize("dim, N", [(1, 2), (1, 256), (2, 2), (2, 32)])
def test_stacked_oscillation_norm_rows_equal_one_row_calls(mode, dim, N):
    stack = _oscillation_stack(11, (2, 3), dim, N)
    got = oscillation_norm(stack, mode, dim)
    assert got.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        row = SampledFunction(stack[idx])
        assert_bitwise_equal(got[idx], np.float64(oscillation_norm(row, mode)))
        assert_bitwise_equal(got[idx], np.float64(oracles.oscillation_norm(row, mode)))


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(OSCILLATION_MODES), count=st.integers(0, 6),
       grid=st.sampled_from([(1, 1), (1, 8), (1, 64), (1, 512), (2, 1), (2, 4), (2, 16)]),
       seed=st.integers(0, 2 ** 16))
def test_stacked_oscillation_norm_over_stack_sizes(mode, count, grid, seed):
    dim, N = grid
    stack = _oscillation_stack(seed, (count,), dim, N)
    got = oscillation_norm(stack, mode, dim)
    assert got.shape == (count,)
    for i in range(count):
        assert_bitwise_equal(got[i], np.float64(
            oracles.oscillation_norm(SampledFunction(stack[i]), mode)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", OSCILLATION_MODES)
@pytest.mark.parametrize("dim", [1, 2])
def test_stack_with_one_non_finite_row_is_a_domain_error(bad, mode, dim):
    stack = _oscillation_stack(12, (4,), dim, 16)
    stack[2].flat[5] = bad
    with pytest.raises(DomainError, match="non-finite"):
        oscillation_norm(stack, mode, dim)


def test_stacked_oscillation_norm_checks_mode_and_grid():
    with pytest.raises(ConfigurationError):
        oscillation_norm(np.zeros((2, 8)), "BMO2", 1)
    with pytest.raises(ShapeError):
        oscillation_norm(np.zeros((2, 8, 4)), dim=2)


@pytest.mark.parametrize("dim, N", [(1, 256), (2, 32)])
def test_square_estimator_of_huge_samples_is_scaled_by_a_power_of_two(db4, dim, N):
    # at 2^600 times its size a case's squares overflow unless it is scaled
    x = derive_rng(91, dim).standard_normal((N,) * dim)
    one = hardy_norm(SampledFunction(x), "H1_square", db4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = hardy_norm(SampledFunction(np.ldexp(x, 600)), "H1_square", db4)
        stack = hardy_norm(np.stack([x, np.ldexp(x, 600), -x]), "H1_square", db4, dim=dim)
    assert huge == np.ldexp(one, 600)
    # the rows that need no scaling keep every bit
    assert_bitwise_equal(stack, np.array([one, huge, hardy_norm(SampledFunction(-x), "H1_square",
                                                                db4)]))
