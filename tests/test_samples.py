import numpy as np
import pytest

import oracles
from oracles import assert_bitwise_equal
from torwave import (DegeneracyError, DomainError, ExperimentConfig, ResolutionError,
                     SampledFunction, ShapeError, lp_norm, oscillation_norm,
                     validate_psi_atom)
import torwave.samples as samples
from torwave.harness import _tree_and_bmo
from torwave.samples import (derive_rng, random_bmo, random_classical_atom, random_function,
                             random_h1_tree, random_psi_atom, truncated_log, two_sided_atom)


def test_derive_rng_is_splittable_and_deterministic():
    a = derive_rng(7, 1, 2).standard_normal(4)
    b = derive_rng(7, 1, 2).standard_normal(4)
    c = derive_rng(7, 1, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_random_bmo_is_normalized():
    for i in range(8):
        b = random_bmo(derive_rng(3, i), 1, 256)
        assert abs(oscillation_norm(b, "BMO") - 1.0) < 1e-9
        assert abs(b.mean()) < 1e-12
    b2 = random_bmo(derive_rng(3, 0), 2, 64)
    assert abs(oscillation_norm(b2, "BMO") - 1.0) < 1e-9


def test_random_psi_atom_validates():
    for i in range(10):
        tree, R = random_psi_atom(derive_rng(4, i), 1, 2, 8)
        assert validate_psi_atom(tree, R)
    tree, R = random_psi_atom(derive_rng(4, 0), 2, 2, 6)
    assert validate_psi_atom(tree, R)


def test_random_classical_atom_properties(rng):
    a, Q = random_classical_atom(rng, 1, 256)
    outside = a.values.copy()
    outside[Q.grid_slices(256)] = 0.0
    assert np.all(outside == 0.0)
    assert abs(a.integral()) < 1e-12
    assert abs(lp_norm(a, 2.0) - Q.measure ** -0.5) < 1e-10


def test_random_h1_tree_has_no_scaling_part(rng):
    tree = random_h1_tree(rng, 1, 2, 8)
    assert np.all(tree.scaling == 0.0)
    assert tree.detail_energy() > 0.0


def test_two_sided_atom_shape():
    a = two_sided_atom(256, 2.0 ** -4, 0.5)
    assert abs(a.integral()) < 1e-14
    assert lp_norm(a, np.inf) == 2.0 ** 4
    with pytest.raises(DomainError):
        two_sided_atom(64, 1.0 / 256)


def test_two_sided_atom_wraps_around_the_torus():
    # blocks that run past the end of the grid continue at its start
    for width, edge in [(1.0, 0.5), (0.5, 0.9), (2.0 ** -3, 0.95)]:
        a = two_sided_atom(64, width, edge)
        assert a.integral() == 0.0
        assert_bitwise_equal(a.values, np.roll(two_sided_atom(64, width, 0.0).values,
                                               round(edge * 64)))
    for width in [1.5, np.inf, np.nan]:
        with pytest.raises(DomainError):
            two_sided_atom(64, width)


@pytest.mark.parametrize("edge", [np.nan, np.inf, -np.inf])
def test_two_sided_atom_needs_a_finite_edge(edge):
    # round(edge * N) raised a bare ValueError for nan and OverflowError for inf
    with pytest.raises(DomainError, match="edge"):
        two_sided_atom(64, 0.25, edge)


def test_random_cube_needs_a_level_range():
    with pytest.raises(ResolutionError, match="from 3 up to 1"):
        samples.random_cube(derive_rng(0), 1, 3, 1)
    assert samples.random_cube(derive_rng(0), 2, 3, 3).level == 3


def test_truncated_log_center_has_dim_entries():
    for dim, center in [(2, (0.5,)), (1, (0.5, 0.5)), (1, ())]:
        with pytest.raises(ShapeError):
            truncated_log(dim, 8, center)


def test_truncated_log_is_finite():
    b = truncated_log(1, 512, (0.25,))
    assert np.all(np.isfinite(b.values))
    assert b.values.max() == np.log(512.0)


@pytest.mark.parametrize("dim, resolutions", [(1, [256, 512]), (2, [32, 64])])
@pytest.mark.parametrize("root_seed", [0, 5, 31, 2024])
def test_stacked_draws_equal_the_per_case_oracles(dim, resolutions, root_seed):
    """The product and commutator suites' stacked draw is, case by case, the
    tree and then the BMO sample the one-case oracles draw from its stream."""
    count = 6
    cfg = ExperimentConfig("product_identity", resolutions=resolutions,
                           sample_count=count, root_seed=root_seed, dim=dim)
    for ri, N in enumerate(resolutions):
        trees, bmo = _tree_and_bmo(cfg, ri, 2, N)
        assert trees.shape == bmo.shape == (count,) + (N,) * dim
        for ci in range(count):
            rng = derive_rng(root_seed, ri, ci)
            assert_bitwise_equal(trees[ci],
                                 oracles.random_h1_tree(rng, dim, 2, N.bit_length() - 1).coeffs)
            assert_bitwise_equal(bmo[ci], oracles.random_bmo(rng, dim, N).values)


@pytest.mark.parametrize("dim, N", [(1, 64), (1, 1024), (2, 16), (2, 64)])
def test_one_case_samplers_equal_the_oracles(dim, N):
    J = N.bit_length() - 1
    for seed in range(4):
        for n_atoms in (0, 1, 4):
            assert_bitwise_equal(
                random_h1_tree(derive_rng(seed, n_atoms), dim, 2, J, n_atoms).coeffs,
                oracles.random_h1_tree(derive_rng(seed, n_atoms), dim, 2, J, n_atoms).coeffs)
        tree, R = random_psi_atom(derive_rng(seed), dim, 2, J, depth=1, level_high=J - 3)
        want, R_want = oracles.random_psi_atom(derive_rng(seed), dim, 2, J, depth=1,
                                               level_high=J - 3)
        assert R == R_want
        assert_bitwise_equal(tree.coeffs, want.coeffs)
        rng, rng_want = derive_rng(seed, 9), derive_rng(seed, 9)
        for _ in range(3):
            assert_bitwise_equal(random_bmo(rng, dim, N).values,
                                 oracles.random_bmo(rng_want, dim, N).values)
        assert rng.bit_generator.state == rng_want.bit_generator.state


def _constant_once(draw, targets, calls):
    """`draw`, except that the first call on each generator in `targets`
    consumes a real draw and returns a constant field, of BMO norm 0."""
    def patched(rng, dim, resolution):
        vals = draw(rng, dim, resolution)
        calls.append(id(rng))
        if id(rng) in targets and calls.count(id(rng)) == 1:
            return np.full_like(vals, 3.0)
        return vals
    return patched


@pytest.mark.parametrize("dim, N", [(1, 256), (2, 32)])
def test_degenerate_draw_is_redrawn_from_its_own_stream(monkeypatch, dim, N):
    """A sample of norm < 1e-12 is redrawn after the stack's norms are taken,
    by a loop in the one `random_bmo` call; every row, and every generator's
    state after it, equals the one-case recursion that redraws at once."""
    count, bad = 5, (1, 3)
    rngs = [derive_rng(8, ci) for ci in range(count)]
    want_rngs = [derive_rng(8, ci) for ci in range(count)]
    calls, want_calls = [], []
    monkeypatch.setattr(samples, "_raw_bmo", _constant_once(
        samples._raw_bmo, {id(rngs[i]) for i in bad}, calls))
    monkeypatch.setattr(oracles, "bmo_values", _constant_once(
        oracles.bmo_values, {id(want_rngs[i]) for i in bad}, want_calls))
    real, entered = samples.random_bmo, []
    monkeypatch.setattr(samples, "random_bmo",
                        lambda *args: entered.append(args) or real(*args))
    got = samples.random_bmo(rngs, dim, N)
    # the redraws loop inside the one call; the stack never recurses
    assert len(entered) == 1
    for ci in range(count):
        assert_bitwise_equal(got[ci], oracles.random_bmo(want_rngs[ci], dim, N).values)
        assert rngs[ci].bit_generator.state == want_rngs[ci].bit_generator.state
    # the degenerate rows took two raw draws, the others one, on both paths
    counts = [2 if ci in bad else 1 for ci in range(count)]
    assert [calls.count(id(r)) for r in rngs] == counts
    assert [want_calls.count(id(r)) for r in want_rngs] == counts
    assert all(abs(oscillation_norm(SampledFunction(row), "BMO") - 1.0) < 1e-9
               for row in got)


def test_degenerate_draw_in_the_suite_draw(monkeypatch):
    """The same redraw through the suites' stacked (tree, BMO) draw: case 2's
    first raw draw takes nothing from its stream and reads as a zero field,
    so its redraw is the draw the one-case oracle makes."""
    cfg = ExperimentConfig("product_identity", resolutions=[128], sample_count=4,
                           root_seed=3)
    real, calls = samples._raw_bmo, []

    def zero_once(rng, dim, resolution):
        calls.append(rng)
        return np.zeros(resolution) if len(calls) == 3 else real(rng, dim, resolution)

    monkeypatch.setattr(samples, "_raw_bmo", zero_once)
    trees, bmo = _tree_and_bmo(cfg, 0, 2, 128)
    assert len(calls) == 5 and calls[2] is calls[4]
    for ci in range(4):
        rng = derive_rng(3, 0, ci)
        assert_bitwise_equal(trees[ci], oracles.random_h1_tree(rng, 1, 2, 7).coeffs)
        assert_bitwise_equal(bmo[ci], oracles.random_bmo(rng, 1, 128).values)


def _constant_from(draw, poisoned, hits):
    """`draw`, except that a draw starting from a PCG64 state in `poisoned`
    consumes its real draw, is logged in `hits` and returns a constant field,
    of BMO norm 0."""
    def patched(rng, dim, resolution):
        start = rng.bit_generator.state["state"]["state"]
        vals = draw(rng, dim, resolution)
        if start not in poisoned:
            return vals
        hits.append(start)
        return np.full_like(vals, 3.0)
    return patched


# (generator of each row, stream positions of each generator's degenerate
# draws).  With one generator, positions 0, 4 and 8 make rows 0, 3 and 6 of
# 7 degenerate (each bad draw pushes the later rows one position on), and
# positions 3 and 4 make row 3 degenerate twice.
REPEATED = [((0,) * 7, {}), ((0,) * 7, {0: [0]}), ((0,) * 7, {0: [3]}),
            ((0,) * 7, {0: [6]}), ((0,) * 7, {0: [0, 4, 8]}), ((0,) * 7, {0: [3, 4]}),
            ((0, 1, 0, 0, 1), {0: [0, 2], 1: [1]})]


@pytest.mark.parametrize("owners, bad", REPEATED,
                         ids=[f"{len(set(o))}gen-bad{sorted(b.items())}" for o, b in REPEATED])
@pytest.mark.parametrize("dim, N", [(1, 64), (2, 16)])
def test_repeated_generators_equal_one_row_calls(monkeypatch, owners, bad, dim, N):
    """`random_bmo([rng] * k)` gives the rows, and leaves the generator in the
    state, of k one-row calls on `rng`, degenerate draws included: a bad row
    is redrawn from the state its draw left, and the later rows of its
    generator are drawn again after it."""
    real = samples._raw_bmo
    poisoned = set()
    for g, positions in bad.items():
        walk = derive_rng(40, g)
        for pos in range(max(positions) + 1):
            if pos in positions:
                poisoned.add(walk.bit_generator.state["state"]["state"])
            real(walk, dim, N)
    hits = []
    monkeypatch.setattr(samples, "_raw_bmo", _constant_from(real, poisoned, hits))
    monkeypatch.setattr(oracles, "bmo_values",
                        _constant_from(oracles.bmo_values, poisoned, hits))
    gens = [derive_rng(40, g) for g in range(max(owners) + 1)]
    got = random_bmo([gens[g] for g in owners], dim, N)
    assert set(hits) == poisoned
    for reference in (lambda r: random_bmo(r, dim, N), lambda r: oracles.random_bmo(r, dim, N)):
        want_gens = [derive_rng(40, g) for g in range(max(owners) + 1)]
        for row, g in zip(got, owners):
            assert_bitwise_equal(row, reference(want_gens[g]).values)
        assert ([r.bit_generator.state for r in gens]
                == [r.bit_generator.state for r in want_gens])


def test_degenerate_draws_stop_after_ten():
    """Every BMO sample on one grid point has norm 0: the draw raises after
    10 draws instead of redrawing forever, and an empty list draws nothing."""
    rng, walk = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises(DegeneracyError):
        random_bmo(rng, 1, 1)
    for _ in range(10):
        samples._raw_bmo(walk, 1, 1)
    assert rng.bit_generator.state == walk.bit_generator.state
    with pytest.raises(DegeneracyError):
        random_bmo([np.random.default_rng(1)] * 3, 2, 1)
    assert random_bmo([], 1, 64).shape == (0, 64)
    assert random_bmo([], 2, 16).shape == (0, 16, 16)


def test_classical_atom_needs_sixteen_points():
    with pytest.raises(ResolutionError):
        random_classical_atom(np.random.default_rng(0), 1, 8)
    a, Q = random_classical_atom(np.random.default_rng(0), 1, 16)
    assert Q.level == 2


def test_smooth_random_function_equals_the_uncached_spectrum():
    for dim, N in ((1, 128), (2, 32)):
        rng, white_rng = derive_rng(4, dim), derive_rng(4, dim)
        k = np.sqrt(sum(ki ** 2 for ki in np.meshgrid(
            *(np.fft.fftfreq(N, d=1.0 / N),) * dim, indexing="ij")))
        vals = np.fft.ifftn(np.fft.fftn(white_rng.standard_normal((N,) * dim))
                            * (1.0 + k) ** -1.2).real
        vals *= 2.0 / np.abs(vals).max()
        assert_bitwise_equal(random_function(rng, dim, N, amplitude=2.0).values, vals)


def test_cached_sample_tables_are_read_only():
    for table in samples._grid_tables(1, 64):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0
