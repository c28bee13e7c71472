"""Seeded random inputs: test functions, wavelet atoms, oscillation samples.

Every generator takes an explicit numpy Generator so that harness suites can
split a root seed into independent per-case streams and stay reproducible.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (DyadicCube, SampledFunction, check_dim, distance_field, frequency_grid,
                   grid_level)
from .errors import DegeneracyError, DomainError, ResolutionError
from .norms import oscillation_norm
from .wavelets import CoefficientTree, band_index, sigma_set


def derive_rng(root_seed: int, *path: int) -> np.random.Generator:
    """Independent stream for one case of one suite, splittable from a root seed."""
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), *map(int, path)]))


@functools.cache
def _grid_tables(dim: int, resolution: int) -> tuple[np.ndarray, ...]:
    """Read-only tables of the spectral sample families on the grid: |k|,
    1/|k| (0 at k = 0) and the coordinate sum x_1 + ... + x_dim."""
    k = frequency_grid(dim, resolution)
    norm = np.sqrt(sum(ki ** 2 for ki in k))
    with np.errstate(divide="ignore"):
        decay = np.where(norm > 0, 1.0 / np.maximum(norm, 1e-300), 0.0)
    coords = np.arange(resolution) / resolution
    tables = norm, decay, sum(np.meshgrid(*(coords,) * dim, indexing="ij"))
    for table in tables:
        table.flags.writeable = False
    return tables


def random_function(rng, dim: int, resolution: int, kind: str = "smooth",
                    amplitude: float = 1.0) -> SampledFunction:
    """Random real function: white noise or a spectrally decaying field."""
    white = rng.standard_normal((resolution,) * dim)
    if kind == "white":
        return SampledFunction(amplitude * white)
    norm, _, _ = _grid_tables(dim, resolution)
    decay = (1.0 + norm) ** -1.2
    vals = np.fft.ifftn(np.fft.fftn(white) * decay).real
    vals *= amplitude / max(np.abs(vals).max(), 1e-300)
    return SampledFunction(vals)


def random_tree(rng, dim: int, coarse_level: int, finest_level: int) -> CoefficientTree:
    """Random coefficient tree whose detail amplitudes halve per level."""
    coeffs = np.array(CoefficientTree.zeros(dim, coarse_level, finest_level).coeffs)
    for j in range(coarse_level, finest_level):
        for s in sigma_set(dim):
            coeffs[band_index(j, s)] = rng.standard_normal((1 << j,) * dim) \
                * 0.5 ** (j - coarse_level)
    coeffs[band_index(coarse_level, (0,) * dim)] = \
        rng.standard_normal((1 << coarse_level,) * dim)
    return CoefficientTree(coeffs, coarse_level)


def random_cube(rng, dim: int, level_low: int, level_high: int) -> DyadicCube:
    if level_low > level_high:
        raise ResolutionError(f"no cube level from {level_low} up to {level_high}")
    level = int(rng.integers(level_low, level_high + 1))
    offset = tuple(int(rng.integers(0, 1 << level)) for _ in range(dim))
    return DyadicCube(dim, level, offset)


def _psi_atom_sum(rng, dim: int, coarse_level: int, finest_level: int, n_atoms: int,
                  signed: bool, depth: int = 3, level_high: int | None = None):
    """Sum of `n_atoms` unit-budget wavelet packets on random cubes, added into one
    array, each times a signed weight drawn after it if `signed`; returns (tree, last R)."""
    coeffs = np.array(CoefficientTree.zeros(dim, coarse_level, finest_level).coeffs)
    top = max(coarse_level, finest_level - 2 if level_high is None else level_high)
    sigmas, R = sigma_set(dim), None
    for _ in range(n_atoms):
        R = random_cube(rng, dim, coarse_level, top)
        blocks = []
        for j in range(R.level, min(R.level + depth + 1, finest_level)):
            span = 1 << (j - R.level)
            for s in sigmas:
                vals = rng.standard_normal((span,) * dim) * 2.0 ** (-(j - R.level))
                blocks.append((tuple(slice((a << j) + k * span, (a << j) + (k + 1) * span)
                                     for a, k in zip(s, R.offset)), vals))
        scale = R.measure ** -0.5 / math.sqrt(sum(float((v ** 2).sum()) for _, v in blocks))
        lam = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0) \
            if signed else 1.0
        for index, vals in blocks:
            coeffs[index] += lam * (vals * scale)
    return CoefficientTree(coeffs, coarse_level), R


def random_psi_atom(rng, dim: int, coarse_level: int, finest_level: int,
                    depth: int = 3, level_high: int | None = None):
    """Unit-budget wavelet packet on a random cube R; returns (tree, R)."""
    return _psi_atom_sum(rng, dim, coarse_level, finest_level, 1, False, depth, level_high)


def random_h1_tree(rng, dim: int, coarse_level: int, finest_level: int,
                   n_atoms: int = 3) -> CoefficientTree:
    """Finite combination of psi-atoms with random signed weights."""
    return _psi_atom_sum(rng, dim, coarse_level, finest_level, n_atoms, True)[0]


def truncated_log(dim: int, resolution: int, center) -> SampledFunction:
    """Logarithm of the distance to `center`, truncated at the grid scale."""
    return SampledFunction(-np.log(distance_field(dim, resolution, center) + 1.0 / resolution))


def _raw_bmo(rng, dim: int, resolution: int) -> np.ndarray:
    """One mean-zero oscillation sample before normalization: a log-correlated
    Fourier series (coefficients ~ 1/|k|), a lacunary cosine series with slowly
    decaying weights, a truncated logarithm at a random center, or a mixture."""
    mode = int(rng.integers(0, 4))
    if mode == 0:
        vals = _fourier_one_over_k(rng, dim, resolution)
    elif mode == 1:
        vals = _lacunary(rng, dim, resolution)
    elif mode == 2:
        center = rng.random(dim)
        vals = truncated_log(dim, resolution, center).values
    else:
        center = rng.random(dim)
        vals = (_fourier_one_over_k(rng, dim, resolution)
                + truncated_log(dim, resolution, center).values)
    return SampledFunction(vals - vals.mean()).values


def random_bmo(rng, dim: int, resolution: int):
    """Random oscillation sample normalized to unit dyadic BMO norm.

    Given a list of generators, the sample of each, stacked, bit for bit: one
    raw draw per entry, one norm call for the stack, then a row of norm below
    1e-12 is redrawn from its own generator, up to 10 draws in all, after
    which DegeneracyError is raised.  A generator may appear more than once:
    `[rng] * k` gives the same rows as k one-row calls on `rng`, in order.
    For that, the generator's state after each raw draw is kept; a row
    redrawn goes back to the state its last draw left, and every later row
    of the same generator is drawn again after it.  An empty list gives an
    empty (0, N, ...) stack.
    """
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    if not rngs:
        check_dim(dim)
        return np.empty((0,) + (resolution,) * dim)
    raw, after = [], []
    for r in rngs:
        raw.append(_raw_bmo(r, dim, resolution))
        after.append(r.bit_generator.state)
    raw = np.stack(raw)
    norms = oscillation_norm(raw, "BMO", dim)
    for i, r in enumerate(rngs):
        draws = 1
        while norms[i] < 1e-12:
            if draws == 10:
                raise DegeneracyError("BMO sample degenerated in 10 draws")
            r.bit_generator.state = after[i]
            raw[i] = _raw_bmo(r, dim, resolution)
            after[i] = r.bit_generator.state
            norms[i] = oscillation_norm(raw[i:i + 1], "BMO", dim)[0]
            draws += 1
        later = [k for k in range(i + 1, len(rngs)) if rngs[k] is r]
        if draws > 1 and later:
            for k in later:
                raw[k] = _raw_bmo(r, dim, resolution)
                after[k] = r.bit_generator.state
            norms[later] = oscillation_norm(raw[later], "BMO", dim)
    out = raw / norms.reshape(norms.shape + (1,) * dim)
    return SampledFunction(out[0]) if single else out


def _fourier_one_over_k(rng, dim, resolution):
    _, decay, _ = _grid_tables(dim, resolution)
    white = rng.standard_normal((resolution,) * dim)
    return np.fft.ifftn(np.fft.fftn(white) * decay).real * resolution ** (dim / 2.0)


def _lacunary(rng, dim, resolution):
    *_, total = _grid_tables(dim, resolution)
    vals = np.zeros((resolution,) * dim)
    top = int(math.log2(resolution)) - 1
    for m in range(1, top):
        amp = (1.0 if rng.random() < 0.5 else -1.0) / math.sqrt(m)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        vals += amp * np.cos(2.0 * math.pi * (1 << m) * total + phase)
    return vals


def cube_profile(rng, Q: DyadicCube, N: int, against=None) -> np.ndarray:
    """Centred white noise on the cube Q of the (N,)*dim grid, zero elsewhere.

    Given an (N,)*dim array `against`, the profile is also made orthogonal to
    it on Q: the centred `against` is projected out and the rest centred again.
    A draw whose max is below 1e-9 is redrawn, up to 10 times in all.
    """
    vals = np.zeros((N,) * Q.dim)
    sl = Q.grid_slices(N)
    if against is not None:
        w = against[sl] - against[sl].mean()
        w_norm2 = float((w ** 2).sum())
    for _ in range(10):
        prof = rng.standard_normal(vals[sl].shape)
        prof = prof - prof.mean()
        if against is not None and w_norm2 > 1e-24:
            prof = prof - (float((prof * w).sum()) / w_norm2) * w
            prof = prof - prof.mean()
        if np.abs(prof).max() >= 1e-9:
            vals[sl] = prof
            return vals
    raise DegeneracyError("cube profile degenerated in 10 draws")


def random_classical_atom(rng, dim: int, resolution: int):
    """Mean-zero L2-normalized bump supported on a random cube of level 2 to
    J - 2; returns (a, Q)."""
    J = grid_level((resolution,) * dim, dim)
    if J < 4:
        raise ResolutionError(f"a classical atom needs N >= 16, got N = {resolution}")
    Q = random_cube(rng, dim, 2, J - 2)
    vals = cube_profile(rng, Q, resolution)
    norm = math.sqrt((vals ** 2).mean())
    return SampledFunction(vals * (Q.measure ** -0.5 / norm)), Q


def two_sided_atom(resolution: int, width: float, edge: float = 0.5) -> SampledFunction:
    """Two-block mean-zero infinity-atom of total width `width` starting at `edge`.

    The two oppositely signed blocks sit circularly on one side of `edge`;
    paired with a logarithm singular at `edge` the atom keeps a nonzero
    weighted integral, which symmetric placement would cancel by parity.
    DomainError for a width below the grid scale, or above 1 (blocks overlap),
    and for a non-finite edge.
    """
    half = int(round(width * resolution / 2.0)) if width <= 1.0 else 0
    if half < 1 or not math.isfinite(edge):
        raise DomainError(f"width {width} is below the grid scale or above 1, "
                          f"or edge {edge} is not finite")
    at = (int(round(edge * resolution)) + np.arange(2 * half)) % resolution
    vals = np.zeros(resolution)
    vals[at] = np.repeat([1.0, -1.0], half)
    return SampledFunction(vals / width)
