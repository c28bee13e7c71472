"""Seeded random inputs: test functions, wavelet atoms, oscillation samples.

Every generator takes an explicit numpy Generator so that harness suites can
split a root seed into independent per-case streams and stay reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DyadicCube, SampledFunction, distance_field
from .errors import DegeneracyError, DomainError
from .norms import oscillation_norm
from .operators import frequency_grid
from .wavelets import CoefficientTree, band_index, sigma_set


def derive_rng(root_seed: int, *path: int) -> np.random.Generator:
    """Independent stream for one case of one suite, splittable from a root seed."""
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), *map(int, path)]))


def random_function(rng, dim: int, resolution: int, kind: str = "smooth",
                    amplitude: float = 1.0) -> SampledFunction:
    """Random real function: white noise or a spectrally decaying field."""
    white = rng.standard_normal((resolution,) * dim)
    if kind == "white":
        return SampledFunction(amplitude * white)
    k = frequency_grid(dim, resolution)
    norm = np.sqrt(sum(ki ** 2 for ki in k))
    decay = (1.0 + norm) ** -1.2
    vals = np.fft.ifftn(np.fft.fftn(white) * decay).real
    vals *= amplitude / max(np.abs(vals).max(), 1e-300)
    return SampledFunction(vals)


def random_tree(rng, dim: int, coarse_level: int, finest_level: int,
                decay: float = 0.5) -> CoefficientTree:
    """Random coefficient tree with level-decaying detail energy."""
    coeffs = np.array(CoefficientTree.zeros(dim, coarse_level, finest_level).coeffs)
    for j in range(coarse_level, finest_level):
        for s in sigma_set(dim):
            coeffs[band_index(j, s)] = rng.standard_normal((1 << j,) * dim) \
                * decay ** (j - coarse_level)
    coeffs[band_index(coarse_level, (0,) * dim)] = \
        rng.standard_normal((1 << coarse_level,) * dim)
    return CoefficientTree(coeffs, coarse_level)


def random_cube(rng, dim: int, level_low: int, level_high: int) -> DyadicCube:
    level = int(rng.integers(level_low, level_high + 1))
    offset = tuple(int(rng.integers(0, 1 << level)) for _ in range(dim))
    return DyadicCube(dim, level, offset)


def random_psi_atom(rng, dim: int, coarse_level: int, finest_level: int,
                    depth: int = 3, level_high: int | None = None):
    """Unit-budget wavelet packet on a random cube R; returns (tree, R)."""
    top = max(coarse_level, finest_level - 2 if level_high is None else level_high)
    R = random_cube(rng, dim, coarse_level, top)
    coeffs = np.array(CoefficientTree.zeros(dim, coarse_level, finest_level).coeffs)
    total = 0.0
    for j in range(R.level, min(R.level + depth + 1, finest_level)):
        span = 1 << (j - R.level)
        block = tuple(slice(k * span, (k + 1) * span) for k in R.offset)
        for s in sigma_set(dim):
            vals = rng.standard_normal((span,) * dim) * 2.0 ** (-(j - R.level))
            coeffs[band_index(j, s)][block] = vals
            total += float(np.sum(vals ** 2))
    coeffs *= R.measure ** -0.5 / math.sqrt(total)
    return CoefficientTree(coeffs, coarse_level), R


def random_h1_tree(rng, dim: int, coarse_level: int, finest_level: int,
                   n_atoms: int = 3) -> CoefficientTree:
    """Finite combination of psi-atoms with random signed weights."""
    out = CoefficientTree.zeros(dim, coarse_level, finest_level)
    for _ in range(n_atoms):
        atom, _ = random_psi_atom(rng, dim, coarse_level, finest_level)
        lam = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0)
        out = out + lam * atom
    return out


def truncated_log(dim: int, resolution: int, center, floor: float | None = None) -> SampledFunction:
    """Logarithm of the distance to `center`, truncated at the grid scale."""
    eps = 1.0 / resolution if floor is None else floor
    return SampledFunction(-np.log(distance_field(dim, resolution, center) + eps))


def random_bmo(rng, dim: int, resolution: int) -> SampledFunction:
    """Random oscillation sample normalized to unit dyadic BMO norm.

    Draws from three families: spectrally log-correlated Fourier series
    (coefficients ~ 1/|k|), lacunary cosine series with slowly decaying
    weights, and truncated logarithms at a random center; plus mixtures.
    """
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
    f = SampledFunction(vals - vals.mean())
    norm = oscillation_norm(f, "BMO")
    if norm < 1e-12:
        return random_bmo(rng, dim, resolution)
    return SampledFunction(f.values / norm)


def _fourier_one_over_k(rng, dim, resolution):
    k = frequency_grid(dim, resolution)
    norm = np.sqrt(sum(ki ** 2 for ki in k))
    with np.errstate(divide="ignore"):
        decay = np.where(norm > 0, 1.0 / np.maximum(norm, 1e-300), 0.0)
    white = rng.standard_normal((resolution,) * dim)
    return np.fft.ifftn(np.fft.fftn(white) * decay).real * resolution ** (dim / 2.0)


def _lacunary(rng, dim, resolution):
    coords = np.arange(resolution) / resolution
    total = sum(np.meshgrid(*(coords,) * dim, indexing="ij"))  # x_1 + ... + x_dim
    vals = np.zeros((resolution,) * dim)
    top = int(math.log2(resolution)) - 1
    for m in range(1, top):
        amp = (1.0 if rng.random() < 0.5 else -1.0) / math.sqrt(m)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        vals += amp * np.cos(2.0 * math.pi * (1 << m) * total + phase)
    return vals


def random_classical_atom(rng, dim: int, resolution: int,
                          level_low: int = 2, level_high: int | None = None):
    """Mean-zero L2-normalized bump supported on a random cube; returns (a, Q)."""
    J = int(resolution).bit_length() - 1
    hi = J - 2 if level_high is None else level_high
    Q = random_cube(rng, dim, level_low, hi)
    for _ in range(10):
        vals = np.zeros((resolution,) * dim)
        sl = Q.grid_slices(resolution)
        block = rng.standard_normal(vals[sl].shape)
        block -= block.mean()
        if np.abs(block).max() > 1e-9:
            vals[sl] = block
            f = SampledFunction(vals)
            norm = math.sqrt((f.values ** 2).mean())
            return SampledFunction(f.values * (Q.measure ** -0.5 / norm)), Q
    raise DegeneracyError("classical atom draw degenerated repeatedly")


def two_sided_atom(resolution: int, width: float, edge: float = 0.5) -> SampledFunction:
    """Two-block mean-zero infinity-atom of total width `width` starting at `edge`.

    The two oppositely signed blocks sit on one side of `edge`; paired with a
    logarithm singular at `edge` the atom keeps a nonzero weighted integral,
    which symmetric placement would cancel by parity.
    """
    half = int(round(width * resolution / 2.0))
    if half < 1:
        raise DomainError(f"width {width} below the grid scale")
    c = int(round(edge * resolution))
    vals = np.zeros(resolution)
    vals[c:c + half] = 1.0
    vals[c + half:c + 2 * half] = -1.0
    return SampledFunction(vals / width)
