"""Literal reference implementations used as independent oracles.

The wavelet oracles evaluate defining sums term by term against explicitly
synthesized basis vectors; no projection cascades, no convolution tricks.
Only usable at small resolutions.  The filter-bank steps and the window
kernels after them take one `np.roll` per tap or shift, the sublinear
operators one kernel or height at a time, the envelope machinery keys
wavelet-matrix entries by cube pairs and evaluates `p_delta` one pair at a
time, the samplers draw one case at a time, one coefficient tree per atom
and one norm call per BMO sample, the atomic decomposition finds each
atom's cube through a grid of cube labels, and the cube lists of a tree are
scanned band by band; the production code must match them bit for bit.
"""

import functools
import math
from itertools import product

import numpy as np

from torwave import (AtomicDecomposition, CoefficientTree, DyadicCube, PdeltaEnvelope,
                     SampledFunction, analyze, k_class_image, coarse_projection, sampled_wavelet, synthesize,
                     wavelet_square_function)
from torwave.commutators import _lower_medians
from torwave.core import frequency_grid, torus_delta
from torwave.errors import ConfigurationError, DomainError, ShapeError
from torwave.norms import OSCILLATION_MODES
from torwave.operators import MATRIX_ENTRY_FLOOR
from torwave.samples import random_classical_atom, random_cube, truncated_log
from torwave.wavelets import band_index, coeff_index, detail_cubes, mother_wavelet, sigma_set


def basis_vectors(basis, dim, j0, J):
    """Explicit sampled scaling and detail vectors per level (1D only)."""
    assert dim == 1
    phis = {}
    psis = {}
    for j in range(j0, J):
        phis[j] = []
        for k in range(1 << j):
            scaling = np.zeros(1 << j)
            scaling[k] = 1.0
            tree = CoefficientTree.zeros(1, j, J).replace(scaling=scaling)
            phis[j].append(synthesize(tree, basis).values)
        psis[j] = []
        for k in range(1 << j):
            tree = CoefficientTree.unit_detail(DyadicCube(1, j, (k,)), (1,), j, J)
            psis[j].append(synthesize(tree, basis).values)
    return phis, psis


def literal_paraproducts(f_vals, g_vals, basis, j0):
    """Term-by-term evaluation of the four bilinear parts and the coarse term."""
    N = len(f_vals)
    J = int(N).bit_length() - 1
    phis, psis = basis_vectors(basis, 1, j0, J)
    ip = lambda a, b: float((a * b).mean())
    pi1 = np.zeros(N)
    pi2 = np.zeros(N)
    pi3 = np.zeros(N)
    pi4 = np.zeros(N)
    for j in range(j0, J):
        fphi = [ip(f_vals, p) for p in phis[j]]
        gphi = [ip(g_vals, p) for p in phis[j]]
        fpsi = [ip(f_vals, p) for p in psis[j]]
        gpsi = [ip(g_vals, p) for p in psis[j]]
        for k in range(1 << j):
            for k2 in range(1 << j):
                pi1 += fphi[k] * gpsi[k2] * phis[j][k] * psis[j][k2]
                pi2 += fpsi[k] * gphi[k2] * psis[j][k] * phis[j][k2]
                if k == k2:
                    pi3 += fpsi[k] * gpsi[k] * psis[j][k] ** 2
                else:
                    pi4 += fpsi[k] * gpsi[k2] * psis[j][k] * psis[j][k2]
    coarse_f = np.zeros(N)
    coarse_g = np.zeros(N)
    for k in range(1 << j0):
        coarse_f += ip(f_vals, phis[j0][k]) * phis[j0][k]
        coarse_g += ip(g_vals, phis[j0][k]) * phis[j0][k]
    return pi1, pi2, pi3, pi4, coarse_f * coarse_g


def literal_detail_coefficients(f_vals, basis, j0):
    """Grid inner products against explicitly synthesized wavelets (1D)."""
    N = len(f_vals)
    J = int(N).bit_length() - 1
    _, psis = basis_vectors(basis, 1, j0, J)
    out = {}
    for j in range(j0, J):
        out[j] = np.array([float((f_vals * p).mean()) for p in psis[j]])
    return out


def daubechies_residuals(h: np.ndarray, g: np.ndarray, order: int) -> np.ndarray:
    """The defining equations of the order-p Daubechies taps, zero at the
    exact taps: the even-shift orthonormality of the scaling taps `h`, their
    sum sqrt(2), the quadrature-mirror relation g[m] = (-1)^m h[L-1-m], and
    the discrete moments 0..p-1 of the detail taps `g` on the grid k/L."""
    h, g = np.asarray(h, dtype=float), np.asarray(g, dtype=float)
    L = len(h)
    rows = [(h[: L - s] * h[s:]).sum() - (s == 0) for s in range(0, L, 2)]
    rows.append(h.sum() - math.sqrt(2.0))
    rows.extend((-1.0) ** np.arange(L) * h[::-1] - g)
    k = np.arange(L) / L
    rows.extend((k ** p * g).sum() for p in range(order))
    return np.array(rows)


def assert_bitwise_equal(actual, expected):
    """Equal shape, dtype and bytes: unlike `assert_array_equal`, this tells
    -0.0 from 0.0 and one NaN payload from another."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, (actual.shape, expected.shape)
    assert actual.dtype == expected.dtype, (actual.dtype, expected.dtype)
    if actual.tobytes() != expected.tobytes():
        bad = [i for i, (x, y) in enumerate(zip(actual.flat, expected.flat))
               if x.tobytes() != y.tobytes()]
        raise AssertionError(f"{len(bad)} of {actual.size} entries differ in their bytes; "
                             f"first at flat index {bad[0]}: {actual.flat[bad[0]]!r} "
                             f"vs {expected.flat[bad[0]]!r}")


# -- filter-bank steps, one np.roll per tap ----------------------------------

def _down(a: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Circular convolution with `taps` followed by dyadic decimation."""
    keep = [slice(None)] * a.ndim
    keep[axis] = slice(0, None, 2)
    keep = tuple(keep)
    acc = taps[0] * a[keep]
    for m in range(1, len(taps)):
        acc = acc + taps[m] * np.roll(a, -m, axis=axis)[keep]
    return acc


def _up_pair(lo: np.ndarray, hi: np.ndarray, h: np.ndarray, g: np.ndarray,
             axis: int) -> np.ndarray:
    """Adjoint of `_down` for both channels: upsample, filter, add."""
    shape = list(lo.shape)
    shape[axis] *= 2
    write = [slice(None)] * lo.ndim
    write[axis] = slice(0, None, 2)
    write = tuple(write)
    u = np.zeros(shape)
    u[write] = lo
    w = np.zeros(shape)
    w[write] = hi
    acc = h[0] * u + g[0] * w
    for m in range(1, len(h)):
        acc = acc + h[m] * np.roll(u, m, axis=axis) + g[m] * np.roll(w, m, axis=axis)
    return acc


def _step_down(s, basis):
    h, g = basis.scaling_filter, basis.detail_filter
    if s.ndim == 1:
        return _down(s, h, 0), {(1,): _down(s, g, 0)}
    lo0 = _down(s, h, 0)
    hi0 = _down(s, g, 0)
    return _down(lo0, h, 1), {
        (0, 1): _down(lo0, g, 1),
        (1, 0): _down(hi0, h, 1),
        (1, 1): _down(hi0, g, 1),
    }


def _step_up(s, details, basis):
    h, g = basis.scaling_filter, basis.detail_filter
    if s.ndim == 1:
        return _up_pair(s, details[(1,)], h, g, 0)
    lo0 = _up_pair(s, details[(0, 1)], h, g, 1)
    hi0 = _up_pair(details[(1, 0)], details[(1, 1)], h, g, 1)
    return _up_pair(lo0, hi0, h, g, 0)


def _zero_details(dim, level):
    shape = (1 << level,) * dim
    return {s: np.zeros(shape) for s in sigma_set(dim)}


def roll_analyze(f, basis, coarse_level):
    """`wavelets.analyze` on the per-tap roll steps; returns (scaling, details)."""
    s = f.values * float(f.resolution) ** (-f.dim / 2.0)
    details = {}
    for j in range(f.finest_level - 1, coarse_level - 1, -1):
        s, details[j] = _step_down(s, basis)
    return s, details


def roll_scaling_cascade(tree, basis):
    out = {tree.coarse_level: tree.scaling}
    s = tree.scaling
    for j in tree.levels():
        s = _step_up(s, {sg: tree.band(j, sg) for sg in sigma_set(tree.dim)}, basis)
        out[j + 1] = s
    return out


def roll_synthesize(tree, basis):
    """`wavelets.synthesize` on the per-tap roll steps; returns the sample array."""
    s = roll_scaling_cascade(tree, basis)[tree.finest_level]
    return s * float(tree.resolution) ** (tree.dim / 2.0)


def roll_projection_stack(tree, basis):
    """P_j f by full synthesis steps with all-zero detail arrays."""
    cascade = roll_scaling_cascade(tree, basis)
    scale = float(tree.resolution) ** (tree.dim / 2.0)
    out = {}
    for j in range(tree.coarse_level, tree.finest_level + 1):
        s = cascade[j]
        for jj in range(j, tree.finest_level):
            s = _step_up(s, _zero_details(tree.dim, jj), basis)
        out[j] = s * scale
    return out


# -- window kernels, one np.roll per shift -----------------------------------

def _axis_window_max(a: np.ndarray, radius: int, axis: int) -> np.ndarray:
    out = a.copy()
    for d in range(1, radius + 1):
        np.maximum(out, np.roll(a, d, axis=axis), out=out)
        np.maximum(out, np.roll(a, -d, axis=axis), out=out)
    return out


def window_max(a: np.ndarray, radius: int) -> np.ndarray:
    """Max over the circular box window of per-axis radius `radius`."""
    out = a
    for axis in range(a.ndim):
        out = _axis_window_max(out, radius, axis)
    return out


def window_mean(a: np.ndarray, radius: int) -> np.ndarray:
    """Mean over the circular box window of per-axis radius `radius`."""
    out = a
    for axis in range(a.ndim):
        acc = out.copy()
        for d in range(1, radius + 1):
            acc = acc + np.roll(out, d, axis=axis) + np.roll(out, -d, axis=axis)
        out = acc / (2 * radius + 1)
    return out


def window_sup(out: np.ndarray, b: np.ndarray, A: np.ndarray, H: np.ndarray,
               radius: int) -> np.ndarray:
    """max(out, max over k and the box window at x of |b(x) A_k(y) - H_k(y)|)
    on a 2-D stack, one `np.roll` per shift and kernel."""
    out = out.copy()
    for d0, d1 in product(range(-radius, radius + 1), repeat=2):
        for a, h in zip(A, H):
            cand = np.abs(b * np.roll(a, (-d0, -d1), (0, 1)) - np.roll(h, (-d0, -d1), (0, 1)))
            np.maximum(out, cand, out=out)
    return out


# -- sublinear operators, one kernel or height at a time ---------------------

def _kernel_fields(op, F, local):
    """(t, field) per kernel of a `GrandMaximal`, one inverse FFT each."""
    for t, K in zip(op._kernel_scales, op._spectra):
        if local and t >= 1.0:
            continue
        yield t, np.fft.ifftn(F * K).real / F.size


def maximal_apply(op, f: SampledFunction, local: bool = False) -> SampledFunction:
    """`GrandMaximal.apply` one kernel at a time, with the shift-loop `window_max`."""
    from torwave.sublinear import _window_radius
    op._check(f)
    if local and not op._local_rows:
        raise ConfigurationError("no scales under 1 available for the local variant")
    out = np.zeros_like(f.values)
    for t, u in _kernel_fields(op, np.fft.fftn(f.values), local):
        np.maximum(out, window_max(np.abs(u), _window_radius(t, op.resolution)), out=out)
    return SampledFunction(out)


def pointwise_shifted(self, b: SampledFunction, f: SampledFunction,
                      h: SampledFunction, local: bool = False) -> SampledFunction:
    """`GrandMaximal.pointwise_shifted` by explicit shifts; `self` is the operator.

    Exact: the convolution fields of f and h are formed once per kernel and
    the window sup of |b(x) A(y) - H(y)| is taken over explicit shifts.
    """
    from torwave.sublinear import _window_radius
    self._check(f)
    if b.values.shape != f.values.shape or h.values.shape != f.values.shape:
        raise ShapeError("mismatched resolutions")
    if local and not self._local_rows:
        raise ConfigurationError("no scales under 1 available for the local variant")
    F = np.fft.fftn(f.values)
    H = np.fft.fftn(h.values)
    bv = b.values
    out = np.zeros_like(f.values)
    for (t, A), (_, Hh) in zip(_kernel_fields(self, F, local), _kernel_fields(self, H, local)):
        r = _window_radius(t, self.resolution)
        if self.dim == 1:
            for d in range(-r, r + 1):
                cand = np.abs(bv * np.roll(A, -d) - np.roll(Hh, -d))
                np.maximum(out, cand, out=out)
        else:
            out = window_sup(out, bv, A[None], Hh[None], r)
    return SampledFunction(out)


def _cone_quadratic(op, F, G) -> np.ndarray:
    """`LusinArea`'s cone quadrature of two inputs' gradient fields, one height
    and one gradient component at a time, with the shift-loop `window_mean`."""
    acc = np.zeros((op.resolution,) * op.dim)
    for t, r, w in op._heights:
        dot = np.zeros_like(acc)
        for mult in op._gradient_multipliers(t):
            a = np.fft.ifftn(F * mult).real
            bb = a if G is F else np.fft.ifftn(G * mult).real
            dot += a * bb
        acc += w * window_mean(dot, r)
    return acc


def lusin_apply(op, f: SampledFunction) -> SampledFunction:
    """`LusinArea.apply` one height at a time."""
    op._check(f)
    F = np.fft.fftn(f.values)
    return SampledFunction(np.sqrt(np.maximum(_cone_quadratic(op, F, F), 0.0)))


def lusin_pointwise_shifted(op, b: SampledFunction, f: SampledFunction,
                            h: SampledFunction) -> SampledFunction:
    """`LusinArea.pointwise_shifted` by three separate cone quadratures."""
    op._check(f)
    F = np.fft.fftn(f.values)
    H = np.fft.fftn(h.values)
    qa = _cone_quadratic(op, F, F)
    qc = _cone_quadratic(op, F, H)
    qb = _cone_quadratic(op, H, H)
    bv = b.values
    return SampledFunction(np.sqrt(np.maximum(bv * bv * qa - 2.0 * bv * qc + qb, 0.0)))


def pointwise_commutator_naive(T, b: SampledFunction, f: SampledFunction) -> SampledFunction:
    """Literal per-evaluation-point commutator x -> T((b(x)-b(.)) f(.))(x).

    Costs one operator application per grid point; the reference for the
    algebraically expanded `pointwise_shifted` paths.
    """
    out = np.zeros_like(f.values)
    for idx in np.ndindex(f.values.shape):
        shifted = SampledFunction((b.values[idx] - b.values) * f.values)
        out[idx] = T.apply(shifted).values[idx]
    return SampledFunction(out)


# -- stock multiplier symbols, one closed formula per operator ----------------

def identity_symbol(*k):
    return np.ones_like(k[0], dtype=complex)


def hilbert_symbol(k):
    """-i sign(k), whose k = 0 entry is (0, -0.0)."""
    return -1j * np.sign(k)


def riesz_symbol(axis: int):
    """-i k_axis / |k|, set to (0, +0.0) at k = 0."""
    def symbol(*k):
        norm = np.sqrt(sum(ki ** 2 for ki in k))
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -1j * k[axis] / norm
        s[norm == 0] = 0.0
        return s
    return symbol


def fractional_symbol(alpha: float):
    """(2 pi |k|)^-alpha, singular at k = 0, where the operator imposes 0."""
    def symbol(*k):
        norm = np.sqrt(sum(ki ** 2 for ki in k))
        with np.errstate(divide="ignore"):
            return (2.0 * math.pi * norm) ** (-alpha) + 0j
    return symbol


# -- envelope machinery on cube-keyed entries, one p_delta per pair ----------

def _level_cubes(dim: int, level: int) -> list:
    return [DyadicCube(dim, level, offset)
            for offset in product(range(1 << level), repeat=dim)]


def _basis_index(dim: int, levels):
    for level in levels:
        for s in sigma_set(dim):
            for cube in _level_cubes(dim, level):
                yield cube, s


def wavelet_matrix_entries(op, basis, levels: range, dim: int, resolution: int) -> dict:
    """`wavelet_matrix` as a dict keyed by ((cube, sigma), (cube, sigma))
    pairs (column wavelet first), in assembly order."""
    J = int(resolution).bit_length() - 1
    j0 = levels.start
    index = list(_basis_index(dim, levels))
    # per-axis positions of every basis coefficient in a coefficient array
    at = tuple(np.array(axis) for axis in zip(*(coeff_index(*key) for key in index)))
    entries = {}
    for key in index:
        psi = SampledFunction(sampled_wavelet(basis, J, *key))
        col = analyze(op.apply(psi), basis, j0).coeffs[at]
        for i in np.flatnonzero(np.abs(col) >= MATRIX_ENTRY_FLOOR):
            entries[(key, index[i])] = float(col[i])
    return entries


def wavelet_matrix_columns(op, basis, levels: range, dim: int, resolution: int):
    """`wavelet_matrix`'s (rows, cols, values) arrays, one basis wavelet at a
    time: roll the mother wavelet, apply op, analyze, keep the entries at or
    above the floor."""
    J = int(resolution).bit_length() - 1
    flat = np.arange(1 << (levels.stop * dim)).reshape((1 << levels.stop,) * dim)
    index = np.concatenate([flat[band_index(j, s)].ravel()
                            for j in levels for s in sigma_set(dim)])
    at = np.unravel_index(index, flat.shape)
    cols, values = [], []
    for j, s, k in zip(*(a.tolist() for a in detail_cubes(index, flat.shape))):
        psi = np.roll(mother_wavelet(basis, dim, J, j, tuple(s)),
                      tuple(x * ((1 << J) >> j) for x in k), axis=tuple(range(dim)))
        col = analyze(op.apply(SampledFunction(psi)), basis, levels.start).coeffs[at]
        keep = np.flatnonzero(np.abs(col) >= MATRIX_ENTRY_FLOOR)
        cols.append(index[keep])
        values.append(col[keep])
    return (np.repeat(index, [len(c) for c in cols]), np.concatenate(cols),
            np.concatenate(values))


def apply_tree(entries: dict, tree: CoefficientTree) -> CoefficientTree:
    """`WaveletMatrixOperator.apply_tree` entry by entry, in entry order."""
    out = np.zeros_like(tree.coeffs)
    for (src, dst), v in entries.items():
        c = tree.coeffs[coeff_index(*src)]
        if c != 0.0:
            out[coeff_index(*dst)] += v * c
    return CoefficientTree(out, tree.coarse_level)


def to_triplets(entries: dict) -> str:
    """Sorted text rows 'row-key col-key value' for external inspection."""
    rows = []
    for (src, dst), v in entries.items():
        rows.append(((src[0].key(), src[1], dst[0].key(), dst[1]), v))
    rows.sort(key=lambda r: r[0])
    return "\n".join(
        f"{rk}:s{''.join(map(str, rs))} {ck}:s{''.join(map(str, cs))} {v:.17g}"
        for (rk, rs, ck, cs), v in rows)


def torus_distance(x, y) -> float:
    """Euclidean geodesic distance between two points of the torus."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return float(np.sqrt(np.sum(torus_delta(x, y) ** 2)))


def p_delta(I: DyadicCube, I2: DyadicCube, delta: float) -> float:
    """Scale-and-distance decay profile between two dyadic cubes.

    Uses the geodesic torus metric between the cube centers.
    """
    if I.dim != I2.dim:
        raise ShapeError("cubes of different dimensions")
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    n = I.dim
    j, j2 = I.level, I2.level
    sides = 2.0 ** (-j) + 2.0 ** (-j2)
    dist = torus_distance(I.center, I2.center)
    scale = 2.0 ** (-abs(j - j2) * (delta / 2.0 + n / 2.0)) / (1.0 + (j - j2) ** 2)
    return scale * (sides / (sides + dist)) ** (n + delta / 2.0)


def almost_diagonal_envelope_fit(entries: dict, dim: int, levels: range,
                                 delta: float) -> PdeltaEnvelope:
    """Fit the smallest C with |entry| <= C * p_delta over all stored entries."""
    if len(levels) == 0:
        raise DomainError("empty matrix: no index set")
    if not entries:
        anchor = DyadicCube(dim, levels.start, (0,) * dim)
        key = (anchor, sigma_set(dim)[0])
        return PdeltaEnvelope(delta, 0.0, (key, key))
    best = -1.0
    worst = None
    for (src, dst), v in entries.items():
        ratio = abs(v) / p_delta(src[0], dst[0], delta)
        if ratio > best:
            best = ratio
            worst = (src, dst)
    return PdeltaEnvelope(delta, best, worst)


def pdelta_composition_check(levels: range, delta: float, samples: int,
                             dim: int = 1, seed: int = 0) -> float:
    """Max over sampled cube pairs of sum_I'' p(I,I'')p(I',I'') / p(I,I')."""
    if len(levels) == 0:
        raise DomainError("empty level range")
    rng = np.random.default_rng(seed)
    mids = [cube for level in levels for cube in _level_cubes(dim, level)]
    worst = 0.0
    for _ in range(samples):
        I = random_cube(rng, dim, levels.start, levels.stop - 1)
        I2 = random_cube(rng, dim, levels.start, levels.stop - 1)
        total = sum(p_delta(I, mid, delta) * p_delta(I2, mid, delta) for mid in mids)
        worst = max(worst, total / p_delta(I, I2, delta))
    return worst


# -- oscillation norm of one grid, one level at a time -----------------------

def _level_oscillations(values: np.ndarray, level: int) -> np.ndarray:
    step = values.shape[0] >> level
    blocks = values.reshape((1 << level, step) * values.ndim)
    inside = tuple(range(1, 2 * values.ndim, 2))
    means = blocks.mean(axis=inside, keepdims=True)
    return np.abs(blocks - means).mean(axis=inside)


def oscillation_norm(f: SampledFunction, mode: str = "BMO") -> float:
    """Dyadic-cube mean-oscillation norm of one sample, level by level."""
    if mode not in OSCILLATION_MODES:
        raise ConfigurationError(f"unknown oscillation mode {mode!r}")
    v = f.values
    if not np.isfinite(v).all():
        raise DomainError("oscillation norm of non-finite samples")
    sup = 0.0
    for level in range(0, f.finest_level + 1):
        osc = _level_oscillations(v, level)
        if mode == "BMOlog":
            side = 2.0 ** (-level)
            axis = (np.arange(1 << level) + 0.5) * side
            centers = np.meshgrid(*(axis,) * f.dim, indexing="ij")
            dist = np.zeros_like(osc)
            for a in range(f.dim):
                dist = dist + np.minimum(centers[a] % 1.0, 1.0 - centers[a] % 1.0) ** 2
            weight = level * math.log(2.0) + np.log(math.e + np.sqrt(dist))
            osc = osc * weight
        sup = max(sup, float(osc.max()))
    if mode == "BMOplus":
        sup += abs(f.mean())
    elif mode == "bmo":
        sup += float(np.abs(v).mean())
    return sup


# -- samplers, one case, one atom tree and one norm call at a time -----------

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
    """Sum of psi-atom trees with random signed weights, one tree per atom."""
    out = CoefficientTree.zeros(dim, coarse_level, finest_level)
    for _ in range(n_atoms):
        atom, _ = random_psi_atom(rng, dim, coarse_level, finest_level)
        lam = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0)
        out = out + lam * atom
    return out


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


def bmo_values(rng, dim: int, resolution: int) -> np.ndarray:
    """One oscillation sample of a random family, before centering."""
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
    return vals


def random_bmo(rng, dim: int, resolution: int) -> SampledFunction:
    """Random oscillation sample normalized to unit dyadic BMO norm, redrawn
    from the same generator while its norm is below 1e-12."""
    vals = bmo_values(rng, dim, resolution)
    f = SampledFunction(vals - vals.mean())
    norm = oscillation_norm(f, "BMO")
    if norm < 1e-12:
        return random_bmo(rng, dim, resolution)
    return SampledFunction(f.values / norm)


def k_class_ratio(T, atoms: int, b_samples: int, seed: int, dim: int = 1,
                  resolution: int = 512) -> float:
    """`operators.k_class_ratio` with one `random_bmo` call per BMO sample."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(atoms):
        a, Q = random_classical_atom(rng, dim, resolution)
        Ta = T.apply(a)
        for _ in range(b_samples):
            image = k_class_image(random_bmo(rng, dim, resolution), Q, Ta)
            worst = max(worst, float(np.abs(image.values).mean()))
    return worst


# -- atomic decomposition, one cube label array per threshold -----------------

def atomic_decompose(f: CoefficientTree, basis) -> AtomicDecomposition:
    """Atoms of `f` grouped by labelling, for every threshold, each grid cell
    with the maximal dyadic cube over it whose lower median passes; the cubes
    are listed level by level, skipping those under a passing ancestor."""
    W = wavelet_square_function(f).values
    N = f.resolution
    detail_l1 = float(np.abs(W).mean())
    coarse_l1 = float(np.abs(coarse_projection(f.coeffs, basis, f.coarse_level, f.dim)).mean())
    medians = {lev: _lower_medians(W, lev) for lev in range(0, f.finest_level)}
    assignments = {}
    for j in f.levels():
        occupied = np.zeros((1 << j,) * f.dim, dtype=bool)
        for s in sigma_set(f.dim):
            occupied |= f.band(j, s) != 0.0
        for idx in np.argwhere(occupied):
            off = tuple(int(i) for i in idx)
            med = float(medians[j][off])
            k = int(math.floor(math.log2(med)))
            if 2.0 ** k >= med:
                k -= 1
            assignments.setdefault(k, []).append((j, off))
    atoms = []
    for k in sorted(assignments):
        threshold = 2.0 ** k
        label = -np.ones((N,) * f.dim, dtype=np.int64)
        roots = []
        anc = np.zeros((1,) * f.dim, dtype=bool)
        for lev in range(0, f.finest_level):
            qual = medians[lev] > threshold
            for idx in np.argwhere(qual & ~anc):
                cube = DyadicCube(f.dim, lev, tuple(int(i) for i in idx))
                label[cube.grid_slices(N)] = len(roots)
                roots.append(cube)
            anc = anc | qual
            for axis in range(f.dim):
                anc = np.repeat(anc, 2, axis=axis)
        groups = {}
        for j, off in assignments[k]:
            groups.setdefault(int(label[tuple(o * (N >> j) for o in off)]), []).append((j, off))
        for root_id in sorted(groups):
            R = roots[root_id]
            energy = 0.0
            packet = np.zeros_like(f.coeffs)
            for j, off in groups[root_id]:
                for s in sigma_set(f.dim):
                    at = coeff_index(DyadicCube(f.dim, j, off), s)
                    v = packet[at] = f.coeffs[at]
                    energy += v * v
            lam = math.sqrt(energy) * R.measure ** 0.5
            atoms.append((lam, CoefficientTree(packet, f.coarse_level) * (1.0 / lam), R))
    return AtomicDecomposition(tuple(atoms), float(sum(lam for lam, _, _ in atoms)),
                               coarse_l1 > 1e-8 * (1.0 + detail_l1), coarse_l1)


# -- cube lists, one band at a time ------------------------------------------

def iter_details(tree: CoefficientTree):
    """`CoefficientTree.iter_details` by a per-band `np.argwhere` scan."""
    for j in tree.levels():
        for s in sigma_set(tree.dim):
            arr = tree.band(j, s)
            for idx in np.argwhere(np.abs(arr) > 0.0):
                off = tuple(int(i) for i in idx)
                yield DyadicCube(tree.dim, j, off), s, float(arr[off])


def _inside_mask(dim: int, level: int, R: DyadicCube) -> np.ndarray:
    """Boolean array over level-`level` offsets marking cubes contained in R."""
    if level < R.level:
        return np.zeros((1 << level,) * dim, dtype=bool)
    axes = [(np.arange(1 << level) >> (level - R.level)) == k for k in R.offset]
    return functools.reduce(np.logical_and.outer, axes)


def psi_atom_bad_cubes(tree: CoefficientTree, R: DyadicCube) -> tuple:
    """`validate_psi_atom(tree, R).bad_cubes`: per band, the coefficients
    above the zero tolerance off a mask of the level's cubes inside R."""
    zero_tol = 1e-12 * (1.0 + math.sqrt(tree.detail_energy()))
    bad = []
    for j in tree.levels():
        inside = _inside_mask(tree.dim, j, R)
        for s in sigma_set(tree.dim):
            for idx in np.argwhere((np.abs(tree.band(j, s)) > zero_tol) & ~inside):
                bad.append(DyadicCube(tree.dim, j, tuple(int(i) for i in idx)))
    return tuple(bad)
