"""Bilinear wavelet paraproducts and the exact pointwise product decomposition.

The product of two synthesized functions splits, level by level, into
scaling-times-detail, detail-times-scaling and detail-times-detail layers
plus the product of the two coarsest scaling projections.  With circular
transforms the telescoping is an identity on the grid, so the residual of
the five-part sum is pure roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SampledFunction, grid_level, sup_norm
from .errors import ShapeError
from .wavelets import (CoefficientTree, WaveletBasis, _require_valid_levels, band_index,
                       mother_wavelet, projection_stack, same_layout, sigma_set)


@dataclass(frozen=True)
class ProductDecomposition:
    """The four bilinear parts, the coarse remainder, and the identity
    residual: `SampledFunction`s and a float for one case, or arrays whose
    leading axes index the cases of a stack."""

    pi1: SampledFunction | np.ndarray
    pi2: SampledFunction | np.ndarray
    pi3: SampledFunction | np.ndarray
    pi4: SampledFunction | np.ndarray
    coarse: SampledFunction | np.ndarray
    residual_inf: float | np.ndarray

    def parts_sum(self):
        return self.pi1 + self.pi2 + self.pi3 + self.pi4 + self.coarse


def _diagonal_layer(fc: np.ndarray, gc: np.ndarray, basis: WaveletBasis, level: int,
                    dim: int) -> np.ndarray:
    """Same-cube detail products: sum of <f,psi><g,psi> psi^2 over one level,
    for every case of the coefficient stacks `fc` and `gc`.

    All wavelets of one level are circular shifts of the zero-offset one, so
    the sum is a circular convolution of the coefficient-product lattice with
    the squared mother wavelet, whose spectrum serves the whole stack.  A
    case whose band product is all zero gets no term from that band.
    """
    J = grid_level(fc.shape, dim)
    step = 1 << (J - level)
    axes = tuple(range(-dim, 0))
    out = np.zeros(fc.shape)
    for s in sigma_set(dim):
        band = (Ellipsis,) + band_index(level, s)
        prod = fc[band] * gc[band]
        live = prod.reshape(prod.shape[:prod.ndim - dim] + (-1,)).any(axis=-1)
        if not live.any():
            continue
        pick = Ellipsis if live.all() else live
        picked = prod[pick]
        lattice = np.zeros(picked.shape[:picked.ndim - dim] + out.shape[out.ndim - dim:])
        lattice[(Ellipsis,) + (slice(None, None, step),) * dim] = picked
        conv = np.fft.fftn(lattice, axes=axes, out=np.empty(lattice.shape, complex))
        conv *= np.fft.fftn(mother_wavelet(basis, dim, J, level, s) ** 2)
        out[pick] += np.fft.ifftn(conv, axes=axes, out=conv).real
    return out


def _pair(f, g, basis: WaveletBasis, coarse_level: int | None, dim: int | None) -> tuple:
    """(f coefficients, g coefficients, coarse level, dim, single) of two
    trees of one layout, or of two stacks of coefficient arrays of one shape
    with the given level and dim, which must be valid levels for `basis`."""
    if isinstance(f, CoefficientTree) != isinstance(g, CoefficientTree):
        raise ShapeError("a tree pairs only with a tree, and a stack only with a stack")
    if isinstance(f, CoefficientTree):
        same_layout(f, g)
        return f.coeffs, g.coeffs, f.coarse_level, f.dim, True
    fc, gc = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    if fc.shape != gc.shape:
        raise ShapeError("tree layouts do not match")
    _require_valid_levels(basis, coarse_level, grid_level(fc.shape, dim))
    return fc, gc, coarse_level, dim, False


def paraproducts(f, g, basis: WaveletBasis, coarse_level: int | None = None,
                 dim: int | None = None):
    """Split the pointwise product of the synthesized inputs into its four
    bilinear parts plus the coarse-scale remainder, as a `ProductDecomposition`
    of one case for two trees, or of every case for two stacks of coefficient
    arrays with their coarse level and dim."""
    fc, gc, j0, dim, single = _pair(f, g, basis, coarse_level, dim)
    Pf = projection_stack(fc, basis, j0, dim)
    Pg = projection_stack(gc, basis, j0, dim)
    J = max(Pf)
    pi1, pi2, pi3, pi4 = (np.zeros(fc.shape) for _ in range(4))
    for j in range(j0, J):
        Qf, Qg = Pf[j + 1] - Pf[j], Pg[j + 1] - Pg[j]
        pi1 += Pf[j] * Qg
        pi2 += Qf * Pg[j]
        diag = _diagonal_layer(fc, gc, basis, j, dim)
        pi3 += diag
        pi4 += Qf * Qg - diag
    coarse = Pf[j0] * Pg[j0]
    residual = sup_norm(Pf[J] * Pg[J] - (pi1 + pi2 + pi3 + pi4 + coarse), dim)
    parts = (pi1, pi2, pi3, pi4, coarse)
    if single:
        return ProductDecomposition(*map(SampledFunction, parts), float(residual))
    return ProductDecomposition(*parts, residual)


def s_operator(f, g, basis: WaveletBasis, coarse_level: int | None = None,
               dim: int | None = None):
    """Negated diagonal part: same code path as the pi3 layer, sign flipped.
    A `SampledFunction` for two trees, an array for two stacks."""
    fc, gc, j0, dim, single = _pair(f, g, basis, coarse_level, dim)
    acc = np.zeros(fc.shape)
    for j in range(j0, grid_level(fc.shape, dim)):
        acc += _diagonal_layer(fc, gc, basis, j, dim)
    return SampledFunction(-acc) if single else -acc


def diagonal_coefficient_sum(f: CoefficientTree, g: CoefficientTree) -> float:
    """Sum of matched detail-coefficient products over all cubes and orientations."""
    same_layout(f, g)
    return float(sum((f.band(j, s) * g.band(j, s)).sum()
                     for j in f.levels() for s in sigma_set(f.dim)))


def shift_invariance_check(f: CoefficientTree, g: CoefficientTree,
                           basis: WaveletBasis, c: float) -> float:
    """Max deviation of the parts insensitive to adding a constant to g.

    Adding c shifts only the coarse scaling coefficients of g (the sampled
    wavelets integrate to zero exactly), so parts 1, 3, 4 should move by
    roundoff only.
    """
    same_layout(f, g)
    shifted_scaling = g.scaling + c * 2.0 ** (-g.coarse_level * g.dim / 2.0)
    g_shift = g.replace(scaling=shifted_scaling)
    base = paraproducts(f, g, basis)
    moved = paraproducts(f, g_shift, basis)
    return max(
        sup_norm(base.pi1 - moved.pi1),
        sup_norm(base.pi3 - moved.pi3),
        sup_norm(base.pi4 - moved.pi4),
    )
