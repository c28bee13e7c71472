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

from .core import SampledFunction, sup_norm
from .wavelets import (CoefficientTree, WaveletBasis, mother_wavelet,
                       projection_stack, same_layout, sigma_set)


@dataclass(frozen=True)
class ProductDecomposition:
    """The four bilinear parts, the coarse remainder, and the identity residual."""

    pi1: SampledFunction
    pi2: SampledFunction
    pi3: SampledFunction
    pi4: SampledFunction
    coarse: SampledFunction
    residual_inf: float

    def parts_sum(self) -> SampledFunction:
        return self.pi1 + self.pi2 + self.pi3 + self.pi4 + self.coarse


def _diagonal_layer(f: CoefficientTree, g: CoefficientTree, basis: WaveletBasis,
                    level: int) -> np.ndarray:
    """Same-cube detail products: sum of <f,psi><g,psi> psi^2 over one level.

    All wavelets of one level are circular shifts of the zero-offset one, so
    the sum is a circular convolution of the coefficient-product lattice with
    the squared mother wavelet.
    """
    N = f.resolution
    step = N >> level
    out = np.zeros((N,) * f.dim)
    for s in sigma_set(f.dim):
        prod = f.band(level, s) * g.band(level, s)
        if not prod.any():
            continue
        lattice = np.zeros_like(out)
        lattice[(slice(None, None, step),) * f.dim] = prod
        sq = mother_wavelet(basis, f.dim, f.finest_level, level, s) ** 2
        out += np.fft.ifftn(np.fft.fftn(lattice) * np.fft.fftn(sq)).real
    return out


def _layers(f: CoefficientTree, g: CoefficientTree, basis: WaveletBasis):
    Pf = projection_stack(f, basis)
    Pg = projection_stack(g, basis)
    levels = list(f.levels())
    Qf = {j: Pf[j + 1] - Pf[j] for j in levels}
    Qg = {j: Pg[j + 1] - Pg[j] for j in levels}
    return Pf, Pg, Qf, Qg, levels


def paraproducts(f: CoefficientTree, g: CoefficientTree,
                 basis: WaveletBasis) -> ProductDecomposition:
    """Split the pointwise product of the synthesized inputs into its four
    bilinear parts plus the coarse-scale remainder."""
    same_layout(f, g)
    Pf, Pg, Qf, Qg, levels = _layers(f, g, basis)
    N = f.resolution
    shape = (N,) * f.dim
    pi1 = np.zeros(shape)
    pi2 = np.zeros(shape)
    pi3 = np.zeros(shape)
    pi4 = np.zeros(shape)
    for j in levels:
        pi1 += Pf[j] * Qg[j]
        pi2 += Qf[j] * Pg[j]
        diag = _diagonal_layer(f, g, basis, j)
        pi3 += diag
        pi4 += Qf[j] * Qg[j] - diag
    j0 = f.coarse_level
    coarse = Pf[j0] * Pg[j0]
    J = f.finest_level
    product = Pf[J] * Pg[J]
    residual = product - (pi1 + pi2 + pi3 + pi4 + coarse)
    return ProductDecomposition(
        pi1=SampledFunction(pi1), pi2=SampledFunction(pi2),
        pi3=SampledFunction(pi3), pi4=SampledFunction(pi4),
        coarse=SampledFunction(coarse),
        residual_inf=float(np.max(np.abs(residual))),
    )


def s_operator(f: CoefficientTree, g: CoefficientTree,
               basis: WaveletBasis) -> SampledFunction:
    """Negated diagonal part: same code path as the pi3 layer, sign flipped."""
    same_layout(f, g)
    acc = np.zeros((f.resolution,) * f.dim)
    for j in f.levels():
        acc += _diagonal_layer(f, g, basis, j)
    return SampledFunction(-acc)


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
