"""Periodized wavelet analysis on the torus: transforms, square function, atoms.

Walks through building a basis, the exactness of analysis/synthesis, the
Parseval identity, the pointwise square function, and what makes a wavelet
packet an atom.
"""

import numpy as np

from torwave import (CoefficientTree, DyadicCube, SampledFunction, analyze,
                     build_basis, lp_norm, synthesize, validate_psi_atom,
                     wavelet_square_function)
from torwave.samples import derive_rng, random_psi_atom

rng = derive_rng(2024)

print("== bases ==")
for family, order in [("haar", 1), ("daubechies", 2), ("daubechies", 4)]:
    basis = build_basis(family, order)
    print(f"{family}(order={order}): {len(basis.scaling_filter)} taps, "
          f"support factor {basis.support_factor:g}, "
          f"{basis.vanishing_moments} vanishing moments")

basis = build_basis("daubechies", 4)

print("\n== perfect reconstruction and Parseval ==")
N = 512
f = SampledFunction(rng.standard_normal(N))
tree = analyze(f, basis, coarse_level=2)
g = synthesize(tree, basis)
print(f"max |synthesize(analyze(f)) - f| = {np.abs(g.values - f.values).max():.3e}")
energy = (f.values ** 2).mean()
print(f"|sum coeff^2 - ||f||_L2^2| = {abs(tree.energy() - energy):.3e}")

print("\n== the square function of a single wavelet ==")
cube = DyadicCube(1, 4, (5,))
single = CoefficientTree.unit_detail(cube, (1,), 2, N.bit_length() - 1)
w = wavelet_square_function(single)
print(f"on the cube the square function equals |I|^(-1/2) = {cube.measure ** -0.5:g}; "
      f"measured {w.values[cube.grid_slices(N)].max():g}")
print(f"its L1 norm is |I|^(1/2) = {cube.measure ** 0.5:g}; "
      f"measured {lp_norm(w, 1.0):g}")

print("\n== wavelet packets as atoms ==")
atom, R = random_psi_atom(rng, 1, 2, 9)
check = validate_psi_atom(atom, R)
print(f"random packet on cube {R.key()}: {check.describe()}")
print(f"square-function L1 budget of the atom: "
      f"{lp_norm(wavelet_square_function(atom), 1.0):.6f} (always <= 1)")
