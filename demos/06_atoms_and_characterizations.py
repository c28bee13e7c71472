"""Atoms with extra cancellation, the maximal-commutator norm, level-set
atomic decomposition, and molecule seminorms.

b-atoms are mean-zero bumps additionally orthogonal to b; on them all the
equivalent size measurements stay uniformly controlled.  The atomic
decomposition splits any finite wavelet expansion into such unit packets with
summable weights comparable to the square-function mass.
"""

import numpy as np

from torwave import (DyadicCube, atomic_decompose, build_basis,
                     h1b_characterizations, lp_norm, make_qb_atom, molecule_norm,
                     parse_operator, synthesize, validate_atom, validate_psi_atom,
                     wavelet_square_function)
from torwave.samples import derive_rng, random_bmo, random_classical_atom, random_h1_tree

basis = build_basis("daubechies", 4)
rng = derive_rng(37)
N, j0 = 512, 2

print("== an atom with double cancellation ==")
b = random_bmo(rng, 1, N)
Q = DyadicCube(1, 3, (5,))
a = make_qb_atom(Q, b, q=2.0, seed=9)
print(f"validates: {bool(validate_atom(a, Q, 2.0, b))}; "
      f"int a = {a.integral():.2e}, int a*b = {(a * b).integral():.2e}")

print("\n== the four equivalent size measurements on that atom ==")
rep = h1b_characterizations(a, b, basis, j0)
print(f"  maximal commutator : {rep.v_maximal:.4f}")
print(f"  diagonal part in H1: {rep.v_square:.4f}")
print(f"  riesz commutators  : {rep.v_riesz:.4f}")
print(f"  full norm          : {rep.norm:.4f} (b has unit oscillation norm)")
print(f"  full-norm ratios   : " + ", ".join(
    f"{k}={v:.2f}" for k, v in rep.ratios().items()))

print("\n== level-set atomic decomposition ==")
tree = random_h1_tree(rng, 1, j0, 9)
deco = atomic_decompose(tree, basis)
w1 = lp_norm(wavelet_square_function(tree), 1.0)
rec = deco.reconstruct_tree().replace(scaling=tree.scaling)
err = np.abs(synthesize(tree, basis).values - synthesize(rec, basis).values).max()
print(f"{len(deco.atoms)} atoms, sum|lambda| = {deco.sum_abs_lambda:.4f} "
      f"vs square-function mass {w1:.4f} (ratio {deco.sum_abs_lambda / w1:.2f})")
print(f"reconstruction error {err:.1e}; all atoms validate: "
      f"{all(bool(validate_psi_atom(t, R)) for _, t, R in deco.atoms)}")

print("\n== molecule seminorms ==")
H = parse_operator("hilbert", 1, N)
atom, Q2 = random_classical_atom(rng, 1, N)
print(f"classical atom: seminorm {molecule_norm(atom, 0.25, Q2.center):.4f}")
b_Q = float(b.values[Q2.grid_slices(N)].mean())
g = (b - b_Q) * H.apply(atom)
g = g - g.mean()
print(f"(b - b_Q) H(atom), mean removed: seminorm "
      f"{molecule_norm(g, 0.25, Q2.center):.4f} (controlled by the b norm)")
