"""Multiplier operators, their wavelet matrices, and almost-diagonal envelopes.

Names each operator by its spec (`hilbert`, `ifrac:0.5`), shows exact symbol
actions on single frequencies, assembles the wavelet matrix of the Hilbert
transform, fits the scale-and-distance envelope to its entries, and checks
the envelope composition inequality by direct summation.
"""

import numpy as np

from torwave import (SampledFunction, almost_diagonal_envelope_fit, build_basis, p_delta,
                     parse_operator, pdelta_composition_check, wavelet_matrix)
from torwave.core import DyadicCube

x = np.arange(256) / 256

print("== symbols on single frequencies ==")
H = parse_operator("hilbert", 1, 256)
out = H.apply(SampledFunction(np.cos(2 * np.pi * x)))
print(f"Hilbert(cos 2pi x) = sin 2pi x to {np.abs(out.values - np.sin(2*np.pi*x)).max():.1e}")
Ia = parse_operator("ifrac:0.5", 1, 256)
out = Ia.apply(SampledFunction(np.cos(2 * np.pi * 3 * x)))
print(f"half-order integral scales frequency 3 by (6 pi)^-1/2 = "
      f"{(6 * np.pi) ** -0.5:.6f}; measured {out.values.max():.6f}")
print(f"both annihilate constants: |H 1| = "
      f"{np.abs(H.apply(SampledFunction(np.ones(256))).values).max():g}")

print("\n== wavelet matrix of the Hilbert transform ==")
basis = build_basis("daubechies", 4)
mat = wavelet_matrix(H, basis, range(2, 7), 1, 256)
print(f"levels 2..6: {mat.values.size} stored entries (|entry| >= 1e-14)")
env = almost_diagonal_envelope_fit(mat, delta=1.0)
(worst_row, _), (worst_col, _) = env.worst_pair
print(f"fitted envelope constant C = {env.fitted_C:.3f}, attained at "
      f"{worst_row.key()} x {worst_col.key()}")

print("\n== envelope profile ==")
I = DyadicCube(1, 3, (1,))
I2 = DyadicCube(1, 4, (4,))
print(f"p(I,I) = {p_delta(I.level, I.offset, I.level, I.offset, 1.0):g} on the diagonal")
print(f"p(levels 3,4 at distance 3/32) = "
      f"{p_delta(I.level, I.offset, I2.level, I2.offset, 1.0):.6f}")
comp = pdelta_composition_check(range(2, 7), 1.0, samples=50, seed=1)
print(f"composition ratio sup over 50 sampled pairs: {comp:.2f} (finite, "
      "stable as the level range widens)")
