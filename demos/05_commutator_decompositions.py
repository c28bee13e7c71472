"""Commutator decompositions: the exact linear identity, the sublinear
sandwich, and the probe showing why the remainder term is needed at all.

The commutator of multiplication by b with a singular integral splits into a
well-behaved remainder plus the operator applied to the diagonal paraproduct.
For sublinear operators the same algebra yields two-sided pointwise bounds.
The final probe shows the commutator with a logarithm growing along shrinking
atoms: the direct map is genuinely unbounded on that scale of inputs.
"""

from torwave import (bilinear_decomposition, build_basis, commutator_apply, hardy_norm,
                     lp_norm, parse_operator, subbilinear_envelope, synthesize)
from torwave.samples import derive_rng, random_bmo, random_psi_atom, truncated_log, two_sided_atom

basis = build_basis("daubechies", 4)
rng = derive_rng(23)
N, j0 = 512, 2

tree, _ = random_psi_atom(rng, 1, j0, 9)
f = synthesize(tree, basis)
b = random_bmo(rng, 1, N)
H = parse_operator("hilbert", 1, N)

print("== bilinear decomposition for the Hilbert transform ==")
dec = bilinear_decomposition(b, H, f, basis, j0)
comm = commutator_apply(b, H, f)
print(f"  ||[b,H]f||_L1 = {lp_norm(comm, 1.0):.4f}")
print(f"  remainder L1  = {lp_norm(dec.R_part, 1.0):.4f}, "
      f"diagonal image L1 = {lp_norm(dec.S_image, 1.0):.4f}")
print(f"  identity residual (sup) = {dec.residual_inf:.3e}")

print("\n== sublinear sandwich for the maximal operator and area integral ==")
for T, name in [(parse_operator("maximal", 1, N), "grand maximal"),
                (parse_operator("lusin", 1, N), "area integral")]:
    env = subbilinear_envelope(b, T, f, basis, j0)
    print(f"  {name:14s} sandwich holds: {env.sandwich_ok} "
          f"(max violation {env.max_violation:.2e})")

print("\n== growth probe: atoms shrinking into a logarithmic singularity ==")
N = 4096
H = parse_operator("hilbert", 1, N)  # every operator acts on the one grid it is built for
blog = truncated_log(1, N, (0.5,))
for e in range(3, 8):
    width = 2.0 ** -e
    a = two_sided_atom(N, width, 0.5)
    ratio = lp_norm(commutator_apply(blog, H, a), 1.0) \
        / hardy_norm(a, "H1_square", basis, j0)
    print(f"  width 2^-{e}: ||[b,H]a||_L1 / H1(a) = {ratio:.3f}")
print("the ratio keeps growing as the width shrinks: no uniform bound exists")
print("on plain Hardy atoms, which is what the remainder-plus-diagonal split")
print("and the extra cancellation of b-atoms are for.")
