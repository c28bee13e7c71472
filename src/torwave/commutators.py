"""Commutators of multiplication by b with linear and sublinear operators.

The central identities: for linear T the commutator splits exactly into a
remainder built from the off-diagonal paraproduct parts plus T applied to
the diagonal part; for sublinear T the same algebra gives two-sided pointwise
envelopes.  The remainder absorbs the coarse-scale product term so both
identities close at finite resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DyadicCube, SampledFunction, distance_field, sup_norm
from .errors import (CancellationError, ConfigurationError, ContractError,
                     DegeneracyError, DomainError, HypothesisError, ShapeError)
from .norms import hardy_norm, lp_norm, oscillation_norm, weak_lp_quasinorm
from .operators import fractional_integral_operator, hilbert_operator, riesz_operator
from .paraproducts import ProductDecomposition, paraproducts, s_operator
from .sublinear import grand_maximal
from .wavelets import (CoefficientTree, WaveletBasis, analyze, coarse_projection,
                       coeff_index, sigma_set, wavelet_square_function)

# cost guard for per-evaluation-point commutators; raise these knowingly
POINTWISE_RESOLUTION_CAP = {1: 4096, 2: 256}


def commutator_apply(b: SampledFunction, T, f: SampledFunction,
                     sublinear: bool = False) -> SampledFunction:
    """Commutator of multiplication by b with T.

    Linear form: b T(f) - T(b f).  Sublinear form: the per-evaluation-point
    value of T applied to (b(x) - b(.)) f(.), evaluated exactly through the
    operator's expanded `pointwise_shifted` path.
    """
    if b.values.shape != f.values.shape:
        raise ShapeError("b and f live on different grids")
    if not sublinear:
        if not getattr(T, "is_linear", False):
            raise ContractError("T is not linear; call with sublinear=True")
        return b * T.apply(f) - T.apply(b * f)
    cap = POINTWISE_RESOLUTION_CAP.get(f.dim, 0)
    if f.resolution > cap:
        raise ConfigurationError(
            f"pointwise commutator at N={f.resolution} (dim {f.dim}) exceeds the "
            f"default cap {cap}; raise POINTWISE_RESOLUTION_CAP to proceed")
    if not hasattr(T, "pointwise_shifted"):
        raise ContractError(f"{getattr(T, 'name', 'T')} has no pointwise_shifted path")
    return T.pointwise_shifted(b, f, b * f)


@dataclass(frozen=True)
class CommutatorDecomposition:
    """Remainder part, image of the diagonal part under T, the commutator
    itself, and the residual of the identity."""

    R_part: SampledFunction
    S_image: SampledFunction
    commutator: SampledFunction
    residual_inf: float


def commutator_parts(b: SampledFunction, T, f: SampledFunction,
                     parts: ProductDecomposition) -> CommutatorDecomposition:
    """[b,T]f = b T f - T(b f), split by the paraproducts `parts` of (f, b).

    The remainder is b T f - T(pi2) - T(coarse) - T(pi1 + pi4); together with
    T(S(f,b)) = T(-pi3) it reproduces the commutator up to the paraproduct
    roundoff.  T is applied to f once, and to each part once.
    """
    if not getattr(T, "is_linear", False):
        raise ContractError(
            "T is sublinear; the identity holds only as a two-sided envelope -- "
            "use subbilinear_envelope")
    b_Tf = b * T.apply(f)
    r_part = (b_Tf - T.apply(parts.pi2) - T.apply(parts.coarse)
              - T.apply(parts.pi1 + parts.pi4))
    s_image = T.apply(-1.0 * parts.pi3)
    comm = b_Tf - T.apply(b * f)
    residual = sup_norm(comm - r_part - s_image)
    return CommutatorDecomposition(r_part, s_image, comm, residual)


def bilinear_decomposition(b: SampledFunction, T, f: SampledFunction,
                           basis: WaveletBasis,
                           coarse_level: int | None = None) -> CommutatorDecomposition:
    """Split [b,T]f into a remainder plus T of the diagonal paraproduct of
    the analyzed f and b; see `commutator_parts`."""
    ft = analyze(f, basis, coarse_level)
    bt = analyze(b, basis, coarse_level)
    return commutator_parts(b, T, f, paraproducts(ft, bt, basis))


@dataclass(frozen=True)
class SubbilinearEnvelope:
    """Pointwise envelope for a sublinear commutator and its sandwich check."""

    R_env: SampledFunction
    sandwich_ok: bool
    max_violation: float
    commutator_abs: SampledFunction
    s_image_abs: SampledFunction


def subbilinear_envelope(b: SampledFunction, T, f: SampledFunction,
                         basis: WaveletBasis, coarse_level: int | None = None,
                         slack_scale: float = 1e-9) -> SubbilinearEnvelope:
    """Two-sided pointwise control of |[b,T]f| by an envelope and |T(S(f,b))|.

    The envelope is |T(b(x)f - pi2 - coarse)(x)| + |T(pi1)(x)| + |T(pi4)(x)|;
    both inequalities are checked at every grid point with a roundoff slack.
    """
    comm_abs = abs(commutator_apply(b, T, f, sublinear=True))
    ft = analyze(f, basis, coarse_level)
    bt = analyze(b, basis, coarse_level)
    parts = paraproducts(ft, bt, basis)
    shifted_h = parts.pi2 + parts.coarse
    term1 = T.pointwise_shifted(b, f, shifted_h)
    term2 = abs(T.apply(parts.pi1))
    term3 = abs(T.apply(parts.pi4))
    r_env = term1 + term2 + term3
    ts_abs = abs(T.apply(-1.0 * parts.pi3))
    slack = slack_scale * (1.0 + sup_norm(comm_abs) + sup_norm(r_env))
    upper_gap = comm_abs.values - (r_env.values + ts_abs.values)
    lower_gap = (ts_abs.values - r_env.values) - comm_abs.values
    violation = max(float(upper_gap.max()), float(lower_gap.max()), 0.0)
    return SubbilinearEnvelope(r_env, violation <= slack, violation, comm_abs, ts_abs)


# ---------------------------------------------------------------------------
# atoms with extra cancellation against b
# ---------------------------------------------------------------------------

def make_qb_atom(Q: DyadicCube, b: SampledFunction, q: float, seed: int,
                 max_retries: int = 10) -> SampledFunction:
    """Random profile on Q orthogonalized against {1, b} in L2(Q), sized to
    the atom budget |Q|^(1/q - 1)."""
    if not q > 1:
        raise DomainError(f"q must lie in (1, inf], got {q}")
    rng = np.random.default_rng(seed)
    N = b.resolution
    sl = Q.grid_slices(N)
    bq = b.values[sl]
    b_centered = bq - bq.mean()
    b_norm2 = float((b_centered ** 2).sum())
    for _ in range(max_retries):
        prof = rng.standard_normal(bq.shape)
        prof = prof - prof.mean()
        if b_norm2 > 1e-24:
            prof = prof - (float((prof * b_centered).sum()) / b_norm2) * b_centered
            prof = prof - prof.mean()
        scale_ref = float(np.abs(prof).max())
        if scale_ref < 1e-9:
            continue
        vals = np.zeros((N,) * b.dim)
        vals[sl] = prof
        a = SampledFunction(vals)
        size = lp_norm(a, q)
        budget = Q.measure ** (1.0 / q - 1.0) if not math.isinf(q) else 1.0 / Q.measure
        return SampledFunction(a.values * (budget / size))
    raise DegeneracyError("q,b-atom orthogonalization degenerated after retries")


# ---------------------------------------------------------------------------
# characterizations of the maximal-commutator subspace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class H1bReport:
    """The four equivalent size measurements plus the defining norm."""

    v_maximal: float
    v_square: float
    v_riesz: float
    v_T: float
    base: float
    norm: float

    def ratios(self) -> dict:
        """Pairwise ratios of the equivalent full norms base + v.

        The equivalences hold with the base term on both sides; the bare
        measurements admit arbitrary individual cancellation, so comparing
        them alone is meaningless.
        """
        eps = 1e-300
        sq = self.base + self.v_square
        rz = self.base + self.v_riesz
        vt = self.base + self.v_T
        return {
            "square_over_riesz": sq / max(rz, eps),
            "square_over_T": sq / max(vt, eps),
            "riesz_over_T": rz / max(vt, eps),
        }

    def to_dict(self) -> dict:
        return {"v_maximal": self.v_maximal, "v_square": self.v_square,
                "v_riesz": self.v_riesz, "v_T": self.v_T,
                "base": self.base, "norm": self.norm}


def h1b_characterizations(f: SampledFunction, b: SampledFunction,
                          basis: WaveletBasis, coarse_level: int | None = None,
                          T=None) -> H1bReport:
    """Measure the four equivalent quantities controlling the commutator norm."""
    b_bmo = oscillation_norm(b, "BMO")
    if b_bmo <= 1e-12:
        raise DomainError("b is constant; the commutator space is undefined")
    maximal = grand_maximal(f.dim, f.resolution)
    comm_max = maximal.pointwise_shifted(b, f, b * f)
    v_maximal = lp_norm(comm_max, 1.0)
    ft = analyze(f, basis, coarse_level)
    bt = analyze(b, basis, coarse_level)
    sfb = s_operator(ft, bt, basis)
    v_square = hardy_norm(sfb, "H1_square", basis, coarse_level)
    riesz_ops = [hilbert_operator()] if f.dim == 1 else \
        [riesz_operator(0, 2), riesz_operator(1, 2)]
    v_riesz = sum(lp_norm(commutator_apply(b, op, f), 1.0) for op in riesz_ops)
    if T is None or T is maximal:
        v_T = v_maximal
    elif getattr(T, "is_linear", False):
        v_T = lp_norm(commutator_apply(b, T, f), 1.0)
    else:
        v_T = lp_norm(commutator_apply(b, T, f, sublinear=True), 1.0)
    base = hardy_norm(f, "H1_square", basis, coarse_level) * b_bmo
    return H1bReport(v_maximal, v_square, v_riesz, v_T, base, base + v_maximal)


# ---------------------------------------------------------------------------
# constructive atomic decomposition by square-function level sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicDecomposition:
    """Finite atomic decomposition with its level-set bookkeeping."""

    atoms: tuple
    level_sets: dict
    sum_abs_lambda: float
    coarse_flagged: bool
    coarse_l1: float

    def reconstruct_tree(self):
        if not self.atoms:
            return None
        total = self.atoms[0][0] * self.atoms[0][1]
        for lam, tree, _ in self.atoms[1:]:
            total = total + lam * tree
        return total


def _lower_medians(values: np.ndarray, level: int) -> np.ndarray:
    """Per-cube lower median of a grid function over one dyadic level.

    A cube has more than half its cells above lambda iff lambda is below this
    value, which turns level-set membership into a threshold comparison.
    """
    dim = values.ndim
    step = values.shape[0] >> level
    # cube axes first, then the cells of each cube on one last axis
    blocks = values.reshape((1 << level, step) * dim)
    blocks = blocks.transpose(tuple(range(0, 2 * dim, 2)) + tuple(range(1, 2 * dim, 2)))
    blocks = blocks.reshape((1 << level,) * dim + (-1,))
    M = blocks.shape[-1]
    kth = M - M // 2 - 1
    return np.partition(blocks, kth, axis=-1)[..., kth]


def atomic_decompose(f, basis: WaveletBasis) -> AtomicDecomposition:
    """Group detail coefficients by square-function level sets into atoms.

    Each coefficient is attached to the largest threshold 2^k below the lower
    median of the square function on its cube, grouped under the maximal
    dyadic cube passing the same test, and each group is normalized into a
    unit-budget packet; the weights are the removed normalizations.
    """
    W = wavelet_square_function(f).values
    N = f.resolution
    detail_l1 = float(np.abs(W).mean())
    coarse_l1 = float(np.abs(coarse_projection(f, basis)).mean())
    coarse_flagged = coarse_l1 > 1e-8 * (1.0 + detail_l1)

    medians = {lev: _lower_medians(W, lev) for lev in range(0, f.finest_level)}

    # threshold index per coefficient cube: largest k with 2^k < lower median
    assignments = {}   # k -> list[(level, offset)]
    for j in f.levels():
        occupied = np.zeros((1 << j,) * f.dim, dtype=bool)
        for s in sigma_set(f.dim):
            occupied |= f.band(j, s) != 0.0
        for idx in np.argwhere(occupied):
            off = tuple(int(i) for i in idx)
            med = float(medians[j][off])
            if not med > 0.0:
                raise DegeneracyError(
                    f"square function underflows to {med} on the cube of the nonzero "
                    f"coefficient at level {j}, offset {off}")
            k = int(math.floor(math.log2(med)))
            if 2.0 ** k >= med:
                k -= 1
            assignments.setdefault(k, []).append((j, off))

    atoms = []
    level_sets = {}
    for k in sorted(assignments):
        threshold = 2.0 ** k
        # maximal dyadic cubes whose lower median exceeds the threshold
        label = -np.ones((N,) * f.dim, dtype=np.int64)
        roots = []
        anc = np.zeros((1,) * f.dim, dtype=bool)
        for lev in range(0, f.finest_level):
            qual = medians[lev] > threshold
            maximal = qual & ~anc
            for idx in np.argwhere(maximal):
                off = tuple(int(i) for i in idx)
                cube = DyadicCube(f.dim, lev, off)
                label[cube.grid_slices(N)] = len(roots)
                roots.append(cube)
            grown = anc | qual
            for axis in range(f.dim):
                grown = np.repeat(grown, 2, axis=axis)
            anc = grown
        groups = {}
        for (j, off) in assignments[k]:
            cell = tuple(o * (N >> j) for o in off)
            root_id = int(label[cell])
            groups.setdefault(root_id, []).append((j, off))
        for root_id in sorted(groups):
            R = roots[root_id]
            members = groups[root_id]
            energy = 0.0
            packet = np.zeros_like(f.coeffs)
            for (j, off) in members:
                cube = DyadicCube(f.dim, j, off)
                for s in sigma_set(f.dim):
                    at = coeff_index(cube, s)
                    v = packet[at] = f.coeffs[at]
                    energy += v * v
            lam = math.sqrt(energy) * R.measure ** 0.5
            packet = CoefficientTree(packet, f.coarse_level) * (1.0 / lam)
            atoms.append((lam, packet, R))
            level_sets.setdefault(k, []).append(
                {"cube": R.key(), "members": len(members)})

    return AtomicDecomposition(
        atoms=tuple(atoms), level_sets=level_sets,
        sum_abs_lambda=float(sum(lam for lam, _, _ in atoms)),
        coarse_flagged=coarse_flagged, coarse_l1=coarse_l1)


# ---------------------------------------------------------------------------
# molecules, antisymmetric paraproducts, fractional commutators
# ---------------------------------------------------------------------------

def molecule_norm(g: SampledFunction, epsilon: float, y0) -> float:
    """Joint size/decay seminorm: geometric mean of the Lq norm and the
    Lq norm weighted by torus distance to y0 raised to 2*n*epsilon."""
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if abs(g.integral()) > 1e-8 * (1.0 + lp_norm(g, 1.0)):
        raise CancellationError("molecule seminorm requires a mean-zero input")
    q = 1.0 / (1.0 - epsilon)
    dist = distance_field(g.dim, g.resolution, y0)
    weighted = SampledFunction(g.values * dist ** (2.0 * g.dim * epsilon))
    return math.sqrt(lp_norm(g, q) * lp_norm(weighted, q))


def antisymmetric_paraproduct(f: SampledFunction, g: SampledFunction, T,
                              basis: WaveletBasis,
                              coarse_level: int | None = None):
    """Diagonal paraproduct of (Tf, g) minus that of (f, T*g), with its
    square-function Hardy estimate.  Requires T to annihilate constants on
    both sides, checked numerically."""
    ones = SampledFunction(np.ones_like(f.values))
    T_adj = T.adjoint()
    if sup_norm(T.apply(ones)) > 1e-10 or sup_norm(T_adj.apply(ones)) > 1e-10:
        raise HypothesisError(f"{getattr(T, 'name', 'T')} does not annihilate constants")
    Tf = T.apply(f)
    Tg = T_adj.apply(g)
    zero_sum = abs((Tf * g - f * Tg).integral())
    scale = 1.0 + lp_norm(f, 2.0) * lp_norm(g, 2.0)
    if zero_sum > 1e-10 * scale:
        raise HypothesisError(f"adjoint zero-sum identity violated by {zero_sum:.3g}")
    ft = analyze(f, basis, coarse_level)
    gt = analyze(g, basis, coarse_level)
    P = s_operator(analyze(Tf, basis, coarse_level), gt, basis) \
        - s_operator(ft, analyze(Tg, basis, coarse_level), basis)
    return P, hardy_norm(P, "H1_square", basis, coarse_level)


@dataclass(frozen=True)
class FractionalReport:
    """Weak-Lebesgue data attached to a fractional commutator decomposition."""

    exponent: float
    weak_quasinorm: float
    remainder_lp: float


def fractional_commutator_decomposition(b: SampledFunction, f: SampledFunction,
                                        alpha: float, basis: WaveletBasis,
                                        coarse_level: int | None = None):
    """Commutator decomposition for the fractional integral of order alpha,
    with the weak-Lebesgue quasinorm report at the critical exponent."""
    n = f.dim
    if not 0.0 < alpha < n:
        raise DomainError(f"alpha must lie in (0, {n}), got {alpha}")
    T = fractional_integral_operator(alpha, n)
    decomp = bilinear_decomposition(b, T, f, basis, coarse_level)
    p = n / (n - alpha)
    report = FractionalReport(
        exponent=p,
        weak_quasinorm=weak_lp_quasinorm(decomp.commutator, p),
        remainder_lp=lp_norm(decomp.R_part, p))
    return decomp, report
