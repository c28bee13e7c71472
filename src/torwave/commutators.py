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

from .core import DyadicCube, SampledFunction, distance_field, grid_cases, sup_norm
from .errors import (CancellationError, ConfigurationError, ContractError,
                     DegeneracyError, DomainError, ShapeError)
from .norms import hardy_norm, lp_norm, oscillation_norm
from .operators import parse_operator, require_linear
from .paraproducts import ProductDecomposition, paraproducts, s_operator
from .samples import cube_profile
from .wavelets import (CoefficientTree, WaveletBasis, analyze, coarse_projection, coeff_index,
                       default_coarse_level, detail_cubes, detail_positions, sigma_set,
                       wavelet_square_function)

# cost guard for per-evaluation-point commutators; raise these knowingly
POINTWISE_RESOLUTION_CAP = {1: 4096, 2: 256}


def _require_pointwise(T) -> None:
    if not hasattr(T, "pointwise_shifted"):
        raise ContractError(f"{getattr(T, 'name', 'T')} has no pointwise_shifted path")


def commutator_apply(b: SampledFunction, T, f: SampledFunction) -> SampledFunction:
    """Commutator of multiplication by b with T, in the form `T.is_linear` picks.

    Linear form: b T(f) - T(b f).  Sublinear form: the per-evaluation-point
    value of T applied to (b(x) - b(.)) f(.), evaluated exactly through the
    operator's expanded `pointwise_shifted` path.
    """
    if grid_cases(b)[0].shape != grid_cases(f)[0].shape:  # one case each
        raise ShapeError("b and f live on different grids")
    if getattr(T, "is_linear", False):
        require_linear(T, "T is not linear")
        return b * T.apply(f) - T.apply(b * f)
    cap = POINTWISE_RESOLUTION_CAP.get(f.dim, 0)
    if f.resolution > cap:
        raise ConfigurationError(
            f"pointwise commutator at N={f.resolution} (dim {f.dim}) exceeds the "
            f"default cap {cap}; raise POINTWISE_RESOLUTION_CAP to proceed")
    _require_pointwise(T)
    return T.pointwise_shifted(b, f, b * f)


@dataclass(frozen=True)
class CommutatorDecomposition:
    """Remainder part, image of the diagonal part under T, the commutator
    itself, and the residual of the identity: `SampledFunction`s and a float
    for one case, or arrays whose leading axes index the cases of a stack."""

    R_part: SampledFunction | np.ndarray
    S_image: SampledFunction | np.ndarray
    commutator: SampledFunction | np.ndarray
    residual_inf: float | np.ndarray


def commutator_parts(b, T, f, parts: ProductDecomposition) -> CommutatorDecomposition:
    """[b,T]f = b T f - T(b f) of every case of the stacks b and f, split by
    the stacked paraproducts `parts` of (f, b).

    The remainder is b T f - T(pi2) - T(coarse) - T(pi1 + pi4); together with
    T(S(f,b)) = T(-pi3) it reproduces the commutator up to the paraproduct
    roundoff.  T is applied once to each of its six inputs f, pi2, coarse,
    pi1 + pi4, -pi3 and b f, every call covering the whole stack of cases.
    """
    require_linear(T, "T is sublinear; the identity holds only as a two-sided "
                       "envelope -- use subbilinear_envelope")
    b, f = np.asarray(b, dtype=float), np.asarray(f, dtype=float)
    if not b.shape == f.shape == parts.pi1.shape:
        raise ShapeError("b, f and the paraproducts live on different grids")
    Tf, T_pi2, T_coarse, T_pi14, s_image, T_bf = map(T.apply, (
        f, parts.pi2, parts.coarse, parts.pi1 + parts.pi4, parts.pi3 * -1.0, b * f))
    b_Tf = b * Tf
    r_part = b_Tf - T_pi2 - T_coarse - T_pi14
    comm = b_Tf - T_bf
    return CommutatorDecomposition(r_part, s_image, comm,
                                   sup_norm(comm - r_part - s_image, T.dim))


def _fb_split(f, b, basis: WaveletBasis, coarse_level: int | None,
              dim: int) -> ProductDecomposition:
    """The paraproducts of (f, b) of every case of the stacks f and b, which
    are analyzed together as the one stack [f, b]."""
    f, b = np.asarray(f, dtype=float), np.asarray(b, dtype=float)
    if b.shape != f.shape:
        raise ShapeError("b and f live on different grids")
    j0 = default_coarse_level(basis, coarse_level)
    ft, bt = analyze(np.stack([f, b]), basis, j0, dim)
    return paraproducts(ft, bt, basis, j0, dim)


def bilinear_decomposition(b, T, f, basis: WaveletBasis, coarse_level: int | None = None,
                           dim: int | None = None):
    """Split [b,T]f into a remainder plus T of the diagonal paraproduct of
    the analyzed f and b; see `commutator_parts`.  A `CommutatorDecomposition`
    of one case for two SampledFunctions, or of every case for two stacks of
    grids on their trailing `dim` axes."""
    f, dim, _, single = grid_cases(f, dim)
    b = b.values if single else b
    dec = commutator_parts(b, T, f, _fb_split(f, b, basis, coarse_level, dim))
    if single:
        fields = dec.R_part, dec.S_image, dec.commutator
        dec = CommutatorDecomposition(*map(SampledFunction, fields), float(dec.residual_inf))
    return dec


@dataclass(frozen=True)
class SubbilinearEnvelope:
    """Pointwise envelope for a sublinear commutator and its sandwich check."""

    R_env: SampledFunction
    sandwich_ok: bool
    max_violation: float
    slack: float
    commutator_abs: SampledFunction
    s_image_abs: SampledFunction


def subbilinear_envelope(b: SampledFunction, T, f: SampledFunction,
                         basis: WaveletBasis, coarse_level: int | None = None,
                         slack_scale: float = 1e-9) -> SubbilinearEnvelope:
    """Two-sided pointwise control of |[b,T]f| by an envelope and |T(S(f,b))|.

    The envelope is |T(b(x)f - pi2 - coarse)(x)| + |T(pi1)(x)| + |T(pi4)(x)|;
    both inequalities are checked at every grid point with a roundoff slack.
    """
    _require_pointwise(T)
    comm_abs = abs(commutator_apply(b, T, f))
    parts = _fb_split(f.values, b.values, basis, coarse_level, f.dim)
    pi1, pi2, pi3, pi4, coarse = map(SampledFunction, (parts.pi1, parts.pi2, parts.pi3,
                                                       parts.pi4, parts.coarse))
    r_env = T.pointwise_shifted(b, f, pi2 + coarse) + abs(T.apply(pi1)) + abs(T.apply(pi4))
    ts_abs = abs(T.apply(-1.0 * pi3))
    slack = slack_scale * (1.0 + sup_norm(comm_abs) + sup_norm(r_env))
    upper_gap = comm_abs.values - (r_env.values + ts_abs.values)
    lower_gap = (ts_abs.values - r_env.values) - comm_abs.values
    violation = max(float(upper_gap.max()), float(lower_gap.max()), 0.0)
    return SubbilinearEnvelope(r_env, violation <= slack, violation, slack, comm_abs,
                               ts_abs)


# ---------------------------------------------------------------------------
# atoms with extra cancellation against b
# ---------------------------------------------------------------------------

def make_qb_atom(Q: DyadicCube, b: SampledFunction, q: float, seed: int) -> SampledFunction:
    """Random profile on Q orthogonalized against {1, b} in L2(Q), sized to
    the atom budget |Q|^(1/q - 1)."""
    if not q > 1:
        raise DomainError(f"q must lie in (1, inf], got {q}")
    values, _, J, _ = grid_cases(b)  # one case only
    a = SampledFunction(cube_profile(np.random.default_rng(seed), Q, 1 << J, against=values))
    budget = Q.measure ** (1.0 / q - 1.0)
    return SampledFunction(a.values * (budget / lp_norm(a, q)))


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


def h1b_characterizations(f: SampledFunction, b: SampledFunction,
                          basis: WaveletBasis, coarse_level: int | None = None,
                          T=None) -> H1bReport:
    """Measure the four equivalent quantities controlling the commutator norm."""
    b_bmo = oscillation_norm(b, "BMO")
    if b_bmo <= 1e-12:
        raise DomainError("b is constant; the commutator space is undefined")
    maximal = parse_operator("maximal", f.dim, f.resolution)
    v_maximal = lp_norm(commutator_apply(b, maximal, f), 1.0)
    ft = analyze(f, basis, coarse_level)
    bt = analyze(b, basis, coarse_level)
    sfb = s_operator(ft, bt, basis)
    v_square = hardy_norm(sfb, "H1_square", basis, coarse_level)
    riesz_ops = [parse_operator(f"riesz{j}", f.dim, f.resolution) for j in range(1, f.dim + 1)]
    v_riesz = sum(lp_norm(commutator_apply(b, op, f), 1.0) for op in riesz_ops)
    v_T = v_maximal if T is None or T is maximal else lp_norm(commutator_apply(b, T, f), 1.0)
    base = hardy_norm(f, "H1_square", basis, coarse_level) * b_bmo
    return H1bReport(v_maximal, v_square, v_riesz, v_T, base, base + v_maximal)


# ---------------------------------------------------------------------------
# constructive atomic decomposition by square-function level sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicDecomposition:
    """Finite atomic decomposition: (lambda, packet, cube) triples, the sum of
    the weights, and the coarse part that the atoms leave out."""

    atoms: tuple
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
    detail_l1 = float(np.abs(W).mean())
    coarse_l1 = float(np.abs(coarse_projection(f.coeffs, basis, f.coarse_level, f.dim)).mean())
    coarse_flagged = coarse_l1 > 1e-8 * (1.0 + detail_l1)

    medians = [_lower_medians(W, lev) for lev in range(0, f.finest_level)]

    # threshold index per coefficient cube: largest k with 2^k < lower median
    assignments = {}   # k -> list[(level, offset)]
    at = detail_positions(f.levels(), f.dim)
    level, _, offset = detail_cubes(at[f.coeffs.take(at) != 0.0], f.coeffs.shape)
    # each cube with a nonzero coefficient once, by level, then offset in raster order
    for j, off in sorted(set(zip(level.tolist(), map(tuple, offset.tolist())))):
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
    for k in sorted(assignments):
        threshold = 2.0 ** k
        # each cube's maximal dyadic cube: its coarsest ancestor (or itself,
        # which passes) whose lower median exceeds the threshold
        groups = {}
        for j, off in assignments[k]:
            ancestors = ((lev, tuple(o >> (j - lev) for o in off)) for lev in range(j + 1))
            root = next((lev, anc) for lev, anc in ancestors if medians[lev][anc] > threshold)
            groups.setdefault(root, []).append((j, off))
        for (level, offset), members in sorted(groups.items()):
            R = DyadicCube(f.dim, level, offset)
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

    return AtomicDecomposition(
        atoms=tuple(atoms),
        sum_abs_lambda=float(sum(lam for lam, _, _ in atoms)),
        coarse_flagged=coarse_flagged, coarse_l1=coarse_l1)


# ---------------------------------------------------------------------------
# molecules
# ---------------------------------------------------------------------------

def molecule_norm(g: SampledFunction, epsilon: float, y0) -> float:
    """Joint size/decay seminorm: geometric mean of the Lq norm and the
    Lq norm weighted by torus distance to y0 raised to 2*n*epsilon."""
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    values, dim, J, _ = grid_cases(g)  # one case only
    if abs(g.integral()) > 1e-8 * (1.0 + lp_norm(g, 1.0)):
        raise CancellationError("molecule seminorm requires a mean-zero input")
    q = 1.0 / (1.0 - epsilon)
    dist = distance_field(dim, 1 << J, y0)
    weighted = SampledFunction(values * dist ** (2.0 * dim * epsilon))
    return math.sqrt(lp_norm(g, q) * lp_norm(weighted, q))
