"""Feasibility checks for the five dual problems, exact membership oracles
for their image sets, and the constructive maps between them.

The bilinear coupling between lam and U in the dual systems disappears
under the substitution z = U^T lam, so each membership question becomes a
single exact LP over (lam, z). A concrete U is rebuilt rank-one (or
rank-two when a prescribed objective value must also be hit) only when a
full witness is requested. The normalization lam.g >= 1 on the cone
generators is sound because every system here is positively homogeneous
in (lam, z) jointly.

Two builders assemble every LP here: `cone.multiplier` the systems in
lam (or in (lam, z)), and `efficiency.domination_program` the domination
programs over the reduced map L - UA.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cone import OrderingCone, in_quasi_interior, multiplier, orthant, strictly_below
from .efficiency import EfficiencyCertificate, domination_program, verify_scalarization_certificate
from .exact import DimensionError, QMatrix, QVector, outer, require
from .lp import (
    GenOptimal,
    GenUnbounded,
    LinearProgram,
    Infeasible,
    solve_feasibility,
    solve_general,
    solve_lp,
)
from .model import (
    DualCandidateD,
    DualCandidateJ,
    DualCandidateL,
    DualCandidateU,
    VlpProblem,
    objective_D,
    objective_J,
    objective_L,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    set_tag: str  # "hB" | "hL" | "hJ"
    witness: tuple[QVector, QVector] | None = None  # (lam, z)
    candidate: DualCandidateD | DualCandidateL | DualCandidateJ | None = None


def scaled_generator(cone: OrderingCone, lam: QVector) -> QVector:
    """First generator with positive product against lam, scaled to product one."""
    for g in cone.generators:
        p = lam.dot(g)
        if p > 0:
            return g.scale(_ONE / p)
    raise ValueError("no generator has positive product with lam")


def _reduced_map(problem: VlpProblem, U: QMatrix) -> QMatrix:
    return problem.L - (U @ problem.A)


def check_feasible_D(problem: VlpProblem, cand: DualCandidateD) -> bool:
    if cand.lam.dim != problem.k or cand.v.dim != problem.k:
        raise DimensionError("candidate dims do not match the problem")
    if not in_quasi_interior(problem.cone, cand.lam):
        return False
    if cand.lam.dot(cand.v) != 0:
        return False
    return (_reduced_map(problem, cand.U).T @ cand.lam).is_nonneg()


def check_feasible_J(problem: VlpProblem, cand: DualCandidateJ) -> bool:
    if cand.lam.dim != problem.k:
        raise DimensionError("candidate dims do not match the problem")
    if not in_quasi_interior(problem.cone, cand.lam):
        return False
    return (_reduced_map(problem, cand.U).T @ cand.lam).is_nonneg()


def check_feasible_L(problem: VlpProblem, cand: DualCandidateL) -> bool:
    if cand.lam.dim != problem.k or cand.z.dim != problem.m or cand.v.dim != problem.k:
        raise DimensionError("candidate dims do not match the problem")
    if not in_quasi_interior(problem.cone, cand.lam):
        return False
    if cand.lam.dot(cand.v) - cand.z.dot(problem.b) > 0:
        return False
    return ((problem.L.T @ cand.lam) - (problem.A.T @ cand.z)).is_nonneg()


@lru_cache(maxsize=4096)
def check_feasible_U(problem: VlpProblem, cand: DualCandidateU) -> bool:
    """No x >= 0 may have (L - UA)x strictly below zero in the relevant order."""
    if cand.flavor == "I" and not problem.cone.is_orthant:
        raise ValueError("flavor 'I' is defined only for the orthant order")
    cone = orthant(problem.k) if cand.flavor == "I" else problem.cone
    M = _reduced_map(problem, cand.U)
    out = solve_general(domination_program(cone, M, QVector.zeros(problem.k), normalize=True))
    require(isinstance(out, GenOptimal), "normalized domination program is bounded and feasible")
    return out.value == 0


def u_feasibility_multiplier(problem: VlpProblem, U: QMatrix) -> QVector | None:
    """lam with lam.g >= 1 on all generators and (L - UA)^T lam >= 0, if any."""
    return multiplier(problem.cone, _reduced_map(problem, U))


def construct_dual_solution(
    problem: VlpProblem, xbar: QVector, cert: EfficiencyCertificate
) -> DualCandidateD:
    """Turn a scalarization certificate for xbar into a feasible dual point
    whose objective equals L xbar exactly."""
    if not verify_scalarization_certificate(problem, xbar, cert):
        raise ValueError("invalid scalarization certificate for this point")
    lam, eta = cert.lam, cert.eta
    tilde = scaled_generator(problem.cone, lam)
    U = -outer(tilde, eta)
    v = (problem.L @ xbar) - (U @ problem.b)
    cand = DualCandidateD(lam, U, v)
    require(check_feasible_D(problem, cand), "constructed dual point is feasible for D")
    require(objective_D(problem, cand) == problem.L @ xbar, "dual objective equals L xbar")
    require(xbar.dot(_reduced_map(problem, U).T @ lam) == 0, "complementary slackness holds at xbar")
    return cand


def recover_primal(problem: VlpProblem, d: QVector) -> QVector | None:
    """A feasible x with Lx = d, or None."""
    if d.dim != problem.k:
        raise DimensionError(f"value dim {d.dim} != image dim {problem.k}")
    eq = QMatrix(problem.m + problem.k, problem.n, problem.A.entries + problem.L.entries)  # [A; L]
    rhs = QVector(tuple(problem.b.entries) + tuple(d.entries))
    return solve_feasibility(eq, rhs).point


@lru_cache(maxsize=65536)
def _lam_z_system(
    problem: VlpProblem, eq_coeffs: QVector | None, extra_ge: tuple[tuple[QVector, Fraction], ...] = ()
) -> tuple[QVector, QVector] | None:
    """Solve for free (lam, z): lam.g >= 1, L^T lam - A^T z >= 0, plus extras.

    Cached: the hB and hJ oracles share this system for the same probe
    value, and campaign checks revisit the same values repeatedly.
    """
    n, m, k = problem.n, problem.m, problem.k
    stacked = QMatrix(k + m, n, problem.L.entries + (-problem.A).entries)  # [L; -A]
    point = multiplier(problem.cone, stacked, eq_coeffs, extra_ge)
    if point is None:
        return None
    return QVector(point.entries[:k]), QVector(point.entries[k:])


def membership_hB(problem: VlpProblem, d: QVector) -> MembershipVerdict:
    """Is d an objective value of the vector dual with objective Ub + v?

    d belongs exactly when some lam in the quasi-interior of the dual cone
    and some z satisfy lam.d = b.z and L^T lam - A^T z >= 0; the witness
    (lam, U = tilde z^T, v = d - Ub) is rebuilt and re-checked on success.
    """
    if d.dim != problem.k:
        raise DimensionError(f"value dim {d.dim} != image dim {problem.k}")
    eq = QVector(tuple(d.entries) + tuple((-problem.b).entries))  # lam.d - b.z = 0
    found = _lam_z_system(problem, eq)
    if found is None:
        return MembershipVerdict(False, "hB")
    lam, z = found
    tilde = scaled_generator(problem.cone, lam)
    U = outer(tilde, z)
    v = d - (U @ problem.b)
    cand = DualCandidateD(lam, U, v)
    require(check_feasible_D(problem, cand), "hB witness is feasible for D")
    require(objective_D(problem, cand) == d, "hB witness attains d")
    return MembershipVerdict(True, "hB", (lam, z), cand)


def membership_hL(problem: VlpProblem, d: QVector) -> MembershipVerdict:
    """Same system as the hB oracle with the equality relaxed to lam.d <= b.z."""
    if d.dim != problem.k:
        raise DimensionError(f"value dim {d.dim} != image dim {problem.k}")
    ge = QVector(tuple(-e for e in d.entries) + tuple(problem.b.entries))  # b.z - lam.d >= 0
    found = _lam_z_system(problem, None, ((ge, _ZERO),))
    if found is None:
        return MembershipVerdict(False, "hL")
    lam, z = found
    cand = DualCandidateL(lam, z, d)
    require(check_feasible_L(problem, cand), "hL witness is feasible for D^L")
    require(objective_L(cand) == d, "hL witness attains d")
    return MembershipVerdict(True, "hL", (lam, z), cand)


def membership_hJ(problem: VlpProblem, d: QVector) -> MembershipVerdict:
    """Objective values Ub of the abstract dual.

    For b != 0 the value set coincides with the hB one: given (lam, z) a
    matrix with U^T lam = z and Ub = d exists by a rank-two construction
    along u = b/(b.b). For b = 0 the set collapses to {0} when the dual
    is feasible at all, and is empty otherwise.
    """
    if d.dim != problem.k:
        raise DimensionError(f"value dim {d.dim} != image dim {problem.k}")
    if problem.b.is_zero():
        if not d.is_zero():
            return MembershipVerdict(False, "hJ")
        found = _lam_z_system(problem, None)
        if found is None:
            return MembershipVerdict(False, "hJ")
        lam, z = found
        U = outer(scaled_generator(problem.cone, lam), z)
        cand = DualCandidateJ(lam, U)
    else:
        eq = QVector(tuple(d.entries) + tuple((-problem.b).entries))
        found = _lam_z_system(problem, eq)
        if found is None:
            return MembershipVerdict(False, "hJ")
        lam, z = found
        tilde = scaled_generator(problem.cone, lam)
        u = problem.b.scale(_ONE / problem.b.dot(problem.b))
        w = d - tilde.scale(z.dot(problem.b))
        U = outer(tilde, z) + outer(w, u)
        cand = DualCandidateJ(lam, U)
    require(check_feasible_J(problem, cand), "hJ witness is feasible for D^J")
    require(objective_J(problem, cand) == d, "hJ witness attains d")
    return MembershipVerdict(True, "hJ", found, cand)


def h_H_value_membership(problem: VlpProblem, U: QMatrix, d: QVector) -> bool:
    """Whether d = Ub + w for some minimal value w of the reduced image cone."""
    if not check_feasible_U(problem, DualCandidateU(U, "H")):
        raise ValueError("U not feasible for D^H")
    w = d - (U @ problem.b)
    M = _reduced_map(problem, U)
    if solve_feasibility(M, w).point is None:
        return False
    out = solve_general(domination_program(problem.cone, M, w))
    if isinstance(out, GenUnbounded):
        return False
    require(isinstance(out, GenOptimal), "domination program over a feasible U is bounded")
    return out.value == 0


def minimize_over_image(problem: VlpProblem, U: QMatrix, x0: QVector) -> QVector:
    """From x0 >= 0, a point whose reduced image is minimal in the image cone.

    Sound only for U feasible in the H sense, where the domination program
    is always bounded.
    """
    if not x0.is_nonneg():
        raise ValueError("starting point must be nonnegative")
    M = _reduced_map(problem, U)
    out = solve_general(domination_program(problem.cone, M, M @ x0))
    require(isinstance(out, GenOptimal), "feasible U keeps the domination program bounded")
    return QVector(out.x.entries[: problem.n])


def map_DH_to_D(problem: VlpProblem, U: QMatrix, xbar: QVector) -> DualCandidateD:
    """Lift a feasible U and a minimal-image point into the vector dual."""
    if not check_feasible_U(problem, DualCandidateU(U, "H")):
        raise ValueError("U not feasible for D^H")
    if xbar.dim != problem.n or not xbar.is_nonneg():
        raise ValueError("point must be nonnegative of primal dimension")
    M = _reduced_map(problem, U)
    vbar = M @ xbar
    out = solve_general(domination_program(problem.cone, M, vbar))
    if not (isinstance(out, GenOptimal) and out.value == 0):
        raise ValueError("image of the point is not minimal")
    gamma = multiplier(problem.cone, M, vbar)
    require(gamma is not None, "a separating gamma exists for every minimal image value")
    cand = DualCandidateD(gamma, U, vbar)
    require(check_feasible_D(problem, cand), "lifted point is feasible for D")
    require(objective_D(problem, cand) == (U @ problem.b) + vbar, "lifted point attains Ub + vbar")
    return cand


def map_D_to_DL(problem: VlpProblem, cand: DualCandidateD) -> DualCandidateL:
    """Substitute z = U^T lam; the objective value is preserved exactly."""
    if not check_feasible_D(problem, cand):
        raise ValueError("candidate is not feasible for the vector dual")
    z = cand.U.T @ cand.lam
    value = objective_D(problem, cand)
    out = DualCandidateL(cand.lam, z, value)
    require(check_feasible_L(problem, out), "substituted point is feasible for D^L")
    require(objective_L(out) == value, "substitution preserves the objective")
    return out


def dual_B_nonempty(problem: VlpProblem) -> bool:
    """Whether the vector dual has any feasible point (v = 0 completes one)."""
    return _lam_z_system(problem, None) is not None


def feasible_dual_point(problem: VlpProblem) -> DualCandidateD | None:
    """A concrete feasible point of the vector dual, or None when empty."""
    found = _lam_z_system(problem, None)
    if found is None:
        return None
    lam, z = found
    cand = DualCandidateD(lam, outer(scaled_generator(problem.cone, lam), z), QVector.zeros(problem.k))
    require(check_feasible_D(problem, cand), "dual point is feasible for D")
    return cand


def improve_dual_infeasible_primal(problem: VlpProblem, cand: DualCandidateD) -> DualCandidateD:
    """With an empty primal feasible set, push any feasible dual point strictly up.

    The Farkas certificate zbar of primal infeasibility gives
    U' = tilde zbar^T + U, moving the objective by (b.zbar) tilde, a
    nonzero cone direction.
    """
    if not check_feasible_D(problem, cand):
        raise ValueError("candidate is not feasible for the vector dual")
    out = solve_lp(LinearProgram(QVector.zeros(problem.n), problem.A, problem.b))
    if not isinstance(out, Infeasible):
        raise ValueError("primal problem is feasible; no unbounded improvement exists")
    zbar = out.farkas
    tilde = scaled_generator(problem.cone, cand.lam)
    improved = DualCandidateD(cand.lam, outer(tilde, zbar) + cand.U, cand.v)
    require(check_feasible_D(problem, improved), "improved point is feasible for D")
    require(
        strictly_below(problem.cone, objective_D(problem, cand), objective_D(problem, improved)),
        "improved point lies strictly above the candidate",
    )
    return improved
