"""Feasibility checks for the five dual problems, exact membership oracles
for their image sets, and the constructive maps between them.

The bilinear coupling between lam and U in the dual systems disappears
under the substitution z = U^T lam. Every image-set question is then asked
of one polyhedron per problem,

    P = {(lam, z) : lam.g >= 1 on every generator, L^T lam - A^T z >= 0},

whose feasible set does not depend on the probe value d; only the linear
functional f(lam, z) = lam.d - b.z does (geometric duality, Heyde & Lohne
2008). `DualPolyhedron` runs phase I on P once and answers each probe with
phase II only:

- d is in hL iff min f over P is <= 0;
- d is in hB iff min f <= 0 <= max f: P is convex, so f(P) is an interval,
  and it contains 0 exactly then.

A concrete U is rebuilt rank-one from the witness (lam, z) and re-checked.
The normalization lam.g >= 1 on the cone generators is sound because every
system here is positively homogeneous in (lam, z) jointly.

The hJ image set is the hB set mapped: for b != 0 a D point (lam, U, v)
becomes the J point (lam, U + v b^T/(b.b)) with the same objective, and
for b = 0 hJ is {0} intersected with hB. So hJ needs no LP of its own.

Two builders assemble every LP here: `cone.multiplier_program` the systems
in lam (or in (lam, z)), and `efficiency.domination_program` the
domination programs over the reduced map L - UA.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cone import OrderingCone, in_quasi_interior, multiplier, multiplier_program, orthant, strictly_below
from .efficiency import EfficiencyCertificate, domination_program, verify_scalarization_certificate
from .exact import DimensionError, QMatrix, QVector, outer, require
from .lp import (
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    phase_one,
    phase_two,
    solve_feasibility,
    solve_general,
    solve_lp,
    to_standard_form,
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


def check_feasible_U(problem: VlpProblem, cand: DualCandidateU) -> bool:
    """No x >= 0 may have (L - UA)x strictly below zero in the relevant order."""
    if cand.flavor == "I" and not problem.cone.is_orthant:
        raise ValueError("flavor 'I' is defined only for the orthant order")
    cone = orthant(problem.k) if cand.flavor == "I" else problem.cone
    M = _reduced_map(problem, cand.U)
    out = solve_general(domination_program(cone, M, QVector.zeros(problem.k), normalize=True))
    require(isinstance(out, Optimal), "normalized domination program is bounded and feasible")
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
    return solve_feasibility(eq, rhs)


class DualPolyhedron:
    """P of one problem with its phase-I basis; None in place of the basis
    when P is empty. Probes run phase II on copies, so the basis is shared
    by every probe and never changed by them.

    P's program is `multiplier_program(cone, [L; -A])`, row for row, so
    `dual_point` is the point `multiplier(cone, [L; -A])` returns.
    """

    def __init__(self, problem: VlpProblem):
        self.problem = problem
        stacked = QMatrix(problem.k + problem.m, problem.n, problem.L.entries + (-problem.A).entries)  # [L; -A]
        self._gp = multiplier_program(problem.cone, stacked)
        start = phase_one(to_standard_form(self._gp))
        self._basis = None if isinstance(start, Infeasible) else start

    @property
    def empty(self) -> bool:
        return self._basis is None

    def _split(self, point: QVector) -> tuple[QVector, QVector]:
        k = self.problem.k
        return QVector(point.entries[:k]), QVector(point.entries[k:])

    def dual_point(self) -> DualCandidateD | None:
        """A concrete feasible point of the vector dual (v = 0), or None."""
        if self._basis is None:
            return None
        lam, z = self._split(self._gp.back(self._basis.x))
        cand = DualCandidateD(lam, outer(scaled_generator(self.problem.cone, lam), z), QVector.zeros(self.problem.k))
        require(check_feasible_D(self.problem, cand), "dual point is feasible for D")
        return cand

    def _lowest(self, w: QVector) -> tuple[QVector, Fraction]:
        """A point of P minimizing w and its value; when w is unbounded
        below on P, the point along the ray where w reaches 0 (or the ray's
        start when w is already <= 0 there)."""
        out = phase_two(self._basis, self._gp.cost(w))
        if isinstance(out, Optimal):
            return self._gp.back(out.x), out.value
        point, ray = self._gp.back(out.x0), self._gp.back(out.ray)
        value = w.dot(point)
        if value > 0:
            return point + ray.scale(value / -w.dot(ray)), _ZERO
        return point, value

    def _functional(self, d: QVector) -> QVector:
        if d.dim != self.problem.k:
            raise DimensionError(f"value dim {d.dim} != image dim {self.problem.k}")
        return QVector(d.entries + (-self.problem.b).entries)  # f = lam.d - b.z

    def hB(self, d: QVector) -> MembershipVerdict:
        """Is d an objective value of the vector dual with objective Ub + v?

        d belongs exactly when f = lam.d - b.z vanishes somewhere on P; the
        witness is a point of P with f <= 0 if f = 0 there, else its convex
        combination with a point of f >= 0 that lands on f = 0. The D point
        (lam, U = tilde z^T, v = d - Ub) is rebuilt and re-checked.
        """
        w = self._functional(d)
        if self._basis is None:
            return MembershipVerdict(False, "hB")
        low_point, low = self._lowest(w)
        if low > 0:
            return MembershipVerdict(False, "hB")
        point = low_point
        if low < 0:
            high_point, neg_high = self._lowest(-w)
            high = -neg_high
            if high < 0:
                return MembershipVerdict(False, "hB")
            theta = high / (high - low)
            point = low_point.scale(theta) + high_point.scale(_ONE - theta)
        lam, z = self._split(point)
        U = outer(scaled_generator(self.problem.cone, lam), z)
        cand = DualCandidateD(lam, U, d - (U @ self.problem.b))
        require(check_feasible_D(self.problem, cand), "hB witness is feasible for D")
        require(objective_D(self.problem, cand) == d, "hB witness attains d")
        return MembershipVerdict(True, "hB", cand)

    def hL(self, d: QVector) -> MembershipVerdict:
        """The hB question with lam.d = b.z relaxed to lam.d <= b.z: d
        belongs exactly when min f over P is <= 0, and the minimizer (or a
        point along the ray) is the witness."""
        w = self._functional(d)
        if self._basis is None:
            return MembershipVerdict(False, "hL")
        point, low = self._lowest(w)
        if low > 0:
            return MembershipVerdict(False, "hL")
        lam, z = self._split(point)
        cand = DualCandidateL(lam, z, d)
        require(check_feasible_L(self.problem, cand), "hL witness is feasible for D^L")
        require(objective_L(cand) == d, "hL witness attains d")
        return MembershipVerdict(True, "hL", cand)


def membership_hB(problem: VlpProblem, d: QVector) -> MembershipVerdict:
    """One hB query: `DualPolyhedron.hB` on a polyhedron built for it."""
    return DualPolyhedron(problem).hB(d)


def membership_hL(problem: VlpProblem, d: QVector) -> MembershipVerdict:
    """One hL query: `DualPolyhedron.hL` on a polyhedron built for it."""
    return DualPolyhedron(problem).hL(d)


def hJ_from_hB(problem: VlpProblem, verdict: MembershipVerdict) -> MembershipVerdict:
    """The hJ verdict for the value of an hB verdict, by the map above."""
    if not verdict.member:
        return MembershipVerdict(False, "hJ")
    cand = verdict.candidate
    if problem.b.is_zero():
        if not cand.v.is_zero():
            return MembershipVerdict(False, "hJ")
        U = cand.U
    else:
        U = cand.U + outer(cand.v, problem.b.scale(_ONE / problem.b.dot(problem.b)))
    out = DualCandidateJ(cand.lam, U)
    require(check_feasible_J(problem, out), "hJ witness is feasible for D^J")
    require(objective_J(problem, out) == objective_D(problem, cand), "hJ witness attains d")
    return MembershipVerdict(True, "hJ", out)


def membership_hJ(problem: VlpProblem, d: QVector) -> MembershipVerdict:
    """Objective values Ub of the abstract dual: the hB verdict mapped by
    `hJ_from_hB`, with no LP of its own."""
    if d.dim != problem.k:
        raise DimensionError(f"value dim {d.dim} != image dim {problem.k}")
    if problem.b.is_zero() and not d.is_zero():
        return MembershipVerdict(False, "hJ")
    return hJ_from_hB(problem, membership_hB(problem, d))


def h_H_value_membership(problem: VlpProblem, U: QMatrix, d: QVector) -> bool:
    """Whether d = Ub + w for some minimal value w of the reduced image cone."""
    if not check_feasible_U(problem, DualCandidateU(U, "H")):
        raise ValueError("U not feasible for D^H")
    w = d - (U @ problem.b)
    M = _reduced_map(problem, U)
    if solve_feasibility(M, w) is None:
        return False
    out = solve_general(domination_program(problem.cone, M, w))
    if isinstance(out, Unbounded):
        return False
    require(isinstance(out, Optimal), "domination program over a feasible U is bounded")
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
    require(isinstance(out, Optimal), "feasible U keeps the domination program bounded")
    return QVector(out.x.entries[: problem.n])


def map_DH_to_D(problem: VlpProblem, U: QMatrix, xbar: QVector) -> DualCandidateD:
    """Lift a feasible U and a minimal-image point into the vector dual.

    The minimality test also rejects every U that is not feasible for D^H,
    so no separate check is made: if some x >= 0 has (L - UA)x = -k with k
    in K and k != 0, then xbar + x reaches vbar - k, and the domination
    program at vbar finds the positive cone mass of k.
    """
    if xbar.dim != problem.n or not xbar.is_nonneg():
        raise ValueError("point must be nonnegative of primal dimension")
    M = _reduced_map(problem, U)
    vbar = M @ xbar
    out = solve_general(domination_program(problem.cone, M, vbar))
    if not (isinstance(out, Optimal) and out.value == 0):
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
    return not DualPolyhedron(problem).empty


def feasible_dual_point(problem: VlpProblem) -> DualCandidateD | None:
    """A concrete feasible point of the vector dual, or None when empty."""
    return DualPolyhedron(problem).dual_point()


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
