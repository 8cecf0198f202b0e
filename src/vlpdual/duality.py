"""One exact membership query for the chain of the dual image sets, the
constructive maps between the five dual problems, and the U-feasibility
LP. The feasibility checks of D, D^J and D^L live in `checks`, which
calls no solver; they are bound here by name, and every witness built
below is `require`d through them once.

The bilinear coupling between lam and U in the dual systems disappears
under the substitution z = U^T lam. Every dual question is then asked of
one polyhedron per problem,

    P = {(lam, z) : lam.g >= 1 on every generator, L^T lam - A^T z >= 0},

whose feasible set does not depend on the probe value d; only the linear
functional f(lam, z) = lam.d - b.z does (geometric duality, Heyde & Lohne
2008). `DualPolyhedron` is P as an `lp.Region`: phase I once per problem,
and a min or max of f per question by `Region.extreme`, from phase II on
the first question and off P's V-form (vertices V, extreme rays R and a
lineality basis N) from the second on. Then min f <= 0 exactly when f is
nonzero on some vector of N, f(r) < 0 for some r in R, or f(v) <= 0 for
some v in V, and max f >= 0 likewise; the witness is the vertex of least
f, or a step from it along a descending direction to f = 0. A single
query never builds a V-form, and one over `VERTEX_LIMIT` leaves P on
phase II with the same verdicts.

- A scalarization certificate for a feasible xbar: with d = L xbar,
  f = xbar.(L^T lam - A^T z) is >= 0 on P, so a certificate exists
  exactly when min f is 0; the minimizer gives it, with eta = -z.
- d is in hL iff min f over P is <= 0.
- d is in hB iff also max f >= 0: P is convex, so f(P) is an interval,
  and it contains 0 exactly then.
- d is in hJ iff the hB point maps into the abstract dual. For b != 0 the
  D point (lam, U, v) becomes the J point (lam, U + v b^T/(b.b)) with the
  same objective, so hJ = hB; for b = 0 only v = 0 maps, and hJ is {0}
  intersected with hB.

A concrete U is rebuilt rank-one from the witness (lam, z). The
normalization lam.g >= 1 on the cone generators is sound because every
system here is positively homogeneous in (lam, z) jointly.

A sampled U of the D^H side is one `ReducedImage`, holding M = L - UA and
its polyhedron Q_U = {lam : lam.g >= 1, M^T lam >= 0}. The domination
program over M at a target t is the LP dual of min t.lam over Q_U, so Q_U
answers whether a point's image is minimal (the lift into D) and whether
a value lies in U's image set, by the same `Region` rule as P, and U is
feasible exactly when Q_U is nonempty. `cone.dominator` runs only in
`minimize` and for a point that P gives no certificate.

The LP builders, `cone.multiplier_program` (P and Q_U) and
`cone.domination_program`, live with the generators they range over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .checks import check_feasible_D, check_feasible_J, check_feasible_L, verify_scalarization_certificate
from .cone import OrderingCone, dominator, multiplier_program, strictly_below, verify_dominator
from .exact import DimensionError, QMatrix, QVector, outer, require
from .lp import Infeasible, LinearProgram, Region, solve_feasibility, solve_lp
from .model import (
    DualCandidateD,
    DualCandidateJ,
    DualCandidateL,
    DualCandidateU,
    EfficiencyCertificate,
    VlpProblem,
    objective_D,
    primal_feasible,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    candidate: DualCandidateD | DualCandidateL | DualCandidateJ | None = None


_NOT_A_MEMBER = MembershipVerdict(False)


@dataclass(frozen=True)
class ImageSets:
    """The verdicts on one value d along the chain hJ <= hB <= hL."""

    hJ: MembershipVerdict
    hB: MembershipVerdict
    hL: MembershipVerdict


_IN_NONE = ImageSets(_NOT_A_MEMBER, _NOT_A_MEMBER, _NOT_A_MEMBER)


def scaled_generator(cone: OrderingCone, lam: QVector) -> QVector:
    """First generator with positive product against lam, scaled to product
    one; taken once per distinct lam and kept with the cone."""
    scaled = vars(cone).setdefault("_scaled_generator", {})
    tilde = scaled.get(lam.pairs)
    if tilde is None:
        g = next((g for g in cone.generators if lam.dot(g) > 0), None)
        require(g is not None, "some generator has positive product with lam")
        tilde = scaled[lam.pairs] = g.scale(_ONE / lam.dot(g))
    return tilde


class ReducedImage:
    """One U of the D^H side: the reduced map M = L - UA and every question
    asked about it; Q_U is built on first use.

    `multipliers` is Q_U = {lam : lam.g >= 1, M^T lam >= 0} as a Region.
    By LP duality, min t.lam over Q_U is the optimum of the domination
    program at target t: it is 0 exactly when t is Mx for some x >= 0 and
    no Mx lies strictly below t, and `lift` and `value_member` ask that.
    """

    def __init__(self, problem: VlpProblem, U: QMatrix):
        self.problem = problem
        self.U = U
        self.M = problem.L - (U @ problem.A)

    @cached_property
    def feasible(self) -> bool:
        """U is feasible for D^H, no x >= 0 has Mx strictly below zero,
        exactly when Q_U is nonempty. An empty Q_U's Farkas row splits
        after the generator rows into (mu, x) with Mx + G mu = 0, sum(mu) > 0."""
        cone, farkas = self.problem.cone, self.multipliers.farkas
        if farkas is None:
            return True
        g = len(cone.generators)
        mu, x = QVector(farkas.entries[:g]), QVector(farkas.entries[g:])
        require(verify_dominator(cone, self.M, QVector.zeros(self.problem.k), x, mu), "Q_U's Farkas row is a dominator")
        return False

    @cached_property
    def multipliers(self) -> Region:
        return Region(multiplier_program(self.problem.cone, self.M))

    def _lowest_at_zero(self, t: QVector) -> QVector | None:
        """A lam minimizing t.lam over Q_U when Q_U is nonempty and the
        minimum is 0, else None. Each call is one question to Q_U."""
        if self.multipliers.empty:
            return None
        self.multipliers.ask()
        point, value, down = self.multipliers.extreme(t)
        return point if down is None and value == 0 else None

    def minimize(self, x0: QVector) -> QVector:
        """From x0 >= 0, a point whose reduced image is minimal in the
        image cone: x0 itself when no image lies strictly below M x0.

        Defined only for U feasible in the H sense, where the domination
        program is always bounded, so `dominator` returns its optimum. At
        x0 = 0 nothing lies below, as U is feasible.
        """
        if not x0.is_nonneg():
            raise ValueError("starting point must be nonnegative")
        if not self.feasible:
            raise ValueError("U not feasible for D^H")
        if x0.is_zero():
            return x0
        x = dominator(self.problem.cone, self.M, self.M @ x0)
        return x0 if x is None else x

    def lift(self, xbar: QVector) -> DualCandidateD:
        """Lift a minimal-image point into the vector dual as (gamma, U, vbar).

        gamma minimizes lam.vbar over Q_U, where lam.vbar = xbar.(M^T lam)
        >= 0, so a separating gamma (lam.vbar = 0) exists iff the minimum
        is 0, which is iff vbar is minimal. An infeasible U has an empty
        Q_U and is rejected too. The lifted point's check certifies
        minimality on its own: gamma is in the quasi-interior with
        M^T gamma >= 0 and gamma.vbar = 0, so no Mx lies strictly below vbar.
        """
        problem = self.problem
        if xbar.dim != problem.n or not xbar.is_nonneg():
            raise ValueError("point must be nonnegative of primal dimension")
        vbar = self.M @ xbar
        lowest = self._lowest_at_zero(vbar)
        if lowest is None:
            raise ValueError("image of the point is not minimal")
        cand = DualCandidateD(lowest, self.U, vbar)
        require(check_feasible_D(problem, cand), "lifted point is feasible for D")
        return cand

    def value_member(self, d: QVector) -> bool:
        """Whether d = Ub + w for some minimal value w of the reduced image
        cone: the minimum of (d - Ub).lam over Q_U is 0."""
        if not self.feasible:
            raise ValueError("U not feasible for D^H")
        return self._lowest_at_zero(d - (self.U @ self.problem.b)) is not None


def check_feasible_U(problem: VlpProblem, cand: DualCandidateU) -> bool:
    """No x >= 0 may have (L - UA)x strictly below zero in the relevant order."""
    if cand.flavor == "I" and not problem.cone.is_orthant:
        raise ValueError("flavor 'I' is defined only for the orthant order")
    return ReducedImage(problem, cand.U).feasible


def u_feasibility_multiplier(problem: VlpProblem, U: QMatrix) -> QVector | None:
    """lam with lam.g >= 1 on all generators and (L - UA)^T lam >= 0, if any."""
    return ReducedImage(problem, U).multipliers.point


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
    require(xbar.dot((problem.L - (U @ problem.A)).T @ lam) == 0, "complementary slackness holds at xbar")
    return cand


def recover_primal(problem: VlpProblem, d: QVector) -> QVector | None:
    """A feasible x with Lx = d, or None."""
    if d.dim != problem.k:
        raise DimensionError(f"value dim {d.dim} != image dim {problem.k}")
    eq = QMatrix(problem.m + problem.k, problem.n, problem.A.entries + problem.L.entries)  # [A; L]
    rhs = QVector(tuple(problem.b.entries) + tuple(d.entries))
    x = solve_feasibility(eq, rhs)
    require(x is None or (x.is_nonneg() and eq @ x == rhs), "recovered point has x >= 0, Ax = b and Lx = d")
    return x


class DualPolyhedron(Region):
    """P of one problem as a Region over (lam, z). Its program is
    `multiplier_program(cone, [L; -A])`, row for row, so `dual_point` is
    the point `multiplier(cone, [L; -A])` returns.

    A question is a dual point, a certificate or an image-set verdict,
    each marked by `Region.ask`, so a nonempty P answers its first by
    phase I's point or by phase II, and later ones off its V-form.
    """

    def __init__(self, problem: VlpProblem):
        self.problem = problem
        stacked = QMatrix(problem.k + problem.m, problem.n, problem.L.entries + (-problem.A).entries)  # [L; -A]
        super().__init__(multiplier_program(problem.cone, stacked))

    def _split(self, point: QVector) -> tuple[QVector, QVector]:
        k = self.problem.k
        return QVector(point.entries[:k]), QVector(point.entries[k:])

    def dual_point(self) -> DualCandidateD | None:
        """A concrete feasible point of the vector dual (v = 0), or None."""
        if self.empty:
            return None
        self.ask()
        lam, z = self._split(self.point)
        cand = DualCandidateD(lam, outer(scaled_generator(self.problem.cone, lam), z), QVector.zeros(self.problem.k))
        require(check_feasible_D(self.problem, cand), "dual point is feasible for D")
        return cand

    def _lowest(self, w: QVector) -> tuple[QVector, Fraction]:
        """A point of P minimizing w and its value; when w is unbounded
        below on P, the point along the descending direction where w
        reaches 0 (or its start when w is already <= 0 there)."""
        point, value, down = self.extreme(w)
        if down is not None and value > 0:
            return point + down.scale(value / -w.dot(down)), _ZERO
        return point, value

    def _functional(self, d: QVector) -> QVector:
        if d.dim != self.problem.k:
            raise DimensionError(f"value dim {d.dim} != image dim {self.problem.k}")
        return QVector(d.entries + (-self.problem.b).entries)  # f = lam.d - b.z

    def certificate(self, xbar: QVector) -> EfficiencyCertificate | None:
        """Scalarizing weights under which xbar solves the weighted scalar
        program, or None.

        (lam, eta) has lam.g >= 1 on every generator, L^T lam + A^T eta >= 0
        and lam.(L xbar) + b.eta = 0. By scalar LP duality such a pair
        exists exactly when xbar minimizes lam.(L x) over the feasible set
        for some such lam; it is a point (lam, -eta) of P where f, at
        d = L xbar, is 0.
        """
        if not primal_feasible(self.problem, xbar):
            raise ValueError("point is not feasible for the primal problem")
        if self.empty:
            return None
        self.ask()
        point, value, down = self.extreme(self._functional(self.problem.L @ xbar))
        require(down is None, "f is bounded below by 0 on P at a feasible point")
        if value != 0:
            return None
        lam, z = self._split(point)
        cert = EfficiencyCertificate("efficient-with-scalarization", lam=lam, eta=-z)
        require(verify_scalarization_certificate(self.problem, xbar, cert), "certificate passes its defining system")
        return cert

    def efficient(self, xbar: QVector) -> tuple[bool, EfficiencyCertificate]:
        """Whether feasible xbar is efficient, with its proof: the
        scalarization certificate, or when there is none (efficient and
        properly efficient coincide) a feasible x with Lx strictly below."""
        cert = self.certificate(xbar)
        if cert is not None:
            return True, cert
        problem = self.problem
        dom = dominator(problem.cone, problem.L, problem.L @ xbar, fixed=(problem.A, problem.b))
        require(dom is not None, "a point with no scalarization certificate is dominated")
        return False, EfficiencyCertificate("dominated", dominator=dom)

    def image_sets(self, d: QVector) -> ImageSets:
        """Is d in hL, hB and hJ? One minimum of f = lam.d - b.z over P and
        at most one maximum, by phase II or off the V-form, decide all three.

        - hL: min f <= 0; the minimizer (or a point along the ray) is the
          witness (lam, z, d).
        - hB: also max f >= 0; the witness is the minimizer if f = 0 there,
          else its convex combination with the maximizer that lands on
          f = 0, rebuilt as the D point (lam, U = tilde z^T, v = d - Ub).
        - hJ: that D point mapped as in the module docstring.
        """
        w = self._functional(d)
        if self.empty:
            return _IN_NONE
        self.ask()
        low_point, low = self._lowest(w)
        if low > 0:
            return _IN_NONE
        lam, z = self._split(low_point)
        in_l = DualCandidateL(lam, z, d)
        require(check_feasible_L(self.problem, in_l), "hL witness is feasible for D^L")
        hL = MembershipVerdict(True, in_l)

        point = low_point
        if low < 0:
            high_point, neg_high = self._lowest(-w)
            high = -neg_high
            if high < 0:
                return ImageSets(_NOT_A_MEMBER, _NOT_A_MEMBER, hL)
            theta = high / (high - low)
            point = low_point.scale(theta) + high_point.scale(_ONE - theta)
        lam, z = self._split(point)
        U = outer(scaled_generator(self.problem.cone, lam), z)
        in_b = DualCandidateD(lam, U, d - (U @ self.problem.b))
        require(check_feasible_D(self.problem, in_b), "hB witness is feasible for D")
        hB = MembershipVerdict(True, in_b)

        b = self.problem.b
        if b.is_zero():
            if not in_b.v.is_zero():
                return ImageSets(_NOT_A_MEMBER, hB, hL)
        else:
            U = U + outer(in_b.v, b.scale(_ONE / b.dot(b)))
        in_j = DualCandidateJ(lam, U)
        require(check_feasible_J(self.problem, in_j), "hJ witness is feasible for D^J")
        return ImageSets(MembershipVerdict(True, in_j), hB, hL)


def membership_hB(problem: VlpProblem, d: QVector) -> MembershipVerdict:
    """One hB query: `DualPolyhedron.image_sets` on a polyhedron built for it."""
    return DualPolyhedron(problem).image_sets(d).hB


def membership_hL(problem: VlpProblem, d: QVector) -> MembershipVerdict:
    """One hL query: `DualPolyhedron.image_sets` on a polyhedron built for it."""
    return DualPolyhedron(problem).image_sets(d).hL


def membership_hJ(problem: VlpProblem, d: QVector) -> MembershipVerdict:
    """One hJ query: `DualPolyhedron.image_sets` on a polyhedron built for it."""
    return DualPolyhedron(problem).image_sets(d).hJ


def h_H_value_membership(problem: VlpProblem, U: QMatrix, d: QVector) -> bool:
    """`ReducedImage.value_member` on the U of one query."""
    return ReducedImage(problem, U).value_member(d)


def minimize_over_image(problem: VlpProblem, U: QMatrix, x0: QVector) -> QVector:
    """`ReducedImage.minimize` on the U of one query."""
    return ReducedImage(problem, U).minimize(x0)


def map_DH_to_D(problem: VlpProblem, U: QMatrix, xbar: QVector) -> DualCandidateD:
    """`ReducedImage.lift` on the U of one query."""
    return ReducedImage(problem, U).lift(xbar)


def map_D_to_DL(problem: VlpProblem, cand: DualCandidateD) -> DualCandidateL:
    """Substitute z = U^T lam; the objective value is preserved exactly."""
    if not check_feasible_D(problem, cand):
        raise ValueError("candidate is not feasible for the vector dual")
    z = cand.U.T @ cand.lam
    value = objective_D(problem, cand)
    out = DualCandidateL(cand.lam, z, value)
    require(check_feasible_L(problem, out), "substituted point is feasible for D^L")
    return out


def dual_B_nonempty(problem: VlpProblem) -> bool:
    """Whether the vector dual has any feasible point (v = 0 completes one)."""
    return not DualPolyhedron(problem).empty


def feasible_dual_point(problem: VlpProblem) -> DualCandidateD | None:
    """A concrete feasible point of the vector dual, or None when empty."""
    return DualPolyhedron(problem).dual_point()


def improve_dual_infeasible_primal(problem: VlpProblem, cands: list[DualCandidateD]) -> list[DualCandidateD]:
    """With an empty primal feasible set, push each feasible dual point strictly up.

    One Farkas certificate zbar of primal infeasibility serves them all:
    U' = tilde zbar^T + U moves the objective by (b.zbar) tilde, a nonzero
    cone direction.
    """
    if not all(check_feasible_D(problem, cand) for cand in cands):
        raise ValueError("candidate is not feasible for the vector dual")
    out = solve_lp(LinearProgram(QVector.zeros(problem.n), problem.A, problem.b))
    if not isinstance(out, Infeasible):
        raise ValueError("primal problem is feasible; no unbounded improvement exists")
    improved = []
    for cand in cands:
        better = DualCandidateD(cand.lam, outer(scaled_generator(problem.cone, cand.lam), out.farkas) + cand.U, cand.v)
        require(check_feasible_D(problem, better), "improved point is feasible for D")
        above = strictly_below(problem.cone, objective_D(problem, cand), objective_D(problem, better))
        require(above, "improved point lies strictly above the candidate")
        improved.append(better)
    return improved
