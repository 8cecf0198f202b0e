"""Efficiency oracles for the primal problem.

The central device is a domination program: starting from a target image
value, push as much cone mass as possible onto the slack between the
target and the image of a feasible point. Its optimum is zero exactly
when nothing feasible sits strictly below the target, and that decides
efficiency without ever enumerating the image set. Deciding by LP rather
than by pairwise image comparison matters: a dominating point need not
be a vertex of the feasible set.

`domination_program` is the one builder of that LP family; the duality
module builds its image-cone programs over L - UA with it too.

The scalarization certificate is a phase II on the polyhedron

    P = {(lam, z) : lam.g >= 1 on every generator, L^T lam - A^T z >= 0}.

For a feasible xbar, f(lam, z) = lam.(L xbar) - b.z = xbar.(L^T lam - A^T z)
is >= 0 on P, so a certificate exists exactly when min f over P is 0; the
minimizer gives it, with eta = -z (geometric duality, Heyde & Lohne 2008).
`ScalarizationPolyhedron` is P as an `lp.Region`: one phase I serves every
point asked of a problem, and `duality.DualPolyhedron` is the same P, asked
about image values as well. The certificate's check,
`verify_scalarization_certificate`, is arithmetic alone and lives in
`checks`; it is bound here by name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .checks import verify_scalarization_certificate  # noqa: F401
from .cone import OrderingCone, generator_matrix, multiplier_program
from .exact import QMatrix, QVector, require, solve_linear_system
from .lp import GeneralProgram, GenRow, Optimal, Region, Unbounded, solve_general
from .model import VlpProblem, primal_feasible

_ZERO = Fraction(0)
_ONE = Fraction(1)
VERTEX_LIMIT = 100_000  # most column subsets enumerate_vertices will try


class VertexLimitError(RuntimeError):
    """Raised when basis enumeration would try more than VERTEX_LIMIT subsets."""


@dataclass(frozen=True)
class EfficiencyCertificate:
    kind: str  # "efficient-with-scalarization" | "dominated" | "unbounded-domination"
    lam: QVector | None = None        # scalarizing weights, products >= 1 on generators
    eta: QVector | None = None        # equality multipliers of the scalar program
    dominator: QVector | None = None  # feasible point strictly below the target


def domination_program(
    cone: OrderingCone,
    M: QMatrix,
    target: QVector,
    fixed: tuple[QMatrix, QVector] | None = None,
    normalize: bool = False,
) -> GeneralProgram:
    """max sum(mu) over {x, mu >= 0 : Mx + G mu = target}, as a min program.

    G holds the cone generators as columns. fixed = (A, b) adds the rows
    Ax = b on x alone, ahead of the domination rows; normalize adds
    sum(x) + sum(mu) <= 1 last, which keeps a homogeneous program bounded.
    """
    G = generator_matrix(cone)
    n, g = M.cols, G.cols
    rows: list[GenRow] = []
    if fixed is not None:
        A, b = fixed
        rows += [GenRow(QVector(A.row(i).entries + (_ZERO,) * g), "=", b[i]) for i in range(A.rows)]
    rows += [GenRow(QVector(M.row(i).entries + G.row(i).entries), "=", target[i]) for i in range(M.rows)]
    if normalize:
        rows.append(GenRow(QVector((_ONE,) * (n + g)), "<=", _ONE))
    objective = QVector((_ZERO,) * n + (-_ONE,) * g)
    return GeneralProgram(objective, tuple(rows))


def is_efficient(problem: VlpProblem, xbar: QVector) -> tuple[bool, EfficiencyCertificate | None]:
    """Decide efficiency of a feasible point; a negative answer carries a dominator.

    Pointedness of the cone makes the test sound: a nonzero nonnegative
    combination of the generators is never the zero vector, so any
    positive cone mass witnesses strict domination.
    """
    if not primal_feasible(problem, xbar):
        raise ValueError("point is not feasible for the primal problem")
    program = domination_program(problem.cone, problem.L, problem.L @ xbar, fixed=(problem.A, problem.b))
    out = solve_general(program)
    n = problem.n
    if isinstance(out, Optimal):
        if out.value == 0:
            return True, None
        dominator = QVector(out.x.entries[:n])
        return False, EfficiencyCertificate("dominated", dominator=dominator)
    require(isinstance(out, Unbounded), "domination program is feasible at (xbar, 0)")
    dominator = QVector((out.x0 + out.ray).entries[:n])
    return False, EfficiencyCertificate("unbounded-domination", dominator=dominator)


class ScalarizationPolyhedron(Region):
    """P of one problem as a Region over (lam, z). Its program is
    `multiplier_program(cone, [L; -A])`, row for row, and every
    `certificate` is one phase II on the stored basis."""

    def __init__(self, problem: VlpProblem):
        self.problem = problem
        stacked = QMatrix(problem.k + problem.m, problem.n, problem.L.entries + (-problem.A).entries)  # [L; -A]
        super().__init__(multiplier_program(problem.cone, stacked))

    def _split(self, point: QVector) -> tuple[QVector, QVector]:
        k = self.problem.k
        return QVector(point.entries[:k]), QVector(point.entries[k:])

    def certificate(self, xbar: QVector) -> EfficiencyCertificate | None:
        """Scalarizing weights under which xbar solves the weighted scalar
        program, or None.

        (lam, eta) has lam.g >= 1 on every generator, L^T lam + A^T eta >= 0
        and lam.(L xbar) + b.eta = 0. By scalar LP duality such a pair
        exists exactly when xbar minimizes lam.(L x) over the feasible set
        for some such lam; it is a point (lam, -eta) of P where f is 0.
        """
        problem = self.problem
        if not primal_feasible(problem, xbar):
            raise ValueError("point is not feasible for the primal problem")
        if self.empty:
            return None
        out = self.minimize(QVector((problem.L @ xbar).entries + (-problem.b).entries))
        require(isinstance(out, Optimal), "f is bounded below by 0 on P at a feasible point")
        if out.value != 0:
            return None
        lam, z = self._split(out.x)
        return EfficiencyCertificate("efficient-with-scalarization", lam=lam, eta=-z)


def proper_efficiency_certificate(problem: VlpProblem, xbar: QVector) -> EfficiencyCertificate | None:
    """`ScalarizationPolyhedron.certificate` on a polyhedron built for one point."""
    return ScalarizationPolyhedron(problem).certificate(xbar)


def enumerate_vertices(problem: VlpProblem) -> list[QVector]:
    """All basic feasible solutions of {x >= 0 : Ax = b}, deduplicated and sorted.

    The feasible set contains no lines, so it is empty exactly when this
    list is empty.
    """
    A, b, n = problem.A, problem.b, problem.n
    r = A.rank()
    if math.comb(n, r) > VERTEX_LIMIT:
        raise VertexLimitError(
            f"basis enumeration needs {math.comb(n, r)} subsets (limit {VERTEX_LIMIT}); shrink the instance"
        )
    if r == 0:
        return [QVector.zeros(n)] if b.is_zero() else []
    seen: set[tuple] = set()
    out: list[QVector] = []
    for cols in itertools.combinations(range(n), r):
        sub = QMatrix(A.rows, r, tuple(A.at(i, j) for i in range(A.rows) for j in cols))
        sol = solve_linear_system(sub, b)
        if sol is None or sol.nullspace:
            continue
        if not sol.particular.is_nonneg():
            continue
        full = [_ZERO] * n
        for pos, j in enumerate(cols):
            full[j] = sol.particular[pos]
        vec = QVector(tuple(full))
        if vec.entries not in seen:
            seen.add(vec.entries)
            out.append(vec)
    out.sort(key=lambda v: v.entries)
    return out


def efficient_vertices(problem: VlpProblem) -> list[tuple[QVector, EfficiencyCertificate]]:
    """Efficient vertices, each with its scalarization certificate; one P
    answers them all."""
    efficient = [v for v in enumerate_vertices(problem) if is_efficient(problem, v)[0]]
    if not efficient:
        return []
    polyhedron = ScalarizationPolyhedron(problem)
    result = []
    for vertex in efficient:
        cert = polyhedron.certificate(vertex)
        require(cert is not None, "every efficient point admits a scalarization certificate")
        result.append((vertex, cert))
    return result


def recession_image_pointed(problem: VlpProblem) -> bool:
    """Whether the image of the primal recession cone meets -K only at the origin."""
    program = domination_program(
        problem.cone, problem.L, QVector.zeros(problem.k),
        fixed=(problem.A, QVector.zeros(problem.m)), normalize=True,
    )
    out = solve_general(program)
    require(isinstance(out, Optimal), "normalized domination program is bounded and feasible")
    return out.value == 0
