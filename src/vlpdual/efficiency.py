"""Efficiency oracles for the primal problem.

Every answer here is read off `duality.DualPolyhedron`, the problem's
dual polyhedron P, one phase I per problem. A feasible point is efficient
exactly when P holds a scalarization certificate for it (efficient and
properly efficient coincide), and with none `cone.dominator` finds a
feasible point below it, which need not be a vertex. The recession image
is pointed exactly when P is nonempty, the other side of one Farkas
alternative. `model.EfficiencyCertificate` and
`checks.verify_scalarization_certificate` are bound here by name.
"""

from __future__ import annotations

from fractions import Fraction

from .checks import verify_scalarization_certificate  # noqa: F401
from .cone import verify_dominator
from .duality import DualPolyhedron
from .exact import QVector, extreme_rays, require
from .model import EfficiencyCertificate, VlpProblem


def is_efficient(problem: VlpProblem, xbar: QVector) -> tuple[bool, EfficiencyCertificate]:
    """`DualPolyhedron.efficient` on a polyhedron built for one point."""
    return DualPolyhedron(problem).efficient(xbar)


def proper_efficiency_certificate(problem: VlpProblem, xbar: QVector) -> EfficiencyCertificate | None:
    """`DualPolyhedron.certificate` on a polyhedron built for one point."""
    return DualPolyhedron(problem).certificate(xbar)


def enumerate_vertices(problem: VlpProblem) -> list[QVector]:
    """All vertices of {x >= 0 : Ax = b}, sorted: the extreme rays (x, t) of
    {(x, t) >= 0 : Ax - bt = 0} with t > 0, scaled to t = 1.

    The feasible set contains no lines, so it is empty exactly when this
    list is empty.
    """
    n = problem.n
    rays = extreme_rays([problem.A.row(i).entries + (-problem.b[i],) for i in range(problem.m)], n + 1)
    return sorted((QVector(tuple(Fraction(e, y[n]) for e in y[:n])) for y in rays if y[n]), key=lambda v: v.entries)


def efficient_vertices(problem: VlpProblem) -> list[tuple[QVector, EfficiencyCertificate]]:
    """Efficient vertices, each with its scalarization certificate; one P,
    built only once there are vertices, answers them all."""
    vertices = enumerate_vertices(problem)
    if not vertices:
        return []
    polyhedron = DualPolyhedron(problem)
    return [(v, cert) for v in vertices if (cert := polyhedron.certificate(v)) is not None]


def recession_image_pointed(polyhedron: DualPolyhedron) -> bool:
    """Whether the image of the primal recession cone meets -K only at the
    origin: whether P is nonempty. An empty P's Farkas row splits after the
    generator rows into (mu, x) with Ax = 0 and Lx + G mu = 0, sum(mu) > 0:
    a recession direction whose image is a nonzero member of -K."""
    problem, farkas = polyhedron.problem, polyhedron.farkas
    if farkas is None:
        return True
    g = len(problem.cone.generators)
    mu, x = QVector(farkas.entries[:g]), QVector(farkas.entries[g:])
    recession, zero = (problem.A, QVector.zeros(problem.m)), QVector.zeros(problem.k)
    require(verify_dominator(problem.cone, problem.L, zero, x, mu, recession), "P's Farkas row is a dominator")
    return False
