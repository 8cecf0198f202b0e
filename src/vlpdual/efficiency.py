"""Efficiency oracles for the primal problem.

The central device is a domination program: starting from a target image
value, push as much cone mass as possible onto the slack between the
target and the image of a feasible point. Its optimum is zero exactly
when nothing feasible sits strictly below the target, and that decides
efficiency without ever enumerating the image set. Deciding by LP rather
than by pairwise image comparison matters: a dominating point need not
be a vertex of the feasible set.

`cone.dominator` answers it, and the homogeneous recession question,
with a checked point below the target or None. Scalarization
certificates are asked of `duality.DualPolyhedron`, the problem's dual
polyhedron P, one phase I per problem. `model.EfficiencyCertificate` and
`checks.verify_scalarization_certificate` are bound here by name.
"""

from __future__ import annotations

from fractions import Fraction

from .checks import verify_scalarization_certificate  # noqa: F401
from .cone import dominator
from .duality import DualPolyhedron
from .exact import QVector, extreme_rays, require
from .model import EfficiencyCertificate, VlpProblem, primal_feasible


def is_efficient(problem: VlpProblem, xbar: QVector) -> tuple[bool, EfficiencyCertificate | None]:
    """Decide efficiency of a feasible point; a negative answer carries a dominator.

    Pointedness of the cone makes the test sound: a nonzero nonnegative
    combination of the generators is never the zero vector, so any
    positive cone mass witnesses strict domination.
    """
    if not primal_feasible(problem, xbar):
        raise ValueError("point is not feasible for the primal problem")
    dom = dominator(problem.cone, problem.L, problem.L @ xbar, fixed=(problem.A, problem.b))
    return (True, None) if dom is None else (False, EfficiencyCertificate("dominated", dominator=dom))


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
    """Efficient vertices, each with its scalarization certificate; one P
    answers them all."""
    efficient = [v for v in enumerate_vertices(problem) if is_efficient(problem, v)[0]]
    if not efficient:
        return []
    polyhedron = DualPolyhedron(problem)
    result = []
    for vertex in efficient:
        cert = polyhedron.certificate(vertex)
        require(cert is not None, "every efficient point admits a scalarization certificate")
        result.append((vertex, cert))
    return result


def recession_image_pointed(problem: VlpProblem) -> bool:
    """Whether the image of the primal recession cone meets -K only at the origin."""
    recession = (problem.A, QVector.zeros(problem.m))
    return dominator(problem.cone, problem.L, QVector.zeros(problem.k), fixed=recession) is None
