"""Polyhedral ordering cones given by finite generator lists.

A cone here is the set of nonnegative combinations of its generators, and
every `OrderingCone` is pointed by construction. Pointedness is certified
constructively: a vector with product >= 1 against every generator exists
iff the cone is pointed, and that witness doubles as a quasi-interior point
of the dual cone. The constructor computes it by one LP, or checks a
supplied one by dot products, and raises `ConeError` when there is none.

The cone order needs no LP: `facets` holds the cone's inequality
description (its facet normals, plus both signs of a basis of the
generators' orthogonal complement when the cone is lower-dimensional),
computed once per cone by exact elimination. `coordinates(v)` is the
tuple of h.v over those normals, and the order asks two questions of
them: `contains(v)` holds iff each is >= 0, and `strictly_below(v, w)`
iff v's differ from w's and each is <= w's, since h.(w - v) = h.w - h.v.
On a pointed cone equal coordinates mean equal vectors, so `precedes`
needs no w - v and no vector equality. A caller that compares many pairs
takes each vector's coordinates once.

Two builders assemble every LP over the generators. `multiplier_program`
gives the systems in lam (lam.g >= 1 on every generator, M^T lam >= 0) as
a `GeneralProgram` over free lam, which `multiplier` answers with a lam or
None. `domination_program` gives those pushing cone mass below a target
through a map M; over x, mu >= 0 with equality rows, each is already a
standard-form `LinearProgram`, which `dominator` answers with an x whose
image lies strictly below, or None. For one M they are LP duals: the
domination program at target t has the optimum of min t.lam over the
multiplier system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exact import DimensionError, QMatrix, QVector, require, solve_linear_system
from .lp import GeneralProgram, LinearProgram, Optimal, Unbounded, solve_general, solve_lp

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConeError(ValueError):
    pass


@dataclass(frozen=True)
class OrderingCone:
    """A pointed cone; qi_witness has product >= 1 against every generator.

    Zero generators are dropped. Leave qi_witness out to have it computed
    by `multiplier`; a supplied one is checked by dot products, with no LP.
    """

    dim: int
    generators: tuple[QVector, ...]
    qi_witness: QVector = field(default=None, compare=False)

    def __post_init__(self):
        for g in self.generators:
            if g.dim != self.dim:
                raise DimensionError(f"generator dim {g.dim} != cone dim {self.dim}")
        object.__setattr__(self, "generators", tuple(g for g in self.generators if not g.is_zero()))
        if not self.generators:
            raise ConeError("trivial cone")
        witness = self.qi_witness
        if witness is None:
            witness = multiplier(self)
            if witness is None:
                raise ConeError("not pointed")
            object.__setattr__(self, "qi_witness", witness)
        elif any(witness.dot(g) < 1 for g in self.generators):
            raise ConeError("witness has product < 1 against a generator")

    @cached_property
    def is_orthant(self) -> bool:
        """Whether the generators are positive multiples of all the unit vectors."""
        covered = set()
        for g in self.generators:
            support = [i for i, v in enumerate(g) if v != 0]
            if len(support) != 1 or g[support[0]] < 0:
                return False
            covered.add(support[0])
        return covered == set(range(self.dim))

    @cached_property
    def facets(self) -> tuple[QVector, ...]:
        """Normals h with h.g >= 0 on every generator g, such that v lies
        in the cone iff h.v >= 0 for every h.

        Both signs of a basis of the generators' orthogonal complement hold
        v to their span, of dimension d. Within the span, every facet is
        spanned by d - 1 generators, so each (d - 1)-subset whose
        complement in the span is a line gives one candidate normal, kept
        when no two generators lie on opposite sides of it.
        """
        off_span = _nullspace(self.generators, self.dim)
        normals = [h for u in off_span for h in (u, -u)]
        for subset in itertools.combinations(self.generators, self.dim - len(off_span) - 1):
            line = _nullspace(subset + off_span, self.dim)
            if len(line) != 1:
                continue
            h = line[0]
            if any(h.dot(g) < 0 for g in self.generators):
                h = -h
            if any(h.dot(g) < 0 for g in self.generators) or h in normals:
                continue
            normals.append(h)
        for h in normals:
            require(all(h.dot(g) >= 0 for g in self.generators), "facet normal is >= 0 on every generator")
        return tuple(normals)

    def coordinates(self, v: QVector) -> tuple[Fraction, ...]:
        """h.v for each normal h of `facets`, in order."""
        if v.dim != self.dim:
            raise DimensionError(f"vector dim {v.dim} != cone dim {self.dim}")
        return tuple(h.dot(v) for h in self.facets)


def _nullspace(rows: tuple[QVector, ...], dim: int) -> tuple[QVector, ...]:
    """A basis of the vectors orthogonal to every row."""
    if not rows:
        return tuple(QVector.unit(dim, i) for i in range(dim))
    matrix = QMatrix(len(rows), dim, tuple(e for r in rows for e in r))
    return solve_linear_system(matrix, QVector.zeros(len(rows))).nullspace


def make_cone(dim: int, generators) -> OrderingCone:
    """Build a cone from any iterable of generators."""
    return OrderingCone(dim, tuple(generators))


def orthant(dim: int) -> OrderingCone:
    gens = tuple(QVector.unit(dim, i) for i in range(dim))
    ones = QVector((_ONE,) * dim)
    return OrderingCone(dim, gens, ones)


def multiplier_program(cone: OrderingCone, M: QMatrix | None = None) -> GeneralProgram:
    """The system of `multiplier` as a program over free lam, with a zero
    objective.

    lam has M's row count (else the cone dimension), with the generators
    zero-padded to it. Rows go generators, then columns of M: that order
    fixes the pivot sequence and so the returned point.
    """
    if M is None:
        M = QMatrix.zeros(cone.dim, 0)
    pad = (_ZERO,) * (M.rows - cone.dim)
    g = len(cone.generators)
    rows = QMatrix(g + M.cols, M.rows, tuple(e for gen in cone.generators for e in gen.entries + pad) + M.T.entries)
    return GeneralProgram(QVector.zeros(M.rows), rows, QVector((_ONE,) * g + (_ZERO,) * M.cols))


def multiplier(cone: OrderingCone, M: QMatrix | None = None) -> QVector | None:
    """A free lam with lam.g >= 1 on every generator and M[:, j].lam >= 0
    on every column of M; None when no such lam exists."""
    out = solve_general(multiplier_program(cone, M))
    return out.x if isinstance(out, Optimal) else None


def domination_program(
    cone: OrderingCone, M: QMatrix, target: QVector, fixed: tuple[QMatrix, QVector] | None = None
) -> LinearProgram:
    """max sum(mu) over {x, mu >= 0 : Mx + G mu = target}, as a min program.

    G holds the cone generators as columns. fixed = (A, b) adds the rows
    Ax = b on x alone, ahead of the domination rows.
    """
    G = generator_matrix(cone)
    n, g = M.cols, G.cols
    a: tuple[Fraction, ...] = ()
    rhs = target.entries
    if fixed is not None:
        A, b = fixed
        a, rhs = tuple(e for i in range(A.rows) for e in A.row(i).entries + (_ZERO,) * g), b.entries + rhs
    a += tuple(e for i in range(M.rows) for e in M.row(i).entries + G.row(i).entries)
    objective = QVector((_ZERO,) * n + (-_ONE,) * g)
    return LinearProgram(objective, QMatrix(len(rhs), n + g, a), QVector(rhs))


def dominator(
    cone: OrderingCone, M: QMatrix, target: QVector, fixed: tuple[QMatrix, QVector] | None = None
) -> QVector | None:
    """An x >= 0, with Ax = b when fixed = (A, b), whose image Mx lies
    strictly below target, or None. Every caller asks at a target that
    some feasible x reaches with mu = 0, so the domination program is
    feasible, and at a zero target its outcome type alone answers. The
    point (x, mu) is checked by products."""
    out = solve_lp(domination_program(cone, M, target, fixed))
    if isinstance(out, Optimal) and out.value == 0:
        return None
    require(isinstance(out, (Optimal, Unbounded)), "the domination program is feasible at the target")
    point = out.x if isinstance(out, Optimal) else out.x0 + out.ray
    x, mu = QVector(point.entries[: M.cols]), QVector(point.entries[M.cols :])
    require(point.is_nonneg() and sum(mu.entries) > 0, "x, mu >= 0 with sum(mu) > 0")
    require(fixed is None or fixed[0] @ x == fixed[1], "the dominator satisfies Ax = b")
    require(M @ x + generator_matrix(cone) @ mu == target, "Mx + G mu = target")
    return x


def generator_matrix(cone: OrderingCone) -> QMatrix:
    """k x g matrix whose columns are the generators."""
    return QMatrix(cone.dim, len(cone.generators), tuple(g[i] for i in range(cone.dim) for g in cone.generators))


def contains(cone: OrderingCone, v: QVector) -> bool:
    """Membership v in K: every coordinate of v is >= 0."""
    return all(x >= 0 for x in cone.coordinates(v))


def in_quasi_interior(cone: OrderingCone, lam: QVector) -> bool:
    if lam.dim != cone.dim:
        raise DimensionError(f"vector dim {lam.dim} != cone dim {cone.dim}")
    return all(lam.dot(g) > 0 for g in cone.generators)


def precedes(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> bool:
    """Whether coordinates a, of v, lie strictly below coordinates b, of w,
    under one cone: they differ and each of a's is <= b's. Then w - v is a
    nonzero member of the cone, which is `strictly_below(cone, v, w)`."""
    return a != b and all(x <= y for x, y in zip(a, b))


def strictly_below(cone: OrderingCone, v: QVector, w: QVector) -> bool:
    return precedes(cone.coordinates(v), cone.coordinates(w))
