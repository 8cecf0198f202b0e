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
computed once per cone from `extreme_rays`. That double-description
kernel also gives `efficiency.enumerate_vertices` the primal vertices and,
through `polyhedron_generators`, the V-form of the dual polyhedron P, and
each of its cuts compares at most `VERTEX_LIMIT` ray pairs, else it
raises `VertexLimitError`. `coordinates(v)` is the
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

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exact import DimensionError, QMatrix, QVector, require, row_reduce, solve_linear_system
from .lp import GeneralProgram, LinearProgram, Optimal, Unbounded, solve_general, solve_lp

_ZERO = Fraction(0)
_ONE = Fraction(1)
VERTEX_LIMIT = 100_000  # most ray pairs one cut of extreme_rays compares


class ConeError(ValueError):
    pass


class VertexLimitError(ValueError):
    """Raised when one cut of `extreme_rays` would compare more than VERTEX_LIMIT ray pairs."""


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
        v to their span. Within it, each extreme ray s of {s >= 0 : Ns = 0},
        with the rows of N a basis of {mu : G mu = 0}, is G^T h for one
        facet normal h: h.g = s_g on independent generators, 0 off the span.
        """
        G = generator_matrix(self)
        off_span = solve_linear_system(G.T, QVector.zeros(G.cols)).nullspace
        normals = [h for u in off_span for h in (u, -u)]
        independent = row_reduce(G.to_lists(), G.cols)  # pivot columns: generators spanning the span
        inverse = _inverse([self.generators[j] for j in independent] + list(off_span), self.dim)
        for s in extreme_rays(solve_linear_system(G, QVector.zeros(self.dim)).nullspace, G.cols):
            normals.append(inverse @ QVector(tuple(Fraction(s[j]) for j in independent) + (_ZERO,) * len(off_span)))
        require(all(h.dot(g) >= 0 for h in normals for g in self.generators), "normals are >= 0 on every generator")
        return tuple(normals)

    def coordinates(self, v: QVector) -> tuple[Fraction, ...]:
        """h.v for each normal h of `facets`, in order."""
        if v.dim != self.dim:
            raise DimensionError(f"vector dim {v.dim} != cone dim {self.dim}")
        return tuple(h.dot(v) for h in self.facets)


def _inverse(rows, dim: int) -> QMatrix:
    """The inverse of the dim x dim matrix with these rows."""
    square = [list(r) + [_ONE if c == i else _ZERO for c in range(dim)] for i, r in enumerate(rows)]
    row_reduce(square, dim)  # [B | I] -> [I | B^-1]
    return QMatrix(dim, dim, tuple(e for row in square for e in row[dim:]))


def extreme_rays(rows, n: int) -> list[tuple[int, ...]]:
    """The extreme rays of {y >= 0 in R^n : r.y = 0 for every row r}, each
    a primitive integer vector, by double description.

    Start from the unit rays and cut by one row at a time: a ray on the row
    stays, and each adjacent pair on opposite sides adds the ray where
    their segment meets the row. Two rays are adjacent when no third ray
    is zero wherever both are (Motzkin's combinatorial test). Before that
    scan, a pair must be zero together on at least D - 2 coordinates, with
    D = n - rank of the rows already cut (Fukuda & Prodon 1996): the face
    their sum spans has dimension at least D minus that count.
    """
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    done: list[list[Fraction]] = []  # the rows already cut, row-reduced
    for row in rows:
        scale = math.lcm(*(e.denominator for e in row))
        terms = [(j, int(e * scale)) for j, e in enumerate(row) if e]
        values = [sum(a * y[j] for j, a in terms) for y in rays]
        above = [i for i, v in enumerate(values) if v > 0]
        below = [i for i, v in enumerate(values) if v < 0]
        pairs = len(above) * len(below)
        if pairs > VERTEX_LIMIT:
            raise VertexLimitError(f"one enumeration step compares {pairs} ray pairs (limit {VERTEX_LIMIT})")
        zeros = [sum(1 << j for j, e in enumerate(y) if not e) for y in rays]
        shared = n - len(done) - 2  # fewest zeros an adjacent pair has in common
        cut = [y for y, v in zip(rays, values) if not v]
        for p in above:
            for q in below:
                common = zeros[p] & zeros[q]
                if common.bit_count() < shared:
                    continue
                if any(z & common == common for t, z in enumerate(zeros) if t != p and t != q):
                    continue
                y = [values[p] * b - values[q] * a for a, b in zip(rays[p], rays[q])]
                g = math.gcd(*y)
                cut.append(tuple(e // g for e in y))
        rays = cut
        done.append([Fraction(e) for e in row])
        del done[len(row_reduce(done, n)) :]
    return rays


def polyhedron_generators(rows: QMatrix, rhs: QVector) -> tuple[list[QVector], list[QVector], tuple[QVector, ...]]:
    """Vertices, extreme rays and a lineality basis of {y : rows @ y >= rhs}.

    The lineality space is the kernel of `rows`, and on the row space the
    polyhedron is pointed. Homogenized there by t >= 0, its points are the
    slacks (s, t) >= 0 with s + t rhs in the range of `rows`: the cone cut
    by (mu, mu.rhs) for each mu in a basis of {mu : rows^T mu = 0}, whose
    extreme rays `extreme_rays` gives. One inverse of [independent rows;
    lineality basis] maps each back to y: with t > 0 it is the vertex y / t,
    with t = 0 an extreme ray. The polyhedron is empty exactly when no ray
    has t > 0.
    """
    lineality = solve_linear_system(rows, QVector.zeros(rows.rows)).nullspace
    dependencies = solve_linear_system(rows.T, QVector.zeros(rows.cols)).nullspace
    independent = row_reduce(rows.T.to_lists(), rows.rows)  # pivot columns of rows^T: independent rows
    inverse = _inverse([rows.row(i) for i in independent] + list(lineality), rows.cols)
    fill = (_ZERO,) * len(lineality)
    vertices, rays = [], []
    for w in extreme_rays([mu.entries + (mu.dot(rhs),) for mu in dependencies], rows.rows + 1):
        t = w[-1]
        y = inverse @ QVector(tuple(w[i] + t * rhs[i] for i in independent) + fill)
        if t:
            vertices.append(y.scale(Fraction(1, t)))
        else:
            rays.append(y)
    return vertices, rays, lineality


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
