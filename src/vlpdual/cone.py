"""Polyhedral ordering cones given by finite generator lists.

A cone here is the set of nonnegative combinations of its generators.
Pointedness is certified constructively: a vector with product >= 1
against every generator exists iff the cone is pointed, and that witness
doubles as a quasi-interior point of the dual cone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

from .exact import DimensionError, QMatrix, QVector
from .lp import GeneralProgram, GenRow, Optimal, solve_feasibility, solve_general

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConeError(ValueError):
    pass


@dataclass(frozen=True)
class OrderingCone:
    dim: int
    generators: tuple[QVector, ...]
    qi_witness: QVector | None = field(default=None, compare=False)

    def __post_init__(self):
        for g in self.generators:
            if g.dim != self.dim:
                raise DimensionError(f"generator dim {g.dim} != cone dim {self.dim}")

    @property
    def validated(self) -> bool:
        return self.qi_witness is not None

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


@dataclass(frozen=True)
class SeparationCertificate:
    """gamma with gamma.g <= -1 on the cone generators and gamma.m >= 0 on M."""

    gamma: QVector


def make_cone(dim: int, generators) -> OrderingCone:
    """Build a cone, silently dropping zero generators."""
    gens = tuple(g for g in generators if not g.is_zero())
    if not gens:
        raise ConeError("trivial cone")
    return OrderingCone(dim, gens)


def orthant(dim: int) -> OrderingCone:
    gens = tuple(QVector.unit(dim, i) for i in range(dim))
    ones = QVector((_ONE,) * dim)
    return OrderingCone(dim, gens, ones)


def multiplier_program(
    cone: OrderingCone,
    M: QMatrix | None = None,
    eq: QVector | None = None,
    extra: tuple[tuple[QVector, Fraction], ...] = (),
) -> GeneralProgram:
    """The system of `multiplier` as a program over free lam, with a zero
    objective.

    lam has M's row count (else the cone dimension), with the generators
    zero-padded to it. Rows go equality, generators, columns of M, extras:
    that order fixes the pivot sequence and so the returned point.
    """
    width = M.rows if M is not None else cone.dim
    pad = (_ZERO,) * (width - cone.dim)
    rows = [GenRow(eq, "=", _ZERO)] if eq is not None else []
    rows += [GenRow(QVector(g.entries + pad), ">=", _ONE) for g in cone.generators]
    if M is not None:
        rows += [GenRow(M.col(j), ">=", _ZERO) for j in range(M.cols)]
    rows += [GenRow(coeffs, ">=", bound) for coeffs, bound in extra]
    return GeneralProgram(QVector.zeros(width), tuple(rows), free=True)


def multiplier(
    cone: OrderingCone,
    M: QMatrix | None = None,
    eq: QVector | None = None,
    extra: tuple[tuple[QVector, Fraction], ...] = (),
) -> QVector | None:
    """A free lam with lam.g >= 1 on every generator, M[:, j].lam >= 0 on
    every column of M, lam.eq = 0 and row.lam >= bound for each extra
    (row, bound); None when no such lam exists."""
    out = solve_general(multiplier_program(cone, M, eq, extra))
    return out.x if isinstance(out, Optimal) else None


def validate_cone(cone: OrderingCone) -> OrderingCone:
    """Certify pointedness; returns the cone carrying its witness vector.

    A finitely generated cone with nonzero generators is pointed exactly
    when some lambda has lambda.g >= 1 for every generator g.
    """
    if not cone.generators:
        raise ConeError("trivial cone")
    witness = multiplier(cone)
    if witness is None:
        raise ConeError("not pointed")
    return replace(cone, qi_witness=witness)


def generator_matrix(cone: OrderingCone) -> QMatrix:
    """k x g matrix whose columns are the generators."""
    k = cone.dim
    cols = cone.generators
    return QMatrix(k, len(cols), tuple(cols[j][i] for i in range(k) for j in range(len(cols))))


def negate(cone: OrderingCone) -> OrderingCone:
    witness = -cone.qi_witness if cone.qi_witness is not None else None
    return OrderingCone(cone.dim, tuple(-g for g in cone.generators), witness)


def contains(cone: OrderingCone, v: QVector) -> bool:
    """Membership v in K, decided by exact feasibility of the generator combination."""
    if v.dim != cone.dim:
        raise DimensionError(f"vector dim {v.dim} != cone dim {cone.dim}")
    if v.is_zero():
        return True
    if cone.qi_witness is not None and cone.qi_witness.dot(v) < 0:
        return False  # witness is in the dual cone, so members cannot go negative
    if cone.is_orthant:
        return v.is_nonneg()
    return solve_feasibility(generator_matrix(cone), v) is not None


def in_dual(cone: OrderingCone, lam: QVector) -> bool:
    if lam.dim != cone.dim:
        raise DimensionError(f"vector dim {lam.dim} != cone dim {cone.dim}")
    return all(lam.dot(g) >= 0 for g in cone.generators)


def in_quasi_interior(cone: OrderingCone, lam: QVector) -> bool:
    if lam.dim != cone.dim:
        raise DimensionError(f"vector dim {lam.dim} != cone dim {cone.dim}")
    return all(lam.dot(g) > 0 for g in cone.generators)


class Comparison(enum.Enum):
    EQUAL = "equal"
    LESS = "less"            # v below w in the strict cone order
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def cmp(cone: OrderingCone, v: QVector, w: QVector) -> Comparison:
    if v == w:
        return Comparison.EQUAL
    if contains(cone, w - v):
        return Comparison.LESS
    if contains(cone, v - w):
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


def strictly_below(cone: OrderingCone, v: QVector, w: QVector) -> bool:
    return v != w and contains(cone, w - v)


def min_elements_finite(cone: OrderingCone, points) -> list[QVector]:
    """Points not strictly dominated by any other value in the list.

    Equal vectors at different positions count as one value, so duplicates
    of a retained value are all retained.
    """
    points = list(points)
    values = []
    for p in points:
        if p not in values:
            values.append(p)
    surviving = []
    for p in values:
        dominated = any(q != p and contains(cone, p - q) for q in values)
        if not dominated:
            surviving.append(p)
    return [p for p in points if p in surviving]


def max_elements_finite(cone: OrderingCone, points) -> list[QVector]:
    return min_elements_finite(negate(cone), points)


def separate_from_cone(cone: OrderingCone, m_points, m_rays) -> SeparationCertificate | None:
    """Strictly separate the cone from a polyhedral set M given in V-form.

    Returns gamma with gamma.g <= -1 on every generator and gamma.p >= 0,
    gamma.r >= 0 on the points and rays of M, or None when no such gamma
    exists (in particular when M meets the cone outside the origin).
    """
    rows: list[tuple[QVector, Fraction]] = []
    for label, vectors in (("point", m_points), ("ray", m_rays)):
        for v in vectors:
            if v.dim != cone.dim:
                raise DimensionError(f"separation {label} dim mismatch")
            rows.append((v, _ZERO))
    gamma = multiplier(negate(cone), extra=tuple(rows))  # gamma.(-g) >= 1
    return None if gamma is None else SeparationCertificate(gamma)


def find_quasi_interior_point(cone: OrderingCone) -> QVector:
    """A lambda with lambda.g >= 1 for every generator."""
    if cone.qi_witness is not None:
        return cone.qi_witness
    return validate_cone(cone).qi_witness
