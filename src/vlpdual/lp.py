"""Exact simplex over rationals.

The solver returns one of three fully certified outcomes: an optimal
point with equality multipliers satisfying complementary optimality, a
Farkas certificate of infeasibility, or an improving ray. Bland's rule
is used unconditionally, so pivoting terminates on every input.

`solve_lp` is two functions composed. `phase_one(lp)` finds a feasible
basis (or the Farkas certificate) and `phase_two(basis, c)` minimizes a
cost from it. A program solved for many costs over one feasible set runs
phase I once and phase II per cost; the stored basis is never changed by
the solves made from it.

The general form (<=, >=, = rows over all-free or all-nonnegative
variables) reduces to the standard form and answers with the same three
outcomes. `solve_feasibility` asks for a nonnegative solution of Mx = b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import DimensionError, QMatrix, QVector, pivot, require

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  subject to  a @ x = b, x >= 0."""

    c: QVector
    a: QMatrix
    b: QVector

    def __post_init__(self):
        if self.a.cols != self.c.dim:
            raise DimensionError(f"objective dim {self.c.dim} != column count {self.a.cols}")
        if self.a.rows != self.b.dim:
            raise DimensionError(f"rhs dim {self.b.dim} != row count {self.a.rows}")

    @property
    def n(self) -> int:
        return self.a.cols

    @property
    def m(self) -> int:
        return self.a.rows


@dataclass(frozen=True)
class Optimal:
    x: QVector
    y: QVector  # one multiplier per equality row
    value: Fraction


@dataclass(frozen=True)
class Infeasible:
    farkas: QVector  # f with a.T f <= 0 and b.f > 0


@dataclass(frozen=True)
class Unbounded:
    x0: QVector   # feasible point
    ray: QVector  # a @ ray = 0, ray >= 0, c.ray < 0


LpOutcome = Optimal | Infeasible | Unbounded


def _bland_simplex(tab: list[list[Fraction]], basis: list[int], width: int) -> int:
    """Run simplex to optimality; returns -1, or the entering column if unbounded.

    tab holds one row per basis entry followed by the reduced-cost row,
    which every pivot updates with the constraint rows. Entering: smallest
    index below width with negative reduced cost. Leaving: smallest basic
    variable index among the minimum-ratio rows. Both choices are Bland's
    rule, which rules out cycling.
    """
    m = len(basis)
    while True:
        zrow = tab[m]
        entering = -1
        for j in range(width):
            if zrow[j] < 0:
                entering = j
                break
        if entering < 0:
            return -1
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            t = tab[i][entering]
            if t > 0:
                ratio = tab[i][-1] / t
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return entering
        pivot(tab, leave, entering)
        basis[leave] = entering


@dataclass(frozen=True)
class Basis:
    """A feasible simplex tableau after phase I, with every zero-level
    artificial that can leave pivoted out.

    One row per equality row of the program, each keeping its artificial
    column and ending in the basic level. `pivot` replaces rows and never
    edits them, so phase II works on a shallow copy and a Basis is never
    changed by the solves made from it.
    """

    n: int  # structural columns
    rows: tuple[list[Fraction], ...]
    basis: tuple[int, ...]
    signs: tuple[int, ...]  # the sign each row was multiplied by so its rhs is >= 0

    @property
    def x(self) -> QVector:
        """The basic feasible point."""
        return QVector(tuple(_basic_levels(self.rows, self.basis, self.n, -1)))


def _basic_levels(rows, basis, n: int, col: int) -> list[Fraction]:
    """Column col of the tableau read onto the basic structural variables."""
    out = [_ZERO] * n
    for bi, row in zip(basis, rows):
        if bi < n:
            out[bi] = row[col]
    return out


def phase_one(lp: LinearProgram) -> Basis | Infeasible:
    """Minimize the sum of the artificials; a Basis of lp's feasible set,
    or the Farkas certificate when the minimum is positive.

    The tableau keeps one artificial column per row and carries the
    reduced-cost row last. Artificial t has reduced cost 1 - y[t], with y
    the simplex multipliers of the sign-adjusted rows, so the certificate
    is read off that row.
    """
    m, n = lp.m, lp.n
    signs = tuple(1 if lp.b[i] >= 0 else -1 for i in range(m))
    tab = [
        [lp.a.at(i, j) * signs[i] for j in range(n)]
        + [_ONE if t == i else _ZERO for t in range(m)]
        + [lp.b[i] * signs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    # Pivoting on the basic columns prices the cost row out.
    tab.append([_ZERO] * n + [_ONE] * m + [_ZERO])
    for i in range(m):
        pivot(tab, i, basis[i])
    require(_bland_simplex(tab, basis, n + m) < 0, "phase I is bounded below by zero")
    zrow = tab.pop()
    if zrow[-1] != 0:
        return Infeasible(QVector(tuple(signs[t] * (_ONE - zrow[n + t]) for t in range(m))))
    # Zero-level artificials are pivoted out; a row that is zero on the
    # structural columns is redundant and keeps its artificial basic at 0.
    for i in range(m):
        if basis[i] >= n:
            j = next((j for j in range(n) if tab[i][j]), None)
            if j is not None:
                pivot(tab, i, j)
                basis[i] = j
    return Basis(n, tuple(tab), tuple(basis), signs)


def phase_two(start: Basis, c: QVector) -> Optimal | Unbounded:
    """Minimize c.x from a phase-I basis, on a copy of its tableau.

    Artificials cost 0 and never enter. Pivoting on each basic column
    prices the cost row out; artificial t then has reduced cost -y[t], so
    the equality multipliers are read off that row.
    """
    n, m = start.n, len(start.basis)
    if c.dim != n:
        raise DimensionError(f"objective dim {c.dim} != column count {n}")
    tab = list(start.rows)
    basis = list(start.basis)
    tab.append([c[j] for j in range(n)] + [_ZERO] * (m + 1))
    for i in range(m):
        pivot(tab, i, basis[i])
    entering = _bland_simplex(tab, basis, n)
    x = _basic_levels(tab, basis, n, -1)
    if entering >= 0:
        ray = [-e for e in _basic_levels(tab, basis, n, entering)]
        ray[entering] = _ONE
        return Unbounded(QVector(tuple(x)), QVector(tuple(ray)))
    zrow = tab[m]
    y = QVector(tuple(-start.signs[t] * zrow[n + t] for t in range(m)))
    return Optimal(QVector(tuple(x)), y, -zrow[-1])


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Two-phase exact simplex with certificates for all three outcomes."""
    start = phase_one(lp)
    if isinstance(start, Infeasible):
        return start
    return phase_two(start, lp.c)


# Independent outcome verification: plain matrix arithmetic, sharing no
# state or intermediate data with the solver above.

def verify_optimal(lp: LinearProgram, out: Optimal) -> bool:
    if (lp.a @ out.x) != lp.b or not out.x.is_nonneg():
        return False
    reduced = lp.c - (lp.a.T @ out.y)
    if not reduced.is_nonneg():
        return False
    return lp.c.dot(out.x) == lp.b.dot(out.y) == out.value


def verify_farkas(lp: LinearProgram, farkas: QVector) -> bool:
    against = lp.a.T @ farkas
    return all(v <= 0 for v in against) and lp.b.dot(farkas) > 0


def verify_unbounded(lp: LinearProgram, out: Unbounded) -> bool:
    if (lp.a @ out.x0) != lp.b or not out.x0.is_nonneg():
        return False
    if not (lp.a @ out.ray).is_zero() or not out.ray.is_nonneg():
        return False
    return lp.c.dot(out.ray) < 0


def verify_outcome(lp: LinearProgram, out: LpOutcome) -> bool:
    if isinstance(out, Optimal):
        return verify_optimal(lp, out)
    if isinstance(out, Infeasible):
        return verify_farkas(lp, out.farkas)
    if isinstance(out, Unbounded):
        return verify_unbounded(lp, out)
    raise TypeError(f"not an LP outcome: {out!r}")


# General form: <=, >=, = rows over variables that are all free or all
# nonnegative, reduced to the equality standard form above. The standard
# rows are the general rows one for one, so multipliers and Farkas
# certificates need no back-map; points and rays map back by column.

_RELATIONS = ("<=", ">=", "=")


@dataclass(frozen=True)
class GenRow:
    coeffs: QVector
    rel: str
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in _RELATIONS:
            raise ValueError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True)
class GeneralProgram:
    """min objective.x over rows, with x free if `free` is set, else x >= 0."""

    objective: QVector
    rows: tuple[GenRow, ...]
    free: bool = False

    def __post_init__(self):
        if not self.rows:
            raise DimensionError("a program needs at least one row")
        for row in self.rows:
            if row.coeffs.dim != self.objective.dim:
                raise DimensionError("row width differs from variable count")

    @property
    def n(self) -> int:
        return self.objective.dim

    def spread(self, coeffs: QVector) -> list[Fraction]:
        """Coefficients on the standard variable columns: a free x_j is
        x_j+ - x_j-, two adjacent columns."""
        if not self.free:
            return list(coeffs.entries)
        return [v for e in coeffs.entries for v in (e, -e)]

    @property
    def slacks(self) -> int:
        """Slack columns of the standard form: one per inequality row."""
        return sum(row.rel != "=" for row in self.rows)

    def cost(self, w: QVector) -> QVector:
        """w over gp's variables as a cost on the standard-form columns:
        spread over the variable columns, 0 on every slack."""
        return QVector(tuple(self.spread(w)) + (_ZERO,) * self.slacks)

    def back(self, v: QVector) -> QVector:
        """A standard-form point or ray as gp's variables; slacks drop."""
        if not self.free:
            return QVector(v.entries[: self.n])
        return QVector(tuple(v[2 * j] - v[2 * j + 1] for j in range(self.n)))


def to_standard_form(gp: GeneralProgram) -> LinearProgram:
    """Each inequality row gets a slack column after the variable columns,
    in row order: +1 on a <= row, -1 on a >= row."""
    c = gp.cost(gp.objective)
    pad = [_ZERO] * gp.slacks
    a: list[Fraction] = []
    slack = c.dim - len(pad)
    for row in gp.rows:
        line = gp.spread(row.coeffs) + pad
        if row.rel != "=":
            line[slack] = _ONE if row.rel == "<=" else -_ONE
            slack += 1
        a += line
    return LinearProgram(
        c,
        QMatrix(len(gp.rows), c.dim, tuple(a)),
        QVector(tuple(row.rhs for row in gp.rows)),
    )


def solve_general(gp: GeneralProgram) -> LpOutcome:
    """solve_lp on the standard form; x, x0 and ray come back in gp's
    variables, y and farkas stay indexed by gp's rows."""
    out = solve_lp(to_standard_form(gp))
    if isinstance(out, Optimal):
        return Optimal(gp.back(out.x), out.y, out.value)
    if isinstance(out, Unbounded):
        return Unbounded(gp.back(out.x0), gp.back(out.ray))
    return out


def solve_feasibility(M: QMatrix, rhs: QVector) -> QVector | None:
    """An exact x >= 0 with Mx = rhs, or None when there is none."""
    out = solve_lp(LinearProgram(QVector.zeros(M.cols), M, rhs))
    return out.x if isinstance(out, Optimal) else None
