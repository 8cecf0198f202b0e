"""Exact simplex over rationals.

The solver returns one of three fully certified outcomes: an optimal
point with equality multipliers satisfying complementary optimality, a
Farkas certificate of infeasibility, or an improving ray. Bland's rule
is used unconditionally, so pivoting terminates on every input.

`solve_lp` is two functions composed. `phase_one(lp)` finds a feasible
basis (or the Farkas certificate) and `phase_two(basis, c)` minimizes a
cost from it; the stored basis is never changed by the solves made from it.
Both phases price their cost row in one pass, c_j - sum_i c_B[i] * row_i[j]
per column over the tableau rows' integer ratios, which a `Basis` takes
once for all its phase II runs; every basic column is a unit vector, so
the row is exactly the one that pivoting on each basic column would leave.

The general form (>= rows over free variables) reduces to the standard
form and answers with the same three outcomes. A general feasible set
searched with many costs is a `Region`: phase I once, then phase II per
cost, answered in the program's own variables. `solve_feasibility` asks
for a nonnegative solution of Mx = b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import DimensionError, QMatrix, QVector, _ratios, _sum_of_products, pivot, require

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

    @cached_property
    def columns(self) -> list[list[tuple[int, int]] | None]:
        """The tableau's columns for phase II's pricing, taken once."""
        return _ratio_columns(self.rows, self.basis, self.n + len(self.basis) + 1)


def _ratio_columns(rows, basis, width: int) -> list[list[tuple[int, int]] | None]:
    """Every tableau column, rhs last, as (numerator, denominator) over the
    rows; None on a basic column, whose reduced cost is always 0."""
    basic = set(basis)
    ratios = [_ratios(row) for row in rows]
    return [None if j in basic else [row[j] for row in ratios] for j in range(width)]


def _priced(columns, weights: list[tuple[int, int]], c: tuple[Fraction, ...]) -> list[Fraction]:
    """The reduced-cost row of cost c (0 past its end) on a tableau in
    canonical form, rhs last: per column, c_j + sum_i weights[i] * row_i[j]
    as one sum of products, where weights[i] is minus the cost of row i's
    basic column. The rhs entry is then -c.x."""
    with_cost = [(1, 1)] + weights
    row = []
    for j, col in enumerate(columns):
        if col is None:
            row.append(_ZERO)
        elif j < len(c) and c[j]:
            row.append(_sum_of_products(with_cost, [(c[j].numerator, c[j].denominator)] + col))
        else:
            row.append(_sum_of_products(weights, col))
    return row


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
    # Cost 1 on every artificial, each basic in its own row.
    tab.append(_priced(_ratio_columns(tab, basis, n + m + 1), [(-1, 1)] * m, ()))
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

    Artificials cost 0 and never enter. Artificial t's reduced cost is
    -y[t], so the equality multipliers are read off the priced row.
    """
    n, m = start.n, len(start.basis)
    if c.dim != n:
        raise DimensionError(f"objective dim {c.dim} != column count {n}")
    tab = list(start.rows)
    basis = list(start.basis)
    tab.append(_priced(start.columns, _ratios(-c[b] if b < n else _ZERO for b in start.basis), c.entries))
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


# General form: min objective.y over free y with rows @ y >= rhs, reduced
# to the equality standard form above. The standard rows are the general
# rows one for one, so multipliers and Farkas certificates need no
# back-map; points and rays map back by column.


@dataclass(frozen=True)
class GeneralProgram:
    """min objective.y over free y subject to rows @ y >= rhs."""

    objective: QVector
    rows: QMatrix
    rhs: QVector

    def __post_init__(self):
        # A QVector has at least one entry, so the rhs check also rules out
        # a program with no rows.
        if self.rows.cols != self.objective.dim or self.rows.rows != self.rhs.dim:
            raise DimensionError("row width differs from variable count, or rhs dim from row count")

    @property
    def n(self) -> int:
        return self.objective.dim

    def cost(self, w: QVector) -> QVector:
        """w over gp's variables as a cost on the standard-form columns:
        w_j on y_j+, -w_j on y_j-, 0 on every slack."""
        return QVector(tuple(v for e in w.entries for v in (e, -e)) + (_ZERO,) * self.rows.rows)

    def back(self, v: QVector) -> QVector:
        """A standard-form point or ray as gp's variables, y_j = y_j+ - y_j-;
        slacks drop."""
        return QVector(tuple(v[2 * j] - v[2 * j + 1] for j in range(self.n)))


def to_standard_form(gp: GeneralProgram) -> LinearProgram:
    """Each free y_j is y_j+ - y_j-, two adjacent columns; row i then gets
    slack column i after them, with coefficient -1."""
    m = gp.rows.rows
    a: list[Fraction] = []
    for i in range(m):
        a += [v for e in gp.rows.row(i).entries for v in (e, -e)]
        a += [-_ONE if t == i else _ZERO for t in range(m)]
    c = gp.cost(gp.objective)
    return LinearProgram(c, QMatrix(m, c.dim, tuple(a)), gp.rhs)


def _in_variables(gp: GeneralProgram, out: LpOutcome) -> LpOutcome:
    """A standard-form outcome with x, x0 and ray in gp's variables; y and
    farkas stay indexed by gp's rows."""
    if isinstance(out, Optimal):
        return Optimal(gp.back(out.x), out.y, out.value)
    if isinstance(out, Unbounded):
        return Unbounded(gp.back(out.x0), gp.back(out.ray))
    return out


def solve_general(gp: GeneralProgram) -> LpOutcome:
    """solve_lp on the standard form, answered in gp's variables."""
    return _in_variables(gp, solve_lp(to_standard_form(gp)))


class Region:
    """The feasible set of gp's rows after one phase I; gp's objective is
    not used. `minimize(w)` runs phase II on a copy of the stored basis,
    so every cost asked of the set shares that one phase I.
    """

    def __init__(self, gp: GeneralProgram):
        self._gp = gp
        start = phase_one(to_standard_form(gp))
        self._basis = None if isinstance(start, Infeasible) else start

    @property
    def empty(self) -> bool:
        return self._basis is None

    @property
    def point(self) -> QVector | None:
        """The basic feasible point in gp's variables, or None when empty."""
        return None if self._basis is None else self._gp.back(self._basis.x)

    def minimize(self, w: QVector) -> Optimal | Unbounded:
        """min w.x over the set, w and the answer in gp's variables."""
        require(self._basis is not None, "a minimized region is nonempty")
        return _in_variables(self._gp, phase_two(self._basis, self._gp.cost(w)))


def solve_feasibility(M: QMatrix, rhs: QVector) -> QVector | None:
    """An exact x >= 0 with Mx = rhs, or None when there is none."""
    out = solve_lp(LinearProgram(QVector.zeros(M.cols), M, rhs))
    return out.x if isinstance(out, Optimal) else None
