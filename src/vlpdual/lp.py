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
form and answers with the same three outcomes. Its standard form has
twin columns, and row operations keep every linear relation between
columns, so a general program's tableau stores only the y+ and slack
columns; `Stored` says where each standard-form column lives:

- col(y_j-) = -col(y_j+) on every constraint row, and rc(y_j-) =
  -rc(y_j+) under a cost with c(y_j-) = -c(y_j+), as `GeneralProgram.cost`
  gives (any other cost shifts rc by c_j - sign * c of the stored column);
- after phase I's sign sigma_i on row i, its artificial a_i has
  col(a_i) = -sigma_i col(s_i) on the constraint rows, with reduced cost
  rc(a_i) = 1 - sigma_i rc(s_i) in phase I and -sigma_i rc(s_i) in
  phase II, so Farkas component i and multiplier y_i are both rc(s_i).

Entering a twin is pivoting on its stored column, then negating the pivot
row when the twin's sign is -1; an artificial that re-enters in phase I
updates the cost row by its own reduced cost. The basis keeps
standard-form indices and Bland's scan runs in standard-form order, so
every basis, x, y, ray and Farkas row is the one the full tableau gives.

A general feasible set searched with many costs is a `Region`: phase I
once, then phase II per cost, answered in the program's own variables, or
from its second question on off its V-form. `solve_feasibility` asks for
a nonnegative solution of Mx = b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import (
    DimensionError, QMatrix, QVector, VertexLimitError, _ratios, _sum_of_products, pivot, polyhedron_generators, require
)

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


@dataclass(frozen=True)
class Stored:
    """Where a tableau keeps each standard-form column: standard column j,
    structural then artificial, is sign times stored column s on every
    constraint row, for (s, sign) = at[j], and stored column s is
    standard column of[s]. A tableau with no `Stored` keeps every column
    as itself."""

    at: tuple[tuple[int, int], ...]
    of: tuple[int, ...]

    def shift(self, cost: tuple[Fraction, ...]) -> list[Fraction] | None:
        """Per standard column j of a full cost vector, c_j - sign * c of
        its stored column: rc(j) is sign * rc(stored) plus this. None when
        every shift is 0, found on the costs' integer ratios."""
        pairs = _ratios(cost)
        shift = None
        for j, (s, sign) in enumerate(self.at):
            a, b = pairs[self.of[s]]
            if pairs[j] != (sign * a, b):
                shift = shift or [_ZERO] * len(self.at)
                shift[j] = cost[j] - sign * cost[self.of[s]]
        return shift


def _place(stored: Stored | None, j: int) -> tuple[int, int]:
    return (j, 1) if stored is None else stored.at[j]


def _reduced(zrow: list[Fraction], j: int, stored: Stored | None, shift: list[Fraction] | None) -> Fraction:
    """The reduced cost of standard column j, read off the stored cost row."""
    if stored is None:
        return zrow[j]
    s, sign = stored.at[j]
    rc = zrow[s] if sign > 0 else -zrow[s]
    return rc + shift[j] if shift is not None and shift[j] else rc


def _enter(tab: list[list[Fraction]], r: int, col: int, sign: int) -> None:
    """Pivot the standard column sign * (stored column col) into row r:
    the other rows are those of pivoting on col, the pivot row is negated."""
    pivot(tab, r, col)
    if sign < 0:
        tab[r] = [-e if e else e for e in tab[r]]


def _bland_simplex(
    tab: list[list[Fraction]],
    basis: list[int],
    width: int,
    stored: Stored | None = None,
    shift: list[Fraction] | None = None,
) -> int:
    """Run simplex to optimality; returns -1, or the entering column if unbounded.

    tab holds one row per basis entry followed by the reduced-cost row,
    which every pivot updates with the constraint rows. Entering: smallest
    standard-form index below width with negative reduced cost. Leaving:
    smallest basic variable index among the minimum-ratio rows. Both
    choices are Bland's rule, which rules out cycling. A column whose
    reduced cost is shifted from its stored column's updates the cost row
    by the shift times the new pivot row, after the stored column's pivot.
    """
    m = len(basis)
    while True:
        zrow = tab[m]
        entering = -1
        for j in range(width):
            if (zrow[j] if stored is None else _reduced(zrow, j, stored, shift)) < 0:
                entering = j
                break
        if entering < 0:
            return -1
        col, sign = _place(stored, entering)
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            t = tab[i][col]
            if sign < 0:
                t = -t
            if t > 0:
                ratio = tab[i][-1] / t
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return entering
        _enter(tab, leave, col, sign)
        if shift is not None and shift[entering]:
            step, row = shift[entering], tab[leave]
            tab[m] = [a - step * b if b else a for a, b in zip(tab[m], row)]
        basis[leave] = entering


@dataclass(frozen=True)
class Basis:
    """A feasible simplex tableau after phase I, with every zero-level
    artificial that can leave pivoted out.

    One row per equality row of the program, each ending in the basic
    level; a standard-form program's rows keep their artificial columns,
    a general program's rows keep the columns `stored` names. `pivot`
    replaces rows and never edits them, so phase II works on a shallow
    copy and a Basis is never changed by the solves made from it.
    """

    n: int  # structural columns of the standard form
    rows: tuple[list[Fraction], ...]
    basis: tuple[int, ...]  # standard-form column indices
    signs: tuple[int, ...]  # the sign each row was multiplied by so its rhs is >= 0
    stored: Stored | None = None

    @property
    def x(self) -> QVector:
        """The basic feasible point."""
        return QVector(tuple(_basic_levels(self.rows, self.basis, self.n, -1)))

    @cached_property
    def columns(self) -> list[list[tuple[int, int]] | None]:
        """The tableau's columns for phase II's pricing, taken once."""
        basic = set(self.basis)
        if self.stored is not None:
            basic = {s for s, j in enumerate(self.stored.of) if j in basic}
        return _ratio_columns(self.rows, basic)


def _ratio_columns(rows, unit: set[int]) -> list[list[tuple[int, int]] | None]:
    """Every tableau column, rhs last, as (numerator, denominator) over the
    rows; None on a column in unit, a basic unit column whose reduced cost
    is always 0."""
    ratios = [_ratios(row) for row in rows]
    return [None if j in unit else [row[j] for row in ratios] for j in range(len(rows[0]))]


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


def phase_one(program: LinearProgram | GeneralProgram) -> Basis | Infeasible:
    """Minimize the sum of the artificials; a Basis of the program's
    feasible set in its standard form, or the Farkas certificate when the
    minimum is positive.

    The tableau of a standard-form program keeps one artificial column per
    row; a general program's keeps the y+ and slack columns of
    `to_standard_form`'s rows. The reduced-cost row is carried last.
    Artificial t has reduced cost 1 - y[t], with y the simplex multipliers
    of the sign-adjusted rows, so the certificate is read off that row.
    """
    general = isinstance(program, GeneralProgram)
    lp = to_standard_form(program) if general else program
    m, n = lp.m, lp.n
    signs = tuple(1 if lp.b[i] >= 0 else -1 for i in range(m))
    basis = [n + i for i in range(m)]
    if general:
        g = program.n
        kept = tuple(range(0, 2 * g, 2)) + tuple(range(2 * g, n))
        twins = tuple((j // 2, 1 - 2 * (j % 2)) for j in range(2 * g)) + tuple((g + i, 1) for i in range(m))
        stored = Stored(twins + tuple((g + i, -signs[i]) for i in range(m)), kept)
        tab = [[lp.a.at(i, j) * signs[i] for j in kept] + [lp.b[i] * signs[i]] for i in range(m)]
        shift = stored.shift((_ZERO,) * n + (_ONE,) * m)
        unit: set[int] = set()
    else:
        stored = shift = None
        tab = [
            [lp.a.at(i, j) * signs[i] for j in range(n)]
            + [_ONE if t == i else _ZERO for t in range(m)]
            + [lp.b[i] * signs[i]]
            for i in range(m)
        ]
        unit = set(basis)
    # Cost 1 on every artificial, each basic in its own row.
    tab.append(_priced(_ratio_columns(tab, unit), [(-1, 1)] * m, ()))
    require(_bland_simplex(tab, basis, n + m, stored, shift) < 0, "phase I is bounded below by zero")
    zrow = tab.pop()
    if zrow[-1] != 0:
        return Infeasible(QVector(tuple(signs[t] * (_ONE - _reduced(zrow, n + t, stored, shift)) for t in range(m))))
    # Zero-level artificials are pivoted out; a row that is zero on the
    # structural columns is redundant and keeps its artificial basic at 0.
    for i in range(m):
        if basis[i] >= n:
            j = next((j for j in range(n) if tab[i][_place(stored, j)[0]]), None)
            if j is not None:
                _enter(tab, i, *_place(stored, j))
                basis[i] = j
    return Basis(n, tuple(tab), tuple(basis), signs, stored)


def phase_two(start: Basis, c: QVector) -> Optimal | Unbounded:
    """Minimize c.x from a phase-I basis, on a copy of its tableau.

    Artificials cost 0 and never enter. Artificial t's reduced cost is
    -y[t], so the equality multipliers are read off the priced row.
    """
    n, m, stored = start.n, len(start.basis), start.stored
    if c.dim != n:
        raise DimensionError(f"objective dim {c.dim} != column count {n}")
    tab = list(start.rows)
    basis = list(start.basis)
    cost, shift = c.entries, None
    if stored is not None:
        cost, shift = tuple(c[j] for j in stored.of), stored.shift(c.entries + (_ZERO,) * m)
    tab.append(_priced(start.columns, _ratios(-c[b] if b < n else _ZERO for b in start.basis), cost))
    entering = _bland_simplex(tab, basis, n, stored, shift)
    x = _basic_levels(tab, basis, n, -1)
    if entering >= 0:
        col, sign = _place(stored, entering)
        levels = _basic_levels(tab, basis, n, col)
        ray = [-e for e in levels] if sign > 0 else levels
        ray[entering] = _ONE
        return Unbounded(QVector(tuple(x)), QVector(tuple(ray)))
    zrow = tab[m]
    y = QVector(tuple(-start.signs[t] * _reduced(zrow, n + t, stored, shift) for t in range(m)))
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

    A caller marks each question to a nonempty region with `ask()` and
    answers it by `extreme(w)`: the first by phase II, the second and later
    ones off the V-form that the second builds, with no LP. A V-form over
    `VERTEX_LIMIT` is given up, and the region stays on phase II.

    An empty region keeps phase I's Farkas row as `farkas`, indexed by gp's
    rows: f >= 0 with rows^T f = 0 and rhs.f > 0; else it is None.
    """

    def __init__(self, gp: GeneralProgram):
        self._gp = gp
        start = phase_one(gp)
        self._basis = None if isinstance(start, Infeasible) else start
        self.farkas = start.farkas if isinstance(start, Infeasible) else None
        require(self.empty or (gp.rows @ self.point - gp.rhs).is_nonneg(), "phase I's point satisfies every row")
        self._questions = 0
        self._form: tuple[list[QVector], list[QVector], tuple[QVector, ...]] | None = None

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

    def v_form(self) -> tuple[list[QVector], list[QVector], tuple[QVector, ...]]:
        """The vertices, extreme rays and a lineality basis of the set, from
        gp's rows and rhs; no vertex exactly when phase I found it empty."""
        vertices, rays, lineality = polyhedron_generators(self._gp.rows, self._gp.rhs)
        require(bool(vertices) != self.empty, "a region has a vertex exactly when phase I found a point")
        return vertices, rays, lineality

    def ask(self) -> None:
        """Count one question on a nonempty region; the second builds the V-form."""
        self._questions += 1
        if self._questions == 2:
            try:
                self._form = self.v_form()
            except VertexLimitError:
                pass

    def extreme(self, w: QVector) -> tuple[QVector, Fraction, QVector | None]:
        """A point of the set, w there, and a direction of the set along
        which w falls; the direction is None exactly when the point
        minimizes w.

        From the V-form: the first vertex of least w, and the first extreme
        ray, or signed lineality vector, with w < 0 on it. Else phase II:
        its optimum, or its feasible start and unbounded ray.
        """
        if self._form is None:
            out = self.minimize(w)
            if isinstance(out, Optimal):
                return out.x, out.value, None
            return out.x0, w.dot(out.x0), out.ray
        vertices, rays, lineality = self._form
        values = [w.dot(v) for v in vertices]
        low = min(values)
        down = next((r for r in rays if w.dot(r) < 0), None)
        if down is None:
            down = next((u if w.dot(u) < 0 else -u for u in lineality if w.dot(u)), None)
        return vertices[values.index(low)], low, down


def solve_feasibility(M: QMatrix, rhs: QVector) -> QVector | None:
    """An exact x >= 0 with Mx = rhs, or None when there is none."""
    out = solve_lp(LinearProgram(QVector.zeros(M.cols), M, rhs))
    return out.x if isinstance(out, Optimal) else None
