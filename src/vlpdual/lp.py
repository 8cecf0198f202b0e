"""Exact simplex over rationals.

The solver returns one of three fully certified outcomes: an optimal
point with equality multipliers satisfying complementary optimality, a
Farkas certificate of infeasibility, or an improving ray. Bland's rule
is used unconditionally, so pivoting terminates on every input.

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


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Two-phase exact simplex with certificates for all three outcomes.

    The tableau keeps one artificial column per row in both phases and
    carries the reduced-cost row last. Artificial t has reduced cost
    (its cost) - y[t], with y the simplex multipliers of the sign-adjusted
    rows, so y is read off that row: the Farkas certificate after phase I
    (cost 1), the equality multipliers after phase II (cost 0).
    """
    m, n = lp.m, lp.n
    signs = [1 if lp.b[i] >= 0 else -1 for i in range(m)]
    tab = [
        [lp.a.at(i, j) * signs[i] for j in range(n)]
        + [_ONE if t == i else _ZERO for t in range(m)]
        + [lp.b[i] * signs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]

    # Phase I: minimize the sum of the artificials. Pivoting on the basic
    # columns prices the cost row out.
    tab.append([_ZERO] * n + [_ONE] * m + [_ZERO])
    for i in range(m):
        pivot(tab, i, basis[i])
    require(_bland_simplex(tab, basis, n + m) < 0, "phase I is bounded below by zero")
    zrow = tab[m]
    if zrow[-1] != 0:
        return Infeasible(QVector(tuple(signs[t] * (_ONE - zrow[n + t]) for t in range(m))))

    # Phase II: artificials cost 0 and never enter. Zero-level artificials
    # are pivoted out; a row that is zero on the structural columns is
    # redundant and keeps its artificial basic at level 0. Pivoting on each
    # basic column prices the new cost row out.
    tab[m] = [lp.c[j] for j in range(n)] + [_ZERO] * (m + 1)
    for i in range(m):
        if basis[i] >= n:
            basis[i] = next((j for j in range(n) if tab[i][j]), basis[i])
        pivot(tab, i, basis[i])
    entering = _bland_simplex(tab, basis, n)
    structural = [(bi, tab[i]) for i, bi in enumerate(basis) if bi < n]
    if entering >= 0:
        x0 = [_ZERO] * n
        ray = [_ZERO] * n
        ray[entering] = _ONE
        for bi, row in structural:
            x0[bi] = row[-1]
            ray[bi] = -row[entering]
        return Unbounded(QVector(tuple(x0)), QVector(tuple(ray)))

    x = [_ZERO] * n
    for bi, row in structural:
        x[bi] = row[-1]
    zrow = tab[m]
    y = QVector(tuple(-signs[t] * zrow[n + t] for t in range(m)))
    return Optimal(QVector(tuple(x)), y, -zrow[-1])


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

    def back(self, v: QVector) -> QVector:
        """A standard-form point or ray as gp's variables; slacks drop."""
        if not self.free:
            return QVector(v.entries[: self.n])
        return QVector(tuple(v[2 * j] - v[2 * j + 1] for j in range(self.n)))


def to_standard_form(gp: GeneralProgram) -> LinearProgram:
    """Each inequality row gets a slack column after the variable columns,
    in row order: +1 on a <= row, -1 on a >= row."""
    c = gp.spread(gp.objective)
    cols = len(c)
    pad = [_ZERO] * sum(row.rel != "=" for row in gp.rows)
    a: list[Fraction] = []
    slack = cols
    for row in gp.rows:
        line = gp.spread(row.coeffs) + pad
        if row.rel != "=":
            line[slack] = _ONE if row.rel == "<=" else -_ONE
            slack += 1
        a += line
    return LinearProgram(
        QVector(tuple(c + pad)),
        QMatrix(len(gp.rows), cols + len(pad), tuple(a)),
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
