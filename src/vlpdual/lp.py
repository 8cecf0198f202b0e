"""Exact simplex over rationals.

The solver returns one of three fully certified outcomes: an optimal
point with equality multipliers satisfying complementary optimality, a
Farkas certificate of infeasibility, or an improving ray. Bland's rule
is used unconditionally, so pivoting terminates on every input.
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


# General form: free or lower-bounded variables and <=, >=, = rows, reduced
# to the equality standard form above with an exact back-map.

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
    """min objective.x over rows; lower[j] is the bound of x_j, None = free."""

    objective: QVector
    rows: tuple[GenRow, ...]
    lower: tuple[Fraction | None, ...]

    def __post_init__(self):
        if len(self.lower) != self.objective.dim:
            raise DimensionError("one lower bound per variable required")
        for row in self.rows:
            if row.coeffs.dim != self.objective.dim:
                raise DimensionError("row width differs from variable count")

    @property
    def n(self) -> int:
        return self.objective.dim


@dataclass(frozen=True)
class StandardizedProgram:
    lp: LinearProgram
    var_cols: tuple[tuple[int, int | None], ...]  # (positive col, negative col or None)
    shifts: tuple[Fraction, ...]
    value_shift: Fraction

    def back_point(self, x_std: QVector) -> QVector:
        out = []
        for (pos, neg), shift in zip(self.var_cols, self.shifts):
            v = x_std[pos] - (x_std[neg] if neg is not None else _ZERO)
            out.append(v + shift)
        return QVector(tuple(out))

    def back_direction(self, d_std: QVector) -> QVector:
        out = []
        for pos, neg in self.var_cols:
            out.append(d_std[pos] - (d_std[neg] if neg is not None else _ZERO))
        return QVector(tuple(out))


def to_standard_form(gp: GeneralProgram) -> StandardizedProgram:
    var_cols: list[tuple[int, int | None]] = []
    shifts: list[Fraction] = []
    col = 0
    for bound in gp.lower:
        if bound is None:
            var_cols.append((col, col + 1))
            shifts.append(_ZERO)
            col += 2
        else:
            var_cols.append((col, None))
            shifts.append(Fraction(bound))
            col += 1
    slack_cols = []
    for row in gp.rows:
        if row.rel == "=":
            slack_cols.append(None)
        else:
            slack_cols.append(col)
            col += 1
    width = col

    c_std = [_ZERO] * width
    for j, (pos, neg) in enumerate(var_cols):
        c_std[pos] = gp.objective[j]
        if neg is not None:
            c_std[neg] = -gp.objective[j]

    a_rows: list[list[Fraction]] = []
    b_std: list[Fraction] = []
    for row, slack in zip(gp.rows, slack_cols):
        line = [_ZERO] * width
        rhs = row.rhs
        for j, (pos, neg) in enumerate(var_cols):
            coeff = row.coeffs[j]
            if coeff == 0:
                continue
            line[pos] = coeff
            if neg is not None:
                line[neg] = -coeff
            if shifts[j]:  # zero for free and zero-bounded variables, the common case
                rhs -= coeff * shifts[j]
        if slack is not None:
            line[slack] = _ONE if row.rel == "<=" else -_ONE
        a_rows.append(line)
        b_std.append(rhs)

    if not a_rows:
        a_rows.append([_ZERO] * width)  # vacuous row so the equality form is well-shaped
        b_std.append(_ZERO)
    value_shift = sum((gp.objective[j] * shifts[j] for j in range(gp.n)), _ZERO)
    lp = LinearProgram(
        QVector(tuple(c_std)),
        QMatrix(len(a_rows), width, tuple(v for line in a_rows for v in line)),
        QVector(tuple(b_std)),
    )
    return StandardizedProgram(lp, tuple(var_cols), tuple(shifts), value_shift)


@dataclass(frozen=True)
class GenOptimal:
    x: QVector
    value: Fraction


@dataclass(frozen=True)
class GenInfeasible:
    std_lp: LinearProgram  # certificate is stated against this equivalent program
    farkas: QVector


@dataclass(frozen=True)
class GenUnbounded:
    x0: QVector
    ray: QVector


GenOutcome = GenOptimal | GenInfeasible | GenUnbounded


def solve_general(gp: GeneralProgram) -> GenOutcome:
    std = to_standard_form(gp)
    out = solve_lp(std.lp)
    if isinstance(out, Optimal):
        return GenOptimal(std.back_point(out.x), out.value + std.value_shift)
    if isinstance(out, Infeasible):
        return GenInfeasible(std.lp, out.farkas)
    return GenUnbounded(std.back_point(out.x0), std.back_direction(out.ray))


@dataclass(frozen=True)
class FeasibilityResult:
    point: QVector | None
    std_lp: LinearProgram | None = None
    farkas: QVector | None = None


def solve_feasibility(
    eq_matrix: QMatrix,
    eq_rhs: QVector | None,
    extra_lower_bounds: tuple[tuple[QVector, Fraction], ...] | list = (),
    *,
    free_vars: bool = False,
) -> FeasibilityResult:
    """Find x with eq_matrix x = eq_rhs and row.x >= bound for each extra row.

    Variables are nonnegative unless free_vars is set. Returns either an
    exact feasible point or a Farkas certificate for the standardized
    equality form of the system.
    """
    n = eq_matrix.cols
    rows: list[GenRow] = []
    if eq_matrix.rows:
        if eq_rhs is None or eq_rhs.dim != eq_matrix.rows:
            raise DimensionError("equality rhs must match equality rows")
        for i in range(eq_matrix.rows):
            rows.append(GenRow(eq_matrix.row(i), "=", eq_rhs[i]))
    for coeffs, bound in extra_lower_bounds:
        if coeffs.dim != n:
            raise DimensionError("extra row width differs from variable count")
        rows.append(GenRow(coeffs, ">=", Fraction(bound)))
    if not rows:
        return FeasibilityResult(QVector.zeros(n))
    gp = GeneralProgram(QVector.zeros(n), tuple(rows), (None if free_vars else _ZERO,) * n)
    out = solve_general(gp)
    if isinstance(out, GenOptimal):
        return FeasibilityResult(out.x)
    require(isinstance(out, GenInfeasible), "zero objective cannot be unbounded")
    return FeasibilityResult(None, out.std_lp, out.farkas)
