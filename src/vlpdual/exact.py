"""Exact rational scalars, vectors, and dense matrices.

Everything downstream (simplex pivoting, cone membership, duality
identities) runs on arbitrary-precision rationals, so every certified
identity is bit-exact rather than true up to a tolerance. Storage is
dense on purpose: instances are desk-scale.

`pivot`, one Gauss-Jordan step on a list of rows, is the package's only
elimination kernel: the simplex tableau in `lp`, `solve_linear_system`
and `QMatrix.rank` all reduce through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class DimensionError(ValueError):
    """Shapes of the operands do not conform."""


class CertificateError(RuntimeError):
    """An identity the package certifies failed to hold exactly."""


def require(condition: bool, what: str) -> None:
    """Always-on certificate check: raise CertificateError unless condition
    holds. Unlike `assert`, it survives `python -O`."""
    if not condition:
        raise CertificateError(what)


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse "p", "-p" or "p/q" into lowest terms with the sign on the
    numerator. Plain ints pass through; floats and q = 0 are rejected."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        num, sep, den = text.partition("/")
        try:
            if sep:
                return Fraction(int(num), int(den))
            return Fraction(int(num))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"not a rational: {value!r}") from None
    raise ValueError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class QVector:
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.entries:
            raise DimensionError("vector needs at least one entry")

    @classmethod
    def zeros(cls, dim: int) -> QVector:
        return cls((Fraction(0),) * dim)

    @classmethod
    def unit(cls, dim: int, index: int) -> QVector:
        return cls(tuple(Fraction(1 if j == index else 0) for j in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> Fraction:
        return self.entries[index]

    def _check_dim(self, other: QVector):
        if self.dim != other.dim:
            raise DimensionError(f"vector dims differ: {self.dim} vs {other.dim}")

    def __add__(self, other: QVector) -> QVector:
        self._check_dim(other)
        return QVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: QVector) -> QVector:
        self._check_dim(other)
        return QVector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> QVector:
        return QVector(tuple(-a for a in self.entries))

    def scale(self, factor: Fraction | int) -> QVector:
        f = Fraction(factor)
        return QVector(tuple(f * a for a in self.entries))

    def dot(self, other: QVector) -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def is_nonneg(self) -> bool:
        return all(a >= 0 for a in self.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(format_rational(a) for a in self.entries) + ")"


def qvec(*values: int | str | Fraction) -> QVector:
    return QVector(tuple(parse_rational(v) for v in values))


@dataclass(frozen=True)
class QMatrix:
    rows: int
    cols: int
    entries: tuple[Fraction, ...]  # row-major

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows) -> QMatrix:
        row_list = [tuple(parse_rational(v) for v in r) for r in rows]
        if not row_list:
            raise DimensionError("matrix needs at least one row (use zeros for placeholders)")
        width = len(row_list[0])
        for i, r in enumerate(row_list):
            if len(r) != width:
                raise DimensionError(f"row {i} has {len(r)} entries, expected {width}")
        return cls(len(row_list), width, tuple(v for r in row_list for v in r))

    @classmethod
    def identity(cls, n: int) -> QMatrix:
        return cls(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> QMatrix:
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> QVector:
        return QVector(self.entries[i * self.cols : (i + 1) * self.cols])

    def col(self, j: int) -> QVector:
        return QVector(tuple(self.entries[i * self.cols + j] for i in range(self.rows)))

    @property
    def T(self) -> QMatrix:
        return QMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other: QMatrix) -> QMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix shapes differ")
        return QMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: QMatrix) -> QMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix shapes differ")
        return QMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> QMatrix:
        return QMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, factor: Fraction | int) -> QMatrix:
        f = Fraction(factor)
        return QMatrix(self.rows, self.cols, tuple(f * a for a in self.entries))

    def __matmul__(self, other: QMatrix | QVector):
        if isinstance(other, QVector):
            if self.cols != other.dim:
                raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by vector of dim {other.dim}")
            return QVector(self._products([other.entries]))
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise DimensionError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            cols = [other.entries[j :: other.cols] for j in range(other.cols)]
            return QMatrix(self.rows, other.cols, self._products(cols))
        return NotImplemented

    def _products(self, cols: list[tuple[Fraction, ...]]) -> tuple[Fraction, ...]:
        """Every row times every column, row-major."""
        width = self.cols
        rows = [self.entries[i * width : (i + 1) * width] for i in range(self.rows)]
        return tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for row in rows for col in cols)

    def rank(self) -> int:
        return len(row_reduce(self.to_lists(), self.cols))

    def to_lists(self) -> list[list[Fraction]]:
        return [[self.at(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def __str__(self) -> str:
        return "[" + "; ".join(str(self.row(i)) for i in range(self.rows)) + "]"


def qmat(rows) -> QMatrix:
    return QMatrix.from_rows(rows)


def outer(u: QVector, v: QVector) -> QMatrix:
    """Rank-one matrix u v^T."""
    return QMatrix(u.dim, v.dim, tuple(a * b for a in u for b in v))


def pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """One Gauss-Jordan step: scale row r so that rows[r][c] is 1, then clear
    column c from every other row. Rows are replaced, not edited in place."""
    pr = rows[r]
    pv = pr[c]
    if pv != 1:
        pr = [e / pv if e else e for e in pr]
        rows[r] = pr
    for i, row in enumerate(rows):
        f = row[c]
        if i == r or not f:
            continue
        # +-1 factors and zero pivot-row entries dominate in practice, so
        # they skip the rational multiply.
        if f == 1:
            rows[i] = [a - b if b else a for a, b in zip(row, pr)]
        elif f == -1:
            rows[i] = [a + b if b else a for a, b in zip(row, pr)]
        else:
            rows[i] = [a - f * b if b else a for a, b in zip(row, pr)]


def row_reduce(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Bring rows to reduced row echelon form on their first ncols columns.

    Returns the pivot columns: row i has its leading one in column
    result[i], and the rows past len(result) are zero on all ncols columns.
    """
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        pivot(rows, r, c)
        pivots.append(c)
    return pivots


@dataclass(frozen=True)
class LinearSolution:
    particular: QVector
    nullspace: tuple[QVector, ...]


def solve_linear_system(m: QMatrix, rhs: QVector) -> LinearSolution | None:
    """Solve m x = rhs exactly.

    Returns a particular solution (free variables pinned to zero) together
    with a basis of the homogeneous solution space, or None when the system
    is inconsistent.
    """
    if m.rows != rhs.dim:
        raise DimensionError(f"matrix has {m.rows} rows but rhs has dim {rhs.dim}")
    n = m.cols
    rows = [[m.at(i, j) for j in range(n)] + [rhs[i]] for i in range(m.rows)]
    pivots = row_reduce(rows, n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    particular = [Fraction(0)] * n
    for ri, ci in enumerate(pivots):
        particular[ci] = rows[ri][n]
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for ri, ci in enumerate(pivots):
            vec[ci] = -rows[ri][free]
        basis.append(QVector(tuple(vec)))
    return LinearSolution(QVector(tuple(particular)), tuple(basis))
