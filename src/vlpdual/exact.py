"""Exact rational scalars, vectors, and dense matrices.

Everything downstream (simplex pivoting, cone membership, duality
identities) runs on arbitrary-precision rationals, so every certified
identity is bit-exact rather than true up to a tolerance. Storage is
dense on purpose: instances are desk-scale.

`pivot`, one Gauss-Jordan step on a list of rows, is the package's only
elimination kernel: the simplex tableau in `lp`, `solve_linear_system`
and `QMatrix.rank` all reduce through it.

`extreme_rays`, the only double-description kernel, gives the primal
vertices, and through `polyhedron_generators` (H-form to V-form) a cone's
facets and the V-form of any `lp.Region`. A cut that would compare more
than `VERTEX_LIMIT` ray pairs raises `VertexLimitError`.

`QVector.dot` and every `QMatrix @` product share one product kernel,
`_sum_of_products`: it adds the products of numerators over one running
integer denominator and builds a single reduced `Fraction` per result,
instead of normalizing a `Fraction` after every term. The values are
exactly those of the term-by-term sum. A vector's entries, and a matrix's
rows, are taken as (numerator, denominator) pairs once, on first use, and
kept with the object (`kept`), so a long-lived vector such as a cone
generator or a sampled lam is not taken apart again for every product.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionError(ValueError):
    """Shapes of the operands do not conform."""


class CertificateError(RuntimeError):
    """An identity the package certifies failed to hold exactly."""


def require(condition: bool, what: str) -> None:
    """Always-on certificate check: raise CertificateError unless condition
    holds. Unlike `assert`, it survives `python -O`."""
    if not condition:
        raise CertificateError(what)


# ASCII digits and no underscores: int() alone also takes "1_000" and "１".
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)\s*(?:/\s*([+-]?[0-9]+)\s*)?")


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse "p", "-p" or "p/q" into lowest terms with the sign on the
    numerator. Plain ints pass through; floats and q = 0 are rejected."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and (match := _RATIONAL.fullmatch(value)):
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):  # q = 0, or more digits than int() converts
            pass
    raise ValueError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class kept:
    """A value derived from an immutable object on first use and stored in
    its instance `__dict__`, where later reads find it without calling the
    descriptor; dataclass equality, hashing and repr never see it. This is
    `functools.cached_property` without the lock that Python 3.11 takes on
    every first use, which on a fresh short vector costs about as much as
    the pairs it saves."""

    def __init__(self, derive):
        self.derive = derive
        self.name = derive.__name__
        self.__doc__ = derive.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.derive(obj)
        return value


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

    @kept
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(numerator, denominator) of each entry."""
        return tuple(_ratios(self.entries))

    def dot(self, other: QVector) -> Fraction:
        self._check_dim(other)
        return _sum_of_products(self.pairs, other.pairs)

    def is_nonneg(self) -> bool:
        return all(a >= 0 for a in self.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(format_rational(a) for a in self.entries) + ")"


def _ratios(values) -> list[tuple[int, int]]:
    """(numerator, denominator) of each entry; ints pass as n/1."""
    return [(v.numerator, v.denominator) for v in values]


def _sum_of_products(xs: list[tuple[int, int]], ys: list[tuple[int, int]]) -> Fraction:
    """sum(x * y) over pairs of ratios, as one reduced Fraction.

    The running sum is num/den with den a product of term denominators;
    a term whose denominator divides den is scaled up to it, any other
    multiplies den by its own. Zero terms are skipped.
    """
    num, den = 0, 1
    for (a, b), (c, d) in zip(xs, ys):
        p = a * c
        if not p:
            continue
        q = b * d
        if q == den:
            num += p
        elif den % q == 0:
            num += p * (den // q)
        else:
            num = num * q + p * den
            den *= q
    return Fraction(num, den)


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
            return QVector(self._products([other.pairs]))
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise DimensionError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            return QMatrix(self.rows, other.cols, self._products(other.column_pairs))
        return NotImplemented

    @kept
    def row_pairs(self) -> list[list[tuple[int, int]]]:
        """Each row's entries as (numerator, denominator) pairs."""
        width = self.cols
        return [_ratios(self.entries[i * width : (i + 1) * width]) for i in range(self.rows)]

    @kept
    def column_pairs(self) -> list[list[tuple[int, int]]]:
        """Each column's entries as (numerator, denominator) pairs."""
        return [_ratios(self.entries[j :: self.cols]) for j in range(self.cols)]

    def _products(self, cols) -> tuple[Fraction, ...]:
        """Every row times every column (each as pairs), row-major."""
        return tuple(_sum_of_products(row, col) for row in self.row_pairs for col in cols)

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


VERTEX_LIMIT = 100_000  # most ray pairs one cut of extreme_rays compares


class VertexLimitError(ValueError):
    """Raised when one cut of `extreme_rays` would compare more than VERTEX_LIMIT ray pairs."""


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
