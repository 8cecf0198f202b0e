"""Test-side oracles, independent of the solver code paths they check."""

import itertools
from fractions import Fraction

from vlpdual.cone import multiplier
from vlpdual.exact import QMatrix, QVector, solve_linear_system


def brute_vertices(a: QMatrix, b: QVector) -> list[QVector]:
    """Basic feasible solutions of {x >= 0 : a x = b} by subset enumeration."""
    r = a.rank()
    if r == 0:
        return [QVector.zeros(a.cols)] if b.is_zero() else []
    out, seen = [], set()
    for cols in itertools.combinations(range(a.cols), r):
        sub = QMatrix(a.rows, r, tuple(a.at(i, j) for i in range(a.rows) for j in cols))
        sol = solve_linear_system(sub, b)
        if sol is None or sol.nullspace or not sol.particular.is_nonneg():
            continue
        full = [Fraction(0)] * a.cols
        for pos, j in enumerate(cols):
            full[j] = sol.particular[pos]
        key = tuple(full)
        if key not in seen:
            seen.add(key)
            out.append(QVector(key))
    return out


def lam_z_stack(problem) -> QMatrix:
    return QMatrix(problem.k + problem.m, problem.n, problem.L.entries + (-problem.A).entries)  # [L; -A]


def _append_column(m: QMatrix, col: QVector) -> QMatrix:
    entries = tuple(v for i in range(m.rows) for v in m.row(i).entries + (col[i],))
    return QMatrix(m.rows, m.cols + 1, entries)


def reference_membership(problem, d: QVector, relaxed: bool) -> tuple[QVector, QVector] | None:
    """(lam, z) from one LP over P = {lam.g >= 1, L^T lam - A^T z >= 0}
    with the probe as one more row: lam.d - b.z = 0 for hB, or
    b.z - lam.d >= 0 for hL (relaxed). None when the system is empty."""
    f = QVector(tuple(d.entries) + tuple((-problem.b).entries))
    stack = lam_z_stack(problem)
    if relaxed:  # -f as one more column of [L; -A]: the row -f.(lam, z) >= 0
        point = multiplier(problem.cone, _append_column(stack, -f))
    else:
        point = multiplier(problem.cone, stack, eq=f)
    if point is None:
        return None
    return QVector(point.entries[: problem.k]), QVector(point.entries[problem.k :])


def reference_dual_point(problem) -> tuple[QVector, QVector] | None:
    """(lam, z) of P from `multiplier(cone, [L; -A])` alone."""
    point = multiplier(problem.cone, lam_z_stack(problem))
    if point is None:
        return None
    return QVector(point.entries[: problem.k]), QVector(point.entries[problem.k :])
