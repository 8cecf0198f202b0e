"""Test-side oracles, independent of the solver code paths they check."""

import itertools
from fractions import Fraction

from vlpdual.cone import domination_program, in_quasi_interior, multiplier, multiplier_program
from vlpdual.duality import scaled_generator
from vlpdual.exact import DimensionError, QMatrix, QVector, outer, pivot, solve_linear_system
from vlpdual.lp import (
    Basis,
    GeneralProgram,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    _basic_levels,
    _bland_simplex,
    solve_general,
    solve_lp,
)
from vlpdual.model import DualCandidateD
from vlpdual.sampling import random_rational, random_vector, sample_quasi_interior


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


def orthogonal_complement(rows: tuple[QVector, ...], dim: int) -> tuple[QVector, ...]:
    """A basis of the vectors orthogonal to every row."""
    if not rows:
        return tuple(QVector.unit(dim, i) for i in range(dim))
    matrix = QMatrix(len(rows), dim, tuple(e for r in rows for e in r))
    return solve_linear_system(matrix, QVector.zeros(len(rows))).nullspace


def brute_facets(cone) -> tuple[QVector, ...]:
    """The cone's normals by subset enumeration: both signs of a basis of
    the generators' orthogonal complement, of dimension dim - d, then one
    normal per (d - 1)-subset of generators whose complement in the span
    is a line, kept when no two generators lie on opposite sides of it."""
    off_span = orthogonal_complement(cone.generators, cone.dim)
    normals = [h for u in off_span for h in (u, -u)]
    for subset in itertools.combinations(cone.generators, cone.dim - len(off_span) - 1):
        line = orthogonal_complement(subset + off_span, cone.dim)
        if len(line) != 1:
            continue
        h = line[0]
        if any(h.dot(g) < 0 for g in cone.generators):
            h = -h
        if any(h.dot(g) < 0 for g in cone.generators) or h in normals:
            continue
        normals.append(h)
    return tuple(normals)


def orthogonal_basis(lam: QVector) -> list[QVector]:
    """Basis of the hyperplane lam.v = 0 by the explicit formula: e_j with
    -lam[j]/lam[p] at the first nonzero index p, for every j != p."""
    pivot = next(i for i, e in enumerate(lam) if e != 0)
    basis = []
    for j in range(lam.dim):
        if j == pivot:
            continue
        vec = [Fraction(0)] * lam.dim
        vec[j] = Fraction(1)
        vec[pivot] = -lam[j] / lam[pivot]
        basis.append(QVector(tuple(vec)))
    return basis


def lam_z_stack(problem) -> QMatrix:
    return QMatrix(problem.k + problem.m, problem.n, problem.L.entries + (-problem.A).entries)  # [L; -A]


def _multiplier_with_equality(cone, M: QMatrix, eq: QVector) -> QVector | None:
    """`multiplier(cone, M)` with lam.eq = 0, as the rows lam.eq >= 0 and
    -lam.eq >= 0, placed first; None when the system is empty."""
    gp = multiplier_program(cone, M)
    rows = QMatrix(gp.rows.rows + 2, gp.n, eq.entries + (-eq).entries + gp.rows.entries)
    out = solve_general(GeneralProgram(gp.objective, rows, QVector((Fraction(0),) * 2 + gp.rhs.entries)))
    return out.x if isinstance(out, Optimal) else None


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
        point = _multiplier_with_equality(problem.cone, stack, f)
    if point is None:
        return None
    return QVector(point.entries[: problem.k]), QVector(point.entries[problem.k :])


def reference_scalarization(problem, xbar: QVector) -> tuple[QVector, QVector] | None:
    """(lam, eta) from one LP over the multiplier system lam.g >= 1,
    L^T lam + A^T eta >= 0, lam.(L xbar) + b.eta = 0; None when empty."""
    stacked = QMatrix(problem.k + problem.m, problem.n, problem.L.entries + problem.A.entries)  # [L; A]
    eq = QVector((problem.L @ xbar).entries + problem.b.entries)
    point = _multiplier_with_equality(problem.cone, stacked, eq)
    if point is None:
        return None
    return QVector(point.entries[: problem.k]), QVector(point.entries[problem.k :])


def reference_gamma(problem, U: QMatrix, vbar: QVector) -> QVector | None:
    """gamma from one LP over gamma.g >= 1, (L - UA)^T gamma >= 0,
    gamma.vbar = 0; None when empty."""
    return _multiplier_with_equality(problem.cone, problem.L - (U @ problem.A), vbar)


def reference_value_member(problem, U: QMatrix, d: QVector) -> str:
    """Whether d = Ub + w for a minimal value w of the reduced image cone,
    from the domination program over L - UA at target d - Ub: "member",
    "not a member: positive optimum" or "not a member: empty program".
    Sound only for U feasible in the H sense, which keeps it bounded."""
    out = solve_lp(domination_program(problem.cone, problem.L - (U @ problem.A), d - (U @ problem.b)))
    if isinstance(out, Infeasible):
        return "not a member: empty program"
    assert isinstance(out, Optimal), "a feasible U keeps the domination program bounded"
    return "member" if out.value == 0 else "not a member: positive optimum"


def reference_max_domination(cone, M: QMatrix, start: QVector, fixed=None) -> Fraction:
    """max sum(mu) of the domination program at target M start, with the
    row sum(x) + sum(mu) <= 1 + sum(start) appended to keep it bounded; at
    start = 0 this is the normalized homogeneous program. (start, 0) is
    feasible, and the segment from it to any point with sum(mu) > 0 enters
    the bounded set, so the maximum is 0 exactly when no feasible x has Mx
    strictly below M start."""
    lp = domination_program(cone, M, M @ start, fixed)
    # the bound row, with its own slack column: sum(x) + sum(mu) + s = 1 + sum(start)
    widened = _append_column(lp.a, QVector.zeros(lp.m))
    a = QMatrix(lp.m + 1, lp.n + 1, widened.entries + (Fraction(1),) * (lp.n + 1))
    c, b = QVector(lp.c.entries + (Fraction(0),)), QVector(lp.b.entries + (1 + sum(start.entries),))
    out = solve_lp(LinearProgram(c, a, b))
    assert isinstance(out, Optimal), "the normalized program is bounded and feasible at (start, 0)"
    return -out.value


def reference_phase_one(lp):
    """Phase I that prices its cost row by pivoting on every artificial
    column, then runs the same simplex loop and pivots artificials out."""
    m, n = lp.m, lp.n
    zero, one = Fraction(0), Fraction(1)
    signs = tuple(1 if lp.b[i] >= 0 else -1 for i in range(m))
    tab = [
        [lp.a.at(i, j) * signs[i] for j in range(n)] + [one if t == i else zero for t in range(m)] + [lp.b[i] * signs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    tab.append([zero] * n + [one] * m + [zero])
    for i in range(m):
        pivot(tab, i, basis[i])
    assert _bland_simplex(tab, basis, n + m) < 0
    zrow = tab.pop()
    if zrow[-1] != 0:
        return Infeasible(QVector(tuple(signs[t] * (one - zrow[n + t]) for t in range(m))))
    for i in range(m):
        if basis[i] >= n:
            j = next((j for j in range(n) if tab[i][j]), None)
            if j is not None:
                pivot(tab, i, j)
                basis[i] = j
    return Basis(n, tuple(tab), tuple(basis), signs)


def reference_phase_two(start, c: QVector):
    """Phase II that prices the cost row by pivoting on every basic column
    of a copy of start's tableau, then runs the same simplex loop."""
    n, m = start.n, len(start.basis)
    tab = list(start.rows)
    basis = list(start.basis)
    tab.append([c[j] for j in range(n)] + [Fraction(0)] * (m + 1))
    for i in range(m):
        pivot(tab, i, basis[i])
    entering = _bland_simplex(tab, basis, n)
    x = QVector(tuple(_basic_levels(tab, basis, n, -1)))
    if entering >= 0:
        ray = [-e for e in _basic_levels(tab, basis, n, entering)]
        ray[entering] = Fraction(1)
        return Unbounded(x, QVector(tuple(ray)))
    zrow = tab[m]
    y = QVector(tuple(-start.signs[t] * zrow[n + t] for t in range(m)))
    return Optimal(x, y, -zrow[-1])


def reference_dual_point(problem) -> tuple[QVector, QVector] | None:
    """(lam, z) of P from `multiplier(cone, [L; -A])` alone."""
    point = multiplier(problem.cone, lam_z_stack(problem))
    if point is None:
        return None
    return QVector(point.entries[: problem.k]), QVector(point.entries[problem.k :])


def reference_sample_dual_points(problem, rng, count: int, polyhedron) -> list:
    """`sample_dual_points` with one `solve_general` per sample: every z
    comes from a fresh two-phase solve of {z : L^T lam - A^T z >= 0}."""
    seeded = polyhedron.dual_point()
    if seeded is None:
        return []
    out = [seeded]
    lams = sample_quasi_interior(rng, problem.cone, max(4, count // 8))
    attempts = 0
    while len(out) < count and attempts < 4 * count:
        attempts += 1
        lam = lams[rng.randrange(len(lams))]
        columns = range(problem.n)
        rows = QMatrix(problem.n, problem.m, tuple(-problem.A.at(i, j) for j in columns for i in range(problem.m)))
        bounds = (sum((problem.L.at(i, j) * lam[i] for i in range(problem.k)), Fraction(0)) for j in columns)
        rhs = QVector(tuple(-v for v in bounds))
        solved = solve_general(GeneralProgram(random_vector(rng, problem.m, -3, 3), rows, rhs))
        if isinstance(solved, Optimal):
            z = solved.x
        elif isinstance(solved, Unbounded):
            z = solved.x0
        else:
            continue
        U = outer(scaled_generator(problem.cone, lam), z)
        if rng.random() < 0.5:
            w = QVector.zeros(problem.k)
            for vec in orthogonal_basis(lam):
                w = w + vec.scale(random_rational(rng, -3, 3))
            U = U + outer(w, random_vector(rng, problem.m, -3, 3))
        v = QVector.zeros(problem.k)
        for vec in orthogonal_basis(lam):
            v = v + vec.scale(random_rational(rng, -4, 4))
        out.append(DualCandidateD(lam, U, v))
    return out


# The dual feasibility checks as first written, over the reduced map L - UA
# for D and D^J; `vlpdual.checks` tests (lam, z = U^T lam) instead.

def reduced_map_feasible_D(problem, cand) -> bool:
    if cand.lam.dim != problem.k or cand.v.dim != problem.k:
        raise DimensionError("candidate dims do not match the problem")
    if not in_quasi_interior(problem.cone, cand.lam):
        return False
    if cand.lam.dot(cand.v) != 0:
        return False
    return ((problem.L - (cand.U @ problem.A)).T @ cand.lam).is_nonneg()


def reduced_map_feasible_J(problem, cand) -> bool:
    if cand.lam.dim != problem.k:
        raise DimensionError("candidate dims do not match the problem")
    if not in_quasi_interior(problem.cone, cand.lam):
        return False
    return ((problem.L - (cand.U @ problem.A)).T @ cand.lam).is_nonneg()


def reduced_map_feasible_L(problem, cand) -> bool:
    if cand.lam.dim != problem.k or cand.z.dim != problem.m or cand.v.dim != problem.k:
        raise DimensionError("candidate dims do not match the problem")
    if not in_quasi_interior(problem.cone, cand.lam):
        return False
    if cand.lam.dot(cand.v) - cand.z.dot(problem.b) > 0:
        return False
    return ((problem.L.T @ cand.lam) - (problem.A.T @ cand.z)).is_nonneg()
