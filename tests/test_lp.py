import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import brute_vertices
from vlpdual.exact import DimensionError, QMatrix, QVector, qmat, qvec
from vlpdual.lp import (
    Basis,
    GeneralProgram,
    GenRow,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    phase_one,
    phase_two,
    solve_feasibility,
    solve_general,
    solve_lp,
    to_standard_form,
    verify_farkas,
    verify_outcome,
)
from vlpdual.sampling import random_rational


def test_optimal_simple():
    lp = LinearProgram(qvec(1, 0), qmat([[1, 1]]), qvec(1))
    out = solve_lp(lp)
    assert isinstance(out, Optimal)
    assert out.x == qvec(0, 1)
    assert out.value == 0
    assert verify_outcome(lp, out)


def test_infeasible_simple():
    lp = LinearProgram(qvec(0, 0), qmat([[1, 1]]), qvec(-1))
    out = solve_lp(lp)
    assert isinstance(out, Infeasible)
    f = out.farkas
    assert (lp.a.T @ f).entries[0] <= 0 and (lp.a.T @ f).entries[1] <= 0
    assert lp.b.dot(f) > 0


def test_unbounded_simple():
    lp = LinearProgram(qvec(-1, 0), qmat([[1, -1]]), qvec(0))
    out = solve_lp(lp)
    assert isinstance(out, Unbounded)
    assert out.ray[0] == out.ray[1] > 0
    assert verify_outcome(lp, out)


def test_redundant_rows_kept():
    # duplicated constraint: solvable, duals defined for both rows
    lp = LinearProgram(qvec(1, 1), qmat([[1, 1], [1, 1]]), qvec(1, 1))
    out = solve_lp(lp)
    assert isinstance(out, Optimal)
    assert verify_outcome(lp, out)


def test_inconsistent_redundancy_is_infeasible():
    lp = LinearProgram(qvec(0, 0), qmat([[1, 1], [1, 1]]), qvec(1, 2))
    out = solve_lp(lp)
    assert isinstance(out, Infeasible)
    assert verify_outcome(lp, out)


def test_sign_mixed_duplicate_rows():
    # the second row is the negation of the first: redundant after the
    # internal sign flip, and the duals must map back through both signs
    lp = LinearProgram(qvec(3, 1), qmat([[1, 1], [-1, -1]]), qvec(1, -1))
    out = solve_lp(lp)
    assert isinstance(out, Optimal)
    assert out.x == qvec(0, 1) and out.value == 1
    assert verify_outcome(lp, out)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_redundant_rows_do_not_change_the_optimum(seed):
    # Three extra rows are combinations of two independent base rows, placed
    # in random order: their artificials stay basic at level 0.
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    c = QVector(tuple(random_rational(rng) for _ in range(n)))
    base = [[random_rational(rng) for _ in range(n)] for _ in range(2)]
    a1 = qmat(base)
    assume(a1.rank() == 2)
    x0 = QVector(tuple(abs(random_rational(rng)) for _ in range(n)))
    b1 = a1 @ x0

    def weight():
        return Fraction(rng.choice((-2, -1, 0, 1, 3)), rng.choice((1, 2)))

    weights = [(weight(), weight()) for _ in range(3)]
    rows = base + [[p * u + q * v for u, v in zip(*base)] for p, q in weights]
    rhs = list(b1) + [p * b1[0] + q * b1[1] for p, q in weights]
    order = list(range(5))
    rng.shuffle(order)
    a2 = qmat([rows[i] for i in order])
    lp1 = LinearProgram(c, a1, b1)
    lp2 = LinearProgram(c, a2, QVector(tuple(rhs[i] for i in order)))
    out1, out2 = solve_lp(lp1), solve_lp(lp2)
    assert verify_outcome(lp1, out1) and verify_outcome(lp2, out2)
    assert isinstance(out1, Optimal) == isinstance(out2, Optimal)
    if isinstance(out1, Optimal):
        assert out1.value == out2.value

    # Shifting the rhs of one combination row makes the rows inconsistent.
    rhs[rng.randint(2, 4)] += random_rational(rng, 1, 5)
    lp3 = LinearProgram(c, a2, QVector(tuple(rhs[i] for i in order)))
    out3 = solve_lp(lp3)
    assert isinstance(out3, Infeasible) and verify_outcome(lp3, out3)


def test_beale_cycling_instance_terminates():
    # Classic degenerate instance that cycles under largest-coefficient
    # pivoting when started from the slack basis; Bland must finish it.
    lp = LinearProgram(
        qvec(0, 0, 0, "-3/4", 150, "-1/50", 6),
        qmat(
            [
                [1, 0, 0, "1/4", -60, "-1/25", 9],
                [0, 1, 0, "1/2", -90, "-1/50", 3],
                [0, 0, 1, 0, 0, 1, 0],
            ]
        ),
        qvec(0, 0, 1),
    )
    out = solve_lp(lp)
    assert isinstance(out, Optimal)
    assert verify_outcome(lp, out)
    assert out.value == min(lp.c.dot(v) for v in brute_vertices(lp.a, lp.b))


def test_degenerate_zero_rhs_terminates():
    lp = LinearProgram(
        qvec(-2, -3, 1, 12),
        qmat([[-2, -9, 1, 9], ["1/3", 1, "-1/3", -2]]),
        qvec(0, 0),
    )
    out = solve_lp(lp)
    assert verify_outcome(lp, out)


def test_fully_degenerate_square():
    lp = LinearProgram(qvec(1, 0, 0), qmat([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), qvec(1, 1, 1))
    out = solve_lp(lp)
    assert isinstance(out, Optimal)
    assert verify_outcome(lp, out)
    assert out.value == min(lp.c.dot(v) for v in brute_vertices(lp.a, lp.b))


def test_zero_matrix_rows():
    lp = LinearProgram(qvec(1, 2), qmat([[0, 0]]), qvec(0))
    out = solve_lp(lp)
    assert isinstance(out, Optimal)
    assert out.x == qvec(0, 0)
    assert verify_outcome(lp, out)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_lp_outcomes_verified_and_match_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    m = rng.randint(1, 3)
    c = QVector(tuple(random_rational(rng) for _ in range(n)))
    a = QMatrix(m, n, tuple(random_rational(rng) for _ in range(m * n)))
    if rng.random() < 0.5:
        b = a @ QVector(tuple(abs(random_rational(rng)) for _ in range(n)))
    else:
        b = QVector(tuple(random_rational(rng) for _ in range(m)))
    lp = LinearProgram(c, a, b)
    out = solve_lp(lp)
    assert verify_outcome(lp, out)
    verts = brute_vertices(a, b)
    if isinstance(out, Optimal):
        assert out.value == min(c.dot(v) for v in verts)
        assert c.dot(out.x) == b.dot(out.y)
    elif isinstance(out, Infeasible):
        assert not verts
    else:
        assert verts


def test_standard_form_free_split():
    gp = GeneralProgram(qvec(2), (GenRow(qvec(1), "=", Fraction(3)),), free=True)
    lp = to_standard_form(gp)
    assert lp == LinearProgram(qvec(2, -2), qmat([[1, -1]]), qvec(3))
    assert gp.back(qvec(5, 2)) == qvec(3)


def test_standard_form_slack_row():
    # one standard row per general row; a slack for each inequality, in row order
    rows = (GenRow(qvec(1, 2), ">=", Fraction(1)), GenRow(qvec(3, 4), "=", Fraction(2)),
            GenRow(qvec(5, 6), "<=", Fraction(3)))
    lp = to_standard_form(GeneralProgram(qvec(1, 1), rows))
    assert lp.a == qmat([[1, 2, -1, 0], [3, 4, 0, 0], [5, 6, 0, 1]])
    assert lp.b == qvec(1, 2, 3)
    assert lp.c == qvec(1, 1, 0, 0)


def test_general_program_needs_a_row():
    with pytest.raises(DimensionError):
        GeneralProgram(qvec(0), ())


def test_general_unbounded_direction_maps_back():
    gp = GeneralProgram(qvec(1), (GenRow(qvec(1), "<=", Fraction(0)),), free=True)
    out = solve_general(gp)
    assert isinstance(out, Unbounded)
    assert out.ray == qvec(-1)
    assert out.x0[0] <= 0


def test_solve_feasibility_simple():
    point = solve_feasibility(qmat([[1, 1]]), qvec(1))
    assert point is not None
    assert point.is_nonneg()
    assert point[0] + point[1] == 1


def test_solve_feasibility_infeasible_certificate():
    M, rhs = qmat([[1, 1]]), qvec(-1)
    assert solve_feasibility(M, rhs) is None
    lp = LinearProgram(QVector.zeros(2), M, rhs)
    out = solve_lp(lp)
    assert isinstance(out, Infeasible)
    assert verify_farkas(lp, out.farkas)


def test_solve_general_free_r5_system():
    # (lam1, lam2, z1, z2) free with L^T lam - A^T z >= 0 and lam >= (1,1):
    # satisfied e.g. by lam = (1,1), z = (0,0)
    rows = (
        GenRow(qvec(0, 0, -1, -1), ">=", Fraction(0)),
        GenRow(qvec(1, 0, 0, 0), ">=", Fraction(1)),
        GenRow(qvec(0, 1, 0, 0), ">=", Fraction(1)),
    )
    out = solve_general(GeneralProgram(QVector.zeros(4), rows, free=True))
    assert isinstance(out, Optimal)
    lam1, lam2, z1, z2 = out.x
    assert lam1 >= 1 and lam2 >= 1 and -z1 - z2 >= 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_general_solutions_satisfy_rows(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = QVector(tuple(random_rational(rng) for _ in range(n)))
        rel = rng.choice(("<=", ">=", "="))
        rows.append(GenRow(coeffs, rel, random_rational(rng)))
    free = rng.choice((True, False))
    gp = GeneralProgram(QVector(tuple(random_rational(rng) for _ in range(n))), tuple(rows), free)

    def satisfies(x, homogeneous=False):
        for row in rows:
            lhs, rhs = row.coeffs.dot(x), (0 if homogeneous else row.rhs)
            if not ((lhs <= rhs) if row.rel == "<=" else (lhs >= rhs) if row.rel == ">=" else (lhs == rhs)):
                return False
        return free or x.is_nonneg()

    out = solve_general(gp)
    if isinstance(out, Optimal):
        assert satisfies(out.x)
        assert out.value == gp.objective.dot(out.x)
        assert out.value == QVector(tuple(row.rhs for row in rows)).dot(out.y)  # y is indexed by gp's rows
    elif isinstance(out, Infeasible):
        assert verify_farkas(to_standard_form(gp), out.farkas)
    else:
        assert isinstance(out, Unbounded)
        assert satisfies(out.x0) and satisfies(out.ray, homogeneous=True)
        assert gp.objective.dot(out.ray) < 0


def _criterion_8_lps(rng, count):
    # the recipe of tests/test_acceptance.py::test_criterion_8_lp_engine
    for _ in range(count):
        n, m = rng.randint(1, 6), rng.randint(1, 3)
        c = QVector(tuple(random_rational(rng) for _ in range(n)))
        a = QMatrix(m, n, tuple(random_rational(rng) for _ in range(m * n)))
        if rng.random() < 0.5:
            b = a @ QVector(tuple(abs(random_rational(rng)) for _ in range(n)))
        else:
            b = QVector(tuple(random_rational(rng) for _ in range(m)))
        yield LinearProgram(c, a, b)


def test_solve_lp_is_phase_two_after_phase_one():
    kinds = set()
    for lp in _criterion_8_lps(random.Random(99), 500):
        start = phase_one(lp)
        if isinstance(start, Infeasible):
            assert solve_lp(lp) == start
        else:
            assert isinstance(start, Basis)
            assert solve_lp(lp) == phase_two(start, lp.c)
        kinds.add(type(solve_lp(lp)))
    assert kinds == {Optimal, Infeasible, Unbounded}


def test_phase_two_reuses_a_basis_without_changing_it():
    # Fresh costs on one stored basis: each answer is certified against its
    # own program, and solving them in either order gives the same answers.
    rng = random.Random(17)
    solved = 0
    for lp in _criterion_8_lps(rng, 200):
        start = phase_one(lp)
        if isinstance(start, Infeasible):
            continue
        before = [list(row) for row in start.rows], start.basis
        costs = [QVector(tuple(random_rational(rng) for _ in range(lp.n))) for _ in range(2)]
        forward = [phase_two(start, c) for c in costs]
        backward = [phase_two(start, c) for c in reversed(costs)][::-1]
        assert forward == backward
        assert ([list(row) for row in start.rows], start.basis) == before
        for c, out in zip(costs, forward):
            assert verify_outcome(LinearProgram(c, lp.a, lp.b), out)
        assert phase_two(start, lp.c) == solve_lp(lp)
        solved += 1
    assert solved > 50


def test_phase_two_rejects_a_cost_of_the_wrong_width():
    start = phase_one(LinearProgram(qvec(1, 0), qmat([[1, 1]]), qvec(1)))
    with pytest.raises(DimensionError):
        phase_two(start, qvec(1))
