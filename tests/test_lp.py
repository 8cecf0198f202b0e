import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from _oracles import brute_vertices
from vlpdual.exact import QMatrix, QVector, qmat, qvec
from vlpdual.lp import (
    GeneralProgram,
    GenInfeasible,
    GenOptimal,
    GenRow,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
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
    gp = GeneralProgram(qvec(0), (), (None,))
    std = to_standard_form(gp)
    assert std.lp.n == 2
    assert std.back_point(qvec(5, 2)) == qvec(3)


def test_standard_form_slack_row():
    gp = GeneralProgram(qvec(0), (GenRow(qvec(1), "<=", Fraction(3)),), (Fraction(0),))
    std = to_standard_form(gp)
    assert std.lp.n == 2  # original variable plus one slack
    assert std.lp.a == qmat([[1, 1]])
    assert std.lp.b == qvec(3)


def test_standard_form_lower_bound_shift():
    gp = GeneralProgram(
        qvec(1), (GenRow(qvec(1), ">=", Fraction(5)),), (Fraction(2),)
    )
    out = solve_general(gp)
    assert isinstance(out, GenOptimal)
    assert out.x == qvec(5)
    assert out.value == 5


def test_general_unbounded_direction_maps_back():
    gp = GeneralProgram(qvec(1), (GenRow(qvec(1), "<=", Fraction(0)),), (None,))
    out = solve_general(gp)
    assert out.__class__.__name__ == "GenUnbounded"
    assert out.ray == qvec(-1)
    assert out.x0[0] <= 0


def test_solve_feasibility_simple():
    res = solve_feasibility(qmat([[1, 1]]), qvec(1))
    assert res.point is not None
    assert res.point.is_nonneg()
    assert res.point[0] + res.point[1] == 1


def test_solve_feasibility_infeasible_certificate():
    res = solve_feasibility(qmat([[1, 1]]), qvec(-1))
    assert res.point is None
    assert res.farkas is not None
    assert verify_farkas(res.std_lp, res.farkas)


def test_solve_feasibility_free_vars_r5_system():
    # (lam1, lam2, z1, z2) free with L^T lam - A^T z >= 0 and lam >= (1,1):
    # satisfied e.g. by lam = (1,1), z = (0,0)
    rows = [
        (qvec(0, 0, -1, -1), Fraction(0)),
        (qvec(1, 0, 0, 0), Fraction(1)),
        (qvec(0, 1, 0, 0), Fraction(1)),
    ]
    res = solve_feasibility(QMatrix.zeros(0, 4), None, rows, free_vars=True)
    assert res.point is not None
    lam1, lam2, z1, z2 = res.point
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
    lower = tuple(rng.choice((None, Fraction(0), Fraction(-2))) for _ in range(n))
    gp = GeneralProgram(QVector(tuple(random_rational(rng) for _ in range(n))), tuple(rows), lower)
    out = solve_general(gp)
    if isinstance(out, GenOptimal):
        x = out.x
        for row in rows:
            lhs = row.coeffs.dot(x)
            assert (lhs <= row.rhs) if row.rel == "<=" else (lhs >= row.rhs) if row.rel == ">=" else (lhs == row.rhs)
        for bound, xi in zip(lower, x):
            if bound is not None:
                assert xi >= bound
        assert out.value == gp.objective.dot(x)
    elif isinstance(out, GenInfeasible):
        assert verify_farkas(out.std_lp, out.farkas)
