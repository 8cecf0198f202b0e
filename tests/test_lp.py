import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import brute_vertices, reference_phase_one, reference_phase_two
from vlpdual.exact import CertificateError, DimensionError, QMatrix, QVector, qmat, qvec
from vlpdual.lp import (
    Basis,
    GeneralProgram,
    Infeasible,
    LinearProgram,
    Optimal,
    Region,
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
    gp = GeneralProgram(qvec(2), qmat([[1]]), qvec(3))
    lp = to_standard_form(gp)
    assert lp == LinearProgram(qvec(2, -2, 0), qmat([[1, -1, -1]]), qvec(3))
    assert gp.back(qvec(5, 2, 7)) == qvec(3)


def test_standard_form_slack_row():
    # one standard row per general row: each variable split into two
    # adjacent columns, then one -1 slack per row, in row order
    lp = to_standard_form(GeneralProgram(qvec(1, 1), qmat([[1, 2], [3, 4], [5, 6]]), qvec(1, 2, 3)))
    assert lp.a == qmat([[1, -1, 2, -2, -1, 0, 0], [3, -3, 4, -4, 0, -1, 0], [5, -5, 6, -6, 0, 0, -1]])
    assert lp.b == qvec(1, 2, 3)
    assert lp.c == qvec(1, -1, 1, -1, 0, 0, 0)


def test_general_program_needs_a_row():
    with pytest.raises(DimensionError):
        GeneralProgram(qvec(0), QMatrix.zeros(0, 1), qvec(0))


def test_general_unbounded_direction_maps_back():
    gp = GeneralProgram(qvec(1), qmat([[-1]]), qvec(0))  # -y >= 0
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
    rows = qmat([[0, 0, -1, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    out = solve_general(GeneralProgram(QVector.zeros(4), rows, qvec(0, 1, 1)))
    assert isinstance(out, Optimal)
    lam1, lam2, z1, z2 = out.x
    assert lam1 >= 1 and lam2 >= 1 and -z1 - z2 >= 0


def _random_general_program(rng) -> GeneralProgram:
    n, m = rng.randint(1, 4), rng.randint(1, 4)
    rows = QMatrix(m, n, tuple(random_rational(rng) for _ in range(m * n)))
    rhs = QVector(tuple(random_rational(rng) for _ in range(m)))
    return GeneralProgram(QVector(tuple(random_rational(rng) for _ in range(n))), rows, rhs)


def _satisfies(gp: GeneralProgram, x: QVector, homogeneous=False) -> bool:
    floor = QVector.zeros(gp.rhs.dim) if homogeneous else gp.rhs
    return (gp.rows @ x - floor).is_nonneg()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_general_solutions_satisfy_rows(seed):
    gp = _random_general_program(random.Random(seed))
    out = solve_general(gp)
    if isinstance(out, Optimal):
        assert _satisfies(gp, out.x)
        assert out.value == gp.objective.dot(out.x)
        assert out.value == gp.rhs.dot(out.y)  # y is indexed by gp's rows
    elif isinstance(out, Infeasible):
        assert verify_farkas(to_standard_form(gp), out.farkas)
    else:
        assert isinstance(out, Unbounded)
        assert _satisfies(gp, out.x0) and _satisfies(gp, out.ray, homogeneous=True)
        assert gp.objective.dot(out.ray) < 0


def test_region_minimize_is_solve_general_per_cost():
    # One phase I per feasible set; each cost then answers exactly as a
    # fresh solve_general of the same rows with that objective.
    rng = random.Random(23)
    kinds = set()
    for _ in range(150):
        gp = _random_general_program(rng)
        region = Region(gp)
        assert region.empty == isinstance(solve_general(gp), Infeasible)
        if region.empty:
            assert region.point is None
            with pytest.raises(CertificateError):
                region.minimize(gp.objective)
            continue
        assert _satisfies(gp, region.point)
        for w in [gp.objective] + [QVector(tuple(random_rational(rng) for _ in range(gp.n))) for _ in range(2)]:
            out = region.minimize(w)
            assert out == solve_general(GeneralProgram(w, gp.rows, gp.rhs))
            kinds.add(type(out))
    assert kinds == {Optimal, Unbounded}


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


def _with_dependent_row(rng, lp):
    """lp with one more row, a random combination of its rows placed at a
    random position: the row is redundant and its artificial stays basic."""
    weights = [random_rational(rng) for _ in range(lp.m)]
    extra = [sum((w * lp.a.at(i, j) for i, w in enumerate(weights)), Fraction(0)) for j in range(lp.n)]
    rows = [list(lp.a.row(i)) for i in range(lp.m)]
    rhs = list(lp.b)
    at = rng.randint(0, lp.m)
    rows.insert(at, extra)
    rhs.insert(at, sum((w * b for w, b in zip(weights, lp.b)), Fraction(0)))
    return LinearProgram(lp.c, qmat(rows), QVector(tuple(rhs)))


def test_one_pass_pricing_equals_pivot_pricing():
    # Field for field: the stored basis or Farkas certificate, and x, y and
    # value. The priced row is the one that pivoting on the basic columns
    # leaves, so Bland's rule makes the same choices from it.
    rng = random.Random(23)
    compared = {False: 0, True: 0}
    kinds = set()
    artificial_basic = 0
    for lp in _criterion_8_lps(rng, 300):
        for dependent in (False, True):
            program = _with_dependent_row(rng, lp) if dependent else lp
            start = phase_one(program)
            assert start == reference_phase_one(program)
            if isinstance(start, Infeasible):
                kinds.add(Infeasible)
                continue
            artificial_basic += any(b >= start.n for b in start.basis)
            for c in (program.c, QVector(tuple(random_rational(rng) for _ in range(program.n)))):
                out = phase_two(start, c)
                assert out == reference_phase_two(start, c)
                kinds.add(type(out))
            compared[dependent] += 1
    assert all(count > 50 for count in compared.values()), compared
    assert artificial_basic > 0 and kinds == {Infeasible, Optimal, Unbounded}


def test_phase_two_rejects_a_cost_of_the_wrong_width():
    start = phase_one(LinearProgram(qvec(1, 0), qmat([[1, 1]]), qvec(1)))
    with pytest.raises(DimensionError):
        phase_two(start, qvec(1))
