import inspect
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import reference_max_domination
from vlpdual import cone as cone_module
from vlpdual import lp as lp_module
from vlpdual.cone import (
    ConeError,
    OrderingCone,
    contains,
    domination_program,
    dominator,
    in_quasi_interior,
    make_cone,
    multiplier_program,
    orthant,
    generator_matrix,
    strictly_below,
)
from vlpdual.efficiency import enumerate_vertices
from vlpdual.exact import QMatrix, QVector, qmat, qvec
from vlpdual.harness import FIXTURES
from vlpdual.lp import LinearProgram, Unbounded, solve_feasibility, solve_lp, to_standard_form
from vlpdual.sampling import random_matrix, random_problem, random_rational, random_vector


def wedge():
    # generators (1,0) and (1,1): pointed, not the orthant
    return make_cone(2, [qvec(1, 0), qvec(1, 1)])


def test_validate_orthant():
    cone = make_cone(2, [qvec(1, 0), qvec(0, 1)])
    w = cone.qi_witness
    assert all(w.dot(g) >= 1 for g in cone.generators)


def test_validate_rejects_line():
    with pytest.raises(ConeError, match="not pointed"):
        make_cone(2, [qvec(1, 0), qvec(-1, 0)])


def test_validate_rejects_trivial():
    with pytest.raises(ConeError, match="trivial cone"):
        make_cone(2, [qvec(0, 0)])


def test_ordering_cone_rejects_line():
    # the constructor itself certifies pointedness, so no VlpProblem can hold a line
    with pytest.raises(ConeError, match="not pointed"):
        OrderingCone(2, (qvec(1, 0), qvec(-1, 0)))
    with pytest.raises(ConeError, match="trivial cone"):
        OrderingCone(2, ())


def test_ordering_cone_rejects_bad_witness():
    with pytest.raises(ConeError, match="witness"):
        OrderingCone(2, (qvec(1, 0), qvec(0, 1)), qvec(1, 0))


def test_supplied_witness_runs_no_lp(monkeypatch):
    wedge_cone = wedge()

    def no_lp(*args, **kwargs):
        raise AssertionError("multiplier LP ran")

    monkeypatch.setattr(cone_module, "multiplier", no_lp)
    assert orthant(3).qi_witness == qvec(1, 1, 1)
    flipped = OrderingCone(2, tuple(-g for g in wedge_cone.generators), -wedge_cone.qi_witness)
    assert flipped.qi_witness == -wedge_cone.qi_witness
    with pytest.raises(AssertionError, match="multiplier LP ran"):
        OrderingCone(2, (qvec(1, 0), qvec(1, 1)))


def test_validate_wedge():
    w = wedge().qi_witness
    assert w.dot(qvec(1, 0)) >= 1 and w.dot(qvec(1, 1)) >= 1


def test_zero_generators_stripped():
    cone = make_cone(2, [qvec(0, 0), qvec(1, 0)])
    assert cone.generators == (qvec(1, 0),)


def test_constructor_drops_zero_generators():
    ray = OrderingCone(2, (qvec(0, 0), qvec(1, 0)))
    assert ray.generators == (qvec(1, 0),)
    assert contains(ray, qvec(1, 0))
    assert not contains(ray, qvec(-1, 0))
    with pytest.raises(ConeError, match="trivial cone"):
        OrderingCone(2, (qvec(0, 0),))


def test_contains_orthant():
    K = orthant(2)
    assert contains(K, qvec(1, 2))
    assert not contains(K, qvec(-1, 0))


def test_contains_wedge():
    assert contains(wedge(), qvec(2, 1))  # 1*(1,0) + 1*(1,1)
    assert not contains(wedge(), qvec(0, 1))


def test_quasi_interior():
    K = orthant(2)
    assert in_quasi_interior(K, qvec(1, 1))
    assert not in_quasi_interior(K, qvec(1, 0))
    assert not in_quasi_interior(wedge(), qvec(1, -1))


def test_find_quasi_interior_point():
    for cone in (orthant(2), orthant(3), wedge()):
        lam = cone.qi_witness
        assert all(lam.dot(g) >= 1 for g in cone.generators)


def random_pointed_cone(rng, k):
    while True:
        try:
            return make_cone(k, [qvec(*[random_rational(rng) for _ in range(k)]) for _ in range(rng.randint(2, 4))])
        except ConeError:
            continue


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_order_consistency_random(seed):
    rng = random.Random(seed)
    k = rng.choice((2, 3))
    cone = orthant(k) if rng.random() < 0.5 else random_pointed_cone(rng, k)
    v = qvec(*[random_rational(rng) for _ in range(k)])
    w = qvec(*[random_rational(rng) for _ in range(k)])
    assert strictly_below(cone, v, w) == (contains(cone, w - v) and v != w)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_quasi_interior_soundness(seed):
    rng = random.Random(seed)
    k = rng.choice((2, 3))
    cone = orthant(k) if rng.random() < 0.5 else random_pointed_cone(rng, k)
    lam = cone.qi_witness
    assert in_quasi_interior(cone, lam)
    for _ in range(50):
        coeffs = [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3))) for _ in cone.generators]
        if all(c == 0 for c in coeffs):
            continue
        member = qvec(*([Fraction(0)] * k))
        for c, g in zip(coeffs, cone.generators):
            member = member + g.scale(c)
        if not member.is_zero():
            assert lam.dot(member) > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_contains_fast_path_matches_lp_path(seed):
    # the same set from two generator lists, one with a redundant generator
    rng = random.Random(seed)
    fast = make_cone(2, [qvec(2, 0), qvec(0, 3)])
    slow = make_cone(2, [qvec(1, 0), qvec(0, 1), qvec(1, 1)])
    v = qvec(*[random_rational(rng) for _ in range(2)])
    assert contains(fast, v) == contains(slow, v) == v.is_nonneg()


def test_quasi_interior_exact_on_1000_members():
    rng = random.Random(5)
    cone = wedge()
    lam = cone.qi_witness
    checked = 0
    while checked < 1000:
        coeffs = [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3))) for _ in cone.generators]
        member = qvec(0, 0)
        for c, g in zip(coeffs, cone.generators):
            member = member + g.scale(c)
        if member.is_zero():
            continue
        assert lam.dot(member) > 0
        checked += 1


def _combination(rng, vectors, lo, hi):
    out = QVector.zeros(vectors[0].dim)
    for v in vectors:
        out = out + v.scale(Fraction(rng.randint(lo, hi), rng.choice((1, 2))))
    return out


def random_cone_any_rank(rng, k):
    """A pointed cone in R^k whose span has any dimension 1..k, with
    redundant generators (positive combinations of others) half the time."""
    while True:
        span = [qvec(*[random_rational(rng, -4, 4) for _ in range(k)]) for _ in range(rng.randint(1, k))]
        gens = [_combination(rng, span, -3, 3) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            gens.append(_combination(rng, gens, 0, 3))
        try:
            return make_cone(k, gens)
        except ConeError:
            continue


def _queries(rng, cone):
    """Random vectors, vectors of the span and members of the cone."""
    gens = list(cone.generators)
    out = [qvec(*[random_rational(rng, -4, 4) for _ in range(cone.dim)]) for _ in range(3)]
    out += [_combination(rng, gens, -2, 3) for _ in range(4)]
    out += [_combination(rng, gens, 0, 3) for _ in range(3)]
    return out


def _lp_contains(cone, v):
    return solve_feasibility(generator_matrix(cone), v) is not None


def test_facet_contains_matches_feasibility_lp():
    rng = random.Random(2010)
    checked = {True: 0, False: 0}
    low_dim = 0
    for k in (1, 2, 3, 4):
        for _ in range(40):
            cone = random_cone_any_rank(rng, k)
            low_dim += generator_matrix(cone).rank() < k
            for v in _queries(rng, cone):
                want = _lp_contains(cone, v)
                assert contains(cone, v) == want, (cone.generators, v)
                checked[want] += 1
    assert min(checked.values()) > 100 and low_dim > 20


def test_facets_are_nonnegative_on_generators():
    rng = random.Random(1953)
    for k in (1, 2, 3, 4):
        for _ in range(40):
            cone = random_cone_any_rank(rng, k)
            assert cone.facets
            assert all(h.dot(g) >= 0 for h in cone.facets for g in cone.generators)


def test_cone_order_runs_no_lp(monkeypatch):
    rng = random.Random(1996)
    cases = []
    for cone in [wedge(), orthant(3)] + [random_cone_any_rank(rng, k) for k in (2, 3, 3, 4)]:
        points = _queries(rng, cone)[:6]
        below = {(i, j): i != j and _lp_contains(cone, q - p) for i, p in enumerate(points) for j, q in enumerate(points)}
        cases.append((cone, points, below))

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran")

    # every lp function, in lp itself and wherever cone binds one by name
    for module in (lp_module, cone_module):
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__module__ == lp_module.__name__:
                monkeypatch.setattr(module, name, no_lp)
    for cone, points, below in cases:
        for (i, j), less in below.items():
            p, q = points[i], points[j]
            assert contains(cone, q - p) == (less or p == q)
            assert strictly_below(cone, p, q) == (less and p != q)


def test_strictly_below_by_coordinates_matches_feasibility_lp():
    rng = random.Random(1968)
    outcomes = {True: 0, False: 0}
    ranks, off_span = set(), 0
    for k in (1, 2, 3, 4):
        for _ in range(25):
            cone = random_cone_any_rank(rng, k)
            ranks.add((k, generator_matrix(cone).rank()))
            ortho = cone_module._nullspace(cone.generators, cone.dim)  # the span's complement
            for v in _queries(rng, cone)[:5]:
                member = _combination(rng, list(cone.generators), 0, 3)
                targets = [v, v + member] + _queries(rng, cone)[:3]
                if ortho:
                    u = _combination(rng, list(ortho), -2, 2)
                    targets += [v + u, v + member + u]
                    off_span += not u.is_zero()
                for w in targets:
                    want = _lp_contains(cone, w - v) and v != w
                    assert strictly_below(cone, v, w) == want, (cone.generators, v, w)
                    assert (cone.coordinates(v) == cone.coordinates(w)) == (v == w)
                    outcomes[want] += 1
    assert {(k, r) for k in (1, 2, 3, 4) for r in range(1, k + 1)} <= ranks
    assert min(outcomes.values()) > 100 and off_span > 100


def test_warm_cone_enumerates_no_facets_again(monkeypatch):
    rng = random.Random(7)
    cone = random_cone_any_rank(rng, 3)
    points = _queries(rng, cone)[:6]
    expected = [strictly_below(cone, p, q) for p in points for q in points]
    solves = []

    def counted(*args):
        solves.append(args)
        return nullspace(*args)

    nullspace = cone_module._nullspace
    monkeypatch.setattr(cone_module, "_nullspace", counted)
    assert [strictly_below(cone, p, q) for p in points for q in points] == expected
    assert solves == []


def _domination_questions():
    """(cone, M, start, fixed), asked at target M start, over the fixtures
    and random problems: the recession question, U-feasibility and a
    reduced target for U = 0 and a random U, and efficiency of vertices."""
    rng = random.Random(3)
    for problem in [f.problem for f in FIXTURES.values()] + [random_problem(rng) for _ in range(30)]:
        origin = QVector.zeros(problem.n)
        yield problem.cone, problem.L, origin, (problem.A, QVector.zeros(problem.m))
        for U in (QMatrix.zeros(problem.k, problem.m), random_matrix(rng, problem.k, problem.m)):
            M = problem.L - (U @ problem.A)
            yield problem.cone, M, origin, None
            yield problem.cone, M, random_vector(rng, problem.n, 0, 3), None
        for vertex in enumerate_vertices(problem)[:3]:
            yield problem.cone, problem.L, vertex, (problem.A, problem.b)


def test_builders_lay_out_their_programs():
    # The domination program is the standard-form LP itself: rows [[A, 0]; [M, G]]
    # over (x, mu) >= 0, cost -1 on every mu.
    M, target, A, b = qmat([[1, 2], [3, 4]]), qvec(5, 6), qmat([[7, 8]]), qvec(9)
    expected = LinearProgram(qvec(0, 0, -1, -1), qmat([[7, 8, 0, 0], [1, 2, 1, 0], [3, 4, 0, 1]]), qvec(9, 5, 6))
    assert domination_program(orthant(2), M, target, fixed=(A, b)) == expected
    # The multiplier program's rows are the generators, zero-padded to M's
    # row count, then M's columns. Standardized, each free lam_j is two
    # adjacent columns, and row i has slack column i after them, at -1.
    program = multiplier_program(make_cone(2, [qvec(1, 0), qvec(1, 1)]), qmat([[1], [2], [3]]))
    assert to_standard_form(program) == LinearProgram(
        QVector.zeros(9),
        qmat([[1, -1, 0, 0, 0, 0, -1, 0, 0], [1, -1, 1, -1, 0, 0, 0, -1, 0], [1, -1, 2, -2, 3, -3, 0, 0, -1]]),
        qvec(1, 1, 0),
    )


def test_dominator_matches_the_normalized_program():
    # dominator is None exactly when the bounded reference program has a
    # zero optimum; each outcome dominator decodes occurs.
    outcomes = Counter()
    for cone, M, start, fixed in _domination_questions():
        target = M @ start
        x = dominator(cone, M, target, fixed)
        assert (x is None) == (reference_max_domination(cone, M, start, fixed) == 0)
        if x is not None:
            assert x.is_nonneg() and strictly_below(cone, M @ x, target)
            assert fixed is None or fixed[0] @ x == fixed[1]
        out = solve_lp(domination_program(cone, M, target, fixed))
        outcomes["ray" if isinstance(out, Unbounded) else "positive" if x is not None else "none"] += 1
    assert all(outcomes[kind] > 0 for kind in ("none", "positive", "ray")), outcomes
