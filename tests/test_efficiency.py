import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from _oracles import brute_vertices, reference_max_domination
from vlpdual import cone as cone_module
from vlpdual.cone import domination_program, generator_matrix, orthant, strictly_below
from vlpdual.duality import DualPolyhedron
from vlpdual.efficiency import (
    efficient_vertices,
    enumerate_vertices,
    is_efficient,
    proper_efficiency_certificate,
    recession_image_pointed,
    verify_scalarization_certificate,
)
from vlpdual.exact import VERTEX_LIMIT, CertificateError, QMatrix, QVector, VertexLimitError, qmat, qvec, solve_linear_system
from vlpdual.lp import Optimal, Unbounded, solve_lp, verify_unbounded
from vlpdual.model import VlpProblem
from vlpdual.sampling import random_problem, random_rational, random_vector


def test_segment_vertices(seg_problem):
    assert enumerate_vertices(seg_problem) == [qvec(0, 1), qvec(1, 0)]


def test_r5_has_no_vertices(r5_problem):
    assert enumerate_vertices(r5_problem) == []


def test_point_polytope_vertex():
    p = VlpProblem(QMatrix.identity(2), QMatrix.identity(2), qvec(1, 1), orthant(2))
    assert enumerate_vertices(p) == [qvec(1, 1)]


def test_vertex_limit():
    # One row of 320 entries +1 and 320 entries -1, with b = 0: the first cut
    # compares 320 * 320 = 102,400 ray pairs, over the limit, before it runs.
    A = QMatrix(1, 640, (Fraction(1),) * 320 + (Fraction(-1),) * 320)
    assert 320 * 320 > VERTEX_LIMIT
    with pytest.raises(VertexLimitError):
        enumerate_vertices(VlpProblem(QMatrix.zeros(2, 640), A, QVector.zeros(1), orthant(2)))


def test_two_identity_blocks_give_every_vertex():
    # A = [I I] with 10 rows and b = 1 has C(20, 10) = 184,756 column subsets
    # but 2^10 vertices: x_i + x_{i+10} = 1 puts the 1 on either column.
    eye = QMatrix.identity(10)
    A = QMatrix(10, 20, tuple(eye.at(i, j % 10) for i in range(10) for j in range(20)))
    ones = QVector((Fraction(1),) * 10)
    vertices = enumerate_vertices(VlpProblem(QMatrix.zeros(2, 20), A, ones, orthant(2)))
    assert len(vertices) == 1024 == len(set(vertices))
    assert all(A @ v == ones and set(v.entries) == {0, 1} for v in vertices)
    assert vertices == sorted(vertices, key=lambda v: v.entries)


def _vertex_instances(rng):
    """{x >= 0 : Ax = b} with dependent rows, b = 0, empty sets and
    degenerate vertices among them."""
    for _ in range(320):
        n, m = rng.randint(1, 7), rng.randint(1, 4)
        rows = [random_vector(rng, n, -3, 3) for _ in range(m)]
        if m > 1 and rng.random() < 0.4:  # the last row a combination of the others
            rows[-1] = QVector.zeros(n)
            for row in rows[:-1]:
                rows[-1] = rows[-1] + row.scale(random_rational(rng, -2, 2))
        A = QMatrix(m, n, tuple(e for row in rows for e in row))
        roll = rng.random()
        if roll < 0.45:  # feasible, often degenerate: the point has zeros
            b = A @ QVector(tuple(rng.choice((Fraction(0), abs(random_rational(rng)))) for _ in range(n)))
        elif roll < 0.6:
            b = QVector.zeros(m)
        else:
            b = random_vector(rng, m)
        yield A, b


def test_enumerate_vertices_matches_subset_enumeration():
    kinds = Counter()
    for A, b in _vertex_instances(random.Random(1953)):
        got = enumerate_vertices(VlpProblem(QMatrix.zeros(2, A.cols), A, b, orthant(2)))
        assert got == sorted(brute_vertices(A, b), key=lambda v: v.entries), (A, b)
        kinds["dependent rows"] += A.rank() < A.rows
        kinds["b = 0"] += b.is_zero()
        kinds["empty"] += not got
        kinds["several vertices"] += len(got) > 1
    assert min(kinds.values()) >= 30, kinds


def test_segment_vertices_efficient(seg_problem):
    # oracle: the two vertex images (1,0), (0,1) are incomparable
    assert not strictly_below(seg_problem.cone, qvec(1, 0), qvec(0, 1))
    assert not strictly_below(seg_problem.cone, qvec(0, 1), qvec(1, 0))
    for vertex in enumerate_vertices(seg_problem):
        eff, cert = is_efficient(seg_problem, vertex)
        assert eff and verify_scalarization_certificate(seg_problem, vertex, cert)


def test_widened_dominated_vertex(widened_problem):
    eff, cert = is_efficient(widened_problem, qvec(0, 0, 1))
    assert not eff
    assert cert.kind == "dominated" and cert.dominator is not None
    dom = cert.dominator
    image = widened_problem.L @ dom
    target = widened_problem.L @ qvec(0, 0, 1)
    assert strictly_below(widened_problem.cone, image, target)
    assert not strictly_below(widened_problem.cone, target, image)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p + QVector.unit(p.dim, 0),  # breaks Ax = b
        lambda p: p + QVector.unit(p.dim, p.dim - 1),  # breaks Lx + G mu = L xbar
        lambda p: QVector(p.entries[:3] + (Fraction(0),) * (p.dim - 3)),  # mu = 0
        lambda p: -p,  # negative
    ],
)
def test_is_efficient_rejects_a_wrong_dominator(monkeypatch, widened_problem, corrupt):
    # cone.dominator checks the solver's point by products before
    # is_efficient returns it as the dominator.
    solve_lp = cone_module.solve_lp

    def sabotaged(program):
        out = solve_lp(program)
        assert isinstance(out, Optimal) and out.value != 0
        return Optimal(corrupt(out.x), out.y, out.value)

    monkeypatch.setattr(cone_module, "solve_lp", sabotaged)
    with pytest.raises(CertificateError):
        is_efficient(widened_problem, qvec(0, 0, 1))


def test_zero_rhs_origin_efficient(zb_problem):
    eff, _ = is_efficient(zb_problem, qvec(0, 0))
    assert eff
    # sampled line points (t, -t) stay pairwise incomparable
    for t in (Fraction(1), Fraction(-2), Fraction(1, 2)):
        assert not strictly_below(zb_problem.cone, qvec(t, -t), qvec(0, 0))
        assert not strictly_below(zb_problem.cone, qvec(0, 0), qvec(t, -t))


def test_is_efficient_requires_feasible(seg_problem):
    with pytest.raises(ValueError):
        is_efficient(seg_problem, qvec(2, 2))


def test_certificate_segment(seg_problem):
    cert = proper_efficiency_certificate(seg_problem, qvec(1, 0))
    assert cert is not None
    assert verify_scalarization_certificate(seg_problem, qvec(1, 0), cert)
    # scalarized objective minimized at the certified vertex
    for other in enumerate_vertices(seg_problem):
        assert cert.lam.dot(seg_problem.L @ qvec(1, 0)) <= cert.lam.dot(seg_problem.L @ other)


def test_certificate_none_for_dominated(widened_problem):
    assert proper_efficiency_certificate(widened_problem, qvec(0, 0, 1)) is None


def test_certificate_zero_rhs(zb_problem):
    cert = proper_efficiency_certificate(zb_problem, qvec(0, 0))
    assert cert is not None
    assert verify_scalarization_certificate(zb_problem, qvec(0, 0), cert)


def test_efficient_vertices_segment(seg_problem):
    pairs = efficient_vertices(seg_problem)
    assert [v for v, _ in pairs] == [qvec(0, 1), qvec(1, 0)]
    for v, cert in pairs:
        assert verify_scalarization_certificate(seg_problem, v, cert)


def test_efficient_vertices_widened(widened_problem):
    assert [v for v, _ in efficient_vertices(widened_problem)] == [qvec(0, 1, 0), qvec(1, 0, 0)]


def test_efficient_vertices_r5(r5_problem):
    assert efficient_vertices(r5_problem) == []


def test_recession_bounded(seg_problem):
    assert recession_image_pointed(DualPolyhedron(seg_problem))


def test_recession_ray_harmless():
    p = VlpProblem(QMatrix.identity(2), qmat([[1, -1]]), qvec(0), orthant(2))
    assert recession_image_pointed(DualPolyhedron(p))


def test_recession_ray_into_negative_cone():
    p = VlpProblem(QMatrix.identity(2).scale(-1), qmat([[1, -1]]), qvec(0), orthant(2))
    assert not recession_image_pointed(DualPolyhedron(p))


def test_recession_image_pointed_rejects_a_wrong_farkas_row():
    # An empty P's Farkas row is checked as a recession direction with its
    # image in -K before the "not pointed" answer is given.
    p = VlpProblem(QMatrix.identity(2).scale(-1), qmat([[1, -1]]), qvec(0), orthant(2))
    polyhedron = DualPolyhedron(p)
    polyhedron.farkas = polyhedron.farkas + QVector.unit(polyhedron.farkas.dim, polyhedron.farkas.dim - 1)
    with pytest.raises(CertificateError):
        recession_image_pointed(polyhedron)


def _augmented_vertices(problem, target):
    """Vertices of {(x, mu) >= 0 : Ax = b, Lx + G mu = target} by enumeration."""
    G = generator_matrix(problem.cone)
    n, g = problem.n, G.cols
    width = n + g
    rows = []
    for i in range(problem.m):
        rows.append([problem.A.at(i, j) for j in range(n)] + [Fraction(0)] * g)
    for i in range(problem.k):
        rows.append([problem.L.at(i, j) for j in range(n)] + [G.at(i, t) for t in range(g)])
    a = QMatrix(len(rows), width, tuple(v for r in rows for v in r))
    rhs = QVector(tuple(problem.b.entries) + tuple(target.entries))
    r = a.rank()
    out = []
    if r == 0:
        return [QVector.zeros(width)] if rhs.is_zero() else []
    for cols in itertools.combinations(range(width), r):
        sub = QMatrix(a.rows, r, tuple(a.at(i, j) for i in range(a.rows) for j in cols))
        sol = solve_linear_system(sub, rhs)
        if sol is None or sol.nullspace or not sol.particular.is_nonneg():
            continue
        full = [Fraction(0)] * width
        for pos, j in enumerate(cols):
            full[j] = sol.particular[pos]
        out.append(QVector(tuple(full)))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_is_efficient_matches_augmented_enumeration(seed):
    rng = random.Random(seed)
    problem = random_problem(rng)
    vertices = enumerate_vertices(problem)
    for xbar in vertices[:3]:
        program = domination_program(problem.cone, problem.L, problem.L @ xbar, fixed=(problem.A, problem.b))
        out = solve_lp(program)
        eff, _ = is_efficient(problem, xbar)
        if isinstance(out, Optimal):
            best = max(
                sum(v.entries[problem.n:], Fraction(0))
                for v in _augmented_vertices(problem, problem.L @ xbar)
            )
            assert -out.value == best
            assert eff == (best == 0)
        else:
            assert isinstance(out, Unbounded)
            assert verify_unbounded(program, out)
            assert not eff


@pytest.mark.parametrize("seed", range(25))
def test_efficiency_scalarization_biconditional_random(seed):
    # is_efficient reads P; the bounded domination program is the other
    # side of the LP duality, solved on its own.
    rng = random.Random(1000 + seed)
    problem = random_problem(rng)
    for vertex in enumerate_vertices(problem):
        eff, cert = is_efficient(problem, vertex)
        assert eff == (reference_max_domination(problem.cone, problem.L, vertex, (problem.A, problem.b)) == 0)
        assert eff == (proper_efficiency_certificate(problem, vertex) is not None)
        if eff:
            assert verify_scalarization_certificate(problem, vertex, cert)
        else:
            assert strictly_below(problem.cone, problem.L @ cert.dominator, problem.L @ vertex)
