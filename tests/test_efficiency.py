import itertools
import math
import random
from fractions import Fraction

import pytest

from vlpdual import cone as cone_module
from vlpdual.cone import domination_program, generator_matrix, orthant, strictly_below
from vlpdual.efficiency import (
    VERTEX_LIMIT,
    VertexLimitError,
    efficient_vertices,
    enumerate_vertices,
    is_efficient,
    proper_efficiency_certificate,
    recession_image_pointed,
    verify_scalarization_certificate,
)
from vlpdual.exact import CertificateError, QMatrix, QVector, qmat, qvec, solve_linear_system
from vlpdual.lp import Optimal, Unbounded, solve_lp, to_standard_form, verify_unbounded
from vlpdual.model import VlpProblem
from vlpdual.sampling import random_problem


def test_segment_vertices(seg_problem):
    assert enumerate_vertices(seg_problem) == [qvec(0, 1), qvec(1, 0)]


def test_r5_has_no_vertices(r5_problem):
    assert enumerate_vertices(r5_problem) == []


def test_point_polytope_vertex():
    p = VlpProblem(QMatrix.identity(2), QMatrix.identity(2), qvec(1, 1), orthant(2))
    assert enumerate_vertices(p) == [qvec(1, 1)]


def test_vertex_limit():
    # A = [I I] has rank 10 over 20 columns: C(20, 10) = 184,756 bases, over the limit.
    eye = QMatrix.identity(10)
    A = QMatrix(10, 20, tuple(eye.at(i, j % 10) for i in range(10) for j in range(20)))
    assert math.comb(20, 10) > VERTEX_LIMIT
    with pytest.raises(VertexLimitError):
        enumerate_vertices(VlpProblem(QMatrix.zeros(2, 20), A, QVector((Fraction(1),) * 10), orthant(2)))


def test_segment_vertices_efficient(seg_problem):
    # oracle: the two vertex images (1,0), (0,1) are incomparable
    assert not strictly_below(seg_problem.cone, qvec(1, 0), qvec(0, 1))
    assert not strictly_below(seg_problem.cone, qvec(0, 1), qvec(1, 0))
    for vertex in enumerate_vertices(seg_problem):
        eff, cert = is_efficient(seg_problem, vertex)
        assert eff and cert is None


def test_widened_dominated_vertex(widened_problem):
    eff, cert = is_efficient(widened_problem, qvec(0, 0, 1))
    assert not eff
    assert cert is not None and cert.dominator is not None
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
    solve_general = cone_module.solve_general

    def sabotaged(program):
        out = solve_general(program)
        assert isinstance(out, Optimal) and out.value != 0
        return Optimal(corrupt(out.x), out.y, out.value)

    monkeypatch.setattr(cone_module, "solve_general", sabotaged)
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
    assert recession_image_pointed(seg_problem)


def test_recession_ray_harmless():
    p = VlpProblem(QMatrix.identity(2), qmat([[1, -1]]), qvec(0), orthant(2))
    assert recession_image_pointed(p)


def test_recession_ray_into_negative_cone():
    p = VlpProblem(QMatrix.identity(2).scale(-1), qmat([[1, -1]]), qvec(0), orthant(2))
    assert not recession_image_pointed(p)


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
        lp = to_standard_form(program)
        out = solve_lp(lp)
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
            assert verify_unbounded(lp, out)
            assert not eff


@pytest.mark.parametrize("seed", range(25))
def test_efficiency_scalarization_biconditional_random(seed):
    rng = random.Random(1000 + seed)
    problem = random_problem(rng)
    for vertex in enumerate_vertices(problem):
        eff, _ = is_efficient(problem, vertex)
        cert = proper_efficiency_certificate(problem, vertex)
        assert eff == (cert is not None)
        if cert is not None:
            assert verify_scalarization_certificate(problem, vertex, cert)
