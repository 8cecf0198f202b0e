import random
from dataclasses import replace
from fractions import Fraction

import pytest

from _oracles import (
    lam_z_stack,
    reference_dual_point,
    reference_gamma,
    reference_membership,
    reference_scalarization,
    reference_value_member,
)
from vlpdual import duality
from vlpdual.cone import domination_program, multiplier_program, orthant, strictly_below
from vlpdual.duality import (
    DualPolyhedron,
    ReducedImage,
    check_feasible_D,
    check_feasible_J,
    check_feasible_L,
    check_feasible_U,
    construct_dual_solution,
    dual_B_nonempty,
    feasible_dual_point,
    h_H_value_membership,
    improve_dual_infeasible_primal,
    scaled_generator,
    u_feasibility_multiplier,
    map_D_to_DL,
    map_DH_to_D,
    membership_hB,
    membership_hJ,
    membership_hL,
    minimize_over_image,
    recover_primal,
)
from vlpdual.efficiency import (
    EfficiencyCertificate,
    efficient_vertices,
    enumerate_vertices,
    is_efficient,
    proper_efficiency_certificate,
    verify_scalarization_certificate,
)
from vlpdual.exact import QMatrix, QVector, outer, qmat, qvec
from vlpdual.harness import FIXTURES, CampaignConfig, run_instance_suite
from vlpdual.lp import GeneralProgram, Infeasible, Optimal, Unbounded, solve_general, solve_lp, to_standard_form
from vlpdual.model import (
    DualCandidateD,
    DualCandidateJ,
    DualCandidateL,
    DualCandidateU,
    VlpProblem,
    objective_D,
    objective_J,
    objective_L,
)
from vlpdual.sampling import random_matrix, random_problem, random_vector, sample_dual_points


@pytest.fixture
def no_dual_problem():
    # L^T lam >= 0 forces lam <= 0: the dual feasible set is empty
    return VlpProblem(QMatrix.identity(2).scale(-1), QMatrix.zeros(1, 2), qvec(0), orthant(2))


def test_check_feasible_D_r5(r5_problem):
    assert check_feasible_D(r5_problem, DualCandidateD(qvec(1, 1), QMatrix.zeros(2, 2), qvec(1, -1)))
    assert not check_feasible_D(r5_problem, DualCandidateD(qvec(1, 1), QMatrix.zeros(2, 2), qvec(-1, -1)))
    assert not check_feasible_D(r5_problem, DualCandidateD(qvec(1, 0), QMatrix.zeros(2, 2), qvec(0, 0)))


def test_check_feasible_L_r5(r5_problem):
    assert check_feasible_L(r5_problem, DualCandidateL(qvec(1, 1), qvec(0, 0), qvec(-1, -1)))
    assert not check_feasible_L(r5_problem, DualCandidateL(qvec(1, 1), qvec(0, 0), qvec(1, 0)))


def test_check_feasible_J_r5(r5_problem):
    assert check_feasible_J(r5_problem, DualCandidateJ(qvec(1, 1), QMatrix.zeros(2, 2)))


def test_check_feasible_U_r5(r5_problem):
    assert check_feasible_U(r5_problem, DualCandidateU(QMatrix.zeros(2, 2), "H"))


def test_check_feasible_U_negative(no_dual_problem):
    assert not check_feasible_U(no_dual_problem, DualCandidateU(QMatrix.zeros(2, 1), "H"))


def test_check_feasible_U_flavor_I_needs_orthant():
    wedge_problem = VlpProblem(
        QMatrix.identity(2),
        qmat([[1, 1]]),
        qvec(1),
        make_cone_wedge(),
    )
    with pytest.raises(ValueError, match="orthant"):
        check_feasible_U(wedge_problem, DualCandidateU(QMatrix.zeros(2, 1), "I"))


def make_cone_wedge():
    from vlpdual.cone import make_cone

    return make_cone(2, [qvec(1, 0), qvec(1, 1)])


def test_check_feasible_U_flavors_agree_on_orthant(seg_problem):
    rng = random.Random(3)
    for _ in range(10):
        U = random_matrix(rng, seg_problem.k, seg_problem.m)
        assert check_feasible_U(seg_problem, DualCandidateU(U, "I")) == check_feasible_U(
            seg_problem, DualCandidateU(U, "H")
        )


def test_u_feasibility_multiplier_r5(r5_problem):
    lam = u_feasibility_multiplier(r5_problem, QMatrix.zeros(2, 2))
    assert lam is not None
    assert all(lam.dot(g) >= 1 for g in r5_problem.cone.generators)


def test_u_feasibility_multiplier_none(no_dual_problem):
    assert u_feasibility_multiplier(no_dual_problem, QMatrix.zeros(2, 1)) is None


@pytest.mark.parametrize("seed", range(15))
def test_u_feasibility_agreement_random(seed):
    rng = random.Random(200 + seed)
    problem = random_problem(rng)
    for _ in range(4):
        U = random_matrix(rng, problem.k, problem.m)
        via_image = check_feasible_U(problem, DualCandidateU(U, "H"))
        via_lam = u_feasibility_multiplier(problem, U)
        assert via_image == (via_lam is not None)


def test_construct_dual_solution_segment(seg_problem):
    xbar = qvec(1, 0)
    cert = proper_efficiency_certificate(seg_problem, xbar)
    cand = construct_dual_solution(seg_problem, xbar, cert)
    assert check_feasible_D(seg_problem, cand)
    assert objective_D(seg_problem, cand) == qvec(1, 0)
    assert xbar.dot((seg_problem.L - cand.U @ seg_problem.A).T @ cand.lam) == 0


def test_construct_dual_solution_second_vertex(seg_problem):
    xbar = qvec(0, 1)
    cert = proper_efficiency_certificate(seg_problem, xbar)
    cand = construct_dual_solution(seg_problem, xbar, cert)
    assert objective_D(seg_problem, cand) == qvec(0, 1)


def test_construct_dual_solution_zero_rhs(zb_problem):
    cert = EfficiencyCertificate("efficient-with-scalarization", lam=qvec(1, 1), eta=qvec(0))
    cand = construct_dual_solution(zb_problem, qvec(0, 0), cert)
    assert cand.U == QMatrix.zeros(2, 1)
    assert cand.v == qvec(0, 0)
    assert objective_D(zb_problem, cand) == qvec(0, 0)


def test_construct_dual_solution_rejects_bad_cert(seg_problem):
    bogus = EfficiencyCertificate("efficient-with-scalarization", lam=qvec(1, 1), eta=qvec(5))
    with pytest.raises(ValueError):
        construct_dual_solution(seg_problem, qvec(1, 0), bogus)


def test_recover_primal_segment(seg_problem):
    assert recover_primal(seg_problem, qvec(1, 0)) == qvec(1, 0)
    assert recover_primal(seg_problem, qvec(2, 2)) is None


def test_recover_primal_r5(r5_problem):
    assert recover_primal(r5_problem, qvec(0, 0)) is None


def test_membership_hB_r5(r5_problem):
    assert not membership_hB(r5_problem, qvec(-1, -1)).member
    verdict = membership_hB(r5_problem, qvec(1, -1))
    assert verdict.member
    assert check_feasible_D(r5_problem, verdict.candidate)
    assert objective_D(r5_problem, verdict.candidate) == qvec(1, -1)


def test_membership_hB_zero_rhs(zb_problem):
    verdict = membership_hB(zb_problem, qvec(5, -5))
    assert verdict.member
    assert check_feasible_D(zb_problem, verdict.candidate)
    assert objective_D(zb_problem, verdict.candidate) == qvec(5, -5)


def test_membership_hL_r5(r5_problem):
    assert membership_hL(r5_problem, qvec(-1, -1)).member
    assert membership_hL(r5_problem, qvec(1, -1)).member


def test_membership_hL_empty_dual(no_dual_problem):
    for d in (qvec(0, 0), qvec(-1, -1), qvec(3, 2)):
        assert not membership_hL(no_dual_problem, d).member


def test_membership_hJ_zero_rhs_gap(zb_problem):
    assert membership_hJ(zb_problem, qvec(0, 0)).member
    assert not membership_hJ(zb_problem, qvec(5, -5)).member
    assert membership_hB(zb_problem, qvec(5, -5)).member  # the strict gap at b = 0


def test_membership_hJ_nonzero_rhs(r5_problem):
    verdict = membership_hJ(r5_problem, qvec(1, -1))
    assert verdict.member
    assert check_feasible_J(r5_problem, verdict.candidate)
    assert objective_J(r5_problem, verdict.candidate) == qvec(1, -1)


def test_membership_system_standard_form_roundtrip(r5_problem):
    # the single-LP hB system of the reference oracle, standardized and mapped back
    d = qvec(1, -1)
    p = r5_problem
    rows = [tuple(g.entries) + (Fraction(0),) * p.m for g in p.cone.generators]
    for j in range(p.n):
        rows.append(tuple(p.L.at(i, j) for i in range(p.k)) + tuple(-p.A.at(i, j) for i in range(p.m)))
    f = QVector(tuple(d.entries) + tuple((-p.b).entries))
    rows += [f.entries, (-f).entries]  # f = 0 as f >= 0 and -f >= 0
    rhs = QVector((Fraction(1),) * len(p.cone.generators) + (Fraction(0),) * (p.n + 2))
    gp = GeneralProgram(QVector.zeros(p.k + p.m), QMatrix.from_rows(rows), rhs)
    out = solve_lp(to_standard_form(gp))
    assert isinstance(out, Optimal)
    point = gp.back(out.x)
    lam, z = QVector(point.entries[: p.k]), QVector(point.entries[p.k :])
    assert all(lam.dot(g) >= 1 for g in p.cone.generators)
    assert lam.dot(d) == p.b.dot(z)
    assert ((p.L.T @ lam) - (p.A.T @ z)).is_nonneg()


def test_h_H_value_membership_r5(r5_problem):
    U = QMatrix.zeros(2, 2)
    assert h_H_value_membership(r5_problem, U, qvec(0, 0))
    assert not h_H_value_membership(r5_problem, U, qvec(1, 1))


def test_h_H_value_membership_zero_rhs(zb_problem):
    assert h_H_value_membership(zb_problem, QMatrix.zeros(2, 1), qvec(1, -1))


def test_h_H_value_membership_infeasible_program():
    # w = (-1, -1) needs mu = w in the orthant: the domination program is empty
    problem = FIXTURES["FIX-R5"].problem
    program = domination_program(problem.cone, problem.L, qvec(-1, -1))
    assert isinstance(solve_lp(program), Infeasible)
    assert h_H_value_membership(problem, QMatrix.zeros(2, 2), qvec(-1, -1)) is False


def test_h_H_value_membership_precondition(no_dual_problem):
    with pytest.raises(ValueError, match="not feasible"):
        h_H_value_membership(no_dual_problem, QMatrix.zeros(2, 1), qvec(0, 0))


def test_map_DH_to_D_r5(r5_problem):
    cand = map_DH_to_D(r5_problem, QMatrix.zeros(2, 2), qvec(0))
    assert check_feasible_D(r5_problem, cand)
    assert cand.v == qvec(0, 0)
    assert objective_D(r5_problem, cand) == qvec(0, 0)
    assert membership_hB(r5_problem, qvec(0, 0)).member


def test_map_DH_to_D_zero_rhs(zb_problem):
    cand = map_DH_to_D(zb_problem, QMatrix.zeros(2, 1), qvec(0, 1))
    assert cand.v == qvec(1, -1)
    assert check_feasible_D(zb_problem, cand)
    h = objective_D(zb_problem, cand)
    assert h == qvec(1, -1)
    assert membership_hB(zb_problem, h).member


def test_map_DH_to_D_rejects_nonminimal(seg_problem):
    with pytest.raises(ValueError, match="not minimal"):
        map_DH_to_D(seg_problem, QMatrix.zeros(2, 1), qvec(1, 1))


@pytest.mark.parametrize("seed", range(6))
def test_map_DH_to_D_rejects_infeasible_U(seed, no_dual_problem):
    # map_DH_to_D has no feasibility precondition of its own: its minimality
    # test must reject every start point when U is not feasible for D^H.
    rng = random.Random(800 + seed)
    cases = [(no_dual_problem, QMatrix.zeros(2, 1))]
    for _ in range(4):
        problem = random_problem(rng)
        cases += [(problem, random_matrix(rng, problem.k, problem.m)) for _ in range(3)]
    rejected = 0
    for problem, U in cases:
        if check_feasible_U(problem, DualCandidateU(U, "H")):
            continue
        rejected += 1
        starts = [QVector.zeros(problem.n)] + [
            QVector(tuple(Fraction(rng.randint(0, 6), rng.choice((1, 2))) for _ in range(problem.n)))
            for _ in range(3)
        ]
        for xbar in starts:
            with pytest.raises(ValueError, match="not minimal"):
                map_DH_to_D(problem, U, xbar)
    assert rejected


def test_minimize_over_image(seg_problem):
    U = QMatrix.zeros(2, 1)
    xstar = minimize_over_image(seg_problem, U, qvec(1, 1))
    assert h_H_value_membership(seg_problem, U, seg_problem.L @ xstar)


def test_minimize_rejects_infeasible_U(seg_problem):
    # U = (2, 2)^T admits a ray below zero: a broken precondition, not a failed certificate.
    U = qmat([[2], [2]])
    assert not ReducedImage(seg_problem, U).feasible
    with pytest.raises(ValueError, match="U not feasible for D\\^H"):
        ReducedImage(seg_problem, U).minimize(qvec(1, 0))
    with pytest.raises(ValueError, match="U not feasible for D\\^H"):
        minimize_over_image(seg_problem, U, qvec(1, 0))


def test_map_D_to_DL_r5(r5_problem):
    cand = DualCandidateD(qvec(1, 1), QMatrix.zeros(2, 2), qvec(1, -1))
    mapped = map_D_to_DL(r5_problem, cand)
    assert mapped.z == qvec(0, 0)
    assert check_feasible_L(r5_problem, mapped)
    assert objective_L(mapped) == objective_D(r5_problem, cand)


def test_map_D_to_DL_zero_rhs(zb_problem):
    cand = DualCandidateD(qvec(1, 1), QMatrix.zeros(2, 1), qvec(3, -3))
    mapped = map_D_to_DL(zb_problem, cand)
    assert mapped.v == qvec(3, -3)
    assert check_feasible_L(zb_problem, mapped)


def test_map_D_to_DL_rejects_infeasible(r5_problem):
    with pytest.raises(ValueError):
        map_D_to_DL(r5_problem, DualCandidateD(qvec(1, 0), QMatrix.zeros(2, 2), qvec(0, 0)))


def test_map_D_to_DL_after_strong_duality(seg_problem):
    for vertex, cert in efficient_vertices(seg_problem):
        cand = construct_dual_solution(seg_problem, vertex, cert)
        mapped = map_D_to_DL(seg_problem, cand)
        assert objective_L(mapped) == seg_problem.L @ vertex


def test_dual_B_nonempty(r5_problem, seg_problem, no_dual_problem):
    assert dual_B_nonempty(r5_problem)
    assert dual_B_nonempty(seg_problem)
    assert not dual_B_nonempty(no_dual_problem)
    assert feasible_dual_point(no_dual_problem) is None
    cand = feasible_dual_point(r5_problem)
    assert cand is not None and check_feasible_D(r5_problem, cand)


def test_improve_dual_r5(r5_problem):
    cand = DualCandidateD(qvec(1, 1), QMatrix.zeros(2, 2), qvec(1, -1))
    improved = improve_dual_infeasible_primal(r5_problem, cand)
    assert check_feasible_D(r5_problem, improved)
    assert strictly_below(
        r5_problem.cone, objective_D(r5_problem, cand), objective_D(r5_problem, improved)
    )


def test_improve_dual_requires_infeasible_primal(seg_problem):
    cand = feasible_dual_point(seg_problem)
    with pytest.raises(ValueError, match="feasible"):
        improve_dual_infeasible_primal(seg_problem, cand)


@pytest.mark.parametrize("seed", range(10))
def test_weak_duality_random(seed):
    rng = random.Random(400 + seed)
    problem = random_problem(rng)
    duals = sample_dual_points(problem, rng, 8, DualPolyhedron(problem))
    vertices = enumerate_vertices(problem)
    for cand in duals:
        h = objective_D(problem, cand)
        for x in vertices:
            assert not strictly_below(problem.cone, problem.L @ x, h)


@pytest.mark.parametrize("seed", range(10))
def test_inclusion_chain_random(seed):
    rng = random.Random(500 + seed)
    drawn = random_problem(rng)
    # The same L, A and cone with b = 0, where hJ collapses to {0} cap hB.
    zero_b = VlpProblem(drawn.L, drawn.A, QVector.zeros(drawn.m), drawn.cone)
    for problem in (drawn, zero_b):
        duals = sample_dual_points(problem, rng, 4, DualPolyhedron(problem))
        values = [objective_D(problem, c) for c in duals] + [QVector.zeros(problem.k)]
        values += [
            qvec(*[Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(problem.k)]) for _ in range(6)
        ]
        for d in values:
            in_j = membership_hJ(problem, d)
            in_b = membership_hB(problem, d).member
            in_l = membership_hL(problem, d).member
            assert not (in_j.member and not in_b)
            assert not (in_b and not in_l)
            if problem.b.is_zero():
                assert in_j.member == (d.is_zero() and dual_B_nonempty(problem))
            else:
                assert in_j.member == in_b
            if in_j.member:
                assert check_feasible_J(problem, in_j.candidate)
                assert objective_J(problem, in_j.candidate) == d


def test_duality_holds_no_cache():
    assert [name for name, obj in vars(duality).items() if hasattr(obj, "cache_info")] == []


@pytest.mark.parametrize("seed", range(8))
def test_hH_map_lands_in_hB_random(seed):
    rng = random.Random(600 + seed)
    problem = random_problem(rng)
    for U in (QMatrix.zeros(problem.k, problem.m), random_matrix(rng, problem.k, problem.m)):
        if not check_feasible_U(problem, DualCandidateU(U, "H")):
            continue
        start = QVector(tuple(Fraction(rng.randint(0, 4)) for _ in range(problem.n)))
        xbar = minimize_over_image(problem, U, start)
        cand = map_DH_to_D(problem, U, xbar)
        h = objective_D(problem, cand)
        assert membership_hB(problem, h).member
        assert h_H_value_membership(problem, U, h)


@pytest.mark.parametrize("seed", range(8))
def test_converse_duality_random(seed):
    rng = random.Random(700 + seed)
    problem = random_problem(rng)
    for vertex, cert in efficient_vertices(problem):
        cand = construct_dual_solution(problem, vertex, cert)
        d = objective_D(problem, cand)
        recovered = recover_primal(problem, d)
        assert recovered is not None
        assert (problem.L @ recovered) == d
        eff, _ = is_efficient(problem, recovered)
        assert eff


def _branch(problem, d) -> str:
    """Which case of the phase-II oracles d falls in, decided by solving
    min and max of f = lam.d - b.z over P as plain LPs. P is closed under
    scaling by t >= 1, so a finite min or max of f is never on the far
    side of 0, and inf f < 0 < sup f needs both to be unbounded."""
    gp = multiplier_program(problem.cone, lam_z_stack(problem))
    f = QVector(d.entries + (-problem.b).entries)
    low = solve_general(replace(gp, objective=f))
    if isinstance(low, Infeasible):
        return "empty P"
    if isinstance(low, Optimal):
        return "min = 0" if low.value == 0 else "optimal min"
    high = solve_general(replace(gp, objective=-f))
    return "convex combination" if isinstance(high, Unbounded) else "unbounded min"


def test_phase_two_oracles_agree_with_single_lp_systems(no_dual_problem):
    branches = dict.fromkeys(("optimal min", "unbounded min", "min = 0", "convex combination", "empty P"), 0)
    rng = random.Random(900)
    problems = [no_dual_problem, FIXTURES["FIX-R5"].problem, FIXTURES["FIX-ZB"].problem]
    for _ in range(24):
        drawn = random_problem(rng)
        problems += [drawn, VlpProblem(drawn.L, drawn.A, QVector.zeros(drawn.m), drawn.cone)]
    for problem in problems:
        P = DualPolyhedron(problem)
        assert P.empty == (reference_dual_point(problem) is None)
        values = [objective_D(problem, c) for c in sample_dual_points(problem, rng, 3, P)]
        values += [QVector.zeros(problem.k)] + [random_vector(rng, problem.k, -4, 4) for _ in range(4)]
        for d in values:
            branches[_branch(problem, d)] += 1
            sets = P.image_sets(d)
            in_j, in_b, in_l = sets.hJ, sets.hB, sets.hL
            assert in_b.member == (reference_membership(problem, d, relaxed=False) is not None)
            assert in_l.member == (reference_membership(problem, d, relaxed=True) is not None)
            if problem.b.is_zero():
                assert in_j.member == (d.is_zero() and in_b.member)
            else:
                assert in_j.member == in_b.member
            if in_b.member:
                assert check_feasible_D(problem, in_b.candidate) and objective_D(problem, in_b.candidate) == d
            if in_l.member:
                assert check_feasible_L(problem, in_l.candidate) and objective_L(in_l.candidate) == d
            if in_j.member:
                assert check_feasible_J(problem, in_j.candidate) and objective_J(problem, in_j.candidate) == d
    assert all(branches.values()), branches


@pytest.mark.parametrize("seed", range(6))
def test_feasible_dual_point_is_the_multiplier_point(seed):
    rng = random.Random(950 + seed)
    for _ in range(5):
        problem = random_problem(rng)
        cand, ref = feasible_dual_point(problem), reference_dual_point(problem)
        assert (cand is None) == (ref is None) == (not dual_B_nonempty(problem))
        if ref is not None:
            lam, z = ref
            assert cand == DualCandidateD(lam, outer(scaled_generator(problem.cone, lam), z), QVector.zeros(problem.k))


def test_dual_polyhedron_built_once_per_instance(monkeypatch):
    built = []
    init = DualPolyhedron.__init__

    def counting_init(self, problem):
        built.append(problem)
        init(self, problem)

    monkeypatch.setattr(DualPolyhedron, "__init__", counting_init)
    cfg = CampaignConfig(dual_samples=6, primal_samples=6, value_samples=12)
    rng = random.Random(31)
    problems = [fixture.problem for fixture in FIXTURES.values()] + [random_problem(rng) for _ in range(4)]
    for problem in problems:
        built.clear()
        assert run_instance_suite(problem, seed=5, config=cfg).ok
        assert built == [problem]


def test_inclusion_chain_solves_each_minimum_once(monkeypatch):
    from vlpdual import harness, lp

    solves = []
    phase_two = lp.phase_two

    def recording_phase_two(start, c):
        solves.append((id(start), c))
        return phase_two(start, c)

    monkeypatch.setattr(lp, "phase_two", recording_phase_two)
    cfg = CampaignConfig(dual_samples=8, primal_samples=4, value_samples=16)
    total = 0
    for index, (instance, problem) in enumerate(harness._campaign_instances(42, 4)):
        rng = random.Random(index)
        ctx = harness._build_context(problem, rng, cfg)
        solves.clear()
        harness._check_inclusion_chain(ctx, rng)
        assert len(solves) == len(set(solves)), f"{instance}: a cost was solved twice on the same basis"
        total += len(solves)
    assert total > 0


def _phase_two_problems(no_dual_problem, seed):
    """An empty P, a dominated vertex, and 25 random problems each with its
    b = 0 variant."""
    rng = random.Random(seed)
    widened = VlpProblem(qmat([[1, 0, 1], [0, 1, 1]]), qmat([[1, 1, 1]]), qvec(1), orthant(2))
    problems = [no_dual_problem, widened]
    for _ in range(25):
        drawn = random_problem(rng)
        problems += [drawn, VlpProblem(drawn.L, drawn.A, QVector.zeros(drawn.m), drawn.cone)]
    return problems


def test_scalarization_certificates_on_P_agree_with_the_multiplier_system(no_dual_problem):
    cases = dict.fromkeys(("certified", "certified with b = 0", "dominated vertex", "empty P"), 0)
    for problem in _phase_two_problems(no_dual_problem, 1200):
        P = DualPolyhedron(problem)
        for vertex in enumerate_vertices(problem):
            cert = P.certificate(vertex)
            assert cert == proper_efficiency_certificate(problem, vertex)
            assert (cert is None) == (reference_scalarization(problem, vertex) is None)
            if cert is None:
                assert not is_efficient(problem, vertex)[0]
                cases["empty P" if P.empty else "dominated vertex"] += 1
                continue
            assert verify_scalarization_certificate(problem, vertex, cert)
            cases["certified with b = 0" if problem.b.is_zero() else "certified"] += 1
    assert all(cases.values()), cases


def test_lifts_on_Q_U_agree_with_the_multiplier_system(no_dual_problem):
    # lift(x) succeeds exactly when gamma.g >= 1, M^T gamma >= 0,
    # gamma.(Mx) = 0 is feasible, and the gamma step alone, the minimum of
    # lam.(Mx) over Q_U, is 0 exactly then. For a feasible U, value_member
    # agrees with the domination program on the mapped values and on
    # random values.
    cases = dict.fromkeys(("lifted", "lifted with b = 0", "not minimal", "U infeasible", "gamma minimum > 0"), 0)
    values = dict.fromkeys(("member", "not a member: positive optimum", "not a member: empty program"), 0)
    rng = random.Random(1300)
    value_rng = random.Random(1301)
    for problem in _phase_two_problems(no_dual_problem, 1250):
        for U in (QMatrix.zeros(problem.k, problem.m), random_matrix(rng, problem.k, problem.m)):
            image = ReducedImage(problem, U)
            assert image.feasible == (not image.multipliers.empty)
            starts = [QVector.zeros(problem.n)] + [
                QVector(tuple(Fraction(rng.randint(0, 6), rng.choice((1, 2))) for _ in range(problem.n)))
                for _ in range(2)
            ]
            if image.feasible:
                starts += [image.minimize(x) for x in starts]
            for x in starts:
                vbar = image.M @ x
                ref = reference_gamma(problem, U, vbar)
                if not image.multipliers.empty:
                    lowest = image.multipliers.minimize(vbar)
                    assert isinstance(lowest, Optimal) and lowest.value >= 0
                    assert (lowest.value == 0) == (ref is not None)
                    cases["gamma minimum > 0"] += lowest.value > 0
                try:
                    cand = image.lift(x)
                except ValueError as exc:
                    assert "not minimal" in str(exc) and ref is None
                    cases["not minimal" if image.feasible else "U infeasible"] += 1
                    continue
                assert ref is not None
                assert check_feasible_D(problem, cand) and cand == map_DH_to_D(problem, U, x)
                cases["lifted with b = 0" if problem.b.is_zero() else "lifted"] += 1
                for d in (objective_D(problem, cand), random_vector(value_rng, problem.k)):
                    verdict = reference_value_member(problem, U, d)
                    assert image.value_member(d) == (verdict == "member"), (d, verdict)
                    values[verdict] += 1
    assert all(cases.values()), cases
    assert all(values.values()), values
