import copy
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from _oracles import (
    lam_z_stack,
    reference_dual_point,
    reference_gamma,
    reference_max_domination,
    reference_membership,
    reference_scalarization,
    reference_value_member,
)
from vlpdual import duality, exact, lp
from vlpdual.cone import domination_program, multiplier_program, orthant, strictly_below, verify_dominator
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
    recession_image_pointed,
    verify_scalarization_certificate,
)
from vlpdual.exact import CertificateError, QMatrix, QVector, VertexLimitError, outer, qmat, qvec
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
        # Q_U decides; the bounded domination program at 0 is solved on its own
        via_lam = check_feasible_U(problem, DualCandidateU(U, "H"))
        via_image = reference_max_domination(problem.cone, problem.L - (U @ problem.A), QVector.zeros(problem.n)) == 0
        assert via_lam == via_image == (u_feasibility_multiplier(problem, U) is not None)


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


def test_improve_dual_r5(r5_problem, monkeypatch):
    # One Farkas row of the empty primal set serves every dual point.
    cands = [DualCandidateD(qvec(1, 1), QMatrix.zeros(2, 2), qvec(1, -1)), feasible_dual_point(r5_problem)]
    started = []
    phase_one = lp.phase_one

    def recording_phase_one(program):
        started.append(program)
        return phase_one(program)

    monkeypatch.setattr(lp, "phase_one", recording_phase_one)
    improved = improve_dual_infeasible_primal(r5_problem, cands)
    assert len(started) == 1 and len(improved) == len(cands)
    for cand, better in zip(cands, improved):
        assert check_feasible_D(r5_problem, better)
        assert strictly_below(r5_problem.cone, objective_D(r5_problem, cand), objective_D(r5_problem, better))


def test_improve_dual_requires_infeasible_primal(seg_problem):
    cand = feasible_dual_point(seg_problem)
    with pytest.raises(ValueError, match="feasible"):
        improve_dual_infeasible_primal(seg_problem, [cand])


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


def test_inclusion_chain_runs_no_phase_two_after_the_context(monkeypatch):
    # Building the context asks P for its dual point and its certificates;
    # by the chain's first value P has had a question, so the chain reads
    # every verdict off the V-form.
    from vlpdual import harness

    solves = []
    phase_two = lp.phase_two

    def recording_phase_two(start, c):
        solves.append((id(start), c))
        return phase_two(start, c)

    monkeypatch.setattr(lp, "phase_two", recording_phase_two)
    cfg = CampaignConfig(dual_samples=8, primal_samples=4, value_samples=16)
    chains = 0
    for index, (instance, problem) in enumerate(harness._campaign_instances(42, 4)):
        rng = random.Random(index)
        ctx = harness._build_context(problem, enumerate_vertices(problem), rng, cfg)
        solves.clear()
        count, failures, _ = harness._check_inclusion_chain(ctx)
        assert not failures
        assert not solves, f"{instance}: the chain ran {len(solves)} phase II"
        chains += count > 0 and not ctx.polyhedron.empty
    assert chains > 0


def test_campaign_lp_runs_are_pinned(monkeypatch):
    # Seed 42, count 12: phase I once per polyhedron or one-shot LP, and
    # phase II only where no V-form answers; minimize from 0 and a primal
    # already decided run none. A change to either count is a change in LP
    # work, made on purpose or not.
    from vlpdual import harness

    runs = {"phase one": 0, "phase two": 0}
    phase_one, phase_two = lp.phase_one, lp.phase_two

    def counted_phase_one(program):
        runs["phase one"] += 1
        return phase_one(program)

    def counted_phase_two(start, c):
        runs["phase two"] += 1
        return phase_two(start, c)

    monkeypatch.setattr(lp, "phase_one", counted_phase_one)
    monkeypatch.setattr(lp, "phase_two", counted_phase_two)
    assert harness.run_random_campaign(42, 12).ok
    assert runs == {"phase one": 150, "phase two": 567}


def _split_farkas(problem, farkas) -> tuple[QVector, QVector]:
    """(mu, x): a Farkas row of a multiplier program, split after its generator rows."""
    g = len(problem.cone.generators)
    return QVector(farkas.entries[:g]), QVector(farkas.entries[g:])


def _no_domination(program):
    raise AssertionError("a verdict read off Q_U or P ran a domination program")


def test_campaign_verdicts_match_the_domination_programs(monkeypatch):
    # Seed 42, count 12, each context as the campaign builds it: U
    # feasibility, recession pointedness and each vertex's efficiency agree
    # with the bounded domination program, solved on its own, and the first
    # two run no domination program. Each empty Q_U's and empty P's Farkas
    # row splits into (mu, x) that passes verify_dominator at 0, which pins
    # the sign of Region.farkas.
    from vlpdual import cone, harness

    cases = dict.fromkeys(("empty P", "nonempty P", "empty Q_U", "nonempty Q_U", "efficient", "dominated"), 0)
    for index, (_, problem) in enumerate(harness._campaign_instances(42, 12)):
        rng = random.Random(42 * 1000003 + index)
        ctx = harness._build_context(problem, enumerate_vertices(problem), rng, CampaignConfig())
        with monkeypatch.context() as patch:
            patch.setattr(cone, "solve_lp", _no_domination)
            pointed = recession_image_pointed(ctx.polyhedron)
            feasible = [image.feasible for image in ctx.images]
        zero_x, zero_image = QVector.zeros(problem.n), QVector.zeros(problem.k)
        recession = (problem.A, QVector.zeros(problem.m))
        assert pointed == (reference_max_domination(problem.cone, problem.L, zero_x, recession) == 0)
        if not pointed:
            mu, x = _split_farkas(problem, ctx.polyhedron.farkas)
            assert verify_dominator(problem.cone, problem.L, zero_image, x, mu, recession)
        cases["nonempty P" if pointed else "empty P"] += 1
        for image, verdict in zip(ctx.images, feasible):
            assert verdict == (reference_max_domination(problem.cone, image.M, zero_x) == 0)
            if not verdict:
                mu, x = _split_farkas(problem, image.multipliers.farkas)
                assert verify_dominator(problem.cone, image.M, zero_image, x, mu)
            cases["nonempty Q_U" if verdict else "empty Q_U"] += 1
        for vertex, eff, _ in ctx.vertex_status:
            assert eff == (reference_max_domination(problem.cone, problem.L, vertex, (problem.A, problem.b)) == 0)
            cases["efficient" if eff else "dominated"] += 1
    assert all(cases.values()), cases


def _over_limit(rows, rhs):
    raise VertexLimitError("one enumeration step compares too many ray pairs")


def _phase_two_only(monkeypatch, region):
    """A copy of a fresh nonempty Region, sharing its phase-I basis, after
    two questions asked while its V-form was over the limit, so it answers
    every later question by phase II."""
    ref = copy.copy(region)
    with monkeypatch.context() as patch:
        patch.setattr(lp, "polyhedron_generators", _over_limit)
        ref.ask()
        ref.ask()
    return ref


def _no_phase_two(start, c):
    raise AssertionError("a V-form answer ran phase II")


def _verdicts(sets) -> tuple[bool, bool, bool]:
    return sets.hL.member, sets.hB.member, sets.hJ.member


def _v_form_disagreements(monkeypatch, problems, cases) -> list:
    """Each problem whose V-form answers differ from phase II's on P's dual
    point's value, 0, two random values and L x at each primal vertex, or
    whose certificates at those vertices differ; cases counts what the
    V-form met along the way."""
    rng = random.Random(1400)
    wrong = []
    for problem in problems:
        P = DualPolyhedron(problem)
        vertices, rays, lineality = P.v_form()
        if P.empty:
            assert not vertices
            cases["empty P"] += 1
            continue
        ref = _phase_two_only(monkeypatch, P)
        primal = enumerate_vertices(problem)
        values = [objective_D(problem, ref.dual_point()), QVector.zeros(problem.k)]
        values += [random_vector(rng, problem.k, -4, 4) for _ in range(2)] + [problem.L @ x for x in primal]
        expected = [_verdicts(ref.image_sets(d)) for d in values], [ref.certificate(x) is None for x in primal]
        P.dual_point()  # the first question; the second builds the V-form
        try:
            with monkeypatch.context() as patch:
                patch.setattr(lp, "phase_two", _no_phase_two)
                verdicts = [_verdicts(P.image_sets(d)) for d in values]
                certs = [P.certificate(x) for x in primal]
        except CertificateError:
            wrong.append(problem)
            continue
        if (verdicts, [c is None for c in certs]) != expected:
            wrong.append(problem)
            continue
        assert all(verify_scalarization_certificate(problem, x, c) for x, c in zip(primal, certs) if c is not None)
        cases["nonzero lineality"] += bool(lineality)
        for d in values:
            f = QVector(d.entries + (-problem.b).entries)
            below, above = any(f.dot(r) < 0 for r in rays), any(f.dot(r) > 0 for r in rays)
            cases["ray below"] += below
            cases["ray above"] += above
            flat = not below and all(f.dot(u) == 0 for u in lineality)
            cases["min = 0"] += flat and min(f.dot(v) for v in vertices) == 0
    return wrong


def _agreement_problems(count: int) -> list[VlpProblem]:
    rng = random.Random(1500)
    problems = []
    for _ in range(count):
        drawn = random_problem(rng)
        problems += [drawn, VlpProblem(drawn.L, drawn.A, QVector.zeros(drawn.m), drawn.cone)]
    return problems


def _lifts(image: ReducedImage, x: QVector) -> bool:
    try:
        image.lift(x)
    except ValueError as exc:
        assert "not minimal" in str(exc)
        return False
    return True


def _q_u_disagreements(monkeypatch, problems, cases) -> list:
    """Each (problem, U) whose Q_U, past its second question, answers a
    lift or a value membership unlike a copy of it that stays on phase II.
    U is 0 or random; the lifts are asked at 0, two random points and the
    points `minimize` finds from them, and the values are U b + M x at
    those points and one random value. cases counts the answers."""
    rng = random.Random(1600)
    wrong = []
    for problem in problems:
        for U in (QMatrix.zeros(problem.k, problem.m), random_matrix(rng, problem.k, problem.m)):
            image = ReducedImage(problem, U)
            if not image.feasible:
                continue
            ref = copy.copy(image)
            ref.multipliers = _phase_two_only(monkeypatch, image.multipliers)
            starts = [QVector.zeros(problem.n)] + [
                QVector(tuple(Fraction(rng.randint(0, 6), rng.choice((1, 2))) for _ in range(problem.n)))
                for _ in range(2)
            ]
            starts += [image.minimize(x) for x in starts]
            values = [image.M @ x + U @ problem.b for x in starts] + [random_vector(rng, problem.k, -4, 4)]
            expected = [_lifts(ref, x) for x in starts], [ref.value_member(d) for d in values]
            image.value_member(values[-1])  # the first question; the second builds the V-form
            try:
                with monkeypatch.context() as patch:
                    patch.setattr(lp, "phase_two", _no_phase_two)
                    answers = [_lifts(image, x) for x in starts], [image.value_member(d) for d in values]
            except CertificateError:
                wrong.append((problem, U))
                continue
            if answers != expected:
                wrong.append((problem, U))
                continue
            cases["lifted"] += sum(answers[0])
            cases["not minimal"] += answers[0].count(False)
            cases["value member"] += sum(answers[1])
            cases["value not a member"] += answers[1].count(False)
    return wrong


_P_CASES = ("empty P", "nonzero lineality", "ray below", "ray above", "min = 0")
_Q_U_CASES = ("lifted", "not minimal", "value member", "value not a member")


def test_v_form_answers_equal_phase_two_answers(monkeypatch):
    cases = dict.fromkeys(_P_CASES, 0)
    assert _v_form_disagreements(monkeypatch, _agreement_problems(300), cases) == []
    assert all(cases.values()), cases
    cases = dict.fromkeys(_Q_U_CASES, 0)
    assert _q_u_disagreements(monkeypatch, _agreement_problems(100), cases) == []
    assert all(cases.values()), cases


def test_agreement_catches_a_dropped_vertex(monkeypatch):
    generators = lp.polyhedron_generators

    def one_vertex_dropped(rows, rhs):
        vertices, rays, lineality = generators(rows, rhs)
        return vertices[1:] if len(vertices) > 1 else vertices, rays, lineality

    monkeypatch.setattr(lp, "polyhedron_generators", one_vertex_dropped)
    assert _v_form_disagreements(monkeypatch, _agreement_problems(60), dict.fromkeys(_P_CASES, 0))
    assert _q_u_disagreements(monkeypatch, _agreement_problems(60), dict.fromkeys(_Q_U_CASES, 0))


def test_value_unbounded_below_on_Q_U_is_no_member(monkeypatch, seg_problem):
    # With U = 0, Q_U = {lam >= (1, 1)}. t = (1, -1) is 0 at its one vertex
    # and falls along its ray (0, 1), so min t.lam is unbounded, and
    # (1, -1), which no x >= 0 maps to, is in no image set: by phase II on
    # the first question and off the V-form on the later ones.
    image = ReducedImage(seg_problem, QMatrix.zeros(2, 1))
    assert not image.value_member(qvec(1, -1))
    assert not image.value_member(qvec(1, -1))
    monkeypatch.setattr(lp, "phase_two", _no_phase_two)
    assert not image.value_member(qvec(1, -1))
    assert image.value_member(qvec(0, 0))


def _over_limit_problem() -> VlpProblem:
    rng = random.Random(0)
    L = random_matrix(rng, 3, 20)
    A = random_matrix(rng, 5, 20)
    ones = QVector((Fraction(1),) * 20)
    return VlpProblem(QMatrix(3, 20, tuple(abs(e) for e in L.entries)), A, A @ ones, orthant(3))


def test_over_limit_P_answers_by_phase_two(monkeypatch):
    problem = _over_limit_problem()
    attempts = []
    generators = lp.polyhedron_generators

    def recording(rows, rhs):
        attempts.append(rows.rows)
        return generators(rows, rhs)

    monkeypatch.setattr(lp, "polyhedron_generators", recording)
    P = DualPolyhedron(problem)
    with pytest.raises(VertexLimitError):
        P.v_form()
    attempts.clear()
    values = (QVector.zeros(3), problem.L @ QVector((Fraction(1),) * 20))
    for d in values:
        assert _verdicts(P.image_sets(d)) == _verdicts(DualPolyhedron(problem).image_sets(d))
    assert _verdicts(P.image_sets(values[0])) == (True, True, True)
    assert len(attempts) == 1  # the second question tried once; the third did not


def test_one_shot_queries_build_no_v_form(monkeypatch, seg_problem):
    widths = []
    extreme_rays = exact.extreme_rays

    def recording(rows, n):
        widths.append(n)
        return extreme_rays(rows, n)

    monkeypatch.setattr(exact, "extreme_rays", recording)
    membership_hB(seg_problem, qvec(1, 0))
    membership_hL(seg_problem, qvec(0, 1))
    proper_efficiency_certificate(seg_problem, qvec(1, 0))
    U = QMatrix.zeros(seg_problem.k, seg_problem.m)
    map_DH_to_D(seg_problem, U, qvec(0, 0))
    assert h_H_value_membership(seg_problem, U, qvec(0, 0))
    assert widths == []
    P = DualPolyhedron(seg_problem)
    P.image_sets(qvec(1, 0))
    P.image_sets(qvec(0, 1))
    assert widths == [len(seg_problem.cone.generators) + seg_problem.n + 1]  # a slack per row of P, and t


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
            # From the second vertex on, P reads its certificate off the V-form,
            # and the one-shot wrapper's phase II may stop at another vertex of
            # the same face of P.
            assert (cert is None) == (proper_efficiency_certificate(problem, vertex) is None)
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
            assert image.feasible == (reference_max_domination(problem.cone, image.M, QVector.zeros(problem.n)) == 0)
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
                # From Q_U's second question on, gamma comes off its V-form, and
                # the one-shot wrapper's phase II may stop at another vertex of
                # the same face of Q_U; U and v are the same.
                one_shot = map_DH_to_D(problem, U, x)
                assert check_feasible_D(problem, cand) and check_feasible_D(problem, one_shot)
                assert (cand.U, cand.v) == (one_shot.U, one_shot.v)
                cases["lifted with b = 0" if problem.b.is_zero() else "lifted"] += 1
                for d in (objective_D(problem, cand), random_vector(value_rng, problem.k)):
                    verdict = reference_value_member(problem, U, d)
                    assert image.value_member(d) == (verdict == "member"), (d, verdict)
                    values[verdict] += 1
    assert all(cases.values()), cases
    assert all(values.values()), values
