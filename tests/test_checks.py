"""`vlpdual.checks`: the shared (lam, z) test against the dual checks'
definitions over the reduced map L - UA."""

import random
from collections import Counter

from _oracles import reduced_map_feasible_D, reduced_map_feasible_J, reduced_map_feasible_L

from vlpdual import checks, duality, efficiency, harness
from vlpdual.cone import in_quasi_interior, orthant
from vlpdual.duality import DualPolyhedron
from vlpdual.exact import QMatrix, qmat, qvec
from vlpdual.model import DualCandidateD, DualCandidateJ, DualCandidateL, VlpProblem, objective_D
from vlpdual.sampling import random_matrix, random_problem, random_vector, sample_dual_points, sample_quasi_interior


def _candidates(problem, rng):
    """Feasible D points from the sampler, each also broken one way at a
    time, and random ones; each D point gives a J and an L candidate."""
    feasible = sample_dual_points(problem, rng, 6, DualPolyhedron(problem))
    drawn = [
        DualCandidateD(lam, random_matrix(rng, problem.k, problem.m), random_vector(rng, problem.k))
        for lam in sample_quasi_interior(rng, problem.cone, 2)
    ]
    g = problem.cone.generators[0]
    out = []
    for cand in feasible + drawn:
        lam, U, v = cand.lam, cand.U, cand.v
        for D in (cand, DualCandidateD(-lam, U, v), DualCandidateD(lam, U, v + g)):
            z = D.U.T @ D.lam
            value = objective_D(problem, D)
            out += [D, DualCandidateJ(D.lam, D.U), DualCandidateL(D.lam, z, value)]
            out.append(DualCandidateL(D.lam, z, value + g))  # lam.v - b.z moves up by lam.g
        out.append(DualCandidateD(lam, U + random_matrix(rng, problem.k, problem.m), v))
    return out


def _cases(problem, cand) -> list[str]:
    """Which parts of its definition the candidate meets or breaks."""
    lam = cand.lam
    z = cand.z if isinstance(cand, DualCandidateL) else cand.U.T @ lam
    cases = []
    if not in_quasi_interior(problem.cone, lam):
        cases.append("lam outside the quasi-interior")
    if not ((problem.L.T @ lam) - (problem.A.T @ z)).is_nonneg():
        cases.append("reduced map negative")
    if isinstance(cand, DualCandidateD) and lam.dot(cand.v) != 0:
        cases.append("lam.v != 0")
    if isinstance(cand, DualCandidateL) and lam.dot(cand.v) - cand.z.dot(problem.b) > 0:
        cases.append("lam.v - b.z > 0")
    return cases or ["feasible"]


def test_shared_lam_z_test_matches_the_reduced_map_definitions():
    pairs = {
        DualCandidateD: (checks.check_feasible_D, reduced_map_feasible_D),
        DualCandidateJ: (checks.check_feasible_J, reduced_map_feasible_J),
        DualCandidateL: (checks.check_feasible_L, reduced_map_feasible_L),
    }
    rng = random.Random(20)
    counts = Counter()
    for _ in range(12):
        problem = random_problem(rng)
        for cand in _candidates(problem, rng):
            check, reference = pairs[type(cand)]
            assert check(problem, cand) == reference(problem, cand), (problem, cand)
            counts.update(f"{type(cand).__name__}: {case}" for case in _cases(problem, cand))
            counts["total"] += 1
    expected = [
        f"DualCandidate{kind}: {case}"
        for kind in "DJL"
        for case in ("feasible", "lam outside the quasi-interior", "reduced map negative")
    ] + ["DualCandidateD: lam.v != 0", "DualCandidateL: lam.v - b.z > 0"]
    assert counts["total"] >= 200, counts
    assert all(counts[case] > 0 for case in expected), counts


def test_duality_and_efficiency_bind_the_checks_by_name():
    assert duality.check_feasible_D is checks.check_feasible_D
    assert duality.check_feasible_J is checks.check_feasible_J
    assert duality.check_feasible_L is checks.check_feasible_L
    assert efficiency.verify_scalarization_certificate is checks.verify_scalarization_certificate


def _counted_tests(monkeypatch) -> list:
    """Every (lam, z) that `_dual_feasible` evaluates rather than reads
    off its problem's memo."""
    evaluated = []
    test = checks._lam_z_test

    def counted(problem, lam, z):
        evaluated.append((lam, z))
        return test(problem, lam, z)

    monkeypatch.setattr(checks, "_lam_z_test", counted)
    return evaluated


def test_memo_keeps_each_verdict_to_its_own_lam_z(monkeypatch):
    # The segment problem: (lam, z) is feasible iff lam > 0 and lam_j >= z.
    # The same lam with another z is tested afresh and rejected, and a
    # rejected witness stays rejected when asked again.
    problem = VlpProblem(QMatrix.identity(2), qmat([[1, 1]]), qvec(1), orthant(2))
    evaluated = _counted_tests(monkeypatch)
    lam = qvec(1, 1)
    asked = [(lam, qvec(1), True), (lam, qvec(2), False), (lam, qvec(1), True), (lam, qvec(2), False)]
    asked += [(qvec(1, 0), qvec(0), False), (qvec(1, 0), qvec(0), False), (qvec(2, 2), qvec(2), True)]
    for lam, z, verdict in asked:
        cand = DualCandidateL(lam, z, qvec(0, 0))
        assert checks.check_feasible_L(problem, cand) is verdict, (lam, z)
    assert evaluated == [(qvec(1, 1), qvec(1)), (qvec(1, 1), qvec(2)), (qvec(1, 0), qvec(0)), (qvec(2, 2), qvec(2))]


def test_campaign_tests_each_lam_z_once_per_problem(monkeypatch):
    # Seed 42, count 12, fixtures built afresh so that no earlier campaign
    # in this process left verdicts on them: 2,087 dual-feasibility tests
    # come to 409 distinct (problem, lam, z).
    monkeypatch.setattr(harness, "FIXTURES", harness._fixtures())
    evaluated = _counted_tests(monkeypatch)
    assert harness.run_random_campaign(42, 12).ok
    assert len(evaluated) == 409
