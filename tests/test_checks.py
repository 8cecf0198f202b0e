"""`vlpdual.checks`: the shared (lam, z) test against the dual checks'
definitions over the reduced map L - UA."""

import random
from collections import Counter

from _oracles import reduced_map_feasible_D, reduced_map_feasible_J, reduced_map_feasible_L

from vlpdual import checks, duality, efficiency
from vlpdual.cone import in_quasi_interior
from vlpdual.duality import DualPolyhedron
from vlpdual.model import DualCandidateD, DualCandidateJ, DualCandidateL, objective_D
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
