import random

from _oracles import reference_sample_dual_points
from vlpdual import lp
from vlpdual.duality import DualPolyhedron, check_feasible_D
from vlpdual.harness import FIXTURES, CampaignConfig, run_instance_suite
from vlpdual.lp import Infeasible, phase_one
from vlpdual.sampling import random_problem, sample_dual_points, sample_quasi_interior

# Seeds 4, 5, 11, 25, 30 and 33 draw lam whose z-set is empty.
SEEDS = (0, 1, 2, 3, 4, 5, 6, 11, 25, 30, 33)


def test_sample_dual_points_match_per_sample_solves(monkeypatch):
    runs = []

    def counted(program):
        out = phase_one(program)
        runs.append(out)
        return out

    monkeypatch.setattr(lp, "phase_one", counted)
    empty_sets = samples = 0
    for seed in SEEDS:
        problem = random_problem(random.Random(seed))
        polyhedron = DualPolyhedron(problem)
        runs.clear()
        got = sample_dual_points(problem, random.Random(seed), 16, polyhedron)
        # the rng draws the lam pool right after the seeded point, as the sampler does
        lams = sample_quasi_interior(random.Random(seed), problem.cone, 4)
        assert len(runs) <= len(set(lams)), "phase I ran more than once for one lam"
        empty_sets += sum(isinstance(run, Infeasible) for run in runs)
        # the reference solves each sample afresh, so it is run after the count
        assert got == reference_sample_dual_points(problem, random.Random(seed), 16, polyhedron)
        assert all(check_feasible_D(problem, cand) for cand in got)
        samples += max(len(got) - 1, 0)
    assert empty_sets > 0
    assert samples > 4 * len(SEEDS)


def test_no_dual_samples_means_none():
    # P is nonempty on both fixtures, so B_empty must come from P, not from
    # the (empty) sample list.
    for name in ("FIX-SEG", "FIX-ZB"):
        problem = FIXTURES[name].problem
        polyhedron = DualPolyhedron(problem)
        assert not polyhedron.empty
        assert sample_dual_points(problem, random.Random(1), 0, polyhedron) == []
        report = run_instance_suite(problem, seed=1, config=CampaignConfig(dual_samples=0))
        assert report.ok, [r for r in report.records if r.status == "fail"]
        (quadrant,) = [r for r in report.records if r.check == "quadrant"]
        assert quadrant.witness["info"] == {"A_empty": False, "B_empty": False}
