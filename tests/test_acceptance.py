"""Acceptance suite: every criterion runs at its stated size and tolerance
(all tolerances are zero; everything is exact), printing one line each."""

import hashlib
import random
import time

import pytest

from _oracles import brute_vertices
from vlpdual.duality import membership_hB, membership_hJ, membership_hL
from vlpdual.efficiency import (
    enumerate_vertices,
    is_efficient,
    proper_efficiency_certificate,
)
from vlpdual.exact import QMatrix, QVector, qmat, qvec
from vlpdual.harness import FIXTURES, emit_report, run_fixture, run_random_campaign
from vlpdual.lp import Infeasible, LinearProgram, Optimal, solve_lp, verify_outcome
from vlpdual.sampling import random_problem, random_rational

SEED = 42
COUNT = 100
# sha256 of emit_report(run_random_campaign(SEED, COUNT), "json"). Campaign
# records carry no timings, so any change to an oracle's answers, witnesses
# or pivot sequences moves this digest.
GOLDEN_DIGEST = "acb7d98f0e4537531d0e34430fcda0c308346b8543014c4331bb6428833af2fe"
# The same hash for a small campaign on another seed, so a change that keeps
# seed 42 byte-identical but moves other seeds still shows.
SECOND_SEED, SECOND_COUNT = 7, 20
SECOND_DIGEST = "54015721b72de5e008b4043dbfa32280c15fac57e31cb194f24f348f79700af0"


@pytest.fixture(scope="module")
def campaign():
    started = time.perf_counter()
    report = run_random_campaign(seed=SEED, count=COUNT)
    elapsed = time.perf_counter() - started
    return report, elapsed


def _passed(report, check):
    records = report.select(check)
    assert records, f"no records for {check}"
    bad = [r for r in records if r.status == "fail"]
    assert not bad, f"{check} failures: {[r.witness for r in bad][:2]}"
    return sum((r.witness or {}).get("count", 0) for r in records)


def test_criterion_1_flagship_fixture_reproduction():
    started = time.perf_counter()
    report = run_fixture("FIX-R5")
    elapsed = time.perf_counter() - started
    assert report.ok
    statuses = {r.check: r.status for r in report.records}
    assert statuses == {
        "check_feasible_L": "pass",
        "membership_hL": "pass",
        "membership_hB": "pass",
        "vertices": "pass",
        "dual_B_nonempty": "pass",
    }
    assert elapsed < 1.0
    print(f"\nCRITERION 1 PASS: flagship fixture FIX-R5 reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_efficiency_suite():
    rng = random.Random(SEED)
    started = time.perf_counter()
    instances = [random_problem(rng) for _ in range(COUNT)]
    checked = 0
    for problem in instances:
        for vertex in enumerate_vertices(problem):
            eff, _ = is_efficient(problem, vertex)
            cert = proper_efficiency_certificate(problem, vertex)
            assert eff == (cert is not None), "efficiency and scalarization disagree"
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert checked > 0
    print(f"\nCRITERION 2 PASS: {checked} vertices over {COUNT} instances, 0 exceptions, {elapsed:.1f}s")


def test_criterion_3_weak_duality(campaign):
    report, _ = campaign
    pairs = _passed(report, "weak_duality")
    assert pairs > 0
    print(f"\nCRITERION 3 PASS: weak duality on {pairs} primal-dual pairs, 0 violations")


def test_criterion_4_strong_duality(campaign):
    report, _ = campaign
    built = _passed(report, "strong_duality")
    assert built > 0
    print(f"\nCRITERION 4 PASS: strong duality construction exact on {built} efficient vertices")


def test_criterion_5_converse_duality(campaign):
    report, _ = campaign
    recovered = _passed(report, "converse_duality")
    assert recovered > 0
    print(f"\nCRITERION 5 PASS: converse duality recovery exact on {recovered} dual objectives")


def test_criterion_6_u_feasibility(campaign):
    report, _ = campaign
    pairs = _passed(report, "u_feasibility_agreement")
    assert pairs >= 200
    print(f"\nCRITERION 6 PASS: two-sided U-feasibility agreement on {pairs} (instance, U) pairs")


def test_criterion_7_inclusion_chain(campaign):
    report, _ = campaign
    probes = _passed(report, "inclusion_chain")
    mapped = _passed(report, "hH_to_hB_map")
    assert probes >= 50 * COUNT
    # strict gap h(B) < hL, pinned on the FIX-R5 instance
    r5 = FIXTURES["FIX-R5"].problem
    assert membership_hL(r5, qvec(-1, -1)).member
    assert not membership_hB(r5, qvec(-1, -1)).member
    # strict gap hJ < h(B) at b = 0
    zb = FIXTURES["FIX-ZB"].problem
    assert not membership_hJ(zb, qvec(1, -1)).member
    assert membership_hB(zb, qvec(1, -1)).member
    print(
        f"\nCRITERION 7 PASS: chain on {probes} values, {mapped} mapped points; both strictness gaps witnessed"
    )


def test_criterion_8_lp_engine():
    rng = random.Random(99)
    outcomes = {"opt": 0, "inf": 0, "unb": 0}
    for _ in range(500):
        n, m = rng.randint(1, 6), rng.randint(1, 3)
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
            outcomes["opt"] += 1
            assert c.dot(out.x) == b.dot(out.y)
            assert out.value == min(c.dot(v) for v in verts)
        elif isinstance(out, Infeasible):
            outcomes["inf"] += 1
            assert not verts
        else:
            outcomes["unb"] += 1
            assert verts
    # curated degenerate / cycling-prone set: termination plus verified outcomes
    curated = [
        LinearProgram(
            qvec(0, 0, 0, "-3/4", 150, "-1/50", 6),
            qmat(
                [
                    [1, 0, 0, "1/4", -60, "-1/25", 9],
                    [0, 1, 0, "1/2", -90, "-1/50", 3],
                    [0, 0, 1, 0, 0, 1, 0],
                ]
            ),
            qvec(0, 0, 1),
        ),
        LinearProgram(
            qvec(-2, -3, 1, 12),
            qmat([[-2, -9, 1, 9], ["1/3", 1, "-1/3", -2]]),
            qvec(0, 0),
        ),
        LinearProgram(qvec(1, 0, 0), qmat([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), qvec(1, 1, 1)),
        LinearProgram(qvec(0, 0), qmat([[1, 1], [1, 1], [2, 2]]), qvec(1, 1, 2)),
        LinearProgram(qvec(1, 1, 1, 1), qmat([[1, -1, 1, -1]]), qvec(0)),
    ]
    for lp in curated:
        assert verify_outcome(lp, solve_lp(lp))
    assert all(v > 0 for v in outcomes.values())
    print(f"\nCRITERION 8 PASS: 500 random LPs certified exactly ({outcomes}); degenerate set terminates")


def test_criterion_9_emptiness_logic(campaign):
    report, _ = campaign
    t5 = _passed(report, "emptiness_biconditional")
    t6 = _passed(report, "improvement_on_empty_primal")
    assert t5 > 0 and t6 > 0
    quadrants = set()
    for record in report.select("quadrant"):
        info = record.witness["info"]
        quadrants.add((info["A_empty"], info["B_empty"]))
    assert quadrants == {(False, False), (False, True), (True, False), (True, True)}
    print(
        f"\nCRITERION 9 PASS: emptiness biconditional on {t5} instances, improvement step on {t6} dual points, "
        f"all 4 emptiness quadrants exercised"
    )


def test_campaign_green_overall(campaign):
    report, elapsed = campaign
    failures = [r for r in report.records if r.status == "fail"]
    assert not failures, failures[:2]
    print(f"\nCAMPAIGN: {len(report.records)} records over {COUNT}+5 instances in {elapsed:.1f}s, 0 failures")


def test_campaign_golden_digest(campaign):
    report, _ = campaign
    digest = hashlib.sha256(emit_report(report, "json").encode("utf-8")).hexdigest()
    assert digest == GOLDEN_DIGEST
    print(f"\nGOLDEN DIGEST: {len(report.records)} records, sha256 {digest}")


def test_campaign_second_seed_digest():
    report = run_random_campaign(seed=SECOND_SEED, count=SECOND_COUNT)
    digest = hashlib.sha256(emit_report(report, "json").encode("utf-8")).hexdigest()
    assert digest == SECOND_DIGEST
