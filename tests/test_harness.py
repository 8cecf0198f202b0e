import json
import os
import random
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from vlpdual import cone, duality, harness, lp
from vlpdual.cli import main
from vlpdual.cone import orthant
from vlpdual.efficiency import enumerate_vertices
from vlpdual.exact import QMatrix, QVector, qmat, qvec
from vlpdual.harness import (
    CampaignConfig,
    CheckRecord,
    FIXTURES,
    VerificationReport,
    emit_report,
    run_all_fixtures,
    run_fixture,
    run_instance_suite,
    run_random_campaign,
)
from vlpdual.model import VlpProblem, load_problem, problem_to_dict, vector_to_list
from vlpdual.sampling import random_problem

REPO = Path(__file__).resolve().parent.parent
SMALL = CampaignConfig(dual_samples=6, primal_samples=6, value_samples=6)


@pytest.fixture(scope="module")
def small_campaign():
    return run_random_campaign(seed=42, count=3, config=SMALL)


def test_fixture_r5_passes():
    report = run_fixture("FIX-R5")
    assert report.ok
    assert {r.check for r in report.records} == {
        "check_feasible_L",
        "membership_hL",
        "membership_hB",
        "vertices",
        "dual_B_nonempty",
    }


def test_fixture_zb_passes():
    assert run_fixture("FIX-ZB").ok


def test_fixture_seg_passes():
    assert run_fixture("FIX-SEG").ok


def test_all_fixtures():
    report = run_all_fixtures()
    assert report.ok
    assert {r.instance for r in report.records} == set(FIXTURES)


def test_unknown_fixture():
    with pytest.raises(ValueError, match="unknown fixture"):
        run_fixture("FIX-NOPE")


def test_campaign_rejects_zero_count():
    with pytest.raises(ValueError):
        run_random_campaign(seed=1, count=0)


@pytest.mark.parametrize("field", ["dual_samples", "primal_samples", "value_samples"])
def test_campaign_config_rejects_a_negative_size(field):
    # a negative size once sliced the samples away, out[:-2], and the checks ran on nothing
    with pytest.raises(ValueError, match=field):
        CampaignConfig(**{field: -2})
    assert getattr(CampaignConfig(**{field: 0}), field) == 0


@pytest.mark.parametrize("args", [["--count", "0"], ["--count", "1", "--value-samples", "-2"]])
def test_campaign_script_reports_bad_sizes_as_usage_errors(args):
    # exit 1 means a verification failed; a bad size is a usage error, exit 2
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = [sys.executable, str(REPO / "scripts" / "run_campaign.py"), "--seed", "1", *args]
    proc = subprocess.run(script, env=env, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "must be >=" in proc.stderr and "Traceback" not in proc.stderr


def test_campaign_passes(small_campaign):
    assert small_campaign.ok


def test_campaign_deterministic(small_campaign):
    again = run_random_campaign(seed=42, count=3, config=SMALL)
    assert emit_report(again, "json") == emit_report(small_campaign, "json")
    assert emit_report(again, "human") == emit_report(small_campaign, "human")


def test_campaign_different_seed_differs(small_campaign):
    other = run_random_campaign(seed=43, count=3, config=SMALL)
    assert emit_report(other, "json") != emit_report(small_campaign, "json")


def test_no_check_is_vacuous(small_campaign):
    counts = small_campaign.counts()
    from vlpdual.harness import _CAMPAIGN_CHECKS

    for name, _ in _CAMPAIGN_CHECKS:
        assert counts.get(name, 0) > 0, f"{name} never executed"


def test_campaign_covers_quadrants(small_campaign):
    seen = set()
    for record in small_campaign.select("quadrant"):
        info = record.witness["info"]
        seen.add((info["A_empty"], info["B_empty"]))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_records_sorted(small_campaign):
    keys = [(r.instance, r.check) for r in small_campaign.records]
    assert keys == sorted(keys)


def test_check_order_changes_no_record(monkeypatch):
    # Checks only read the instance context, and each fact two of them
    # share is derived once on it, so no order of the checks moves a record.
    forward = run_random_campaign(42, 12).records
    shuffled = list(harness._CAMPAIGN_CHECKS)
    random.Random(0).shuffle(shuffled)
    for order in (harness._CAMPAIGN_CHECKS[::-1], tuple(shuffled)):
        assert order != harness._CAMPAIGN_CHECKS
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_CAMPAIGN_CHECKS", order)
            assert run_random_campaign(42, 12).records == forward


def test_emit_empty_json():
    assert emit_report(VerificationReport(()), "json") == "[]"


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit_report(VerificationReport(()), "xml")


def test_json_schema(small_campaign):
    data = json.loads(emit_report(small_campaign, "json"))
    assert isinstance(data, list)
    for entry in data:
        assert set(entry) == {"check", "instance", "status", "witness", "elapsed_ms"}
        assert entry["status"] in ("pass", "fail", "skipped")
        assert isinstance(entry["elapsed_ms"], (int, float))


def test_pass_record_format():
    record = CheckRecord("efficient_iff_scalarizable", "rand:0000", "pass", {"count": 3}, 0.0)
    text = emit_report(VerificationReport((record,)), "json")
    assert '"pass"' in text and "rand:0000" in text


def test_fail_record_carries_payload():
    record = CheckRecord(
        "weak_duality",
        "rand:0001",
        "fail",
        {"count": 5, "failures": [{"x": ["1"], "h": ["0"]}], "problem": {"n": 1}},
        0.0,
    )
    data = json.loads(emit_report(VerificationReport((record,)), "json"))
    assert data[0]["witness"]["failures"]
    assert data[0]["witness"]["problem"]


def test_campaign_elapsed_zeroed(small_campaign):
    assert all(r.elapsed_ms == 0.0 for r in small_campaign.records)


def test_human_format_one_line_per_record(small_campaign):
    lines = emit_report(small_campaign, "human").splitlines()
    assert len(lines) == len(small_campaign.records)


def test_strictness_search_finds_hJ_gap(small_campaign):
    # on the zero-rhs fixture every mapped value off the origin separates
    # the abstract dual's image from the set-valued one
    for record in small_campaign.select("strictness_search"):
        if record.instance == "fixed:FIX-ZB":
            info = (record.witness or {}).get("info") or {}
            witnesses = info.get("hJ_strictly_inside_hH", [])
            assert witnesses, "expected a certified strictness witness on FIX-ZB"
            from vlpdual.duality import membership_hB, membership_hJ
            from vlpdual.exact import qvec

            zb = FIXTURES["FIX-ZB"].problem
            for w in witnesses:
                value = qvec(*w)
                assert membership_hB(zb, value).member
                assert not membership_hJ(zb, value).member


def _suite_problems():
    rng = random.Random(41)
    return [fixture.problem for fixture in FIXTURES.values()] + [random_problem(rng) for _ in range(4)]


SUITE = CampaignConfig(dual_samples=6, primal_samples=6, value_samples=12)


def test_suite_decides_each_sampled_U_once(monkeypatch):
    # Each sampled U gets one ReducedImage, whose feasibility verdict is
    # decided once, however often the suite asks it.
    decided = []
    feasible = duality.ReducedImage.feasible.func

    def recording(self):
        decided.append(self)
        return feasible(self)

    recorded = cached_property(recording)
    recorded.__set_name__(duality.ReducedImage, "feasible")
    monkeypatch.setattr(duality.ReducedImage, "feasible", recorded)
    mapped = 0
    for problem in _suite_problems():
        decided.clear()
        report = run_instance_suite(problem, seed=5, config=SUITE)
        assert report.ok
        assert len(decided) == harness._U_SAMPLES
        mapped += report.counts()["hH_to_hB_map"]
    assert mapped > 0


def test_certificates_and_gamma_start_no_phase_one(monkeypatch):
    # Certificates are phase II on the instance's one P, and a lift or a
    # value query is phase II on the Q_U built by the U-feasibility check:
    # none of them starts a phase I.
    started = []
    built = []
    calls = {"certificate": 0, "lift": 0, "value_member": 0}
    phase_one = lp.phase_one
    init = duality.DualPolyhedron.__init__
    certificate = duality.DualPolyhedron.certificate
    lift = duality.ReducedImage.lift
    value_member = duality.ReducedImage.value_member

    def recording_phase_one(program):
        started.append(program)
        return phase_one(program)

    def counting_init(self, problem):
        built.append(problem)
        init(self, problem)

    def counted_certificate(self, xbar):
        before = len(started)
        out = certificate(self, xbar)
        assert len(started) == before, "a certificate started a phase I"
        calls["certificate"] += 1
        return out

    def counted_lift(self, xbar):
        before = len(started)
        out = lift(self, xbar)
        assert len(started) == before, "a lift started a phase I"
        calls["lift"] += 1
        return out

    def counted_value_member(self, d):
        before = len(started)
        out = value_member(self, d)
        assert len(started) == before, "a value query started a phase I"
        calls["value_member"] += 1
        return out

    monkeypatch.setattr(lp, "phase_one", recording_phase_one)
    monkeypatch.setattr(duality.DualPolyhedron, "__init__", counting_init)
    monkeypatch.setattr(duality.DualPolyhedron, "certificate", counted_certificate)
    monkeypatch.setattr(duality.ReducedImage, "lift", counted_lift)
    monkeypatch.setattr(duality.ReducedImage, "value_member", counted_value_member)
    for problem in _suite_problems():
        built.clear()
        assert run_instance_suite(problem, seed=5, config=SUITE).ok
        assert built == [problem], "the suite built P more than once"
    assert all(calls.values()), calls


@pytest.mark.parametrize(("checker", "image_set"), [("check_feasible_L", "hL"), ("check_feasible_D", "hB")])
def test_sabotaged_witness_check_fails_the_inclusion_chain(monkeypatch, tmp_path, capsys, checker, image_set):
    # The chain's witnesses are checked once, inside image_sets; a checker
    # that rejects them ends the check as a failure naming CertificateError.
    # The sabotage starts after the context is built, whose sampled dual
    # points go through check_feasible_D too.
    build = harness._build_context

    def build_then_sabotage(*args):
        ctx = build(*args)
        monkeypatch.setattr(duality, checker, lambda problem, cand: False)
        return ctx

    monkeypatch.setattr(harness, "_build_context", build_then_sabotage)
    fixture = FIXTURES["FIX-SEG"]
    (record,) = run_instance_suite(fixture.problem, seed=3, config=SMALL).select("inclusion_chain")
    assert record.status == "fail"
    assert any(f.get("exception", "").startswith("CertificateError") for f in record.witness["failures"])

    path = tmp_path / "seg.json"
    path.write_text(json.dumps(problem_to_dict(fixture.problem)))
    assert main(["member", str(path), "--set", image_set, "--value", '["1", "0"]']) == 3
    assert "internal error:" in capsys.readouterr().err


# Primal empty (0x = 1 has no solution), dual nonempty: only this quadrant
# reaches improvement_on_empty_primal.
_EMPTY_PRIMAL = VlpProblem(QMatrix.identity(2), QMatrix.zeros(1, 2), qvec(1), orthant(2))


@pytest.mark.parametrize(
    ("name", "check", "problem"),
    [
        ("check_feasible_D", "strong_duality", FIXTURES["FIX-SEG"].problem),
        ("check_feasible_L", "converse_duality", FIXTURES["FIX-SEG"].problem),
        ("strictly_below", "improvement_on_empty_primal", _EMPTY_PRIMAL),
    ],
)
def test_sabotaged_library_check_fails_its_campaign_check(monkeypatch, name, check, problem):
    # The harness no longer repeats these checks: construct_dual_solution,
    # map_D_to_DL and improve_dual_infeasible_primal require them, and a
    # failed requirement ends the campaign check as a failure record.
    build = harness._build_context

    def build_then_sabotage(*args):
        ctx = build(*args)
        monkeypatch.setattr(duality, name, lambda *args: False)
        return ctx

    monkeypatch.setattr(harness, "_build_context", build_then_sabotage)
    (record,) = run_instance_suite(problem, seed=3, config=SMALL).select(check)
    assert record.status == "fail"
    assert any(f.get("exception", "").startswith("CertificateError") for f in record.witness["failures"])


def test_strong_converse_fixture_builds_one_P_per_problem(monkeypatch):
    # FIX-SEG builds P for efficient_vertices and for the round trip; FIX-ZB
    # also for each of its two membership checks.
    built = []
    init = duality.DualPolyhedron.__init__

    def counting_init(self, problem):
        built.append(problem)
        init(self, problem)

    monkeypatch.setattr(duality.DualPolyhedron, "__init__", counting_init)
    assert run_fixture("FIX-SEG").ok and run_fixture("FIX-ZB").ok
    assert len(built) == 6


@pytest.mark.parametrize(
    ("fixture", "file"), [("FIX-R5", "r5.json"), ("FIX-SEG", "segment.json"), ("FIX-ZB", "zero_rhs.json")]
)
def test_fixture_problem_matches_its_file(fixture, file):
    # README's quick start and CI read the files; the campaign builds the same problems in code.
    text = (REPO / "problems" / file).read_text(encoding="utf-8")
    assert load_problem(text) == FIXTURES[fixture].problem


def test_a_failed_requirement_in_the_build_fails_only_its_instance(monkeypatch, capsys):
    # P's certificates are required while the context is built. With the
    # certificate check rejecting them, each instance that has one reports
    # all 12 checks failed with the CertificateError, and every other
    # instance's records stay as they were.
    passing = run_random_campaign(42, 3)
    monkeypatch.setattr(duality, "verify_scalarization_certificate", lambda problem, xbar, cert: False)
    report = run_random_campaign(42, 3)
    failed = {r.instance for r in report.records if r.status == "fail"}
    assert failed and failed != {r.instance for r in report.records}
    for instance in failed:
        records = [r for r in report.records if r.instance == instance]
        assert [r.check for r in records] == sorted(name for name, _ in harness._CAMPAIGN_CHECKS)
        for r in records:
            assert r.status == "fail" and r.witness["problem"]
            assert r.witness["failures"] == [{"exception": "CertificateError: certificate passes its defining system"}]
    kept = [r for r in passing.records if r.instance not in failed]
    assert [r for r in report.records if r.instance not in failed] == kept
    assert main(["campaign", "--seed", "42", "--count", "3"]) == 1
    capsys.readouterr()


def test_an_exception_in_the_build_fails_only_its_instance(monkeypatch, capsys):
    # Any exception while a context is built, not only a CertificateError,
    # fails that instance's 12 checks; the campaign goes on and exits 1.
    sample = harness.sample_probe_values
    calls = []

    def failing_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ZeroDivisionError("sabotaged draw")
        return sample(*args)

    monkeypatch.setattr(harness, "sample_probe_values", failing_second)
    report = run_random_campaign(42, 3)
    (failed,) = {r.instance for r in report.records if r.status == "fail"}
    records = [r for r in report.records if r.instance == failed]
    assert [r.check for r in records] == sorted(name for name, _ in harness._CAMPAIGN_CHECKS)
    assert all(r.witness["failures"] == [{"exception": "ZeroDivisionError: sabotaged draw"}] for r in records)
    calls.clear()
    assert main(["campaign", "--seed", "42", "--count", "3"]) == 1
    capsys.readouterr()


def _negated_farkas_rows(monkeypatch):
    init = lp.Region.__init__

    def negated(self, gp):
        init(self, gp)
        if self.farkas is not None:
            self.farkas = -self.farkas

    monkeypatch.setattr(lp.Region, "__init__", negated)


def _shifted_dominators(monkeypatch):
    solve_lp = cone.solve_lp

    def shifted(program):
        out = solve_lp(program)
        if isinstance(out, lp.Optimal) and out.value != 0:
            return lp.Optimal(out.x + QVector.unit(out.x.dim, 0), out.y, out.value)
        return out

    monkeypatch.setattr(cone, "solve_lp", shifted)


# Q-NOEFF has an empty P and an empty Q_U at U = 0; (0, 0, 1) of the
# widened segment is a dominated vertex.
_WIDENED = VlpProblem(qmat([[1, 0, 1], [0, 1, 1]]), qmat([[1, 1, 1]]), qvec(1), orthant(2))


@pytest.mark.parametrize(
    ("sabotage", "check", "problem", "message"),
    [
        (_negated_farkas_rows, "u_feasibility_agreement", harness._problem_noeff(), "Q_U's Farkas row is a dominator"),
        (_negated_farkas_rows, "emptiness_biconditional", harness._problem_noeff(), "P's Farkas row is a dominator"),
        (_shifted_dominators, "efficient_iff_scalarizable", _WIDENED, "x, mu >= 0, sum(mu) > 0, Ax = b"),
    ],
)
def test_a_corrupted_certificate_fails_its_check(monkeypatch, sabotage, check, problem, message):
    # Each verdict's proof is required where it is built: a Farkas row or
    # a dominator that verify_dominator rejects fails the check that reads it.
    (record,) = run_instance_suite(problem, seed=3, config=SMALL).select(check)
    assert record.status == "pass"
    sabotage(monkeypatch)
    (record,) = run_instance_suite(problem, seed=3, config=SMALL).select(check)
    assert record.status == "fail"
    (failure,) = record.witness["failures"]
    assert failure["exception"].startswith(f"CertificateError: {message}")


def test_weak_duality_fails_once_per_pair_in_primal_order(monkeypatch):
    # Under a sabotaged order that puts some images below some dual values,
    # the check records the failures of the plain loop over every (h, x),
    # in its order, also where primal images repeat.
    def below(a, b):
        return a[0] < b[0]

    monkeypatch.setattr(harness, "precedes", below)
    compared = repeated = 0
    for index, (_, problem) in enumerate(harness._campaign_instances(42, 6)):
        ctx = harness._build_context(problem, enumerate_vertices(problem), random.Random(index), SMALL)
        images = [problem.cone.coordinates(problem.L @ x) for x in ctx.primals]
        expected = [
            {"x": vector_to_list(x), "h": vector_to_list(h)}
            for h, h_coords in ctx.dual_values
            for x, image in zip(ctx.primals, images)
            if below(image, h_coords)
        ]
        count, failures, _ = harness._check_weak_duality(ctx)
        assert failures == expected and count == len(ctx.dual_values) * len(images)
        compared += len(expected)
        repeated += bool(expected) and len(set(images)) < len(images)
    assert compared and repeated
