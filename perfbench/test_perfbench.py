"""The benchmark's own tests (not part of the package's tier-1 suite).

    python3 -m pytest perfbench -q

They take about 90 s: the repeatability and cProfile tests run real
traced campaign ops.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from tracing import per_layer_spec  # noqa: E402

COUNT_FIELDS = ("calls", "lp_by_caller", "lp_solves", "lp_cells_sum", "lp_cells_max",
                "lp_input_bits", "lp_outcome_bits", "membership_no_lp")


def _worker(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_spec()
    assert {w["name"] for w in spec["workloads"]} == {"campaign", "lp_random", "cli_cold"}
    assert [m["name"] for m in spec["end_to_end"]] == [
        "ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb"]


@pytest.mark.parametrize("workload, ops", [("campaign", "6"), ("lp_random", "2000"), ("cli_cold", "16")])
def test_count_metrics_repeat_exactly(workload, ops):
    first = _worker("--workload", workload, "--seed", "7", "--ops", ops, "--traced")
    second = _worker("--workload", workload, "--seed", "7", "--ops", ops, "--traced")
    assert first["correct"] and second["correct"]
    for field in COUNT_FIELDS:
        assert first["trace"][field] == second["trace"][field], field
    trace = first["trace"]
    assert trace["lp_solves"] == sum(trace["lp_by_caller"].values()) == trace["calls"]["lp.solve_lp"]


def test_cli_cold_check_rejects_a_wrong_verdict(tmp_path):
    from workloads import CliCold

    workload = CliCold(3, traced=False, workdir=tmp_path)
    query = ("member", "r5", "hB", ("-1", "-1"), False)
    right = subprocess.CompletedProcess([], 0, json.dumps({"set": "hB", "member": False}), "")
    wrong = subprocess.CompletedProcess([], 0, json.dumps({"set": "hB", "member": True}), "")
    crashed = subprocess.CompletedProcess([], 1, "", "Traceback")
    assert workload.check(query, right)
    assert not workload.check(query, wrong)
    assert not workload.check(query, crashed)


def test_campaign_digest_matches_on_the_default_seed():
    run = _worker("--workload", "campaign", "--seed", "42", "--ops", "12")
    assert run["correct"], run["notes"]


def test_traced_shares_match_cprofile():
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "crosscheck.py"), "--ops", "6"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
