import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vlpdual
from vlpdual.cli import main

R5 = {
    "n": 1,
    "m": 2,
    "k": 2,
    "L": [["0"], ["0"]],
    "A": [["1"], ["1"]],
    "b": ["-1", "-1"],
    "cone": {"orthant": 2},
}

SEG = {
    "n": 2,
    "m": 1,
    "k": 2,
    "L": [["1", "0"], ["0", "1"]],
    "A": [["1", "1"]],
    "b": ["1"],
    "cone": {"orthant": 2},
}


@pytest.fixture
def r5_file(tmp_path):
    path = tmp_path / "r5.json"
    path.write_text(json.dumps(R5))
    return str(path)


@pytest.fixture
def seg_file(tmp_path):
    path = tmp_path / "seg.json"
    path.write_text(json.dumps(SEG))
    return str(path)


def test_validate_ok(r5_file, capsys):
    assert main(["validate", r5_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_bad_dims(tmp_path, capsys):
    bad = dict(R5, L=[["0", "0"], ["0", "0"]])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", str(path)]) == 2
    assert "'L'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        {"b": ["1/0", "-1"]},
        {"n": True},
        {"cone": {"orthant": True}, "k": 1, "L": [["0"]]},
        {"cone": {"dim": 2, "generators": 5}},
    ],
)
def test_validate_malformed_is_input_error(tmp_path, capsys, change):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(R5, **change)))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent.json"]) == 2


def test_unknown_flag_is_usage_error(r5_file):
    assert main(["validate", r5_file, "--bogus"]) == 2


def test_vertices_r5(r5_file, capsys):
    assert main(["vertices", r5_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"vertices": []}


def test_efficient_seg(seg_file, capsys):
    assert main(["efficient", seg_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["efficient_vertices"]) == 2


def test_certify(seg_file, capsys):
    assert main(["certify", seg_file, "--point", "[\"1\", \"0\"]", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["efficient"] is True
    assert "lambda" in data


def test_certify_infeasible_point(seg_file, capsys):
    assert main(["certify", seg_file, "--point", "[\"2\", \"2\"]"]) == 2


def test_dual_construct_and_check(seg_file, tmp_path, capsys):
    assert main(["dual-construct", seg_file, "--point", "[\"1\", \"0\"]", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["objective"] == ["1", "0"]
    dual_path = tmp_path / "cand.json"
    dual_path.write_text(json.dumps(data["candidate"]))
    assert main(["check-dual", seg_file, "--dual", str(dual_path), "--kind", "D", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"feasible": True}


@pytest.mark.parametrize(
    "dual",
    [
        {"U": [["0", "0"], ["0", "0"]], "v": ["0", "0"]},  # no "lambda"
        [["1", "1"]],  # not an object
    ],
)
def test_check_dual_malformed_is_input_error(r5_file, tmp_path, capsys, dual):
    dual_path = tmp_path / "bad_dual.json"
    dual_path.write_text(json.dumps(dual))
    assert main(["check-dual", r5_file, "--dual", str(dual_path), "--kind", "D"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_recover(seg_file, capsys):
    assert main(["recover", seg_file, "--value", "[\"1\", \"0\"]", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"recovered": ["1", "0"]}
    assert main(["recover", seg_file, "--value", "[\"2\", \"2\"]", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"recovered": None}


def test_member_not_a_member(r5_file, capsys):
    assert main(["member", r5_file, "--set", "hB", "--value", "[\"-1\", \"-1\"]"]) == 0
    assert "not a member" in capsys.readouterr().out


def test_member_hL_member(r5_file, capsys):
    assert main(["member", r5_file, "--set", "hL", "--value", "[\"-1\", \"-1\"]", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True


def test_member_witness_feeds_check_dual(r5_file, tmp_path, capsys):
    assert main(
        ["member", r5_file, "--set", "hB", "--value", "[\"1\", \"-1\"]", "--witness", "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["member"] is True
    dual_path = tmp_path / "w.json"
    dual_path.write_text(json.dumps(data["witness_candidate"]))
    assert main(["check-dual", r5_file, "--dual", str(dual_path), "--kind", "D", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"feasible": True}


def test_member_witness_hJ_feeds_check_dual(r5_file, tmp_path, capsys):
    assert main(
        ["member", r5_file, "--set", "hJ", "--value", "[\"1\", \"-1\"]", "--witness", "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    dual_path = tmp_path / "wj.json"
    dual_path.write_text(json.dumps(data["witness_candidate"]))
    assert main(["check-dual", r5_file, "--dual", str(dual_path), "--kind", "J", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"feasible": True}


def test_examples_pass(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "FIX-R5" in out and "FIX-ZB" in out and "FIX-SEG" in out


def test_verify_seg(seg_file, capsys):
    assert main(["verify", seg_file]) == 0
    assert "efficient_iff_scalarizable" in capsys.readouterr().out


def test_campaign_json(capsys):
    assert main(["campaign", "--seed", "7", "--count", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(set(e) == {"check", "instance", "status", "witness", "elapsed_ms"} for e in data)


# `python -O` strips assert statements; the certificate checks must survive it.

REPO = Path(__file__).resolve().parents[1]


def _run_optimized(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(vlpdual.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-O", *args], cwd=REPO, env=env, capture_output=True, text=True)


def test_verify_under_optimize_flag():
    proc = _run_optimized("-m", "vlpdual.cli", "verify", "problems/segment.json")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_certificate_check_survives_optimize_flag():
    code = """
import sys
from vlpdual import duality
from vlpdual.exact import CertificateError, qvec
from vlpdual.harness import FIXTURES
duality.check_feasible_D = lambda problem, cand: False
try:
    duality.membership_hB(FIXTURES["FIX-ZB"].problem, qvec(1, -1))
except CertificateError:
    sys.exit(0)
sys.exit(3)
"""
    proc = _run_optimized("-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr
