import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import vlpdual
from vlpdual import duality, harness, lp
from vlpdual.cli import main
from vlpdual.cone import orthant
from vlpdual.duality import scaled_generator
from vlpdual.efficiency import EfficiencyCertificate, verify_scalarization_certificate
from vlpdual.exact import CertificateError, qvec
from vlpdual.model import load_problem

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
    # The printed certificate is pinned by validity, not by value.
    assert main(["certify", seg_file, "--point", "[\"1\", \"0\"]", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["efficient"] is True
    cert = EfficiencyCertificate("efficient-with-scalarization", lam=qvec(*data["lambda"]), eta=qvec(*data["eta"]))
    assert verify_scalarization_certificate(load_problem(Path(seg_file).read_text()), qvec(1, 0), cert)


def test_certify_infeasible_point(seg_file, capsys):
    assert main(["certify", seg_file, "--point", "[\"2\", \"2\"]"]) == 2


@pytest.mark.parametrize("command", ["certify", "dual-construct"])
def test_rejected_certificate_is_internal_error(seg_file, capsys, monkeypatch, command):
    # P requires each certificate through the scalarization check before
    # it returns it, so neither command prints one the check rejects.
    monkeypatch.setattr(duality, "verify_scalarization_certificate", lambda problem, xbar, cert: False)
    assert main([command, seg_file, "--point", '["1", "0"]']) == 3
    captured = capsys.readouterr()
    assert "internal error:" in captured.err and "lambda" not in captured.out


def test_dual_construct_and_check(seg_file, tmp_path, capsys):
    assert main(["dual-construct", seg_file, "--point", "[\"1\", \"0\"]", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["objective"] == ["1", "0"]
    dual_path = tmp_path / "cand.json"
    dual_path.write_text(json.dumps(data["candidate"]))
    assert main(["check-dual", seg_file, "--dual", str(dual_path), "--kind", "D", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"feasible": True}


def test_dual_construct_non_efficient_point_answers_null(tmp_path, capsys):
    # (0, 0, 1) is feasible, but its image (1, 1) is dominated by (1, 0).
    widened = dict(SEG, n=3, L=[["1", "0", "1"], ["0", "1", "1"]], A=[["1", "1", "1"]])
    path = tmp_path / "widened.json"
    path.write_text(json.dumps(widened))
    point = json.dumps(["0", "0", "1"])
    assert main(["dual-construct", str(path), "--point", point, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"candidate": None}
    assert main(["dual-construct", str(path), "--point", point]) == 0
    assert "not efficient" in capsys.readouterr().out


def test_certify_prints_the_dominator_of_a_dominated_point(tmp_path, capsys):
    # One is_efficient call answers: no scalarization certificate, so the
    # dominator that cone.dominator found and checked.
    widened = dict(SEG, n=3, L=[["1", "0", "1"], ["0", "1", "1"]], A=[["1", "1", "1"]])
    path = tmp_path / "widened.json"
    path.write_text(json.dumps(widened))
    assert main(["certify", str(path), "--point", '["0", "0", "1"]']) == 0
    assert capsys.readouterr().out.splitlines() == ["efficient: False", "dominated by: (1, 0, 0)"]
    assert main(["certify", str(path), "--point", '["0", "0", "1"]', "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"efficient": False, "dominator": ["1", "0", "0"]}


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


_DEEP = "[" * 100_000 + "]" * 100_000  # nested past any recursion limit


def test_nested_problem_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["member", "--set", "hB", "--value"], ["recover", "--value"], ["certify", "--point"]],
)
def test_nested_cli_vector_is_input_error(r5_file, capsys, argv):
    deep = "[" * 50_000 + "]" * 50_000
    assert main([argv[0], r5_file, *argv[1:], deep]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_nested_dual_file_is_input_error(r5_file, tmp_path, capsys):
    dual_path = tmp_path / "deep_dual.json"
    dual_path.write_text(_DEEP)
    assert main(["check-dual", r5_file, "--dual", str(dual_path), "--kind", "D"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_recover(seg_file, capsys):
    assert main(["recover", seg_file, "--value", "[\"1\", \"0\"]", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"recovered": ["1", "0"]}
    assert main(["recover", seg_file, "--value", "[\"2\", \"2\"]", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"recovered": None}


def test_recovered_point_is_checked(seg_file, capsys, monkeypatch):
    # recover_primal requires x >= 0, Ax = b and Lx = d of the point it returns.
    monkeypatch.setattr(duality, "solve_feasibility", lambda M, rhs: qvec(-5, 7))
    assert main(["recover", seg_file, "--value", '["1", "0"]']) == 3
    captured = capsys.readouterr()
    assert "internal error:" in captured.err and "x =" not in captured.out


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


def test_member_witness_hL_feeds_check_dual(r5_file, tmp_path, capsys):
    assert main(
        ["member", r5_file, "--set", "hL", "--value", "[\"-1\", \"-1\"]", "--witness", "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["member"] is True
    dual_path = tmp_path / "wl.json"
    dual_path.write_text(json.dumps(data["witness_candidate"]))
    assert main(["check-dual", r5_file, "--dual", str(dual_path), "--kind", "L", "--format", "json"]) == 0
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


_LOADED = "sorted(m.rpartition('.')[2] for m in sys.modules if m.startswith('vlpdual.'))"
_CORE = ["checks", "cli", "cone", "duality", "exact", "lp", "model"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["member", "problems/r5.json", "--set", "hB", "--value", '["-1", "-1"]'], _CORE),
        (["vertices", "problems/r5.json"], sorted(_CORE + ["efficiency"])),
        (["verify", "problems/segment.json"], sorted(_CORE + ["efficiency", "harness", "sampling"])),
    ],
)
def test_subcommand_loads_only_the_modules_it_calls(argv, loaded):
    # `import vlpdual` loads no submodule; a query loads what it runs.
    code = f"""
import json, sys
import vlpdual
before = {_LOADED}
from vlpdual import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([before, {_LOADED}, code]))
"""
    proc = _run_optimized("-c", code, json.dumps(argv))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], loaded, 0]


def test_verify_under_optimize_flag():
    proc = _run_optimized("-m", "vlpdual.cli", "verify", "problems/segment.json")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_certificate_check_survives_optimize_flag():
    code = """
import sys
from vlpdual import duality
from vlpdual.exact import CertificateError, qvec
from vlpdual.harness import FIXTURES
for checker, oracle in (("check_feasible_D", duality.membership_hB), ("check_feasible_L", duality.membership_hL)):
    original = getattr(duality, checker)
    setattr(duality, checker, lambda problem, cand: False)
    try:
        oracle(FIXTURES["FIX-ZB"].problem, qvec(1, -1))
    except CertificateError:
        setattr(duality, checker, original)
        continue
    sys.exit(3)
sys.exit(0)
"""
    proc = _run_optimized("-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_certificate_error_in_cli_is_internal_error():
    code = """
import sys
from vlpdual import cli, duality
duality.check_feasible_D = lambda problem, cand: False
sys.exit(cli.main(["member", "problems/segment.json", "--set", "hB", "--value", '["1", "0"]']))
"""
    proc = _run_optimized("-c", code)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "internal error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_internal_defects_exit_3(monkeypatch, capsys):
    # Only a defect in the package reaches these checks, so each raises
    # CertificateError, which the CLI reports as exit 3, never as an input error.
    with pytest.raises(CertificateError):
        scaled_generator(orthant(2), qvec(-1, 0))
    fixture = harness.FIXTURES["FIX-R5"]
    unknown = harness.Fixture(fixture.name, fixture.problem, fixture.expected + (("nope", {}, None),))
    monkeypatch.setitem(harness.FIXTURES, "FIX-R5", unknown)
    assert main(["examples"]) == 3
    assert "internal error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["vertices", "efficient", "verify"])
def test_oversized_problem_is_input_error(tmp_path, capsys, monkeypatch, command):
    # One row of 320 entries +1 and 320 entries -1, with b = 0: the first vertex
    # cut compares 320 * 320 = 102,400 ray pairs, over the 100,000 limit.
    big = {
        "n": 640,
        "m": 1,
        "k": 2,
        "L": [["0"] * 640, ["0"] * 640],
        "A": [["1"] * 320 + ["-1"] * 320],
        "b": ["0"],
        "cone": {"orthant": 2},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))

    def no_lp(*args):
        raise AssertionError("an LP ran before the vertices")

    monkeypatch.setattr(lp, "phase_one", no_lp)  # every solve and every Region starts here
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error:" in err
    assert "Traceback" not in err


# Input boundary: structured mutations of well-formed problem and dual files
# must end in an answer (0) or an input error (2), never in a traceback.

_BIG_INT = "<5000-digit integer literal>"  # spliced into the JSON text unquoted
_JUNK = (True, False, None, 1.5, float("nan"), 0, -1, "3/0", "1/0", "9" * 5000, _BIG_INT, "", "x", {}, [])
_WEDGE = dict(SEG, cone={"dim": 2, "generators": [["1", "0"], ["1", "1"]]})


def _problem_bases() -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted((REPO / "problems").glob("*.json"))] + [_WEDGE]


def _dual_base(problem: dict, kind: str) -> dict:
    k, m = problem["k"], problem["m"]
    fields = {
        "lambda": ["1"] * k,
        "U": [["0"] * m for _ in range(k)],
        "v": ["0"] * k,
        "z": ["0"] * m,
    }
    keep = {"D": ("lambda", "U", "v"), "J": ("lambda", "U"), "L": ("lambda", "z", "v")}.get(kind, ("U",))
    return {"kind": kind} | {key: fields[key] for key in keep}


def _mutate(value, draw):
    """One change at a random place: junk scalar, wrapped or unwrapped
    nesting, a dropped or repeated entry (ragged rows), a dropped key."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        key = draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
        out = dict(value) if isinstance(value, dict) else list(value)
        out[key] = _mutate(value[key], draw)
        return out
    op = draw(st.sampled_from(("junk", "wrap", "unwrap", "drop", "repeat")))
    if op == "wrap":
        return [value]
    if op == "unwrap" and isinstance(value, list) and value:
        return value[0]
    if op == "drop" and isinstance(value, list) and value:
        return value[:-1]
    if op == "drop" and isinstance(value, dict) and value:
        return {key: v for key, v in value.items() if key != draw(st.sampled_from(list(value)))}
    if op == "repeat" and isinstance(value, list) and value:
        return value + value[-1:]
    return draw(st.sampled_from(_JUNK))


def _write_mutated(path: Path, value, draw) -> None:
    for _ in range(draw(st.integers(1, 3))):
        value = _mutate(value, draw)
    path.write_text(json.dumps(value).replace(json.dumps(_BIG_INT), "9" * 5000))


def _run_captured(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_input_boundary_fuzz(tmp_path_factory, data):
    draw = data.draw
    workdir = tmp_path_factory.mktemp("fuzz")
    base = draw(st.sampled_from(_problem_bases()))
    problem_path, good_path, dual_path = workdir / "p.json", workdir / "good.json", workdir / "d.json"
    _write_mutated(problem_path, base, draw)
    good_path.write_text(json.dumps(base))
    kind = draw(st.sampled_from(("D", "J", "L", "H", "I")))
    _write_mutated(dual_path, _dual_base(base, kind), draw)
    for argv in (
        ["validate", str(problem_path)],
        ["check-dual", str(good_path), "--dual", str(dual_path), "--kind", kind],
    ):
        code, err = _run_captured(argv)
        assert code in (0, 2), (argv, err)
        if code == 2:
            assert err.startswith("input error:"), (argv, err)
