import json

import pytest

from vlpdual.cone import ConeError
from vlpdual.exact import QMatrix, qmat, qvec
from vlpdual.model import (
    DualCandidateD,
    DualCandidateJ,
    DualCandidateL,
    DualCandidateU,
    ProblemFormatError,
    candidate_from_dict,
    candidate_to_dict,
    load_problem,
    objective_D,
    objective_J,
    objective_L,
    primal_feasible,
    serialize_problem,
)

R5_TEXT = json.dumps(
    {
        "n": 1,
        "m": 2,
        "k": 2,
        "L": [["0"], ["0"]],
        "A": [["1"], ["1"]],
        "b": ["-1", "-1"],
        "cone": {"orthant": 2},
    }
)


def test_load_r5():
    p = load_problem(R5_TEXT)
    assert (p.n, p.m, p.k) == (1, 2, 2)
    assert p.A.rows == 2 and p.A.cols == 1
    assert p.b == qvec(-1, -1)


def test_load_dimension_error():
    data = json.loads(R5_TEXT)
    data["L"] = [["0", "0"], ["0", "0"]]  # 2x2 against n=1
    with pytest.raises(ProblemFormatError, match="'L'"):
        load_problem(json.dumps(data))


def test_load_not_pointed():
    data = json.loads(R5_TEXT)
    data["cone"] = {"dim": 2, "generators": [["1", "0"], ["-1", "0"]]}
    with pytest.raises(ConeError, match="not pointed"):
        load_problem(json.dumps(data))


def test_load_rejects_floats():
    data = json.loads(R5_TEXT)
    data["b"] = [0.5, "-1"]
    with pytest.raises(ProblemFormatError):
        load_problem(json.dumps(data))


K1 = {"n": 1, "m": 1, "k": 1, "L": [["1"]], "A": [["1"]], "b": ["1"], "cone": {"orthant": 1}}


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", True),
        ("m", True),
        ("k", True),
        ("cone", {"orthant": True}),
        ("cone", {"dim": True, "generators": [["1"]]}),
    ],
)
def test_load_rejects_booleans(field, value):
    assert load_problem(json.dumps(K1)).k == 1  # every bool below stands for a valid 1
    with pytest.raises(ProblemFormatError):
        load_problem(json.dumps(dict(K1, **{field: value})))


def test_load_bad_json_position():
    with pytest.raises(ProblemFormatError, match="line"):
        load_problem("{\n  broken")


def test_serialize_roundtrip(r5_problem, seg_problem, zb_problem, widened_problem):
    for p in (r5_problem, seg_problem, zb_problem, widened_problem):
        q = load_problem(serialize_problem(p))
        assert q.L == p.L and q.A == p.A and q.b == p.b
        assert q.cone.dim == p.cone.dim and q.cone.generators == p.cone.generators


def test_roundtrip_general_cone():
    data = json.loads(R5_TEXT)
    data["cone"] = {"dim": 2, "generators": [["1", "0"], ["1", "1"]]}
    p = load_problem(json.dumps(data))
    q = load_problem(serialize_problem(p))
    assert q.cone.generators == p.cone.generators


def test_objective_L_r5(r5_problem):
    cand = DualCandidateL(qvec(1, 1), qvec(0, 0), qvec(-1, -1))
    assert objective_L(cand) == qvec(-1, -1)


def test_objective_D_zero():
    cand = DualCandidateD(qvec(1, 1), QMatrix.zeros(2, 2), qvec(0, 0))
    p = load_problem(R5_TEXT)
    assert objective_D(p, cand) == qvec(0, 0)


def test_objective_D_direct(r5_problem):
    cand = DualCandidateD(qvec(1, 1), QMatrix.identity(2), qvec(1, -1))
    assert objective_D(r5_problem, cand) == qvec(0, -2)


def test_objective_decomposition(r5_problem):
    # h = h^J + v by definition
    cand = DualCandidateD(qvec(1, 1), qmat([[1, 2], [3, 4]]), qvec(5, -5))
    assert objective_D(r5_problem, cand) == objective_J(r5_problem, cand) + cand.v


def test_primal_feasible(seg_problem):
    assert primal_feasible(seg_problem, qvec(1, 0))
    assert not primal_feasible(seg_problem, qvec(2, -1))


def test_primal_feasible_r5_forced_empty(r5_problem):
    for x in (qvec(0), qvec(1), qvec("1/2")):
        assert not primal_feasible(r5_problem, x)


def test_candidate_serialization_roundtrip(r5_problem):
    cands = [
        DualCandidateD(qvec(1, 1), QMatrix.zeros(2, 2), qvec(1, -1)),
        DualCandidateJ(qvec(1, 2), qmat([[1, 0], [0, 1]])),
        DualCandidateL(qvec(1, 1), qvec(0, 0), qvec(-1, -1)),
        DualCandidateU(QMatrix.zeros(2, 2), "H"),
    ]
    for cand in cands:
        data = candidate_to_dict(cand)
        again = candidate_from_dict(json.loads(json.dumps(data)), r5_problem)
        assert again == cand


def test_candidate_u_flavor_validation():
    with pytest.raises(ValueError):
        DualCandidateU(QMatrix.zeros(2, 2), "X")
