"""The vector minimization problem and the candidate shapes of its duals.

A problem instance is (L, A, b, K): minimize Lx over {x >= 0 : Ax = b}
with the image space ordered by the cone K. Dual candidates are plain
data; whether a candidate is feasible for its dual problem is decided in
the duality module, so deliberately infeasible candidates can be probed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cone import OrderingCone, make_cone, orthant, validate_cone
from .exact import (
    DimensionError,
    QMatrix,
    QVector,
    format_rational,
    parse_rational,
)


class ProblemFormatError(ValueError):
    pass


@dataclass(frozen=True)
class VlpProblem:
    L: QMatrix          # k x n objective matrix
    A: QMatrix          # m x n constraint matrix
    b: QVector          # m
    cone: OrderingCone  # dim k

    def __post_init__(self):
        if self.L.cols != self.A.cols:
            raise DimensionError(f"L has {self.L.cols} columns but A has {self.A.cols}")
        if self.A.rows != self.b.dim:
            raise DimensionError(f"A has {self.A.rows} rows but b has dim {self.b.dim}")
        if self.L.rows != self.cone.dim:
            raise DimensionError(f"L has {self.L.rows} rows but cone dim is {self.cone.dim}")

    @property
    def n(self) -> int:
        return self.A.cols

    @property
    def m(self) -> int:
        return self.A.rows

    @property
    def k(self) -> int:
        return self.L.rows


def make_problem(L: QMatrix, A: QMatrix, b: QVector, cone: OrderingCone) -> VlpProblem:
    if not cone.validated:
        cone = validate_cone(cone)
    return VlpProblem(L, A, b, cone)


@dataclass(frozen=True)
class DualCandidateD:
    lam: QVector  # k
    U: QMatrix    # k x m
    v: QVector    # k


@dataclass(frozen=True)
class DualCandidateJ:
    lam: QVector
    U: QMatrix


@dataclass(frozen=True)
class DualCandidateL:
    lam: QVector
    z: QVector    # m
    v: QVector


@dataclass(frozen=True)
class DualCandidateU:
    """Matrix-only candidate; flavor 'I' needs the orthant order, 'H' any cone."""

    U: QMatrix
    flavor: str  # "I" | "H"

    def __post_init__(self):
        if self.flavor not in ("I", "H"):
            raise ValueError(f"unknown flavor {self.flavor!r}")


def objective_D(problem: VlpProblem, cand: DualCandidateD) -> QVector:
    return (cand.U @ problem.b) + cand.v


def objective_J(problem: VlpProblem, cand: DualCandidateJ | DualCandidateD) -> QVector:
    return cand.U @ problem.b


def objective_L(cand: DualCandidateL) -> QVector:
    return cand.v


def primal_feasible(problem: VlpProblem, x: QVector) -> bool:
    if x.dim != problem.n:
        raise DimensionError(f"point dim {x.dim} != variable count {problem.n}")
    return x.is_nonneg() and (problem.A @ x) == problem.b


# JSON wire formats. Rationals travel as "p" or "p/q" strings; floats are
# rejected to keep every loaded instance exact.

def _parse_vector(values, field: str, expect_dim: int | None = None) -> QVector:
    if not isinstance(values, list) or not values:
        raise ProblemFormatError(f"field {field!r}: expected a nonempty array")
    try:
        vec = QVector(tuple(parse_rational(v) for v in values))
    except ValueError as exc:
        raise ProblemFormatError(f"field {field!r}: {exc}") from None
    if expect_dim is not None and vec.dim != expect_dim:
        raise ProblemFormatError(f"field {field!r}: expected {expect_dim} entries, got {vec.dim}")
    return vec


def _parse_matrix(values, field: str, rows: int, cols: int) -> QMatrix:
    if not isinstance(values, list) or len(values) != rows:
        raise ProblemFormatError(f"field {field!r}: expected {rows} rows")
    entries = []
    for i, row in enumerate(values):
        if not isinstance(row, list) or len(row) != cols:
            raise ProblemFormatError(f"field {field!r}: row {i} must have {cols} entries")
        for v in row:
            try:
                entries.append(parse_rational(v))
            except ValueError as exc:
                raise ProblemFormatError(f"field {field!r}: row {i}: {exc}") from None
    return QMatrix(rows, cols, tuple(entries))


def _is_int(value) -> bool:
    # bool is a subclass of int, but true is not a dimension.
    return isinstance(value, int) and not isinstance(value, bool)


def parse_cone(data, k: int) -> OrderingCone:
    if not isinstance(data, dict):
        raise ProblemFormatError("field 'cone': expected an object")
    if "orthant" in data:
        if not _is_int(data["orthant"]) or data["orthant"] != k:
            raise ProblemFormatError(f"field 'cone': orthant must be the integer k = {k}, got {data['orthant']!r}")
        return orthant(k)
    if "generators" not in data or "dim" not in data:
        raise ProblemFormatError("field 'cone': need either 'orthant' or 'dim' + 'generators'")
    if not _is_int(data["dim"]) or data["dim"] != k:
        raise ProblemFormatError(f"field 'cone': dim must be the integer k = {k}, got {data['dim']!r}")
    if not isinstance(data["generators"], list):
        raise ProblemFormatError("field 'cone.generators': expected an array")
    gens = [
        _parse_vector(g, f"cone.generators[{i}]", k)
        for i, g in enumerate(data["generators"])
    ]
    return validate_cone(make_cone(k, gens))


def cone_to_dict(cone: OrderingCone) -> dict:
    if cone.is_orthant:
        return {"orthant": cone.dim}
    return {
        "dim": cone.dim,
        "generators": [vector_to_list(g) for g in cone.generators],
    }


def problem_from_dict(data: dict) -> VlpProblem:
    for key in ("n", "m", "k", "L", "A", "b", "cone"):
        if key not in data:
            raise ProblemFormatError(f"missing field {key!r}")
    n, m, k = data["n"], data["m"], data["k"]
    for name, value in (("n", n), ("m", m), ("k", k)):
        if not _is_int(value) or value < 1:
            raise ProblemFormatError(f"field {name!r}: expected a positive integer")
    L = _parse_matrix(data["L"], "L", k, n)
    A = _parse_matrix(data["A"], "A", m, n)
    b = _parse_vector(data["b"], "b", m)
    cone = parse_cone(data["cone"], k)
    return make_problem(L, A, b, cone)


def load_problem(text: str) -> VlpProblem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ProblemFormatError("top level must be an object")
    return problem_from_dict(data)


def problem_to_dict(problem: VlpProblem) -> dict:
    return {
        "n": problem.n,
        "m": problem.m,
        "k": problem.k,
        "L": _matrix_to_lists(problem.L),
        "A": _matrix_to_lists(problem.A),
        "b": vector_to_list(problem.b),
        "cone": cone_to_dict(problem.cone),
    }


def serialize_problem(problem: VlpProblem) -> str:
    return json.dumps(problem_to_dict(problem), indent=2)


def vector_to_list(vec: QVector) -> list[str]:
    """The JSON wire form of a vector: one "p" or "p/q" string per entry."""
    return [format_rational(v) for v in vec]


def _matrix_to_lists(mat: QMatrix) -> list[list[str]]:
    return [[format_rational(mat.at(i, j)) for j in range(mat.cols)] for i in range(mat.rows)]


def candidate_to_dict(cand) -> dict:
    if isinstance(cand, DualCandidateD):
        return {"kind": "D", "lambda": vector_to_list(cand.lam),
                "U": _matrix_to_lists(cand.U), "v": vector_to_list(cand.v)}
    if isinstance(cand, DualCandidateJ):
        return {"kind": "J", "lambda": vector_to_list(cand.lam), "U": _matrix_to_lists(cand.U)}
    if isinstance(cand, DualCandidateL):
        return {"kind": "L", "lambda": vector_to_list(cand.lam),
                "z": vector_to_list(cand.z), "v": vector_to_list(cand.v)}
    if isinstance(cand, DualCandidateU):
        return {"kind": cand.flavor, "U": _matrix_to_lists(cand.U)}
    raise TypeError(f"not a dual candidate: {cand!r}")


def _field(data: dict, key: str):
    if key not in data:
        raise ProblemFormatError(f"missing field {key!r}")
    return data[key]


def candidate_from_dict(data: dict, problem: VlpProblem, kind: str | None = None):
    if not isinstance(data, dict):
        raise ProblemFormatError("dual candidate: top level must be an object")
    kind = kind or data.get("kind")
    if kind == "D":
        return DualCandidateD(
            _parse_vector(_field(data, "lambda"), "lambda", problem.k),
            _parse_matrix(_field(data, "U"), "U", problem.k, problem.m),
            _parse_vector(_field(data, "v"), "v", problem.k),
        )
    if kind == "J":
        return DualCandidateJ(
            _parse_vector(_field(data, "lambda"), "lambda", problem.k),
            _parse_matrix(_field(data, "U"), "U", problem.k, problem.m),
        )
    if kind == "L":
        return DualCandidateL(
            _parse_vector(_field(data, "lambda"), "lambda", problem.k),
            _parse_vector(_field(data, "z"), "z", problem.m),
            _parse_vector(_field(data, "v"), "v", problem.k),
        )
    if kind in ("I", "H"):
        return DualCandidateU(_parse_matrix(_field(data, "U"), "U", problem.k, problem.m), kind)
    raise ProblemFormatError(f"unknown dual candidate kind {kind!r}")
