"""Command-line front door.

Subcommands load exact problem files, answer single oracle queries, run
the constructive maps, and drive the verification campaigns. Exit codes:
0 when every check passed or the query was answered, 1 when a
verification failed, 2 on usage or input errors (an instance too large
to enumerate included), 3 on an internal error: a certificate check
inside the package failed.
"""

from __future__ import annotations

import argparse
import json
import sys

# A subcommand imports `efficiency` or `harness` only when it calls them, so
# a single query loads no more of the package than it runs.
from . import duality
from .cone import ConeError
from .exact import CertificateError, DimensionError, QVector, qvec
from .model import (
    ProblemFormatError,
    candidate_from_dict,
    candidate_to_dict,
    decode_json,
    load_problem,
    objective_D,
    problem_to_dict,
    vector_to_list,
)

_INPUT_ERRORS = (ProblemFormatError, ConeError, DimensionError, ValueError, OSError)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return load_problem(handle.read())


def _parse_cli_vector(text: str) -> QVector:
    data = decode_json(text)
    if not isinstance(data, list) or not data:
        raise ValueError("expected a nonempty JSON array of rationals")
    return qvec(*data)


def _emit(payload: dict, fmt: str, human_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


def _cmd_validate(args) -> int:
    problem = _load(args.file)
    payload = {"valid": True, "problem": problem_to_dict(problem)}
    _emit(payload, args.format, [f"valid problem: n={problem.n} m={problem.m} k={problem.k}"])
    return 0


def _cmd_vertices(args) -> int:
    from . import efficiency

    problem = _load(args.file)
    vertices = efficiency.enumerate_vertices(problem)
    payload = {"vertices": [vector_to_list(v) for v in vertices]}
    _emit(payload, args.format, [str(v) for v in vertices] or ["(no vertices: empty feasible set)"])
    return 0


def _cmd_efficient(args) -> int:
    from . import efficiency

    problem = _load(args.file)
    pairs = efficiency.efficient_vertices(problem)
    payload = {
        "efficient_vertices": [
            {"x": vector_to_list(v), "lambda": vector_to_list(c.lam), "eta": vector_to_list(c.eta)}
            for v, c in pairs
        ]
    }
    lines = [f"{v}  lambda={c.lam} eta={c.eta}" for v, c in pairs] or ["(none)"]
    _emit(payload, args.format, lines)
    return 0


def _cmd_certify(args) -> int:
    from . import efficiency

    problem = _load(args.file)
    point = _parse_cli_vector(args.point)
    efficient, cert = efficiency.is_efficient(problem, point)
    payload: dict = {"efficient": efficient}
    lines = [f"efficient: {efficient}"]
    if efficient:
        payload["lambda"] = vector_to_list(cert.lam)
        payload["eta"] = vector_to_list(cert.eta)
        lines.append(f"scalarization: lambda={cert.lam} eta={cert.eta}")
    else:
        payload["dominator"] = vector_to_list(cert.dominator)
        lines.append(f"dominated by: {cert.dominator}")
    _emit(payload, args.format, lines)
    return 0


def _cmd_dual_construct(args) -> int:
    from . import efficiency

    problem = _load(args.file)
    point = _parse_cli_vector(args.point)
    cert = efficiency.proper_efficiency_certificate(problem, point)
    if cert is None:
        _emit({"candidate": None}, args.format, ["point is not efficient; no dual solution constructed"])
        return 0
    cand = duality.construct_dual_solution(problem, point, cert)
    payload = {"candidate": candidate_to_dict(cand), "objective": vector_to_list(objective_D(problem, cand))}
    _emit(payload, args.format, [json.dumps(candidate_to_dict(cand)), f"objective: {objective_D(problem, cand)}"])
    return 0


def _cmd_check_dual(args) -> int:
    problem = _load(args.file)
    with open(args.dual, "r", encoding="utf-8") as handle:
        data = decode_json(handle.read())
    cand = candidate_from_dict(data, problem, args.kind)
    if args.kind == "D":
        feasible = duality.check_feasible_D(problem, cand)
    elif args.kind == "J":
        feasible = duality.check_feasible_J(problem, cand)
    elif args.kind == "L":
        feasible = duality.check_feasible_L(problem, cand)
    else:
        feasible = duality.check_feasible_U(problem, cand)
    _emit({"feasible": feasible}, args.format, [f"feasible: {feasible}"])
    return 0


def _cmd_recover(args) -> int:
    problem = _load(args.file)
    value = _parse_cli_vector(args.value)
    point = duality.recover_primal(problem, value)
    if point is None:
        _emit({"recovered": None}, args.format, ["no feasible preimage"])
    else:
        _emit({"recovered": vector_to_list(point)}, args.format, [f"x = {point}"])
    return 0


def _cmd_member(args) -> int:
    problem = _load(args.file)
    value = _parse_cli_vector(args.value)
    oracle = {"hB": duality.membership_hB, "hL": duality.membership_hL, "hJ": duality.membership_hJ}[args.set]
    verdict = oracle(problem, value)
    payload: dict = {"set": args.set, "member": verdict.member}
    lines = [("member" if verdict.member else "not a member") + f" of {args.set}"]
    if args.witness and verdict.candidate is not None:
        payload["witness_candidate"] = candidate_to_dict(verdict.candidate)
        lines.append(json.dumps(candidate_to_dict(verdict.candidate)))
    _emit(payload, args.format, lines)
    return 0


def _cmd_verify(args) -> int:
    from .harness import emit_report, run_instance_suite

    problem = _load(args.file)
    report = run_instance_suite(problem, seed=args.seed, instance_id=args.file)
    print(emit_report(report, args.format))
    return 0 if report.ok else 1


def _cmd_campaign(args) -> int:
    from .harness import emit_report, run_random_campaign

    report = run_random_campaign(args.seed, args.count)
    print(emit_report(report, args.format))
    return 0 if report.ok else 1


def _cmd_examples(args) -> int:
    from .harness import emit_report, run_all_fixtures

    report = run_all_fixtures()
    print(emit_report(report, args.format))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vlpdual", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("human", "json"), default="human")
        return p

    p = add("validate", _cmd_validate, help="parse and validate a problem file")
    p.add_argument("file")

    p = add("vertices", _cmd_vertices, help="enumerate the vertices of the feasible set")
    p.add_argument("file")

    p = add("efficient", _cmd_efficient, help="efficient vertices with scalarization certificates")
    p.add_argument("file")

    p = add("certify", _cmd_certify, help="efficiency check and certificate for a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="JSON array of rationals")

    p = add("dual-construct", _cmd_dual_construct, help="build the dual solution attached to an efficient point")
    p.add_argument("file")
    p.add_argument("--point", required=True)

    p = add("check-dual", _cmd_check_dual, help="feasibility of a dual candidate file")
    p.add_argument("file")
    p.add_argument("--dual", required=True)
    p.add_argument("--kind", choices=("D", "I", "J", "L", "H"), required=True)

    p = add("recover", _cmd_recover, help="feasible preimage of an image-space value")
    p.add_argument("file")
    p.add_argument("--value", required=True)

    p = add("member", _cmd_member, help="membership of a value in a dual image set")
    p.add_argument("file")
    p.add_argument("--set", choices=("hB", "hL", "hJ"), required=True)
    p.add_argument("--value", required=True)
    p.add_argument("--witness", action="store_true")

    p = add("verify", _cmd_verify, help="run the full per-instance check suite")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)

    p = add("campaign", _cmd_campaign, help="seeded random verification campaign")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)

    add("examples", _cmd_examples, help="run all registered fixtures")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
