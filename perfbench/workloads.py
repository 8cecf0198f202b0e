"""The three benchmark workloads: input generation, the timed op, and the
output check that runs outside the timed region.

Every workload is a closed loop with one client, and its inputs come only
from the seed. A workload with OPS_PER_SECOND set measures a fixed number of
ops per run; the others run for the given seconds and stop only between
rounds of `round_size` ops, so every run has the same mix of op kinds. The
package is called through module attributes (`lp.solve_lp`), so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from vlpdual import duality, efficiency, harness, lp
from vlpdual.exact import QMatrix, QVector, format_rational, parse_rational
from vlpdual.lp import Infeasible, LinearProgram, Optimal, Unbounded, verify_outcome
from vlpdual.model import (
    candidate_from_dict,
    load_problem,
    objective_D,
    objective_J,
    objective_L,
    serialize_problem,
)
from vlpdual.sampling import random_problem, random_rational, random_vector

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent

DEFAULT_SEED = 42
# sha256 over the per-instance JSON reports of the first CAMPAIGN_DIGEST_OPS
# campaign ops for the default seed, each report followed by a newline.
CAMPAIGN_DIGEST_OPS = 12
CAMPAIGN_DIGEST = "3ab8a0b148e937f0376fc67f4b2cd8ac49d57f31f5be7ca74018373adb60436b"


def _vec_json(vec: QVector) -> list[str]:
    return [format_rational(v) for v in vec]


class Campaign:
    """One op is one `random_problem` instance through all 12 campaign checks
    (`harness.run_instance_suite`, default `CampaignConfig`).

    The problems are one fixed sequence, drawn by `random_problem` from the
    acceptance campaign's seed (42), and every run starts at its beginning;
    --seed draws each instance's check samples (dual and primal points,
    probe values, U matrices). Instance cost ranges from 0.4 s to 4 s with
    the problem's structure, and a run holds only about 30 instances, so
    problems drawn per seed would make the spread between seeds larger than
    any bound worth having. The sequence comes in rounds of one instance per
    (k, n) stratum, k in {2, 3} times n in {1-2, 3-4, 5-6}, which
    `random_problem` draws with equal probability, so every prefix holds
    the acceptance campaign's mix.

    A timed run measures a fixed prefix of ceil(OPS_PER_SECOND * seconds)
    instances, which lasts about `seconds` at the seed commit on a 2-core
    machine. Stopping on the clock instead would give a faster version of
    the package a longer prefix with another mix, and a different median.
    """

    name = "campaign"
    OPS_PER_SECOND = 0.8
    runs_children = False

    def __init__(self, seed: int, traced: bool = False, workdir: Path | None = None):
        self.seed = seed
        self.digest = hashlib.sha256()
        self.digested = 0

    def inputs(self):
        draws = random.Random(DEFAULT_SEED)
        order = random.Random(DEFAULT_SEED + 1)
        strata = [(k, bucket) for k in (2, 3) for bucket in (0, 1, 2)]
        index = 0
        while True:
            order.shuffle(strata)
            for k, bucket in strata:
                problem = random_problem(draws)
                while problem.k != k or (problem.n - 1) // 2 != bucket:
                    problem = random_problem(draws)
                yield index, problem
                index += 1

    def run(self, op):
        index, problem = op
        return harness.run_instance_suite(problem, seed=self.seed * 1000003 + index, instance_id=f"rand:{index:04d}")

    def check(self, op, report) -> bool:
        if self.digested < CAMPAIGN_DIGEST_OPS:
            self.digest.update(harness.emit_report(report, "json").encode() + b"\n")
            self.digested += 1
        return report.ok

    def finish(self) -> list[str]:
        """Problems found after the last op; empty when all is well."""
        if self.seed != DEFAULT_SEED or self.digested < CAMPAIGN_DIGEST_OPS:
            return []
        got = self.digest.hexdigest()
        if got != CAMPAIGN_DIGEST:
            return [f"campaign digest {got} != pinned {CAMPAIGN_DIGEST}"]
        return []


class LpRandom:
    """One op is one random standard-form LP from criterion 8's recipe, sent
    straight to `lp.solve_lp`; every outcome is checked by `verify_outcome`."""

    name = "lp_random"
    OPS_PER_SECOND = None
    round_size = 1
    runs_children = False

    def __init__(self, seed: int, traced: bool = False, workdir: Path | None = None):
        self.seed = seed
        self.kinds = {Optimal: 0, Infeasible: 0, Unbounded: 0}  # outcomes seen

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            n, m = rng.randint(1, 6), rng.randint(1, 3)
            c = QVector(tuple(random_rational(rng) for _ in range(n)))
            a = QMatrix(m, n, tuple(random_rational(rng) for _ in range(m * n)))
            if rng.random() < 0.5:
                b = a @ QVector(tuple(abs(random_rational(rng)) for _ in range(n)))
            else:
                b = QVector(tuple(random_rational(rng) for _ in range(m)))
            yield LinearProgram(c, a, b)

    def run(self, program):
        return lp.solve_lp(program)

    def check(self, program, out) -> bool:
        self.kinds[type(out)] += 1
        return verify_outcome(program, out)

    def finish(self) -> list[str]:
        missing = [kind.__name__ for kind, count in self.kinds.items() if count == 0]
        return [f"no {kind} outcome among the LPs" for kind in missing]


# (problem file, set, value, expected member) answers fixed by hand.
PINNED_MEMBERSHIP = (
    ("r5", "hL", ("-1", "-1"), True),
    ("r5", "hB", ("-1", "-1"), False),
    ("zero_rhs", "hB", ("1", "-1"), True),
    ("zero_rhs", "hJ", ("1", "-1"), False),
)
# set -> (oracle, feasibility check and objective of its witness)
_MEMBERSHIP = {
    "hB": (duality.membership_hB, duality.check_feasible_D, objective_D),
    "hL": (duality.membership_hL, duality.check_feasible_L, lambda problem, cand: objective_L(cand)),
    "hJ": (duality.membership_hJ, duality.check_feasible_J, objective_J),
}


class CliCold:
    """One op is one fresh `python -m vlpdual.cli ... --format json` process.

    A round of 16 queries: the 4 pinned membership answers, 5 membership
    queries with `--witness` on seeded values, 2 `efficient`, 1 `certify`,
    2 `vertices` and 2 `verify`. Problems are `problems/*.json` plus
    RANDOM_FILES seeded random problems written to a work directory. `verify`
    runs only on the pinned files, whose suite cost does not depend on the
    seed; as the slowest eighth of the round it holds the p90 tail, which
    would otherwise fall on whichever random problem is slowest.
    """

    name = "cli_cold"
    OPS_PER_SECOND = None
    round_size = 16
    runs_children = True
    RANDOM_FILES = 5

    def __init__(self, seed: int, traced: bool, workdir: Path):
        self.traced = traced
        self.snapshots: list[dict] = []
        self.import_ms: list[float] = []
        self.rng = random.Random(seed)
        self.problems: dict[str, tuple[Path, object]] = {}
        for path in sorted((ROOT / "problems").glob("*.json")):
            self.problems[path.stem] = (path, load_problem(path.read_text(encoding="utf-8")))
        self.pinned = sorted(self.problems)
        self.verified = 0
        for i in range(self.RANDOM_FILES):
            problem = random_problem(self.rng)
            path = workdir / f"rand{i}.json"
            path.write_text(serialize_problem(problem), encoding="utf-8")
            self.problems[f"rand{i}"] = (path, problem)
        self.vertices = {key: efficiency.enumerate_vertices(p) for key, (_, p) in self.problems.items()}
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def _member_query(self, key):
        problem = self.problems[key][1]
        which = self.rng.choice(("hB", "hL", "hJ"))
        images = [problem.L @ v for v in self.vertices[key]]
        if images and self.rng.random() < 0.5:
            value = self.rng.choice(images) + random_vector(self.rng, problem.k, -1, 1)
        else:
            value = random_vector(self.rng, problem.k, -4, 4)
        return ("member", key, which, tuple(_vec_json(value)), None)

    def _round(self):
        keys = sorted(self.problems)
        with_vertices = [key for key in keys if self.vertices[key]]
        queries = [("member", key, which, value, expected) for key, which, value, expected in PINNED_MEMBERSHIP]
        queries += [self._member_query(self.rng.choice(keys)) for _ in range(5)]
        queries += [("efficient", self.rng.choice(keys)) for _ in range(2)]
        key = self.rng.choice(with_vertices)
        queries.append(("certify", key, tuple(_vec_json(self.rng.choice(self.vertices[key])))))
        queries += [("vertices", self.rng.choice(keys)) for _ in range(2)]
        for _ in range(2):  # the pinned files in turn, so every run has the same verify mix
            queries.append(("verify", self.pinned[self.verified % len(self.pinned)], self.rng.randrange(1000)))
            self.verified += 1
        self.rng.shuffle(queries)
        return queries

    def inputs(self):
        while True:
            yield from self._round()

    def argv(self, query) -> list[str]:
        kind, key = query[0], query[1]
        args = [kind, str(self.problems[key][0])]
        if kind == "member":
            args += ["--set", query[2], "--value", json.dumps(list(query[3])), "--witness"]
        elif kind == "certify":
            args += ["--point", json.dumps(list(query[2]))]
        elif kind == "verify":
            args += ["--seed", str(query[2])]
        return args + ["--format", "json"]

    def run(self, query):
        if self.traced:
            command = [sys.executable, str(BENCH_DIR / "cli_shim.py")]
        else:
            command = [sys.executable, "-m", "vlpdual.cli"]
        return subprocess.run(
            command + self.argv(query), cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120
        )

    def check(self, query, proc) -> bool:
        if self.traced:
            trace = json.loads(proc.stderr.strip().splitlines()[-1])
            self.snapshots.append(trace["snapshot"])
            self.import_ms.append(trace["import_ms"])
        if proc.returncode != 0:
            return False
        payload = json.loads(proc.stdout)
        kind, key = query[0], query[1]
        problem = self.problems[key][1]
        if kind == "member":
            return self._check_member(problem, query, payload)
        if kind == "vertices":
            return payload["vertices"] == [_vec_json(v) for v in self.vertices[key]]
        if kind == "efficient":
            expected = [_vec_json(v) for v in self.vertices[key] if efficiency.is_efficient(problem, v)[0]]
            got = [entry["x"] for entry in payload["efficient_vertices"]]
            return got == expected and all(
                _certificate_holds(problem, entry["x"], entry) for entry in payload["efficient_vertices"]
            )
        if kind == "certify":
            efficient = efficiency.is_efficient(problem, _vector(query[2]))[0]
            if payload["efficient"] != efficient or ("lambda" in payload) != efficient:
                return False
            return not efficient or _certificate_holds(problem, list(query[2]), payload)
        if kind == "verify":
            return all(record["status"] != "fail" for record in payload)
        raise ValueError(f"unknown query kind {kind!r}")

    def _check_member(self, problem, query, payload) -> bool:
        _, _, which, value, expected = query
        d = _vector(value)
        oracle, feasible, objective = _MEMBERSHIP[which]
        if expected is None:
            expected = oracle(problem, d).member
        if payload["set"] != which or payload["member"] != expected:
            return False
        if not expected:
            return "witness_candidate" not in payload
        cand = candidate_from_dict(payload["witness_candidate"], problem)
        return feasible(problem, cand) and objective(problem, cand) == d

    def finish(self) -> list[str]:
        return []


def _vector(values) -> QVector:
    return QVector(tuple(parse_rational(v) for v in values))


def _certificate_holds(problem, x, entry) -> bool:
    cert = efficiency.EfficiencyCertificate(
        "efficient-with-scalarization", lam=_vector(entry["lambda"]), eta=_vector(entry["eta"])
    )
    return efficiency.verify_scalarization_certificate(problem, _vector(x), cert)


WORKLOADS = {w.name: w for w in (Campaign, LpRandom, CliCold)}
