"""Compare the traced run's layer shares with cProfile on the same ops.

    python3 perfbench/crosscheck.py [--ops 12]

Runs the first --ops campaign ops of seed 42 twice, each in a fresh
interpreter: once through the span tracer (perfbench/worker.py --traced) and
once here under cProfile. Prints each layer's share of the op time from both
and exits 1 when any pair differs by more than TOLERANCE percentage points.
cProfile adds cost to every Python call, so its shares are the reference
only to within a few points.
"""

from __future__ import annotations

import argparse
import cProfile
import itertools
import json
import pstats
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

SEED = 42
TOLERANCE = 5.0  # percentage points


def traced_shares(seed: int, ops: int) -> dict[str, float]:
    command = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", "campaign",
               "--seed", str(seed), "--ops", str(ops), "--traced"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    trace, total = run["trace"], run["raw_busy_s"] * 1000.0
    return {
        "lp.solve_lp self": trace["self_ms"]["lp.solve_lp"] / total,
        "inclusion_chain": trace["total_ms"]["harness.check.inclusion_chain"] / total,
        "weak_duality": trace["total_ms"]["harness.check.weak_duality"] / total,
        "context build": trace["total_ms"]["harness.build_context"] / total,
    }


def profiled_shares(seed: int, ops: int) -> dict[str, float]:
    from workloads import Campaign

    workload = Campaign(seed)
    inputs = list(itertools.islice(workload.inputs(), ops))
    profiler = cProfile.Profile()
    profiler.enable()
    for op in inputs:
        workload.run(op)
    profiler.disable()
    stats = pstats.Stats(profiler).stats

    def cumulative(name: str, module: str) -> float:
        return sum(v[3] for (path, _, func), v in stats.items() if func == name and path.endswith(module))

    lp_callers = ("solve_lp", "_basic_duals")
    solves_in_lp = sum(
        edge[3]
        for (path, _, func), v in stats.items() if func == "solve_linear_system" and path.endswith("exact.py")
        for (cpath, _, cfunc), edge in v[4].items() if cfunc in lp_callers and cpath.endswith("lp.py")
    )
    total = cumulative("run_instance_suite", "harness.py")
    return {
        "lp.solve_lp self": (cumulative("solve_lp", "lp.py") - solves_in_lp) / total,
        "inclusion_chain": cumulative("_check_inclusion_chain", "harness.py") / total,
        "weak_duality": cumulative("_check_weak_duality", "harness.py") / total,
        "context build": cumulative("_build_context", "harness.py") / total,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--ops", type=int, default=12)
    args = parser.parse_args()
    traced = traced_shares(SEED, args.ops)
    profiled = profiled_shares(SEED, args.ops)
    worst = 0.0
    for layer in traced:
        diff = 100.0 * abs(traced[layer] - profiled[layer])
        worst = max(worst, diff)
        print(f"{layer:18s} traced {100 * traced[layer]:5.1f}%  cProfile {100 * profiled[layer]:5.1f}%  "
              f"diff {diff:4.1f} points")
    print(json.dumps({"traced": traced, "cprofile": profiled, "max_diff_points": worst}))
    return 0 if worst <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
