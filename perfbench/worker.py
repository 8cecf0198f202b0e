"""The measuring process: runs one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N (--seconds S | --ops N) [--traced]

With --ops it runs exactly that many ops. With --seconds it runs
ceil(OPS_PER_SECOND * S) ops for a workload that sets that rate, and
otherwise rounds of ops until S seconds have passed and a round is
complete. Each op is timed alone and checked outside its timed region.
--traced installs the span tracer first. The last stdout line is one JSON
object with the op count, raw and normalized op times, latency
percentiles, peak RSS and check results.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from speed import KernelClock, Normalizer  # noqa: E402

# Fixed percentile ladder, so the tail percentile a workload reports does
# not flip between runs whose op counts differ a little. It stops at p99:
# on a shared machine the slowest 0.1% of lp_random ops are scheduling
# stalls of 2-170 ms, and the same LPs re-timed take their usual 1 ms.
TAIL_LADDER = (99.0, 90.0, 50.0)


def percentile(ordered: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(ordered: list[float]) -> tuple[float, int]:
    """The highest ladder percentile with at least ten samples beyond it."""
    n = len(ordered)
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return pct, n - int(n * pct / 100.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--ops", type=int)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    import vlpdual.cli  # noqa: F401  (the whole package, as the CLI loads it)

    import_ms = (time.perf_counter() - started) * 1000.0
    from workloads import WORKLOADS

    # cli_cold's problem files go inside the checkout: the benchmark reads
    # and writes nowhere else. The directory is removed when the run ends.
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, traced=args.traced, workdir=workdir)
        ops = args.ops
        if ops is None and workload.OPS_PER_SECOND:
            ops = math.ceil(workload.OPS_PER_SECOND * args.seconds)
        seconds = None if ops is not None else args.seconds
        inputs = workload.inputs()
        if ops is not None:  # drawn before tracing starts, so spans cover only the ops
            inputs = list(itertools.islice(inputs, ops))
        tracer = None
        if args.traced and not workload.runs_children:  # else each child process traces itself
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        with KernelClock() as kernel:
            result = measure(workload, inputs, seconds, kernel)
            # read while the kernel helper still runs, so only the CLI children count
            children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = (children if workload.runs_children else own) / 1024.0
    result["import_ms"] = import_ms
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    elif args.traced:
        from tracing import merge

        result["trace"] = merge(workload.snapshots)
        result["import_ms"] = percentile(sorted(workload.import_ms), 50.0)
    print(json.dumps(result))
    return 0


def measure(workload, inputs, seconds: float | None, kernel: KernelClock) -> dict:
    times: list[float] = []
    gauge = Normalizer(kernel)
    failed = 0
    notes: list[str] = []
    clock = time.perf_counter
    loop_started = clock()
    attempted = 0
    for index, op in enumerate(inputs):
        if seconds is not None and index % workload.round_size == 0 and clock() - loop_started >= seconds:
            break
        attempted += 1
        try:
            begun = clock()
            out = workload.run(op)
            times.append(clock() - begun)
            gauge.add(times[-1])
            problem = None if workload.check(op, out) else "failed its output check"
        except Exception as exc:  # a raising op is a failed op, and the run goes on
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            if len(notes) < 5:
                notes.append(f"op {index} {problem}")
    wall_s = clock() - loop_started
    normalized = gauge.finish()
    notes += workload.finish()
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": not notes,
        "notes": notes,
        "ops": len(times),
        "wall_s": wall_s,
        "kernel_ms": [t * 1000.0 for t in gauge.kernel_runs],
    }
    for prefix, samples in (("raw_", times), ("", normalized)):
        ordered = sorted(samples)
        pct, beyond = tail(ordered)
        result |= {
            f"{prefix}busy_s": sum(ordered),
            f"{prefix}p50_ms": percentile(ordered, 50.0) * 1000.0,
            f"{prefix}tail_ms": percentile(ordered, pct) * 1000.0,
            "tail_pct": pct,
            "tail_beyond": beyond,
        }
    return result


if __name__ == "__main__":
    sys.exit(main())
