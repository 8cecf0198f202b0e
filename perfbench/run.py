"""vlpdual benchmark: one command per workload run.

    python3 perfbench/run.py --workload {campaign,lp_random,cli_cold} --seed N --seconds S --trace {0,1}

Run it from the root of a vlpdual checkout; it measures the package under
`src/` as it stands. With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics. Every measurement runs in a fresh
interpreter (perfbench/worker.py), so the package's process-global caches
start cold, as they do for a user. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from speed import REFERENCE_S, KernelClock  # noqa: E402
from tracing import layer_values, per_layer_spec  # noqa: E402

TRACE_OPS = {"campaign": 12, "lp_random": 4000, "cli_cold": 32}  # ops in each run of --trace 1
SETUP_SAMPLES = 11
DEADLINE = time.monotonic() + 170  # every worker ends before the run's 180 s limit
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import vlpdual; print(time.perf_counter() - t)"
)


def setup_seconds() -> tuple[float, float]:
    """Median time for a fresh interpreter to `import vlpdual`, normalized
    by the reference kernel run between the probes, and raw. The first,
    untimed probe writes the bytecode caches a real install would have."""
    imports = []
    with KernelClock() as kernel:
        kernels = [kernel()]
        for attempt in range(SETUP_SAMPLES + 1):
            out = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
            )
            kernels.append(kernel())
            if attempt:
                imports.append(float(out.stdout.strip().splitlines()[-1]))
    raw = statistics.median(imports)
    return raw * REFERENCE_S / statistics.median(kernels), raw


def worker(workload: str, seed: int, *budget: str, traced: bool = False) -> dict:
    command = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed), *budget]
    if traced:
        command.append("--traced")
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE - time.monotonic())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    setup, raw_setup = setup_seconds()
    run = worker(workload, seed, "--seconds", str(seconds))
    metrics = {
        "ops_per_s": (run["ops"] / run["busy_s"], "1/s"),
        "op_p50_ms": (run["p50_ms"], "ms"),
        "op_tail_ms": (run["tail_ms"], "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    kernel = statistics.median(run["kernel_ms"])
    print(
        f"{workload} seed={seed}: {run['ops']} ops in {run['raw_busy_s']:.3f} s of op time "
        f"({run['wall_s']:.3f} s wall); op_tail_ms is p{run['tail_pct']:g} "
        f"with {run['tail_beyond']} of {run['ops']} samples beyond it"
    )
    print(
        f"  raw (not normalized): ops_per_s = {run['ops'] / run['raw_busy_s']:.6g}, "
        f"op_p50_ms = {run['raw_p50_ms']:.6g}, op_tail_ms = {run['raw_tail_ms']:.6g}, "
        f"setup_s = {raw_setup:.6g}; reference kernel median {kernel:.3f} ms "
        f"(reference {1000 * REFERENCE_S:g} ms)"
    )
    print(f"  failed_share = {run['failed'] / max(run['attempted'], 1):.6g} share")
    return run, metrics


def per_layer(workload: str, seed: int) -> tuple[dict, dict]:
    ops = str(TRACE_OPS[workload])
    plain = worker(workload, seed, "--ops", ops)
    traced = worker(workload, seed, "--ops", ops, traced=True)
    values = layer_values(traced["trace"], traced["import_ms"], plain, traced)
    metrics = {name: (values[name], unit) for name, unit, _ in per_layer_spec()}
    run = {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "notes": plain["notes"] + traced["notes"],
    }
    print(f"{workload} seed={seed}: traced {traced['ops']} ops, untraced {plain['ops']} ops")
    return run, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(TRACE_OPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (ROOT / "src" / "vlpdual" / "__init__.py", ROOT / "problems"):
        if not needed.exists():
            print(f"not a vlpdual checkout: {needed} is missing", file=sys.stderr)
            return 2

    if args.trace:
        run, metrics = per_layer(args.workload, args.seed)
    else:
        run, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in run["notes"]:
        print(f"CHECK: {note}", file=sys.stderr)
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
