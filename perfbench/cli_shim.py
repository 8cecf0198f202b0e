"""One traced CLI query in a fresh interpreter.

    python3 perfbench/cli_shim.py <vlpdual cli arguments>

Times `import vlpdual.cli`, installs the span tracer, runs the query through
`vlpdual.cli.main` with its usual stdout and exit code, and writes the span
aggregates as one JSON line at the end of stderr.
"""

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]


def main() -> int:
    started = time.perf_counter()
    from vlpdual import cli

    import_ms = (time.perf_counter() - started) * 1000.0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps({"import_ms": import_ms, "snapshot": tracer.snapshot()}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
