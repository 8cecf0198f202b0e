"""Machine-speed normalization for the end-to-end times.

The benchmark runs on shared machines whose speed drifts by 10-30% over
seconds to minutes, and differs from run to run; that drift is larger than
any bound worth setting. So a fixed reference kernel is timed between ops,
about once a second, and every op time is rescaled by the speed the kernel
saw around it:

    normalized = raw * REFERENCE_S / median(kernel runs within about 5 s)

The kernel is pure-Python `Fraction` elimination, the same kind of work the
package does but none of its code, and takes about REFERENCE_S on a quiet
2-core reference machine. It runs in a helper interpreter that never
imports vlpdual (`KernelClock`), so nothing the package does to its own
interpreter (garbage-collector settings, profiling hooks, a large heap of
long-lived objects) reaches the kernel and cancels out of the figures; only
the machine's speed does. Normalized times read as "seconds on the
reference machine". The median over neighbouring kernel runs follows the
drift without adding the noise of a single short kernel run to each op.
Raw times are printed beside them.

    python3 perfbench/speed.py     # the helper: one kernel run per stdin line
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.035
WINDOW_S = 1.0


def kernel_seconds() -> float:
    """Wall time of one run of the fixed reference kernel: Gauss-Jordan
    elimination on small `Fraction` matrices, written like the package's
    simplex pivots but sharing no code with it."""
    started = time.perf_counter()
    for sweep in range(25):
        rows = [[Fraction((i * 7 + j * 3 + sweep) % 11 - 5, (i + j) % 3 + 1) for j in range(9)] for i in range(6)]
        r = 0
        for col in range(8):
            pivot = next((i for i in range(r, 6) if rows[i][col] != 0), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            head = rows[r][col]
            rows[r] = [e / head for e in rows[r]]
            for i in range(6):
                if i != r and rows[i][col] != 0:
                    f = rows[i][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
            if r == 6:
                break
    return time.perf_counter() - started


class KernelClock:
    """A helper interpreter that runs only this module; each call times one
    kernel run there and waits for it. Use as a context manager, so the
    helper is stopped and waited for."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)


class Normalizer:
    """Collects raw op times in windows of about WINDOW_S of wall time, with
    one kernel run at each window boundary, and rescales them at the end."""

    NEIGHBOURS = 5  # kernel runs on each side of a window that set its speed

    def __init__(self, kernel: KernelClock):
        self.kernel = kernel
        self.kernel_runs = [kernel()]
        self.windows: list[list[float]] = [[]]
        self.window_started = time.perf_counter()

    def add(self, seconds: float) -> None:
        self.windows[-1].append(seconds)
        if time.perf_counter() - self.window_started >= WINDOW_S:
            self.kernel_runs.append(self.kernel())
            self.windows.append([])
            self.window_started = time.perf_counter()

    def finish(self) -> list[float]:
        """Normalized op times, in op order."""
        if self.windows[-1]:
            self.kernel_runs.append(self.kernel())
        out = []
        for i, window in enumerate(self.windows):
            # window i lies between kernel runs i and i + 1
            near = self.kernel_runs[max(0, i + 1 - self.NEIGHBOURS): i + 1 + self.NEIGHBOURS]
            factor = REFERENCE_S / statistics.median(near)
            out += [t * factor for t in window]
        return out


if __name__ == "__main__":
    for _ in sys.stdin:
        print(kernel_seconds(), flush=True)
