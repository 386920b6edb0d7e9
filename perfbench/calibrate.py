"""The calibration process: a fixed piece of plain-Python work, timed on demand.

    python3 perfbench/calibrate.py

Each line on standard input runs the reference work once and answers with
its wall time in seconds, one line.  The process ends when standard input
closes.  The reference is the benchmark's own answer key (oracle.py: chains,
Fractions and elimination over GF(3) in plain Python, the same kind of work
as the package) on a fixed height function on RP2; it imports nothing from
the package, so no change to the program moves it.

The shared machine's speed drifts by a quarter within minutes, and a run
cannot outlast that drift.  The benchmark therefore times the reference next
to every job, on the same CPU and in its own process, and scales the job's
time by REFERENCE_S over the reference's time (`Calibrator.scale`): the
result is the job's time on a machine where the reference takes
REFERENCE_S.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# A round figure for the reference's time on the 2-vCPU shared VM of
# BASELINE.md, whose readings ran from 0.11 to 0.19 s.  A constant: it fixes
# the unit of the scaled times, not their spread.
REFERENCE_S = 0.15

# 20 diagrams of 8 ms each on that VM, long enough for a steady reading.
REPEATS = 20
HEIGHTS = [2, 1, 0, 1, 3, 3]


def reference() -> float:
    from oracle import extended_persistence
    from workloads import RP2

    values = {v + 1: Fraction([-5, -2, 2, 5][k]) for v, k in enumerate(HEIGHTS)}
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        extended_persistence(RP2, values, 3)
    return time.perf_counter() - t0


class Calibrator:
    """A calibration process started beside the caller, on the caller's CPU
    set.  It only ever runs while the caller waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples = []

    def read(self) -> float:
        """Run the reference once; its time in seconds."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process ended early")
        self.samples.append(float(line))
        return self.samples[-1]

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """seconds measured between two readings, at the reference speed."""
        return seconds * REFERENCE_S / ((before + after) / 2)

    def close(self) -> None:
        """Stop the process (end of input ends its loop) and wait for it."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main() -> int:
    sys.path.insert(0, HERE)
    reference()  # warm: imports and first-call costs
    for _ in sys.stdin:
        print(repr(reference()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
