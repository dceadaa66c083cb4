"""The host's speed, measured in a process of its own.

On a shared host the machine's speed switches between a fast and a slow
state (about 1.6x apart) every second or so, and the share of slow time
differs from run to run by more than the benchmark's bounds allow.  The
benchmark therefore times a fixed pure-Python kernel before, during
(after every 0.2 s of work) and after the work it measures, and scales
the run's times by the machine's mean speed over those readings
(`to_reference`).  One factor per run: rescaling each job by the
readings next to it was tried and made the spreads wider, as a reading
is noisier than the job times it would correct.

The kernel runs in its own interpreter, never in the process under
test: a worker blocks while it asks this process for a reading
(`Calibrator`), and run.py times set-ups with `calibrate()` in its own
process.  So the heap, threads and caches of the package under test do
not slow the kernel, and a change that slows the package's process
shows in the rescaled figures.  run.py prints the raw figures next to
the rescaled ones, and baseline.py records the spread of both.

Run as a script, it serves readings: one per line read from stdin.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

#: Duration of calibration_kernel on the reference machine (a 2-core
#: Xeon host in its fast state); job and set-up times are rescaled to it.
CALIBRATION_REF_S = 0.0035


def calibration_kernel():
    """Fixed pure-Python work (rational arithmetic and dict updates, the
    package's own mix) whose duration tracks the machine's speed."""
    acc = Fraction(0)
    d = {}
    for i in range(1, 1500):
        acc += Fraction(i % 7, i % 11 + 1)
        d[i % 97] = d.get(i % 97, 0) + i * i
    return acc


def to_reference(readings):
    """Factor that takes a time measured while the kernel took
    `readings`, sampled evenly over that time, to the reference machine:
    CALIBRATION_REF_S times the machine's mean speed, 1 / reading."""
    return CALIBRATION_REF_S * sum(1.0 / r for r in readings) / len(readings)


def calibrate(samples=3):
    """Median duration of the calibration kernel right now."""
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Calibrator:
    """A calibration process the caller blocks on for each reading."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def serve():
    for _ in sys.stdin:
        sys.stdout.write("%r\n" % calibrate())
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
