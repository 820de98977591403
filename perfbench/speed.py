"""Host-speed calibration: how fast this host runs Python right now.

On a shared host the speed at which the same Python code runs drifts by
±25% over minutes (other tenants contend for the cores and caches), far
more than the changes the benchmark must resolve.  So every run times a
fixed calibration kernel between its operations — never inside a timed
span — and reports each time as *reference-host time*: the measured time
scaled by ``REFERENCE_S / median(calibration times)``.  The raw values
stay in the run record.

The kernel runs in a helper process of its own, started once per run
and kept alive, so the code under test (which on compile-suite runs in
the benchmark's own process) cannot slow the kernel and so divide its
own slowdown out of the reported times.  It mixes interpreter-bound
scalar arithmetic with small numpy vector operations, the two kinds of
work the solver's host path does.

    python3 perfbench/speed.py   # the helper: one kernel time per input line
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

__all__ = ["CALIBRATION_INTERVAL_S", "REFERENCE_S", "SpeedMeter", "calibration_kernel"]

# The kernel's median time on the host where the benchmark was defined
# (2 vCPUs, Python 3.11, numpy 2.4), in a quiet period.
REFERENCE_S = 0.0110

# At most one calibration sample per this many seconds (about 2% of a
# run's time).
CALIBRATION_INTERVAL_S = 0.5


def calibration_kernel() -> float:
    """Run the fixed calibration work once; returns its wall seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60000):
        acc += (i % 7) * 0.5
    vec = np.arange(64.0)
    for _ in range(1500):
        acc += float(vec @ vec) * 1e-9
        vec = vec * 1.0000001 + 1e-12
    return time.perf_counter() - t0


class SpeedMeter:
    """Collects calibration samples across a run from the helper
    process; use as a context manager, which stops the helper."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")
        self._helper = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "SpeedMeter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the helper and wait for it to exit."""
        helper = self._helper
        if helper.poll() is None:
            helper.stdin.close()
        try:
            helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            helper.kill()
            helper.wait()
        helper.stdout.close()

    def tick(self) -> None:
        """Sample if :data:`CALIBRATION_INTERVAL_S` has passed since the
        last sample.  The caller waits while the helper runs the kernel."""
        now = time.monotonic()
        if now - self._last >= CALIBRATION_INTERVAL_S:
            self._helper.stdin.write("\n")
            self._helper.stdin.flush()
            self.samples.append(float(self._helper.stdout.readline()))
            self._last = time.monotonic()

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get reference-host time."""
        return REFERENCE_S / float(np.median(self.samples))


def _helper() -> None:
    for _ in sys.stdin:
        print(calibration_kernel(), flush=True)


if __name__ == "__main__":
    _helper()
