"""Host-speed correction for the benchmark's timings.

The host is shared: the same pure-Python work runs up to 1.45x faster or
slower for seconds to minutes at a time, as other tenants come and go, so
30 s runs of one workload spread by up to a quarter from run to run.  A
fixed reference loop, timed over and over while a workload runs, slows and
speeds up with it.  Each timing is multiplied by NOMINAL_S over the
reference's duration at the time, so that it reads as the time the work
takes at the host's usual speed.  On the 2-vCPU host the benchmark was tuned
on, this cut the spread of wall_s over ten runs of each workload from
0.16-0.22 of the median (raw) to 0.03-0.07.

The correction assumes the workload runs on one CPU.  Work the program
spreads over more CPUs would slow the reference too, and the correction
would then credit the program with the slowdown its own parallel work
causes: compare such a change on the raw times, which every result line
also carries.
"""

from __future__ import annotations

import threading
import time

# The reference's duration at the usual speed of the 2-vCPU Intel Xeon
# (2.1 GHz) host the benchmark was tuned on: its median over a quiet minute.
NOMINAL_S = 0.0014
PERIOD_S = 0.1  # between samples in a background Sampler: about 1.5% of a CPU


def reference() -> float:
    """Run the reference loop once and return its duration in thread CPU
    time, which leaves out any wait for the interpreter lock."""
    t0 = time.thread_time()
    s = 0
    for i in range(15000):
        s += i * i % 7
    return time.thread_time() - t0


def scale(samples: list[float]) -> float:
    """Factor that takes a timing made while `samples` were taken to the
    usual speed: the mean over the samples of NOMINAL_S / duration."""
    return sum(NOMINAL_S / s for s in samples) / len(samples)


class Sampler:
    """Times the reference every PERIOD_S in a background thread, from
    `with` entry to exit, for work that cannot be cut into pieces."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self.samples.append(reference())
        while not self._stop.wait(PERIOD_S):
            self.samples.append(reference())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        return scale(self.samples)
