"""The machine's speed around each op, from a short fixed reference task.

The shared host this benchmark was built on switches between a fast and
a slow mode every few seconds: a fixed loop took 13 ms in one and 20 ms
in the other, and its CPU time moved with its wall time, so this is not
time stolen from the process. Raw wall times of runs a minute apart
therefore spread by up to 0.26 of their median whatever the workload.
A run times a reference task, one that never touches the library,
every REF_INTERVAL_S between its ops, and divides each op's time by
the speed factor just before it: the median of the last WINDOW
reference samples over the reference's nominal time.

Two references, one per kind of work:

- `python`: a fixed pure-Python bit-mask loop of the kind the exact
  oracles run, for the in-process workloads;
- `start`: starting an interpreter (without `site`) that imports
  `argparse` and `json`, for the ops of `cli_pipe`, which are mostly
  interpreter start-up.

Set-up is in-process work on every workload, so it is always scaled
by the `python` reference.

NOMINAL_S holds each reference's typical time on a 2-vCPU x86-64 VM at
2.1 GHz with Python 3.11.7, between its fast and slow modes. Never
change these constants: every reported time is scaled by them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

NOMINAL_S = {"python": 0.0020, "start": 0.0300}
REF_INTERVAL_S = {"python": 0.1, "start": 0.5}
WINDOW = 3


def _python_work() -> int:
    adj = [(i * 2654435761) & 0xFFFFFF for i in range(24)]
    best = 0
    for avail in range(1, 2400):
        mask, size = avail, 0
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            mask &= ~adj[i] & ~low
            size += 1
        best = max(best, size)
    return best


def _start(env: dict):
    subprocess.run([sys.executable, "-S", "-c", "import argparse, json"],
                   env=env, stdout=subprocess.DEVNULL, check=True)


class Speed:
    """Reference samples of one run; `factor()` is the speed just before an op."""

    def __init__(self, kind: str, env: dict):
        self.kind, self.env = kind, env
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self):
        t = perf_counter()
        if self.kind == "python":
            _python_work()
        else:
            _start(self.env)
        self.last = perf_counter()
        self.samples.append(self.last - t)

    def due(self):
        """Take a sample if the last one is older than the reference's interval."""
        if perf_counter() - self.last >= REF_INTERVAL_S[self.kind]:
            self.sample()

    def fresh_factor(self) -> float:
        """The factor from WINDOW samples taken now."""
        for _ in range(WINDOW):
            self.sample()
        return self.factor()

    def factor(self) -> float:
        """How many times slower than nominal the machine runs now; times are divided by it."""
        return statistics.median(self.samples[-WINDOW:]) / NOMINAL_S[self.kind]
