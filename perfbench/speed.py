"""Machine-speed sampler: takes the shared host's speed swings out of wall
times.

On a small shared VM the same pass swings by a third from one minute to the
next, and everything it runs (interpreter loops and int64 matrix products
alike) slows together; CPU time swings with wall time, so it is no refuge.
The sampler interrupts the pass process every ``INTERVAL_S`` of wall time
(``SIGALRM``) and runs a fixed probe kernel on the same CPU as the pass.
The handler runs between bytecodes, so a probe due during a long numpy call
runs just after it.  A probe's duration is the CPU time of its thread, so
that while pool workers hold every CPU (``scan``) the wait for a CPU is not
taken for a slow host.  Kinds of work slow by different amounts, so each
workload names the probe most like its hot code (``PROBES``):

* ``int64``, a 48x48 int64 matrix product and a short integer loop, run
  cold, right after the pass has evicted its data, for ``gf8-448``, whose
  time goes to int64 products of order 448 that miss the caches too;
* ``mix``, a few ``Fraction`` products and sums, a short recursion and a
  16x16 int64 product, run twice and the warm run timed, for
  ``desk-schemes``, whose time goes to exact arithmetic and backtracking
  on small, cache-resident data;
* ``int``, an integer loop, warm, for the number-theory scans.

``reference_seconds`` turns a wall interval into *reference seconds*: each
stretch between two probes counts ``REF_PROBE_S[kind] / d`` seconds per wall
second, with ``d`` the duration of the probe that ends the stretch; probe
time itself is left out.  That is the time the interval would take on a
machine where the probe takes ``REF_PROBE_S[kind]`` (about its typical
duration on a 2-vCPU x86-64 VM), so a change to the program moves it as it
moves wall time, while a slower stretch of the host does not.
"""

from __future__ import annotations

import signal
import time
from array import array
from fractions import Fraction

import numpy as np

INTERVAL_S = 0.02

_A = np.arange(48 * 48, dtype=np.int64).reshape(48, 48) % 5
_B = np.arange(16 * 16, dtype=np.int64).reshape(16, 16) % 5


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _mix_probe():
    acc = Fraction(0)
    for i in range(1, 16):
        acc += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    _fib(10)
    _B @ _B


def _int_loop(n: int):
    acc = 0
    for i in range(n):
        acc += i * i % 7


def _int64_probe():
    _A @ _A
    _int_loop(300)


# kind -> (kernel, whether a warm-up run precedes the timed one)
PROBES = {"int64": (_int64_probe, False), "mix": (_mix_probe, True), "int": (lambda: _int_loop(600), True)}
REF_PROBE_S = {"int64": 1.7e-4, "mix": 1e-4, "int": 5e-5}


class Sampler:
    def __init__(self, kind: str):
        self.probe, self.warm = PROBES[kind]
        self.ref = REF_PROBE_S[kind]
        self.starts = array("d")
        self.ends = array("d")
        self.durations = array("d")

    def _sample(self, signum, frame):
        start = time.perf_counter()
        if self.warm:
            self.probe()
        cpu = time.thread_time()
        self.probe()
        self.durations.append(time.thread_time() - cpu)
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self):
        for _ in range(10):
            self.probe()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_probe(self) -> float:
        return sum(self.durations) / len(self.durations)

    def reference_seconds(self, a: float, b: float) -> float:
        """Reference seconds of the wall interval [a, b] (``perf_counter``
        times); the stretch after the last probe counts at that probe's speed."""
        if not self.durations:
            raise RuntimeError("no probe ran")
        total, free_from, d = 0.0, a, self.durations[-1]
        for start, end, d in zip(self.starts, self.ends, self.durations):
            if end <= a:
                continue
            total += max(0.0, min(start, b) - free_from) * self.ref / d
            free_from = max(free_from, end)
            if free_from >= b:
                return total
        return total + (b - free_from) * self.ref / d
