"""Host-speed probe, so that the benchmark's times do not follow the host.

A benchmark host that shares its cores runs the same code up to about 2x
slower at some moments than at others, switching every few seconds: on a
2-core VM the same ``decompose --first`` call took 1.7 s to 3.6 s within
two minutes.  ``Pace`` runs a short fixed piece of work from a SIGALRM
timer every ``PERIOD`` seconds inside the measured process, between the
program's own bytecodes, so each sample reads the speed the program gets
at that moment.  The work is what the program spends its time on:
bitset rows held as Python ints, combined and counted, and products of
wide integers.  ``factor(t0, t1)`` is ``REF_S`` over the mean probe time
between ``t0`` and ``t1``; a call's wall time times that factor is its
time at the reference speed, the speed at which the probe takes
``REF_S``.  On that VM this cut the coefficient of variation of one
call's time over repeats from 18-22% to 3-5%; a pure-Python loop as the
probe left 8-10%.  The probe adds about 1.5% to every timed call, the
same on every version of the program.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

BIT_OPS = 400    # bitset row operations per probe
PRODUCTS = 15    # wide-integer products per probe
REF_S = 2.5e-4   # probe time that defines the reference speed
PERIOD = 0.025   # seconds between probes

_rng = random.Random(0)
ROWS = tuple(_rng.getrandbits(1024) for _ in range(64))  # adjacency rows, v=1024
WIDE = (1 << 3000) - 12345


def probe() -> float:
    """Seconds one run of the fixed work takes now."""
    t0 = time.perf_counter()
    acc, mask = 0, ROWS[0]
    for i in range(BIT_OPS):
        acc += (ROWS[i & 63] & mask).bit_count()
        mask ^= ROWS[(i * 7) & 63]
    y = WIDE
    for _ in range(PRODUCTS):
        y = (y * WIDE) >> 3000
    return time.perf_counter() - t0


class Pace:
    """Samples the host's speed while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, probe seconds)
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), probe()))

    def __enter__(self) -> "Pace":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the mean probe time between t0 and t1; a call too
        short to hold a sample is probed once after it."""
        window = [d for t, d in self.samples if t0 <= t < t1] or [probe()]
        return REF_S / statistics.fmean(window)


def ready_factor(count: int = 100) -> float:
    """REF_S over the mean of ``count`` probes taken now."""
    return REF_S / statistics.fmean(probe() for _ in range(count))
