"""Drift-cancelled pass timing against an interleaved pure-Python reference loop.

On a shared two-core machine the same pure-Python call runs in a fast or a
slow regime up to about 1.8x apart, and the regime switches within about a
second, so raw seconds of one pass do not repeat between processes.  The
reference loop does the same kind of bitmask and set work as the program, but
no locdom code, and slows down with it.  While a pass runs, SIGALRM fires
every INTERVAL_S seconds and the handler times one short reference sample,
so the samples follow the regime through the pass; one more sample is taken
just before and just after it.  The handler's own time is taken out of the
pass.  With sample times r_i, the pass did work_s * mean(1 / r_i) samples'
worth of reference work (time-uniform samples of the speed 1 / r), reported
in units of one REF_ROUNDS reference loop.
"""

from __future__ import annotations

import signal
import time

SAMPLE_ROUNDS = 100
REF_ROUNDS = 8000
INTERVAL_S = 0.01
# Seconds one REF_ROUNDS loop takes at the reference speed: about its median
# on a 2-core 2.0 GHz Xeon virtual machine under Python 3.11.  Set-up time is
# reported as its work in reference loops times this, so it reads in seconds
# without moving with the machine's speed regime.
REF_SECONDS = 0.02

_WIDTH = 20
_FULL = (1 << _WIDTH) - 1
_ADJ = [((i * 2654435761) >> 7) & _FULL | (1 << ((i + 1) % _WIDTH)) for i in range(_WIDTH)]


def ref_loop(rounds: int) -> int:
    """Trace-and-set work shaped like an LD-set test, on a fixed 20-row table.

    Loops that also build dataclasses and sort tuples tracked the census no
    better and the lambda workload worse: in one process, sampled alongside
    this loop, their pass ratios spread 5 to 10% between passes against 1 to
    5% for this one.
    """
    hits = 0
    adj = _ADJ
    for m in range(1, rounds + 1):
        smask = (m * 40503) & _FULL
        rest = _FULL & ~smask
        seen = set()
        while rest:
            low = rest & -rest
            t = adj[low.bit_length() - 1] & smask
            if t in seen:
                break
            seen.add(t)
            rest ^= low
        hits += len(seen)
    return hits


class PassTimer:
    """Times calls in raw seconds and in reference-loop units."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._in_handlers = 0.0

    def _sample(self) -> float:
        t0 = time.perf_counter()
        ref_loop(SAMPLE_ROUNDS)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._sample()
        self._in_handlers += time.perf_counter() - t0

    def measure(self, fn):
        """Run fn(); return (its result, seconds of fn's own work, work in ref units)."""
        self.samples = []
        self._in_handlers = 0.0
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        work_s = t1 - t0 - self._in_handlers
        speed = sum(1.0 / r for r in self.samples) / len(self.samples)
        return result, work_s, work_s * speed * SAMPLE_ROUNDS / REF_ROUNDS
