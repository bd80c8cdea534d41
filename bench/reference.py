"""A small fixed piece of Python work that shares no code with the program,
timed over and over while a pass runs, so that the pass can be expressed
in units of it.

The machine's speed changes by about 15% from one second to the next and
by a fifth and more over minutes, under load the benchmark can neither
see nor control.  :class:`SpeedProbe` times the probe work from a timer
signal in the pass's own process, so the samples fall on the same core
and within the same seconds as the program's work, and slow down with it.
The work is of the program's own kind: a search over states made of exact
fractions, tuples and frozensets, kept in a dictionary.  It must never
change, or ratios measured before and after the change are no longer
comparable.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PROBE_STATES = 600
PROBE_PERIOD_S = 0.2
# the probe's usual time on the machine the benchmark was defined on, a
# 2-core shared x86 host; set-up times are reported at this probe speed
PROBE_NOMINAL_S = 0.010
CELLS = 97
HORIZON = 20


def _explore(states: int) -> int:
    seen = {}
    frontier = [(0, Fraction(0), frozenset())]
    step = Fraction(1, 3)
    while frontier and len(seen) < states:
        cell, clock, labels = frontier.pop()
        key = (cell, clock, labels)
        if key in seen:
            continue
        seen[key] = len(seen)
        for move in (1, 2, 5):
            there = (cell + move) % CELLS
            later = clock + step * move
            if later > HORIZON:
                later -= HORIZON
            marks = labels | {there % 4} if there % 3 else frozenset()
            frontier.append((there, later, frozenset(marks)))
    return len(seen)


def probe_seconds() -> float:
    """Wall seconds of the probe work, about 10 ms on a 2-core shared x86
    host.  The cyclic garbage collector is off meanwhile, so that the
    probe never pays for a collection of the pass's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        if _explore(PROBE_STATES) != PROBE_STATES:
            raise RuntimeError("the probe work changed")
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Within its ``with`` block, runs the probe work every
    ``PROBE_PERIOD_S`` seconds from a ``SIGALRM`` handler and keeps the
    time of each run in :attr:`samples`.  Only one probe may be active in
    a process, and only in its main thread."""

    def __init__(self):
        self.samples: list = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:      # a slow probe outlasted its period
            return
        self._busy = True
        try:
            self.samples.append(probe_seconds())
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
