"""The machine's speed at the moment, from a fixed pure-Python reference job.

The shared machines this benchmark was built on change speed by up to a
factor of two over minutes; CPU time tracks wall time, so it is not
descheduling, and no run length absorbs a drift that outlasts the run.
Timing a fixed job between the solves tracks most of it.  Per pass of a
closed loop on the baseline machine, the wall time varied by 8.6% (coefficient
of variation, 33 passes of ``mrm-random``) and 7.5% (19 passes of
``kripke-deep``); scaled by the reference, by 5.7% and 3.8%.  The tracking is
not exact: a slowdown moved ``mrm-random`` about 0.7 times as much as the
reference, and ``kripke-deep`` 1.3 times.

The job uses no ``ltpdr`` code, so no change to the library moves it.  Do
not change it either: every normalised time is measured against it.
"""

from __future__ import annotations

import random
import statistics
import time

# Median time of one ``reference()`` on the baseline machine (perfbench
# README, Baseline).  A normalised time reads as seconds at that speed.
REFERENCE_S = 0.0025
# A closed loop takes a sample whenever this much time has passed since the
# last one: about 2.5% of a run.
EVERY_S = 0.1

_rng = random.Random(0)
_N = 40
_STEP = [[(_rng.randrange(_N), _rng.random()) for _ in range(3)] for _ in range(_N)]
_EDGES = [_rng.sample(range(200), 3) for _ in range(200)]


def reference():
    """A value iteration over lists of floats and breadth-first searches
    over sets and dicts: the kinds of work the library's solves do."""
    d = [0.0] * _N
    for _ in range(60):
        d = [max(d[t] * p for t, p in _STEP[s]) + 0.01 if s % 7 else 1.0
             for s in range(_N)]
    depth = {}
    for start in range(0, 200, 10):
        frontier, k = {start}, 0
        while frontier:
            depth.update((x, k) for x in frontier)
            frontier = {y for x in frontier for y in _EDGES[x] if y not in depth}
            k += 1
    return d, tuple(sorted(depth.items()))


def sample() -> float:
    """Wall time of one ``reference()``."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def factor(samples) -> float:
    """What turns a wall time taken alongside ``samples`` into seconds at
    the baseline machine's speed."""
    return REFERENCE_S / statistics.median(samples)
