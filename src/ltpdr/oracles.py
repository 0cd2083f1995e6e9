"""Independent brute-force references used to validate every solver verdict.

Nothing here calls the engines or any heuristic code.  Each value iteration
builds its own row view of the safe states from the model fields (``delta``
and ``safe``), never the solver's, and recomputes the expectations from it,
so agreement with the solver is meaningful evidence.  Expectations add left
to right in a plain ``+=`` loop: ``sum`` compensates its rounding from
Python 3.12 on.  A sweep is one pass over the safe states: with each new
value it takes the step ``abs(d[s] - new)`` into a running maximum and
makes that state's checks (nondecreasing, or at most 1e12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union


class NoConvergence(Exception):
    """Value iteration failed to reach the tolerance within the cap."""


DIVERGED = "Diverged"


@dataclass(frozen=True)
class OracleResult:
    verdict: Union[bool, str]  # True / False / DIVERGED
    value: Optional[float] = None


def bfs_safe(K) -> OracleResult:
    """All states reachable from the initial set lie in the safe set."""
    seen = 0
    frontier = K.initial
    while frontier:
        seen |= frontier
        nxt = 0
        m = frontier
        while m:
            bit = m & -m
            nxt |= K.succ[bit.bit_length() - 1]
            m ^= bit
        frontier = nxt & ~seen
    return OracleResult(verdict=(seen & ~K.safe == 0))


def vi_max_reach(M, tol: float = 1e-12, cap: int = 10**6) -> OracleResult:
    """Maximum probability of reaching an unsafe state, by value iteration
    of the max-over-actions expectation operator from the all-zero vector.

    Its stop, ``delta < tol``, bounds the last increment, not the distance to
    the value: on the fair gambler's ruin at ``N = 80`` from state 40 it
    stops 6.5e-10 (650 ``tol``) below it.  See ROADMAP.md item 10."""
    if not tol > 0:  # NaN fails every comparison
        raise ValueError("tol must be positive")
    n, safe = M.state_count, M.safe
    # Each safe state's available actions, in the order of ``delta``.
    rows = [(s, [dist for dist in M.delta[s] if dist is not None])
            for s in range(n) if s in safe]
    fresh = [0.0 if s in safe else 1.0 for s in range(n)]
    d = [0.0] * n
    jump = float(1.0 in fresh)  # the unsafe states' first step, 0 to 1
    for _ in range(cap):
        nd = fresh[:]
        delta, jump = jump, 0.0
        for s, actions in rows:
            best = 0.0
            for dist in actions:
                v = 0.0
                for t, p in dist:
                    v += p * d[t]
                if v > best:  # max(best, v): the first maximal action
                    best = v
            nd[s] = best
            old = d[s]
            # Raised, not asserted, so that ``python -O`` keeps the check.
            if best < old - 1e-15:
                raise AssertionError("iteration from zero must be nondecreasing")
            step = abs(old - best)
            if step > delta:
                delta = step
        d = nd
        if delta < tol:
            value = d[M.initial_state]
            return OracleResult(verdict=(value <= M.threshold), value=value)
    raise NoConvergence(f"no convergence within {cap} iterations")


def vi_expected_reward(M, tol: float = 1e-12, cap: int = 10**6) -> OracleResult:
    """Expected accumulated reward until leaving the safe region, by value
    iteration from zero.

    It answers ``DIVERGED`` (value ``inf``) when the iterate of any state,
    not only the initial one, passes 1e12, and when the increment fails to
    halve over a doubling window, checked at iterations 2048, 4096, ...
    against the one at 1024, 2048, ....  Both rules are heuristics: a slow
    leak, or an unreachable state of infinite value, reads ``DIVERGED``
    although the initial state's value is finite.  CHANGES.md records such
    models, and ROADMAP.md item 10 plans an exact graph test in their
    place.  As in ``vi_max_reach``, ``delta < tol`` bounds only the last step."""
    if not tol > 0:  # NaN fails every comparison
        raise ValueError("tol must be positive")
    n, safe = M.state_count, M.safe
    # Each safe state's entries with p > 0, in the order of ``delta``.
    rows = [(s, [(c, t, p) for (c, t), p in M.delta[s] if p > 0])
            for s in range(n) if s in safe]
    d = [0.0] * n
    checkpoint = 1024
    checkpoint_delta = None
    for it in range(1, cap + 1):
        nd = [0.0] * n
        delta = 0.0
        for s, paid in rows:
            v = 0.0
            for c, t, p in paid:
                v += p * (c + d[t])
            if v > 1e12:
                return OracleResult(verdict=DIVERGED, value=math.inf)
            nd[s] = v
            step = abs(d[s] - v)
            if step > delta:
                delta = step
        d = nd
        if it == checkpoint:
            # The iteration is monotone, so a step size that refuses to
            # shrink over a doubling window signals (at least) linear growth.
            if (checkpoint_delta is not None and delta >= tol
                    and delta >= 0.5 * checkpoint_delta):
                return OracleResult(verdict=DIVERGED, value=math.inf)
            checkpoint_delta = delta
            checkpoint *= 2
        if delta < tol:
            value = d[M.initial_state]
            return OracleResult(verdict=(value <= M.threshold), value=value)
    raise NoConvergence(f"no convergence within {cap} iterations")
