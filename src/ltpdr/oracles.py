"""Independent brute-force references used to validate every solver verdict.

Nothing here calls the engines or any heuristic code.  Each value iteration
builds its own row view of the safe states from the model fields (``delta``
and ``safe``), never the solver's, and recomputes the expectations from it,
so agreement with the solver is meaningful evidence.  Expectations add left
to right in a plain ``+=`` loop: ``sum`` compensates its rounding from
Python 3.12 on.  A sweep is one pass over the safe states: with each new
value it takes the step ``abs(d[s] - new)`` into a running maximum, and
``vi_max_reach`` checks that the value did not fall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


class NoConvergence(Exception):
    """Value iteration failed to reach the tolerance within the cap."""


@dataclass(frozen=True)
class OracleResult:
    verdict: bool  # value <= threshold; bfs_safe computes no value
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


def _reaching(preds: list, targets) -> set:
    """``targets`` and every state with a path into them along ``preds``."""
    seen, todo = set(targets), list(targets)
    while todo:
        new = set(preds[todo.pop()]) - seen
        seen |= new
        todo += new
    return seen


def vi_expected_reward(M, tol: float = 1e-12, cap: int = 10**6) -> OracleResult:
    """Expected accumulated reward until leaving the safe region: ``inf``,
    or else by value iteration from zero.

    A value is ``inf`` iff its state reaches a closed class that pays
    (Baier and Katoen, *Principles of Model Checking*, 2008): ``paying``
    holds the safe states that reach a positive reward, and ``infinite``
    those that reach a paying state from which only paying states can be
    reached.  The sweeps cover the safe states that are not infinite, which
    reach none that are; ``delta < tol`` bounds only the last step."""
    if not tol > 0:  # NaN fails every comparison
        raise ValueError("tol must be positive")
    n, safe = M.state_count, M.safe
    # Each safe state's entries with p > 0, in the order of ``delta``.
    rows = [(s, [(float(c), t, p) for (c, t), p in M.delta[s] if p > 0])
            for s in range(n) if s in safe]
    preds = [[] for _ in range(n)]
    for s, paid in rows:
        for _c, t, _p in paid:
            preds[t].append(s)
    paying = _reaching(preds, [s for s, paid in rows if any(e[0] > 0 for e in paid)])
    leaking = _reaching(preds, [s for s in range(n) if s not in paying])
    infinite = _reaching(preds, paying - leaking)
    if M.initial_state in infinite:
        return OracleResult(verdict=math.inf <= M.threshold, value=math.inf)
    rows = [row for row in rows if row[0] not in infinite]
    d = [0.0] * n
    for _ in range(cap):
        nd = [0.0] * n
        delta = 0.0
        for s, paid in rows:
            v = 0.0
            for c, t, p in paid:
                v += p * (c + d[t])
            nd[s] = v
            step = abs(d[s] - v)
            if step > delta:
                delta = step
        d = nd
        if delta < tol:
            value = d[M.initial_state]
            return OracleResult(verdict=(value <= M.threshold), value=value)
    raise NoConvergence(f"no convergence within {cap} iterations")
