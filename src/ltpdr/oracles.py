"""Independent brute-force references used to validate every solver verdict.

Nothing here calls the engines or any heuristic code: expectations are
recomputed directly from the model fields, so agreement with the solver is
meaningful evidence.
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
    of the max-over-actions expectation operator from the all-zero vector."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = M.state_count
    d = [0.0] * n
    for it in range(1, cap + 1):
        nd = []
        for s in range(n):
            if s not in M.safe:
                nd.append(1.0)
                continue
            best = 0.0
            for dist in M.delta[s]:
                if dist is None:
                    continue
                best = max(best, sum(p * d[t] for t, p in dist))
            nd.append(best)
        delta = max(abs(a - b) for a, b in zip(d, nd))
        assert all(a >= b - 1e-15 for a, b in zip(nd, d)), \
            "iteration from zero must be nondecreasing"
        d = nd
        if delta < tol:
            value = d[M.initial_state]
            return OracleResult(verdict=(value <= M.threshold), value=value)
    raise NoConvergence(f"no convergence within {cap} iterations")


def vi_expected_reward(M, tol: float = 1e-12, cap: int = 10**6) -> OracleResult:
    """Expected accumulated reward until leaving the safe region, by value
    iteration from zero; flags divergence when iterates blow past 1e12."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = M.state_count
    d = [0.0] * n
    checkpoint = 1024
    checkpoint_delta = None
    for it in range(1, cap + 1):
        nd = []
        for s in range(n):
            if s not in M.safe:
                nd.append(0.0)
                continue
            nd.append(sum(p * (c + d[t]) for (c, t), p in M.delta[s] if p > 0))
        if any(v > 1e12 for v in nd):
            return OracleResult(verdict=DIVERGED, value=math.inf)
        delta = max(abs(a - b) for a, b in zip(d, nd))
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
