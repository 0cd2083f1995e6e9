"""Markov-reward-model instance: expected accumulated reward bounds.

The lattice is ``[0, inf]^S`` pointwise; the transformer maps a state inside
the safe region to the expectation of ``reward + value(next)`` and every
other state to 0, so its least fixed point is the expected reward
accumulated until the safe region is left.  The solver decides whether that
expectation from the initial state is at most a threshold.

Obligation values reuse the symbolic-eps strictness marker of the MDP
instance; infinity is absorbing in the arithmetic (``p * inf = inf`` for
``p > 0``, and zero-probability terms are skipped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .engine import (
    ContractFailure,
    HeuristicsBundle,
    NegativeHeuristics,
    PDRAnswer,
    Transformer,
    join_induction_proposer,
    run_combined,
    run_negative,
    run_positive,
)
from .mdp import (EpsValue, PointwiseLattice, eps_val,
                  heuristic_candidate_mdp, plain)
from .simplex import simplex_min

_CAP = 1e9
_SNAP = 1e-9


@dataclass(frozen=True)
class MRMModel:
    state_count: int
    # delta[s] is a tuple of ((reward, target), probability) entries.
    delta: tuple
    initial_state: int
    threshold: float  # may be math.inf
    safe: frozenset

    def __post_init__(self):
        n = self.state_count
        if not 0 <= self.initial_state < n:
            raise ValueError("initial state out of range")
        if not (self.threshold >= 0.0):
            raise ValueError("threshold must be nonnegative")
        if any(not 0 <= s < n for s in self.safe):
            raise ValueError("safe set exceeds the state range")
        if len(self.delta) != n:
            raise ValueError("delta must cover every state")
        for s, dist in enumerate(self.delta):
            total = sum(p for _, p in dist)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"distribution at state {s} sums to {total}")
            for (c, t), p in dist:
                if not 0 <= t < n:
                    raise ValueError("transition target out of range")
                if c < 0 or c != int(c):
                    raise ValueError("rewards must be nonnegative integers")
                if p < 0:
                    raise ValueError("negative probability")

    def lattice(self) -> PointwiseLattice:
        return PointwiseLattice(self.state_count, math.inf)

    def bound(self) -> tuple:
        return tuple(
            plain(self.threshold if s == self.initial_state else math.inf)
            for s in range(self.state_count))


def _expectation(dist, d) -> EpsValue:
    base = 0.0
    flagged = False
    for (c, t), p in dist:
        if p <= 0:
            continue
        base += p * (c + d[t].base)
        if d[t].eps:
            flagged = True
    return EpsValue(base, flagged)


def reward_bellman(M: MRMModel) -> Transformer:
    lat = M.lattice()
    zero = plain(0.0)

    def fn(d):
        return tuple(
            _expectation(M.delta[s], d) if s in M.safe else zero
            for s in range(M.state_count))

    return Transformer(lat, fn)


heuristic_candidate_mrm = heuristic_candidate_mdp  # threshold+eps at init


def solve_decide_lp_mrm(X_prev, C_head, M: MRMModel,
                        F: Optional[Transformer] = None):
    """Decide choice via a linear program analogous to the MDP instance.

    Per obligation-supporting safe state ``s`` the constraint reads
    ``v_s <= r_s + sum_t p(s,t) x_t`` with ``r_s`` the expected one-step
    reward; bounds are ``0 <= x_t <= min(X_prev(t), 1e9)`` (a finite cap
    replaces infinite frame entries) and the objective weights every variable
    by 1.  Eps flags and the frame-restriction fallback mirror the MDP case.
    """
    if F is None:
        F = reward_bellman(M)
    constraints = []
    var_states: list[int] = []
    var_index: dict[int, int] = {}
    for s in range(M.state_count):
        c = C_head[s]
        if s not in M.safe or c <= (0.0, False):
            continue
        if not c <= _expectation(M.delta[s], X_prev):
            raise ContractFailure("decide invoked without its guard")
        r_s = sum(p * c_ for (c_, _t), p in M.delta[s] if p > 0)
        coeffs_by_state: dict[int, float] = {}
        for (_c, t), p in M.delta[s]:
            if p > 0:
                coeffs_by_state[t] = coeffs_by_state.get(t, 0.0) + p
                if t not in var_index:
                    var_index[t] = len(var_states)
                    var_states.append(t)
        constraints.append((coeffs_by_state, c.base - r_s, c.eps))
    n = len(var_states)
    if n == 0:
        return (plain(0.0),) * M.state_count
    costs = [1.0] * n
    rows = []
    for coeffs_by_state, rhs, _strict in constraints:
        coeffs = [0.0] * n
        for t, p in coeffs_by_state.items():
            coeffs[var_index[t]] = p
        rows.append((coeffs, rhs))
    bounds = [(0.0, min(X_prev[t].base, _CAP)) for t in var_states]
    xs = simplex_min(costs, rows, bounds)

    out = [plain(0.0)] * M.state_count
    for t, x in zip(var_states, xs):
        cap = min(X_prev[t].base, _CAP)
        x = min(max(x, 0.0), cap)
        if cap - x <= _SNAP and X_prev[t].base <= _CAP:
            out[t] = plain(cap)
        else:
            out[t] = eps_val(x)
    result = tuple(out)

    lat = F.lattice
    if not (lat.leq(result, X_prev) and lat.leq(C_head, F(result))):
        result = tuple(
            X_prev[s] if s in var_index else plain(0.0)
            for s in range(M.state_count))
    return result


def heuristic_conflict_mrm(X_prev, C_head, M: MRMModel,
                           F: Optional[Transformer] = None):
    if F is None:
        F = reward_bellman(M)
    fx = F(X_prev)
    out = []
    violating = 0
    for s in range(M.state_count):
        c = C_head[s]
        if c <= fx[s]:
            out.append(plain(math.inf))
        else:
            violating += 1
            out.append(plain(c.base) if c.eps else plain(fx[s].base))
    if violating == 0:
        raise ContractFailure("conflict invoked without its guard")
    return tuple(out)


def mrm_heuristics(M: MRMModel) -> HeuristicsBundle:
    F = reward_bellman(M)

    def candidate(last, alpha, info):
        return heuristic_candidate_mrm(last, M)

    def decide(x_prev, head, fx):
        return solve_decide_lp_mrm(x_prev, head, M, F)

    def conflict(x_prev, head, fx):
        return heuristic_conflict_mrm(x_prev, head, M, F)

    return HeuristicsBundle(candidate, decide, conflict)


def mrm_negative_heuristics(M: MRMModel) -> NegativeHeuristics:
    F = reward_bellman(M)
    top = F.lattice.top

    def candidate(alpha):
        if math.isinf(M.threshold):
            return None
        return tuple(
            eps_val(M.threshold) if s == M.initial_state else plain(0.0)
            for s in range(M.state_count))

    def decide(head):
        # Against top, the LP may put value on an unsafe state and its
        # fallback copies infinite entries; no chain from such a head
        # reaches bot (F^n(bot) is finite, and 0 off the safe set).
        if any(math.isinf(c.base) or (s not in M.safe and c > (0.0, False))
               for s, c in enumerate(head)):
            return None
        return solve_decide_lp_mrm(top, head, M, F)

    return NegativeHeuristics(candidate, decide)


def pdr_mrm(M: MRMModel, *, budget: int = 100000, schedule: str = "default",
            seed: Optional[int] = None, debug: bool = False,
            trace=None) -> PDRAnswer:
    F = reward_bellman(M)
    return run_combined(F, M.bound(), mrm_heuristics(M), schedule=schedule,
                        budget=budget, seed=seed, debug=debug, trace=trace)


def pdr_mrm_positive(M: MRMModel, *, budget: int = 100000, debug: bool = False,
                     trace=None) -> PDRAnswer:
    F = reward_bellman(M)
    return run_positive(F, M.bound(), join_induction_proposer(F),
                        budget=budget, debug=debug, trace=trace)


def pdr_mrm_negative(M: MRMModel, *, budget: int = 100000, debug: bool = False,
                     trace=None) -> PDRAnswer:
    F = reward_bellman(M)
    return run_negative(F, M.bound(), mrm_negative_heuristics(M),
                        budget=budget, debug=debug, trace=trace)
