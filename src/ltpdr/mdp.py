"""Markov-decision-process instance: maximum reachability probability bounds.

The lattice is ``[0,1]^S`` with pointwise order; the transformer is the
Bellman max-over-actions expectation operator that pins unsafe states to 1,
so its least fixed point at a state is the maximum probability of ever
leaving the safe region.  The solver decides whether that probability from
the initial state is at most a threshold.

Obligation values carry a symbolic infinitesimal: ``v + eps`` means
"strictly greater than v".  The flag propagates through expectations (any
contributing successor flagged flags the result), which lets the chain
certify strict inequalities without materialising a concrete epsilon.

Candidate and Decide are instance-specific (the threshold at the initial
state, and a cheapest supporting valuation from a linear program).
Conflict is the engine's canonical choice ``x := F(X_{i-1})``, which caps
every state at its transformer value.  Capping only the states the current
obligation violates gives lemmas each barely stronger than the last, and
Decide and Conflict then alternate until the budget runs out.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
from .lattice import Lattice
from .simplex import simplex_min

_SNAP = 1e-9


class EpsValue(NamedTuple):
    """A real with an optional ``+eps`` strictness marker.

    Order: ``a+eps <= b`` iff ``a < b``; ``a <= b+eps`` iff ``a <= b``;
    same-flavour comparisons are plain ``<=``.  This is the lexicographic
    order on ``(base, eps)``, which is the tuple order, so the comparison
    operators implement it; it is total and meet is the minimum under it.
    """

    base: float
    eps: bool = False


def plain(v: float) -> EpsValue:
    return EpsValue(float(v), False)


def eps_val(v: float) -> EpsValue:
    return EpsValue(float(v), True)


class PointwiseLattice(Lattice):
    """Product of the EpsValue total order over the state space.

    ``leq_info`` reports the tuple of violating state indices.
    """

    def __init__(self, state_count: int, top_value: float):
        self.state_count = state_count
        self.bot = (plain(0.0),) * state_count
        self.top = (plain(top_value),) * state_count

    def leq_info(self, a, b):
        if all(map(operator.le, a, b)):
            return (True, ())
        return (False, tuple(s for s in range(self.state_count) if not a[s] <= b[s]))

    # min and max keep their first argument on ties.
    def meet(self, a, b):
        return tuple(map(min, a, b))

    def join(self, a, b):
        return tuple(map(max, a, b))


@dataclass(frozen=True)
class MDPModel:
    state_count: int
    action_count: int
    # delta[s][a] is None (unavailable) or a tuple of (target, probability).
    delta: tuple
    initial_state: int
    threshold: float
    safe: frozenset

    def __post_init__(self):
        n = self.state_count
        if not 0 <= self.initial_state < n:
            raise ValueError("initial state out of range")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if any(not 0 <= s < n for s in self.safe):
            raise ValueError("safe set exceeds the state range")
        if len(self.delta) != n:
            raise ValueError("delta must cover every state")
        for s, row in enumerate(self.delta):
            if len(row) != self.action_count:
                raise ValueError("delta must cover every action")
            if all(dist is None for dist in row):
                raise ValueError(f"state {s} has no available action")
            for a, dist in enumerate(row):
                if dist is None:
                    continue
                total = sum(p for _, p in dist)
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(
                        f"distribution at state {s} action {a} sums to {total}")
                for t, p in dist:
                    if not 0 <= t < n:
                        raise ValueError("transition target out of range")
                    if p < 0:
                        raise ValueError("negative probability")

    def lattice(self) -> PointwiseLattice:
        return PointwiseLattice(self.state_count, 1.0)

    def bound(self) -> tuple:
        return tuple(
            plain(self.threshold if s == self.initial_state else 1.0)
            for s in range(self.state_count))


def _expectation(dist, d) -> EpsValue:
    base = 0.0
    flagged = False
    for t, p in dist:
        base += p * d[t].base
        if p > 0 and d[t].eps:
            flagged = True
    return EpsValue(base, flagged)


def bellman(M: MDPModel) -> Transformer:
    lat = M.lattice()
    one = plain(1.0)

    def fn(d):
        out = []
        for s in range(M.state_count):
            if s not in M.safe:
                out.append(one)
                continue
            best = None
            for dist in M.delta[s]:
                if dist is None:
                    continue
                v = _expectation(dist, d)
                if best is None or v > best:
                    best = v
            out.append(best if best is not None else one)
        return tuple(out)

    return Transformer(lat, fn)


def heuristic_candidate_mdp(X_last, M: MDPModel):
    """Obligation with threshold+eps at the initial state, zero elsewhere."""
    lam = M.threshold
    s0 = M.initial_state
    if not X_last[s0] > (lam, False):
        raise ContractFailure("candidate requires the last frame to exceed "
                              "the threshold at the initial state")
    return tuple(eps_val(lam) if s == s0 else plain(0.0)
                 for s in range(M.state_count))


def _decide_program(M: MDPModel, X_prev, C_head, F):
    """Build the witnessing actions, variable set and LP of the Decide step.

    Returns (constraints, var_states) where each constraint is
    (state, action-distribution, value, strict-flag)."""
    constraints = []
    var_states: list[int] = []
    var_index: dict[int, int] = {}
    for s in range(M.state_count):
        c = C_head[s]
        if s not in M.safe or c <= (0.0, False):
            continue
        chosen = None
        for dist in M.delta[s]:
            if dist is None:
                continue
            if c <= _expectation(dist, X_prev):
                chosen = dist
                break
        if chosen is None:
            raise ContractFailure("decide invoked without its guard: no "
                                  "action dominates the obligation value")
        constraints.append((s, chosen, c.base, c.eps))
        for t, p in chosen:
            if p > 0 and t not in var_index:
                var_index[t] = len(var_states)
                var_states.append(t)
    return constraints, var_states, var_index


def solve_decide_lp(X_prev, C_head, M: MDPModel, F: Optional[Transformer] = None):
    """The Decide choice: a cheapest successor valuation supporting the
    obligation, assembled from a linear program over the touched states.

    Minimizes ``sum (2 - X_prev(s)) * x_s`` subject to each obligation value
    being at most the expectation of ``x`` under its witnessing action, with
    ``0 <= x_s <= X_prev(s)``.  Strictness is restored symbolically: outputs
    strictly below their frame cap carry the eps flag.  If rounding makes the
    numeric solution miss a strict constraint, fall back to the frame values
    themselves restricted to the touched states (always contract-valid).
    """
    if F is None:
        F = bellman(M)
    constraints, var_states, var_index = _decide_program(M, X_prev, C_head, F)
    n = len(var_states)
    if n == 0:
        return (plain(0.0),) * M.state_count
    costs = [2.0 - X_prev[t].base for t in var_states]
    rows = []
    for s, dist, v, _strict in constraints:
        coeffs = [0.0] * n
        for t, p in dist:
            if p > 0:
                coeffs[var_index[t]] += p
        rows.append((coeffs, v))
    bounds = [(0.0, X_prev[t].base) for t in var_states]
    xs = simplex_min(costs, rows, bounds)

    out = [plain(0.0)] * M.state_count
    for t, x in zip(var_states, xs):
        cap = X_prev[t].base
        x = min(max(x, 0.0), cap)
        if cap - x <= _SNAP:
            out[t] = plain(cap)
        else:
            out[t] = eps_val(x)
    result = tuple(out)

    lat = F.lattice
    ok = lat.leq(result, X_prev) and lat.leq(C_head, F(result))
    if not ok:
        result = tuple(
            X_prev[s] if s in var_index else plain(0.0)
            for s in range(M.state_count))
    return result


def mdp_bundle(M: MDPModel) -> HeuristicsBundle:
    """Candidate and Decide are instance-specific; Conflict is the engine's
    canonical choice ``x := F(X_{i-1})``."""
    F = bellman(M)

    def candidate(last, alpha, info):
        return heuristic_candidate_mdp(last, M)

    def decide(x_prev, head, fx):
        return solve_decide_lp(x_prev, head, M, F)

    return HeuristicsBundle(candidate, decide)


def mdp_negative_heuristics(M: MDPModel) -> NegativeHeuristics:
    F = bellman(M)
    top = F.lattice.top

    def candidate(alpha):
        if M.threshold >= 1.0:
            return None
        return tuple(
            eps_val(M.threshold) if s == M.initial_state else plain(0.0)
            for s in range(M.state_count))

    def decide(head):
        # Unlike the combined engine, there is no guard check before this
        # call: with float transition weights an obligation value may exceed
        # every action's expectation by rounding, in which case the chain
        # cannot be extended and the search restarts.
        try:
            return solve_decide_lp(top, head, M, F)
        except ContractFailure:
            return None

    return NegativeHeuristics(candidate, decide)


def pdr_ibmdp(M: MDPModel, *, budget: int = 100000, schedule: str = "default",
              seed: Optional[int] = None, debug: bool = False,
              trace=None) -> PDRAnswer:
    F = bellman(M)
    return run_combined(F, M.bound(), mdp_bundle(M), schedule=schedule,
                        budget=budget, seed=seed, debug=debug, trace=trace)


def pdr_mdp_positive(M: MDPModel, *, budget: int = 100000, debug: bool = False,
                     trace=None) -> PDRAnswer:
    F = bellman(M)
    return run_positive(F, M.bound(), join_induction_proposer(F),
                        budget=budget, debug=debug, trace=trace)


def pdr_mdp_negative(M: MDPModel, *, budget: int = 100000, debug: bool = False,
                     trace=None) -> PDRAnswer:
    F = bellman(M)
    return run_negative(F, M.bound(), mdp_negative_heuristics(M),
                        budget=budget, debug=debug, trace=trace)
