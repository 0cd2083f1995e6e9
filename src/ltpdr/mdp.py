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

With that Conflict the frames of a true instance are the Kleene iterates
``F^i(bot)``, which reach a prefixed point only when two of them coincide
in floating point.  ``optimistic_induction``, the Induction proposer of
this instance and of the reward instance, guesses one instead: it
extrapolates the frames, lifts the guess towards ``alpha`` and proposes it
when ``F(x) <= x``.
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
from .lattice import KTSequence, Lattice
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


def _aitken(u: float, w: float, v: float) -> Optional[float]:
    """The limit of ``u, w, v`` read as a geometric sequence: Aitken's
    extrapolation when the increments shrink, ``v`` when it stands still,
    None when the increments grow or only one of them is zero."""
    d1, d2 = w - u, v - w
    if 0.0 < d2 < d1:
        return v + d2 * d2 / (d1 - d2)
    if d1 <= 0.0 and d2 <= 0.0:
        return v
    return None


def optimistic_induction(F: Transformer, alpha, s0: int):
    """The Induction proposer of the pointwise instances: a guessed prefixed
    point below ``alpha``, as in Optimistic Value Iteration (Hartmanns and
    Kretinsky, CAV 2020).

    With the canonical Conflict alone, the frames of a true instance are the
    Kleene iterates ``F^i(bot)``, and Valid waits until two of them coincide
    in floating point.  Right after Unfold (the first call on a chain of a
    new length ``n >= 4`` that ends in ``top``) this proposer extrapolates
    ``X_{n-4}, X_{n-3}, X_{n-2}`` state by state to their Aitken limit ``L``
    (``X_{n-2}`` where a state's increments do not shrink), over every second
    frame when the iterates at ``s0`` alternate, and lifts it to
    ``x = min(c*L + d, F(top))``: ``c = 1 + e`` and ``d = e * L(s0)``, with
    ``e`` chosen so that ``x(s0)`` lies nine tenths of the way from ``L(s0)``
    to ``alpha(s0)``.  The cap ``F(top)`` keeps ``x`` at 0 wherever ``F`` is
    0 (the unsafe states of the reward instance), so that ``d`` does not
    flow back into the other states.  At most two repair rounds
    ``x := x v F(x)`` follow, each kept below ``alpha``, and ``(n-1, x)`` is
    proposed only if ``F(x) <= x <= alpha``.  On the next level the
    canonical Conflict sets ``X_n = F(x) <= X_{n-1}`` and Valid closes, so
    the proposer never lifts a chain whose ``X_{n-2}`` is its own proposal.

    It gives up without an ``F`` call when the iterates at ``s0`` do not
    converge geometrically, when their limit is not below ``alpha(s0)``, or
    when the last increment exceeds the lift ``x - X_{n-2}`` at some state.
    A false instance has no prefixed point below ``alpha``, so there it
    never proposes and the search is the same as without it.  ``F(top)`` is
    computed on first use.  The proposer keeps the chain length it last saw
    and its last proposal, and forgets both when a shorter chain, that of a
    new solve, is offered.
    """
    lat = F.lattice
    top = lat.top
    lam = alpha[s0].base
    cap = None  # F(top)
    seen = 0  # the length of the last chain offered
    last = None  # the last proposal

    def propose(frames: KTSequence):
        nonlocal cap, seen, last
        xs = frames.elements
        n = len(xs)
        if n < seen:  # chains only grow: this is a new solve
            seen, last = 0, None
        if xs[-1] is not top or n <= seen:
            return None
        seen = n
        if xs[-2] == last:
            return None
        v = xs[-2]
        for stride in (1, 2):
            if n < 2 + 2 * stride:
                return None
            w, u = xs[-2 - stride], xs[-2 - 2 * stride]
            limit = _aitken(u[s0].base, w[s0].base, v[s0].base)
            if limit is not None:
                break
        else:
            return None
        target = limit + 0.9 * (lam - limit)
        if not 0.0 < v[s0].base < target < lam:
            return None
        e = (target - limit) / (2.0 * limit)
        c, d = 1.0 + e, e * limit
        lifted = []
        for us, ws, vs in zip(u, w, v):
            us, ws, vs = us.base, ws.base, vs.base
            ls = _aitken(us, ws, vs)
            guess = c * (vs if ls is None else ls) + d
            if vs - ws > guess - vs:
                return None
            lifted.append(plain(guess))
        if cap is None:
            cap = F(top)
        x = tuple(map(min, lifted, cap))
        for _ in range(2):
            fx = F(x)
            if lat.leq(fx, x):
                break
            x = tuple(map(max, x, fx))
            if not x[s0] <= alpha[s0]:
                return None
        else:
            if not lat.leq(F(x), x):
                return None
        if not lat.leq(x, alpha):
            return None
        last = x
        return (n - 1, x)

    return propose


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
                if not abs(total - 1.0) <= 1e-9:  # NaN fails too
                    raise ValueError(
                        f"distribution at state {s} action {a} sums to {total}")
                for t, p in dist:
                    if not 0 <= t < n:
                        raise ValueError("transition target out of range")
                    if not p >= 0:
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


def _decide_program(M: MDPModel, X_prev, C_head):
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
    constraints, var_states, var_index = _decide_program(M, X_prev, C_head)
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


def mdp_bundle(M: MDPModel, F: Transformer) -> HeuristicsBundle:
    """Candidate and Decide are instance-specific, Induction is
    ``optimistic_induction``; Conflict is the engine's canonical choice
    ``x := F(X_{i-1})``.  ``F`` must be the transformer the engine runs
    with: the proposer knows the chain's ``top`` by identity."""
    def candidate(last, alpha, info):
        return heuristic_candidate_mdp(last, M)

    def decide(x_prev, head, fx):
        return solve_decide_lp(x_prev, head, M, F)

    return HeuristicsBundle(candidate, decide, choose_induction=optimistic_induction(
        F, M.bound(), M.initial_state))


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
    return run_combined(F, M.bound(), mdp_bundle(M, F), schedule=schedule,
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
