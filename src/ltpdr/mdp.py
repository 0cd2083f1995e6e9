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

``max_reach(M)`` is the ``Instance`` of this question.  Its choices,
``pointwise_bundle``, are shared with the reward instance: Candidate is the
threshold at the initial state, and Decide is a cheapest supporting
valuation from the linear program ``decide_lp``, which each instance feeds
with its own support rows and costs.
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
    Instance,
    NegativeHeuristics,
    PDRAnswer,
    Transformer,
    run_combined,
)
from .lattice import KTSequence, Lattice
from .simplex import simplex_min

_CAP = 1e9  # replaces infinite frame entries as an LP bound
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


def threshold_obligation(M) -> tuple:
    """The first obligation of the MDP and reward instances: the threshold
    plus eps at the initial state, zero elsewhere."""
    return tuple(eps_val(M.threshold) if s == M.initial_state else plain(0.0)
                 for s in range(M.state_count))


def heuristic_candidate_mdp(X_last, M: MDPModel):
    """``threshold_obligation``, when the last frame exceeds the threshold."""
    if not X_last[M.initial_state] > (M.threshold, False):
        raise ContractFailure("candidate requires the last frame to exceed "
                              "the threshold at the initial state")
    return threshold_obligation(M)


def decide_lp(M, F: Transformer, X_prev, C_head, support, cost):
    """The Decide choice of the pointwise instances: a cheapest successor
    valuation supporting the obligation, from a linear program over the
    states it touches.

    ``M`` is an ``MDPModel`` or ``MRMModel``.  Each safe state ``s`` with
    ``C_head(s) > 0`` gives one row ``sum_t p_t x_t >= rhs`` from
    ``support(M, s, C_head(s), X_prev) = (((t, p_t), ...), rhs)``, which raises
    ``ContractFailure`` when ``X_prev`` cannot support the value.  The
    program minimizes ``sum cost(X_prev(t)) * x_t`` subject to these rows
    and ``0 <= x_t <= min(X_prev(t), 1e9)``; the finite cap replaces
    infinite frame entries.  Strictness is restored symbolically: outputs
    strictly below their frame value carry the eps flag.  If rounding makes
    the numeric solution miss a strict constraint, the frame values
    themselves restricted to the touched states are returned (always
    contract-valid).
    """
    supports = []
    var_states: list[int] = []
    var_index: dict[int, int] = {}
    for s in range(M.state_count):
        c = C_head[s]
        if s not in M.safe or c <= (0.0, False):
            continue
        dist, rhs = support(M, s, c, X_prev)
        supports.append((dist, rhs))
        for t, p in dist:
            if p > 0 and t not in var_index:
                var_index[t] = len(var_states)
                var_states.append(t)
    n = len(var_states)
    if n == 0:
        return (plain(0.0),) * M.state_count
    rows = []
    for dist, rhs in supports:
        coeffs = [0.0] * n
        for t, p in dist:
            if p > 0:
                coeffs[var_index[t]] += p
        rows.append((coeffs, rhs))
    caps = [min(X_prev[t].base, _CAP) for t in var_states]
    xs = simplex_min([cost(X_prev[t]) for t in var_states], rows,
                     [(0.0, cap) for cap in caps])

    out = [plain(0.0)] * M.state_count
    for t, x, cap in zip(var_states, xs, caps):
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


def _dominating_action(M: MDPModel, s: int, c: EpsValue, X_prev):
    """The MDP's ``support`` for ``decide_lp``: the first action whose
    expectation under ``X_prev`` dominates the obligation value."""
    for dist in M.delta[s]:
        if dist is not None and c <= _expectation(dist, X_prev):
            return dist, c.base
    raise ContractFailure("decide invoked without its guard: no "
                          "action dominates the obligation value")


def _mdp_cost(v: EpsValue) -> float:
    return 2.0 - v.base


def pointwise_bundle(M, F: Transformer, support, cost) -> HeuristicsBundle:
    """The choices of the MDP and reward instances: Candidate
    ``heuristic_candidate_mdp``, Decide ``decide_lp`` with the instance's
    ``support`` and ``cost``, Induction ``optimistic_induction``; Conflict
    is the engine's canonical choice ``x := F(X_{i-1})``.  ``F`` must be the
    transformer the engine runs with: the proposer knows the chain's
    ``top`` by identity."""
    def candidate(last, alpha, info):
        return heuristic_candidate_mdp(last, M)

    def decide(x_prev, head, fx):
        return decide_lp(M, F, x_prev, head, support, cost)

    return HeuristicsBundle(candidate, decide, choose_induction=optimistic_induction(
        F, M.bound(), M.initial_state))


def mdp_bundle(M: MDPModel, F: Transformer) -> HeuristicsBundle:
    """Decide supports each value by its first dominating action, at cost
    ``2 - X_prev(t)``."""
    return pointwise_bundle(M, F, _dominating_action, _mdp_cost)


def mdp_negative_heuristics(M: MDPModel, F: Transformer) -> NegativeHeuristics:
    top = F.lattice.top

    def candidate(alpha):
        return None if M.threshold >= 1.0 else threshold_obligation(M)

    def decide(head):
        # Unlike the combined engine, there is no guard check before this
        # call: with float transition weights an obligation value may exceed
        # every action's expectation by rounding, in which case the chain
        # cannot be extended and the search restarts.
        try:
            return decide_lp(M, F, top, head, _dominating_action, _mdp_cost)
        except ContractFailure:
            return None

    return NegativeHeuristics(candidate, decide)


def max_reach(M: MDPModel) -> Instance:
    """Is the maximum probability of leaving the safe set from the initial
    state at most the threshold?"""
    F = bellman(M)
    return Instance(F, M.bound(), mdp_bundle(M, F),
                    lambda: mdp_negative_heuristics(M, F))


def pdr_ibmdp(M: MDPModel, **kw) -> PDRAnswer:
    """The combined engine on ``max_reach(M)``, as ``kripke.pdr_fkr``."""
    inst = max_reach(M)
    return run_combined(inst.F, inst.alpha, inst.bundle, **kw)
