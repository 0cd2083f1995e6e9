"""Markov-decision-process instance: maximum reachability probability bounds.

The lattice is ``[0,1]^S`` with pointwise order; the transformer is the
Bellman max-over-actions expectation operator that pins unsafe states to 1,
so its least fixed point at a state is the maximum probability of ever
leaving the safe region.  The solver decides whether that probability from
the initial state is at most a threshold.

It shares its Bellman kernel, ``pointwise_transformer``, with the reward
instance.  The kernel reads the model's ``rows``, cached on first use:
None off the safe set, else the actions, each of ``(reward, target, p)``
entries with ``p > 0`` (an MDP's rewards are 0).

Elements are tuples of floats.  The one strict inequality of a
refutation, ``C(s0) > threshold``, is the float ``nextafter(threshold,
inf)`` at the initial state: no float lies strictly between the two, so
``nextafter(threshold, inf) <= v`` holds exactly when ``threshold < v``.

``max_reach(M)`` is the ``Instance`` of this question.  Its choices,
``pointwise_bundle``, are shared with the reward instance: Candidate is the
least float above the threshold at the initial state, and Decide is a
cheapest supporting valuation from the linear program ``decide_lp`` on the
model's rows, at each instance's own costs.
Conflict is the engine's canonical choice ``x := F(X_{i-1})``, which caps
every state at its transformer value and which the engine does not re-image.
Capping only the states the current obligation violates gives lemmas each
barely stronger than the last, and Decide and Conflict then alternate until
the budget runs out.

With that Conflict the frames of a true instance are the Kleene iterates
``F^i(bot)``, which reach a prefixed point only when two of them coincide
in floating point.  ``optimistic_induction``, the Induction proposer of
this instance and of the reward instance, guesses one instead: it
extrapolates the frames, lifts the guess towards ``alpha`` and proposes it
when ``F(x) <= x``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .engine import (
    ContractFailure,
    HeuristicsBundle,
    Instance,
    PDRAnswer,
    Transformer,
    run_combined,
)
from .lattice import Lattice
from .simplex import Infeasible, simplex_min

_CAP = 1e9  # replaces infinite frame entries as an LP bound
_SNAP = 1e-9


class PointwiseLattice(Lattice):
    """Tuples of floats over the state space, ordered pointwise, from 0.0
    up to ``top_value`` (``inf`` for the reward instance).

    ``leq_info`` gives no descriptor: no pointwise heuristic reads one.
    """

    def __init__(self, state_count: int, top_value: float):
        self.bot = (0.0,) * state_count
        self.top = (float(top_value),) * state_count

    def leq_info(self, a, b):
        return (all(map(operator.le, a, b)), None)

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
    lam = alpha[s0]
    cap = None  # F(top)
    seen = 0  # the length of the last chain offered
    last = None  # the last proposal

    def propose(xs: tuple):
        nonlocal cap, seen, last
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
            limit = _aitken(u[s0], w[s0], v[s0])
            if limit is not None:
                break
        else:
            return None
        target = limit + 0.9 * (lam - limit)
        if not 0.0 < v[s0] < target < lam:
            return None
        e = (target - limit) / (2.0 * limit)
        c, d = 1.0 + e, e * limit
        lifted = []
        for us, ws, vs in zip(u, w, v):
            ls = _aitken(us, ws, vs)
            guess = c * (vs if ls is None else ls) + d
            if vs - ws > guess - vs:
                return None
            lifted.append(guess)
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
            float(self.threshold) if s == self.initial_state else 1.0
            for s in range(self.state_count))

    @cached_property
    def rows(self) -> tuple:
        """The row view of ``pointwise_transformer``.  A ``p = 0`` entry
        added ``+0.0`` to a finite value, so dropping it changes no bit."""
        return tuple(None if s not in self.safe else tuple(
            tuple((0.0, t, p) for t, p in dist if p > 0)
            for dist in row if dist is not None)
            for s, row in enumerate(self.delta))


def _expectation(action, d) -> float:
    """``sum p * (c + d(t))`` over ``action``."""
    v = 0.0
    for c, t, p in action:
        v += p * (c + d[t])
    return v


def pointwise_transformer(lattice: PointwiseLattice, rows: tuple,
                          off: float) -> Transformer:
    """The Bellman operator on a row view: ``off`` where the row is None,
    else the largest ``_expectation`` of the actions, the first on ties,
    inlined so that an action costs no call.  Like ``kripke._image`` it
    keeps its last argument and image, so Decide's re-check of the element
    ``decide_lp`` has just imaged is free."""
    last = image = None

    def fn(d):
        nonlocal last, image
        if d is last:
            return image
        out = []
        for row in rows:
            if row is None:
                out.append(off)
                continue
            best = None
            for action in row:
                v = 0.0
                for c, t, p in action:
                    v += p * (c + d[t])
                if best is None or v > best:
                    best = v
            out.append(best)
        last, image = d, tuple(out)
        return image

    return Transformer(lattice, fn)


def bellman(M: MDPModel) -> Transformer:
    return pointwise_transformer(M.lattice(), M.rows, 1.0)


def heuristic_candidate_mdp(M):
    """The Candidate choice of the MDP and reward instances: when the last
    frame exceeds the threshold at the initial state, the least float above
    the threshold there and zero elsewhere, an element built once.  It asks
    exactly ``C(s0) > threshold``; at an MDP threshold of 1.0 or a reward
    threshold of ``inf`` no frame exceeds it, so it is never chosen."""
    lam = M.threshold
    x = tuple(math.nextafter(lam, math.inf) if s == M.initial_state else 0.0
              for s in range(M.state_count))

    def candidate(last, alpha, info):
        if not last[M.initial_state] > lam:
            raise ContractFailure("candidate requires the last frame to exceed "
                                  "the threshold at the initial state")
        return x

    return candidate


def decide_lp(M, F: Transformer, X_prev, C_head, cost):
    """The Decide choice of the pointwise instances: a cheapest successor
    valuation supporting the obligation, from a linear program over the
    states it touches.

    ``M`` is an ``MDPModel`` or ``MRMModel``.  Each safe state ``s`` with
    ``C_head(s) > 0`` gives one row ``sum_t p_t x_t >= C_head(s) - r`` from
    the first action of ``M.rows[s]`` whose expectation under ``X_prev``
    dominates ``C_head(s)``, with ``r`` its expected one-step reward (0 in
    an MDP); ``ContractFailure`` when there is none.  The program minimizes
    ``sum cost(X_prev(t)) * x_t`` subject to these rows and ``0 <= x_t <=
    min(X_prev(t), 1e9)``; the finite cap replaces infinite frame entries.
    The output is the program's solution, snapped to the cap within 1e-9;
    a strict obligation is already a float above its bound, so the rows
    ask for no more than it.  If rounding makes the solution miss a row by an ulp, the frame
    values themselves restricted to the touched states are returned (always
    contract-valid).  None when the program is infeasible, which only a head
    needing a value above the cap makes it.
    """
    supports = []
    var_states: list[int] = []
    var_index: dict[int, int] = {}
    for s in range(M.state_count):
        c = C_head[s]
        if s not in M.safe or c <= 0.0:
            continue
        for dist in M.rows[s]:
            if c <= _expectation(dist, X_prev):
                break
        else:
            raise ContractFailure("decide invoked without its guard: no "
                                  "action dominates the obligation value")
        supports.append((dist, c - sum(p * r for r, _t, p in dist)))
        for _r, t, _p in dist:
            if t not in var_index:
                var_index[t] = len(var_states)
                var_states.append(t)
    n = len(var_states)
    if n == 0:
        return (0.0,) * M.state_count
    rows = []
    for dist, rhs in supports:
        coeffs = [0.0] * n
        for _r, t, p in dist:
            coeffs[var_index[t]] += p
        rows.append((coeffs, rhs))
    caps = [min(X_prev[t], _CAP) for t in var_states]
    try:
        xs = simplex_min([cost(X_prev[t]) for t in var_states], rows,
                         [(0.0, cap) for cap in caps])
    except Infeasible:  # the head needs a value above the cap
        return None

    out = [0.0] * M.state_count
    for t, x, cap in zip(var_states, xs, caps):
        x = min(max(x, 0.0), cap)
        out[t] = cap if cap - x <= _SNAP and X_prev[t] <= _CAP else x
    result = tuple(out)

    lat = F.lattice
    if not (lat.leq(result, X_prev) and lat.leq(C_head, F(result))):
        result = tuple(
            X_prev[s] if s in var_index else 0.0
            for s in range(M.state_count))
    return result


def _mdp_cost(v: float) -> float:
    return 2.0 - v


def pointwise_bundle(M, F: Transformer, cost) -> HeuristicsBundle:
    """The choices of the MDP and reward instances: Candidate
    ``heuristic_candidate_mdp``, Decide ``decide_lp`` at the instance's
    ``cost``, Induction ``optimistic_induction``; Conflict
    is the engine's canonical choice ``x := F(X_{i-1})``.  ``F`` must be the
    transformer the engine runs with: the proposer knows the chain's
    ``top`` by identity."""
    def decide(x_prev, head, fx):
        return decide_lp(M, F, x_prev, head, cost)

    return HeuristicsBundle(heuristic_candidate_mdp(M), decide, choose_induction=(
        optimistic_induction(F, M.bound(), M.initial_state)))


def mdp_bundle(M: MDPModel, F: Transformer) -> HeuristicsBundle:
    """``pointwise_bundle`` at cost ``2 - X_prev(t)``."""
    return pointwise_bundle(M, F, _mdp_cost)


def max_reach(M: MDPModel) -> Instance:
    """Is the maximum probability of leaving the safe set from the initial
    state at most the threshold?"""
    F = bellman(M)
    return Instance(F, M.bound(), mdp_bundle(M, F))


def pdr_ibmdp(M: MDPModel, **kw) -> PDRAnswer:
    """The combined engine on ``max_reach(M)``, as ``kripke.pdr_fkr``."""
    inst = max_reach(M)
    return run_combined(inst.F, inst.alpha, inst.bundle, **kw)
