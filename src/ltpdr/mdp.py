"""Markov-decision-process instance: maximum reachability probability bounds.

The lattice is ``[0,1]^S`` with pointwise order; the transformer is the
Bellman max-over-actions expectation operator that pins unsafe states to 1,
so its least fixed point at a state is the maximum probability of ever
leaving the safe region.  The solver decides whether that probability from
the initial state is at most a threshold.

``MDPModel`` and the reward instance's ``MRMModel`` are ``PointwiseModel``
records, which share the Bellman kernel ``bellman``.  It reads the model's
``rows``, cached on first use: None off the safe set, else the actions,
each of ``(reward, target, p)`` entries with ``p > 0`` and a float reward
(0 in an MDP; it adds as the int would), and ``OFF``, the value off the set.

Elements are tuples of floats.  The one strict inequality of a
refutation, ``C(s0) > threshold``, is the float ``nextafter(threshold,
inf)`` at the initial state: no float lies strictly between the two, so
``nextafter(threshold, inf) <= v`` holds exactly when ``threshold < v``.

``max_reach(M)`` is the ``Instance`` of this question.  Its choices,
``pointwise_bundle``, are shared with the reward instance: Candidate is the
least float above the threshold at the initial state, and Decide is
``decide_lp`` on the model's rows.  A tight obligation, one whose
dominating actions meet it exactly at the frame, takes the frame itself on
the states it touches; only a slack one runs the linear program for a
cheapest supporting valuation, at each instance's own costs.
Conflict is the engine's canonical choice ``x := F(X_{i-1})``, which caps
every state at its transformer value and which the engine does not re-image.
Capping only the states the current obligation violates gives lemmas each
barely stronger than the last, and Decide and Conflict then alternate until
the budget runs out.

With that Conflict the frames of a true instance are the Kleene iterates
``F^i(bot)``, which reach a prefixed point only when two of them coincide
in floating point.  ``optimistic_induction``, the Induction proposer of
this instance, guesses one instead: it extrapolates the frames, lifts the
guess towards ``alpha`` and proposes it when ``F(x) <= x``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
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
_PROBABILITY = operator.itemgetter(1)  # of a model's distribution entry


class PointwiseLattice(Lattice):
    """Tuples of floats over the state space, ordered pointwise, from 0.0
    up to ``top_value`` (``inf`` for the reward instance)."""

    def __init__(self, state_count: int, top_value: float):
        self.bot = (0.0,) * state_count
        self.top = (float(top_value),) * state_count

    def leq(self, a, b):
        return all(map(operator.le, a, b))

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
    """The Induction proposer of the MDP instance: a guessed prefixed point
    below ``alpha``, as in Optimistic Value Iteration (Hartmanns and
    Kaminski, CAV 2020).

    With the canonical lemma alone, the frames of a true instance are the
    Kleene iterates ``F^i(bot)``, and Valid waits until two of them coincide
    in floating point.  Right after Unfold, when the engine asks, the chain
    ends in ``top``; on one of ``n >= 4`` frames this proposer extrapolates
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
    engine's canonical Induction (``F(x) <= alpha``) sets ``X_n = F(x) <=
    X_{n-1}`` and Valid closes; once the lemma has applied, the engine asks
    no more.

    It gives up without an ``F`` call when the iterates at ``s0`` do not
    converge geometrically, when their limit is not below ``alpha(s0)``, or
    when the last increment exceeds the lift ``x - X_{n-2}`` at some state.
    A false instance has no prefixed point below ``alpha``, so there it
    never proposes and the search is the same as without it.  The proposal
    is a function of the chain: the proposer keeps only ``F(top)``,
    computed on first use.
    """
    lat = F.lattice
    top = lat.top
    lam = alpha[s0]
    cap = None  # F(top)

    def propose(xs: tuple):
        nonlocal cap
        n = len(xs)
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
        return (n - 1, x)

    return propose


class PointwiseModel:
    """The lattice and bound of the MDP and reward models.  Each sets two
    class attributes, not dataclass fields: ``TOP``, the top value at every
    state, and ``OFF``, ``bellman``'s value off the safe set."""

    def lattice(self) -> PointwiseLattice:
        return PointwiseLattice(self.state_count, self.TOP)

    def bound(self) -> tuple:
        return tuple(
            float(self.threshold) if s == self.initial_state else self.TOP
            for s in range(self.state_count))


@dataclass(frozen=True)
class MDPModel(PointwiseModel):
    state_count: int
    action_count: int
    # delta[s][a] is None (unavailable) or a tuple of (target, probability).
    delta: tuple
    initial_state: int
    threshold: float
    safe: frozenset
    TOP = OFF = 1.0  # a probability, which is 1 off the safe set

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
            if row.count(None) == len(row):
                raise ValueError(f"state {s} has no available action")
            for a, dist in enumerate(row):
                if dist is None:
                    continue
                total = reduce(operator.add, map(_PROBABILITY, dist), 0.0)
                if not abs(total - 1.0) <= 1e-9:  # NaN fails too
                    raise ValueError(
                        f"distribution at state {s} action {a} sums to {total}")
                for t, p in dist:
                    if not 0 <= t < n:
                        raise ValueError("transition target out of range")
                    if not p >= 0:
                        raise ValueError("negative probability")

    @cached_property
    def rows(self) -> tuple:
        """The row view of ``bellman``.  A ``p = 0`` entry added ``+0.0`` to
        a finite value, so dropping it changes no bit."""
        return tuple([None if s not in self.safe else tuple([
            tuple([(0.0, t, p) for t, p in dist if p > 0])
            for dist in row if dist is not None])
            for s, row in enumerate(self.delta)])


def _expectation(action, d) -> float:
    """``sum p * (c + d(t))`` over ``action``."""
    v = 0.0
    for c, t, p in action:
        v += p * (c + d[t])
    return v


def bellman(M: PointwiseModel) -> Transformer:
    """The Bellman operator of ``M``'s rows: ``M.OFF`` where the row is
    None, else the largest ``_expectation`` of the actions, the first on
    ties, inlined so that an action costs no call.  It keeps no state
    between calls; the engine reuses the image of a frame it has already
    imaged."""
    rows, off = M.rows, M.OFF

    def fn(d):
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
        return tuple(out)

    return Transformer(M.lattice(), fn)


def heuristic_candidate_mdp(M):
    """The Candidate choice of the MDP and reward instances: when the last
    frame exceeds the threshold at the initial state, the least float above
    the threshold there and zero elsewhere, an element built once.  It asks
    exactly ``C(s0) > threshold``; at an MDP threshold of 1.0 or a reward
    threshold of ``inf`` no frame exceeds it, so it is never chosen."""
    lam = M.threshold
    x = tuple(math.nextafter(lam, math.inf) if s == M.initial_state else 0.0
              for s in range(M.state_count))

    def candidate(last, alpha):
        if not last[M.initial_state] > lam:
            raise ContractFailure("candidate requires the last frame to exceed "
                                  "the threshold at the initial state")
        return x

    return candidate


def _restriction(X_prev, states) -> tuple:
    """``X_prev`` on ``states`` and 0 elsewhere."""
    out = [0.0] * len(X_prev)
    for t in states:
        out[t] = X_prev[t]
    return tuple(out)


def decide_lp(M, F: Transformer, X_prev, C_head, cost):
    """The Decide choice of the pointwise instances: a cheapest successor
    valuation supporting the obligation over the states it touches.

    ``M`` is an ``MDPModel`` or ``MRMModel``.  Each safe state ``s`` with
    ``C_head(s) > 0`` gives one row ``sum_t p_t x_t >= C_head(s) - r`` from
    the first action of ``M.rows[s]`` whose expectation under ``X_prev``
    dominates ``C_head(s)``, with ``r`` its expected one-step reward (0 in
    an MDP); ``ContractFailure`` when there is none.  The targets of these
    actions are the support, and the restriction is ``X_prev`` on the
    support and 0 elsewhere.

    When every such expectation equals ``C_head(s)`` (a tight obligation)
    and every support entry is at most the cap 1e9, the restriction is the
    program's only feasible point, and it is returned without the program:
    its image sums the same entries in the same order as the dominance
    test, so it meets the obligation exactly.  On a false instance the
    frames are the Kleene iterates, so a frame restricted to some states,
    or a program solution at its caps, is a tight obligation for the next
    Decide.

    Otherwise (a slack obligation, or a support entry above the cap) the
    program minimizes ``sum cost(X_prev(t)) * x_t``, every cost ``>= 0``,
    subject to the rows and the box ``0 <= x_t <= cap_t``, where ``cap_t =
    min(X_prev(t), 1e9)``: ``simplex_min`` takes the caps, and the finite
    cap replaces infinite frame entries.  The output is the program's
    solution, snapped to the cap within 1e-9; a strict obligation is
    already a float above its bound, so the rows ask for no more than it.
    If rounding makes the solution miss a row by an ulp, the restriction is
    returned (always contract-valid).  None when the program is infeasible,
    which only a head needing a value above the cap makes it.
    """
    supports = []
    var_states: list[int] = []
    var_index: dict[int, int] = {}
    tight = True
    for s in range(M.state_count):
        c = C_head[s]
        if s not in M.safe or c <= 0.0:
            continue
        for dist in M.rows[s]:
            e = _expectation(dist, X_prev)
            if c <= e:
                break
        else:
            raise ContractFailure("decide invoked without its guard: no "
                                  "action dominates the obligation value")
        tight = tight and c == e
        supports.append((dist, c))
        for _r, t, _p in dist:
            if t not in var_index:
                var_index[t] = len(var_states)
                var_states.append(t)
    if tight and all(X_prev[t] <= _CAP for t in var_states):
        return _restriction(X_prev, var_states)
    n = len(var_states)
    rows = []
    for dist, c in supports:
        coeffs = [0.0] * n
        for _r, t, p in dist:
            coeffs[var_index[t]] += p
        rows.append((coeffs, c - reduce(operator.add, [p * r for r, _, p in dist], 0.0)))
    caps = [min(X_prev[t], _CAP) for t in var_states]
    try:
        xs = simplex_min([cost(X_prev[t]) for t in var_states], rows, caps)
    except Infeasible:  # the head needs a value above the cap
        return None

    out = [0.0] * M.state_count
    for t, x, cap in zip(var_states, xs, caps):
        x = min(max(x, 0.0), cap)
        out[t] = cap if cap - x <= _SNAP and X_prev[t] <= _CAP else x
    result = tuple(out)

    lat = F.lattice
    if not (lat.leq(result, X_prev) and lat.leq(C_head, F(result))):
        result = _restriction(X_prev, var_states)
    return result


def pointwise_bundle(M, F: Transformer, cost, propose) -> HeuristicsBundle:
    """The choices of the MDP and reward instances: Candidate
    ``heuristic_candidate_mdp``, Decide ``decide_lp`` at the instance's
    ``cost``, and the instance's Induction proposer ``propose``; Conflict
    is the engine's canonical choice ``x := F(X_{i-1})``."""
    def decide(x_prev, head):
        return decide_lp(M, F, x_prev, head, cost)

    return HeuristicsBundle(heuristic_candidate_mdp(M), decide, choose_induction=propose)


def mdp_bundle(M: MDPModel, F: Transformer) -> HeuristicsBundle:
    """``pointwise_bundle`` at cost ``2 - X_prev(t)``; ``perfbench`` wraps it."""
    return pointwise_bundle(M, F, lambda v: 2.0 - v, optimistic_induction(
        F, M.bound(), M.initial_state))


def max_reach(M: MDPModel) -> Instance:
    """Is the maximum probability of leaving the safe set from the initial
    state at most the threshold?"""
    F = bellman(M)
    return Instance(F, M.bound(), mdp_bundle(M, F))


def pdr_ibmdp(M: MDPModel, **kw) -> PDRAnswer:
    """``kripke.pdr_fkr`` on ``max_reach(M)``; only ``perfbench`` calls it."""
    inst = max_reach(M)
    return run_combined(inst.F, inst.alpha, inst.bundle, **kw)
