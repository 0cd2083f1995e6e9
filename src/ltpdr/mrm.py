"""Markov-reward-model instance: expected accumulated reward bounds.

The lattice is ``[0, inf]^S`` pointwise; the transformer maps a state inside
the safe region to the expectation of ``reward + value(next)`` and every
other state to 0, so its least fixed point is the expected reward
accumulated until the safe region is left.  The solver decides whether that
expectation from the initial state is at most a threshold.

Obligation values reuse the symbolic-eps strictness marker of the MDP
instance; infinity is absorbing in the arithmetic (``p * inf = inf`` for
``p > 0``, and zero-probability terms are skipped).  ``expected_reward(M)``
is the ``Instance`` of this question.  Its choices are the MDP instance's
``mdp.pointwise_bundle``: the same Candidate, the Decide program
``mdp.decide_lp`` with the reward moved to the right-hand side and unit
costs, and the Induction proposer ``mdp.optimistic_induction``, so that a
true bound is proved by a guessed prefixed point instead of by waiting for
the Kleene iterates to converge.  The proposer caps its guess by
``F(top)``, which is 0 off the safe set.  The negative engine solves its
Decide program against a frame that is also 0 off the safe set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import (
    ContractFailure,
    HeuristicsBundle,
    Instance,
    NegativeHeuristics,
    PDRAnswer,
    Transformer,
    run_combined,
)
from .mdp import (EpsValue, PointwiseLattice, decide_lp, plain, pointwise_bundle,
                  threshold_obligation)
# ``mdp.decide_lp`` solves the reward Decide programs too, so
# ``simplex_min`` is not called here; ``perfbench/spans.py`` wraps
# ``mrm.simplex_min`` and needs the name.
from .simplex import Infeasible, simplex_min  # noqa: F401


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
            if not abs(total - 1.0) <= 1e-9:  # NaN fails too
                raise ValueError(f"distribution at state {s} sums to {total}")
            for (c, t), p in dist:
                if not 0 <= t < n:
                    raise ValueError("transition target out of range")
                if c < 0 or c != int(c):
                    raise ValueError("rewards must be nonnegative integers")
                if not p >= 0:
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


def _reward_support(M: MRMModel, s: int, c: EpsValue, X_prev):
    """The reward model's ``support`` for ``mdp.decide_lp``: the state's
    distribution, with the expected one-step reward ``r_s`` moved to the
    right-hand side, ``v_s - r_s <= sum_t p(s,t) x_t``."""
    if not c <= _expectation(M.delta[s], X_prev):
        raise ContractFailure("decide invoked without its guard")
    r_s = sum(p * c_ for (c_, _t), p in M.delta[s] if p > 0)
    return [(t, p) for (_c, t), p in M.delta[s]], c.base - r_s


def _unit_cost(v: EpsValue) -> float:
    return 1.0


def mrm_heuristics(M: MRMModel, F: Transformer) -> HeuristicsBundle:
    """``mdp.pointwise_bundle`` with the reward support and unit costs."""
    return pointwise_bundle(M, F, _reward_support, _unit_cost)


def mrm_negative_heuristics(M: MRMModel, F: Transformer) -> NegativeHeuristics:
    """Candidate is the threshold plus eps at the initial state.  Decide
    supports the obligation with ``bot`` when ``F(bot)`` already does, and
    otherwise solves the reward Decide program against ``frame``: ``inf`` on
    the safe states and 0 elsewhere, where ``F`` is 0 too.  A head that
    ``F(frame)`` does not cover has no chain down to ``bot``, and a head
    with an infinite entry has none either, since ``F^n(bot)`` is finite."""
    lat = F.lattice
    frame = tuple(lat.top[s] if s in M.safe else plain(0.0)
                  for s in range(M.state_count))
    bot_image, frame_image = F(lat.bot), F(frame)

    def candidate(alpha):
        return None if math.isinf(M.threshold) else threshold_obligation(M)

    def decide(head):
        if lat.leq(head, bot_image):
            return lat.bot
        if any(math.isinf(c.base) for c in head) or not lat.leq(head, frame_image):
            return None
        try:
            return decide_lp(M, F, frame, head, _reward_support, _unit_cost)
        except Infeasible:  # the head needs a value above the LP's cap
            return None

    return NegativeHeuristics(candidate, decide)


def expected_reward(M: MRMModel) -> Instance:
    """Is the expected reward accumulated from the initial state until the
    safe set is left at most the threshold?"""
    F = reward_bellman(M)
    return Instance(F, M.bound(), mrm_heuristics(M, F),
                    lambda: mrm_negative_heuristics(M, F))


def pdr_mrm(M: MRMModel, **kw) -> PDRAnswer:
    """The combined engine on ``expected_reward(M)``, as ``kripke.pdr_fkr``."""
    inst = expected_reward(M)
    return run_combined(inst.F, inst.alpha, inst.bundle, **kw)
