"""Markov-reward-model instance: expected accumulated reward bounds.

The lattice is ``[0, inf]^S`` pointwise; the transformer maps a state inside
the safe region to the expectation of ``reward + value(next)`` and every
other state to 0, so its least fixed point is the expected reward
accumulated until the safe region is left.  The solver decides whether that
expectation from the initial state is at most a threshold.

Elements are tuples of floats, as in the MDP instance, with ``inf``
allowed; infinity is absorbing in the arithmetic (``p * inf = inf`` for
``p > 0``; ``0 * inf`` is NaN, so ``MRMModel.rows`` drops ``p = 0``).  The
model is an ``mdp.PointwiseModel`` with ``TOP = inf`` and ``OFF = 0``, and
its transformer ``reward_bellman`` is the MDP kernel ``mdp.bellman``.
``expected_reward(M)`` is the ``Instance`` of this question.  Its choices
are the MDP instance's ``mdp.pointwise_bundle``: the same Candidate, the
Decide ``mdp.decide_lp``, which takes the frame on the states a tight
obligation touches and runs its program, with the reward moved to the
right-hand side and unit costs, only for a slack one, and the Induction
proposer ``mdp.optimistic_induction``, so that a true bound is proved by a
guessed prefixed point instead of by waiting for the Kleene iterates to
converge.
The proposer caps its guess by ``F(top)``, which is 0 off the safe set.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add

from .engine import (
    HeuristicsBundle,
    Instance,
    PDRAnswer,
    Transformer,
    run_combined,
)
from .mdp import _PROBABILITY, PointwiseModel, bellman, pointwise_bundle
# ``mdp.decide_lp`` solves the reward Decide programs too, so
# ``simplex_min`` is not called here; ``perfbench/spans.py`` wraps
# ``mrm.simplex_min`` and needs the name.
from .simplex import simplex_min  # noqa: F401


@dataclass(frozen=True)
class MRMModel(PointwiseModel):
    state_count: int
    # delta[s] is a tuple of ((reward, target), probability) entries.
    delta: tuple
    initial_state: int
    threshold: float  # may be math.inf
    safe: frozenset
    TOP, OFF = math.inf, 0.0  # no reward accrues off the safe set

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
            total = reduce(add, map(_PROBABILITY, dist), 0.0)
            if not abs(total - 1.0) <= 1e-9:  # NaN fails too
                raise ValueError(f"distribution at state {s} sums to {total}")
            for (c, t), p in dist:
                if not 0 <= t < n:
                    raise ValueError("transition target out of range")
                if not 0 <= c <= sys.float_info.max or c != int(c):  # NaN fails
                    raise ValueError("rewards must be finite nonnegative integers")
                if not p >= 0:
                    raise ValueError("negative probability")

    @cached_property
    def rows(self) -> tuple:
        """The row view of ``mdp.bellman``: one action, rewards as floats."""
        return tuple([None if s not in self.safe else (
            tuple([(float(c), t, p) for (c, t), p in dist if p > 0]),)
            for s, dist in enumerate(self.delta)])


reward_bellman = bellman  # for ``perfbench/gate.py``, its last caller


def mrm_heuristics(M: MRMModel, F: Transformer) -> HeuristicsBundle:
    """``mdp.pointwise_bundle`` with unit costs; ``perfbench`` wraps it."""
    return pointwise_bundle(M, F, lambda v: 1.0)


def expected_reward(M: MRMModel) -> Instance:
    """Is the expected reward accumulated from the initial state until the
    safe set is left at most the threshold?"""
    F = bellman(M)
    return Instance(F, M.bound(), mrm_heuristics(M, F))


def pdr_mrm(M: MRMModel, **kw) -> PDRAnswer:
    """``kripke.pdr_fkr`` on ``expected_reward(M)``; only ``perfbench`` calls it."""
    inst = expected_reward(M)
    return run_combined(inst.F, inst.alpha, inst.bundle, **kw)
