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
``expected_reward(M)`` is the ``Instance`` of this question, with the MDP
Candidate (``mdp.pointwise_bundle``) and Decide ``mdp.decide_lp``, which
runs a unit-cost program, reward on the right, for slack obligations only.
Its Induction proposer, ``value_induction``, solves the chain's one linear
system for a lemma instead of waiting for the Kleene iterates to converge.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from operator import add

from .engine import (
    HeuristicsBundle,
    Instance,
    PDRAnswer,
    Transformer,
    run_combined,
)
from .mdp import _PROBABILITY, PointwiseModel, bellman, decide_lp, pointwise_bundle
# Unused: ``mdp.decide_lp`` calls ``mdp.simplex_min``, but
# ``perfbench/spans.py`` wraps ``mrm.simplex_min`` and needs the name.
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


def _reaching(preds: list, targets) -> set:
    """``targets`` and every state with a path into them along ``preds``."""
    seen, todo = set(targets), list(targets)
    while todo:
        for s in preds[todo.pop()]:
            if s not in seen:
                seen.add(s)
                todo.append(s)
    return seen


def value_induction(M: MRMModel, F: Transformer):
    """The reward instance's Induction proposer: the chain's value, solved
    on the first ask, as the lemma ``(n-1, x)`` of every ask.  A safe state
    that reaches only closed classes that pay, or reaches such a state, gets
    ``inf``; one that reaches no reward gets 0.  The rest reach an exit, so
    ``(I - P)[v y] = [r 1]`` (``y`` the time to exit) is an M-matrix system,
    which elimination with one dict per row solves without pivoting.  ``x =
    v + delta*y`` has ``F(x) = x - delta`` there and ``x(s0)`` halfway to a
    finite threshold.  It is declined unless ``v(s0)`` is below that
    threshold, ``F(x) <= x`` holds in floats, and the elimination stays
    within a bound on its work, linear in the states beyond 10**5."""
    rows, s0, lam = M.rows, M.initial_state, M.threshold

    @cache
    def lemma():
        preds = [[] for _ in rows]
        for s, row in enumerate(rows):
            for _c, t, _p in row[0] if row else ():
                preds[t].append(s)
        paying = _reaching(preds, [s for s, row in enumerate(rows)
                                   if row and any(e[0] for e in row[0])])
        leaking = _reaching(preds, [s for s in range(len(rows)) if s not in paying])
        infinite = _reaching(preds, paying - leaking)
        solved = paying - infinite
        v = [math.inf if s in infinite else 0.0 for s in range(len(rows))]
        y, U = [0.0] * len(rows), {}  # U[s]: row s of U, unit diagonal dropped
        work = 10**5 + 64 * len(rows)  # a factor that fills in is declined
        for s in sorted(solved):
            row, vs, ys = {s: 1.0}, 0.0, 1.0
            for c, t, p in rows[s][0]:
                vs += p * c
                if t in solved:
                    row[t] = row.get(t, 0.0) - p
            while (k := min(row)) < s:  # eliminate column k by row k of U
                f, work = row.pop(k), work - len(U[k])
                for j, a in U[k].items():
                    row[j] = row.get(j, 0.0) - f * a
                vs, ys = vs - f * v[k], ys - f * y[k]
            if work < 0 or not (d := row.pop(s)) > 0.0:
                return None  # the factor filled in, or rounding lost a leak
            U[s] = {j: a / d for j, a in row.items()}
            v[s], y[s] = vs / d, ys / d
        for k in sorted(solved, reverse=True):
            for j, a in U[k].items():
                v[k], y[k] = v[k] - a * v[j], y[k] - a * y[j]
        if not v[s0] < lam < math.inf:
            return None
        delta = (lam - v[s0]) / (2.0 * max(y[s0], 1.0))  # y is 0 off solved
        x = tuple(vs + delta * ys for vs, ys in zip(v, y))
        return x if x[s0] <= lam and F.lattice.leq(F(x), x) else None

    return lambda xs: None if lemma() is None else (len(xs) - 1, lemma())


def mrm_heuristics(M: MRMModel, F: Transformer) -> HeuristicsBundle:
    """``pointwise_bundle``, ``decide_lp``, ``value_induction``; ``perfbench`` wraps it."""
    return pointwise_bundle(M, partial(decide_lp, M, F), value_induction(M, F))


def expected_reward(M: MRMModel) -> Instance:
    """Is the expected reward accumulated from the initial state until the
    safe set is left at most the threshold?"""
    F = bellman(M)
    return Instance(F, M.bound(), mrm_heuristics(M, F))


def pdr_mrm(M: MRMModel, **kw) -> PDRAnswer:
    """``kripke.pdr_fkr`` on ``expected_reward(M)``; only ``perfbench`` calls it."""
    inst = expected_reward(M)
    return run_combined(inst.F, inst.alpha, inst.bundle, **kw)
