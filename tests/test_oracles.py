"""Brute-force reference implementations."""

import dataclasses
import hashlib
import inspect
import math
import os
import random
import subprocess
import sys
from functools import reduce
from operator import add
from types import SimpleNamespace

import pytest

from conftest import MODELS_DIR
from ltpdr import cli, oracles
from ltpdr.mdp import MDPModel
from ltpdr.mrm import MRMModel
from ltpdr.oracles import (
    DIVERGED,
    NoConvergence,
    bfs_safe,
    vi_expected_reward,
    vi_max_reach,
)
from util import compensated_sum, random_mdp, random_mrm

# A leak that value iteration approaches by 1e-7 a step.
LEAK = MDPModel(2, 1, ((((0, 0.9999999), (1, 0.0000001)),), (((1, 1.0),),)),
                0, 0.5, frozenset({0}))
# Skips MDPModel's checks: state 0's second entry has probability -1, so the
# iterate of state 0 rises to 1 and falls back to 0.
NOT_MONOTONE = SimpleNamespace(
    state_count=3, delta=((((2, 1.0), (1, -1.0)),), (((2, 1.0),),), ((),)),
    initial_state=0, threshold=0.5, safe=frozenset({0, 1}))


@pytest.fixture
def m1():
    return MDPModel(3, 1, ((((1, 0.5), (2, 0.5)),), (((1, 1.0),),),
                           (((2, 1.0),),)), 0, 0.6, frozenset({0, 1}))


class TestBfs:
    def test_safe_closure(self, k1):
        res = bfs_safe(k1)
        assert res.verdict is True

    def test_unsafe_closure(self, k1):
        K = dataclasses.replace(k1, safe=0b001)
        assert bfs_safe(K).verdict is False

    def test_empty_initial(self, k1):
        K = dataclasses.replace(k1, initial=0)
        assert bfs_safe(K).verdict is True


class TestMaxReach:
    def test_coin_flip(self, m1):
        assert vi_max_reach(m1).value == pytest.approx(0.5, abs=1e-9)

    def test_all_safe_is_zero(self, m1):
        M = dataclasses.replace(m1, safe=frozenset({0, 1, 2}))
        assert vi_max_reach(M).value == pytest.approx(0.0, abs=1e-12)

    def test_certain_reach_is_one(self):
        M = MDPModel(2, 1, ((((1, 1.0),),), (((1, 1.0),),)), 0, 0.5,
                     frozenset({0}))
        assert vi_max_reach(M).value == pytest.approx(1.0, abs=1e-9)

    def test_rejects_nonpositive_tolerance(self, m1):
        # NaN fails ``tol <= 0`` as well as ``delta < tol``, so it would run
        # all ``cap`` sweeps and then raise NoConvergence.
        for tol in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="tol must be positive"):
                vi_max_reach(m1, tol=tol)

    def test_no_convergence_within_cap(self):
        with pytest.raises(NoConvergence,
                           match="no convergence within 1000 iterations"):
            vi_max_reach(LEAK, cap=1000)

    def test_unreached_unsafe_state_counts_its_first_step(self):
        # No safe state reaches the unsafe state 1, so every safe iterate
        # stays 0.0.  The first sweep's step is state 1's jump from 0 to 1;
        # the second sweep's is 0, and only then does the oracle stop.
        M = MDPModel(2, 1, ((((0, 1.0),),), (((1, 1.0),),)), 0, 0.5,
                     frozenset({0}))
        with pytest.raises(NoConvergence):
            vi_max_reach(M, cap=1)
        assert vi_max_reach(M, cap=2) == oracles.OracleResult(True, 0.0)

    def test_decreasing_iterate_is_rejected(self):
        with pytest.raises(AssertionError,
                           match="iteration from zero must be nondecreasing"):
            vi_max_reach(NOT_MONOTONE)

    def test_decreasing_iterate_is_rejected_under_optimize(self):
        # The check must not be an assert statement, which -O strips.
        src = os.path.dirname(os.path.dirname(os.path.abspath(oracles.__file__)))
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "from types import SimpleNamespace; "
                "from ltpdr.oracles import vi_max_reach; "
                f"M = SimpleNamespace(**{vars(NOT_MONOTONE)!r}); "
                "print(sys.flags.optimize)\n"
                "try:\n    print(vi_max_reach(M))\n"
                "except AssertionError as e:\n    print('rejected:', e)")
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        assert out.stdout.splitlines() == [
            "1", "rejected: iteration from zero must be nondecreasing"]


class TestExpectedReward:
    def test_geometric_series(self):
        M = MRMModel(2, ((((1, 0), 0.25), ((1, 1), 0.75)), (((0, 1), 1.0),)),
                     0, 1.5, frozenset({0}))
        assert vi_expected_reward(M).value == pytest.approx(4.0 / 3.0,
                                                            abs=1e-9)

    def test_empty_safe_region(self):
        M = MRMModel(1, ((((1, 0), 1.0),),), 0, 1.0, frozenset())
        assert vi_expected_reward(M).value == pytest.approx(0.0, abs=1e-12)

    def test_divergence_flagged(self):
        M = MRMModel(1, ((((1, 0), 1.0),),), 0, 1.0, frozenset({0}))
        res = vi_expected_reward(M)
        assert res.verdict == DIVERGED

    def test_iterate_past_1e12_is_diverged(self):
        # The iterate is 1e9 * k after k sweeps and passes 1e12 at sweep
        # 1,001, before the doubling-window rule can first fire at 2,048.
        M = MRMModel(1, ((((10**9, 0), 1.0),),), 0, 1.0, frozenset({0}))
        with pytest.raises(NoConvergence):
            vi_expected_reward(M, cap=1000)
        res = vi_expected_reward(M, cap=1001)
        assert res.verdict == DIVERGED and res.value == float("inf")

    def test_rejects_nonpositive_tolerance(self):
        M = MRMModel(1, ((((1, 0), 1.0),),), 0, 1.0, frozenset())
        for tol in (math.nan, 0.0, -1e-12, -1.0):
            with pytest.raises(ValueError, match="tol must be positive"):
                vi_expected_reward(M, tol=tol)

    def test_no_convergence_within_cap(self):
        M = MRMModel(2, ((((1, 0), 0.25), ((1, 1), 0.75)), (((0, 1), 1.0),)),
                     0, 1.5, frozenset({0}))
        with pytest.raises(NoConvergence,
                           match="no convergence within 5 iterations"):
            vi_expected_reward(M, cap=5)


def _oracle_outcome(oracle, M) -> str:
    try:
        res = oracle(M)
    except NoConvergence:
        return "NoConvergence"
    return f"{res.verdict!r} {res.value!r}"


def test_oracle_values_are_pinned():
    # Every verdict and value, to the last bit, on 600 random MDPs, 600
    # random reward models (60 of them Diverged) and the models/ corpus.  The
    # digest is that of the first oracles, which summed a generator such as
    # ``sum(p * d[t] for t, p in dist)`` per action on Python 3.10 and 3.11.
    # The oracles now add in a plain ``v += p * d[t]`` loop, left to right
    # like that ``sum``; a change to the summation, the operand order or the
    # choice among equal actions moves the digest.
    rng = random.Random(0)
    lines = [_oracle_outcome(vi_max_reach, random_mdp(rng)) for _ in range(600)]
    rng = random.Random(0)
    lines += [_oracle_outcome(vi_expected_reward, random_mrm(rng))
              for _ in range(600)]
    # Named, not globbed, so that a new corpus model does not move the pin.
    for name in ("die_by_coin.mrm", "die_by_coin_tight.mrm", "grid3x3.mdp",
                 "m1.mdp"):
        with open(os.path.join(MODELS_DIR, name)) as f:
            text = f.read()
        if name.endswith(".mdp"):
            lines.append(_oracle_outcome(vi_max_reach, cli.parse_mdp(text)))
        else:
            lines.append(_oracle_outcome(vi_expected_reward, cli.parse_mrm(text)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "27883103e47205a0d400c9a3c84940b1ac4d9f06344e0d551110a604a7101c24"


def _answers(oracle, M, cap: int) -> bool:
    try:
        oracle(M, cap=cap)
    except NoConvergence:
        return False
    return True


def _stopping_sweep(oracle, M) -> int:
    """The least ``cap`` at which ``oracle`` answers on ``M``: the sweep it
    stops on.  A smaller cap raises NoConvergence, any larger one answers."""
    hi = 1
    while not _answers(oracle, M, hi):
        hi *= 2
        assert hi <= 2**20, "no answer within 2**20 sweeps"
    lo = hi // 2  # no answer at ``lo`` (vacuously at 0), an answer at ``hi``
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _answers(oracle, M, mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_stopping_sweeps_are_pinned():
    # The sweep on which each oracle stops, on 30 random MDPs and 30 random
    # reward models: a change to the step, the stop rule or the Diverged
    # rules that keeps every value can still move a stopping sweep.
    rng = random.Random(0)
    sweeps = [_stopping_sweep(vi_max_reach, random_mdp(rng)) for _ in range(30)]
    rng = random.Random(0)
    sweeps += [_stopping_sweep(vi_expected_reward, random_mrm(rng))
               for _ in range(30)]
    digest = hashlib.sha256(repr(sweeps).encode()).hexdigest()
    assert digest == "1bb6bb117efa21e1fac3e6eeefcb2cfdf9447d314c53d970677f888576f2ff46"


def test_zero_probability_entries_change_no_bit():
    # An entry ``t:0.0`` adds ``0.0 * d[t]``, which is +0.0 since every
    # iterate is finite, to a nonnegative sum; the reward oracle drops such
    # entries.  Either way the value keeps every bit.
    rng = random.Random(1)
    for _ in range(200):
        M = random_mdp(rng)
        delta = []
        for row in M.delta:
            new_row = []
            for dist in row:
                if dist is not None:
                    at = rng.randint(0, len(dist))
                    zero = (rng.randrange(M.state_count), 0.0)
                    dist = dist[:at] + (zero,) + dist[at:]
                new_row.append(dist)
            delta.append(tuple(new_row))
        padded = dataclasses.replace(M, delta=tuple(delta))
        assert (_oracle_outcome(vi_max_reach, padded)
                == _oracle_outcome(vi_max_reach, M))
    for _ in range(200):
        M = random_mrm(rng)
        delta = []
        for dist in M.delta:
            at = rng.randint(0, len(dist))
            zero = ((rng.randint(0, 3), rng.randrange(M.state_count)), 0.0)
            delta.append(dist[:at] + (zero,) + dist[at:])
        padded = dataclasses.replace(M, delta=tuple(delta))
        assert (_oracle_outcome(vi_expected_reward, padded)
                == _oracle_outcome(vi_expected_reward, M))


@pytest.mark.usefixtures("compensated_builtin_sum")
def test_oracle_values_are_pinned_under_a_compensated_sum():
    # Python 3.12's sum compensates its rounding; the oracles add left to
    # right, so the pin holds on every interpreter.
    test_oracle_values_are_pinned()


def test_sum_emulations_match_this_interpreter():
    # The runs under ``compensated_sum`` stand for Python 3.12 and later, and
    # the left-to-right sums (the ``reduce`` of the model constructors and
    # ``decide_lp``, the oracles' plain ``+=`` loops) for the ``sum`` of 3.10
    # and 3.11, only if each matches that ``sum`` to the bit.  ``reduce(add,
    # xs, 0.0)`` below does the additions of such a loop in the same order.
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    compensated = sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    rng = random.Random(0)
    for _ in range(3000):
        scale = 10.0 ** rng.randint(-20, 20)
        xs = [rng.choice((rng.random(), 1.0 / rng.randint(1, 9),
                          rng.uniform(-1.0, 1.0) * scale))
              for _ in range(rng.randint(1, 12))]
        expected = compensated_sum(xs) if compensated else reduce(add, xs, 0.0)
        assert repr(sum(xs)) == repr(expected), xs


def test_oracles_have_no_engine_dependency():
    source = inspect.getsource(oracles)
    for forbidden in ("engine", "kripke", "mdp", "mrm", "simplex", "cli"):
        assert f"from .{forbidden}" not in source
        assert f"import {forbidden}" not in source
    # The models also carry the solver's views of themselves: its row view,
    # lattice, bound and class data.  The oracles read only the fields.
    for forbidden in (".rows", ".TOP", ".OFF", ".bound(", ".lattice("):
        assert forbidden not in source
