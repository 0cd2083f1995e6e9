"""The reward instance: extended-real lattice and expected-reward bounds."""

import dataclasses
import math
import random

import pytest

from ltpdr.engine import ContractFailure, Verdict
from ltpdr.mdp import eps_val, plain
from ltpdr.mrm import (
    MRMModel,
    heuristic_candidate_mrm,
    heuristic_conflict_mrm,
    pdr_mrm,
    reward_bellman,
    solve_decide_lp_mrm,
)
from ltpdr.oracles import vi_expected_reward
from util import random_mrm


@pytest.fixture
def m2() -> MRMModel:
    """Safe state 0 pays reward 1 and stays with probability 1/4; the
    expected accumulated reward is the geometric series 1/(1-1/4) = 4/3."""
    return MRMModel(
        state_count=2,
        delta=((((1, 0), 0.25), ((1, 1), 0.75)), (((0, 1), 1.0),)),
        initial_state=0, threshold=1.5, safe=frozenset({0}))


def frame(*vals):
    return tuple(plain(v) for v in vals)


class TestRewardBellman:
    def test_one_step_reward(self, m2):
        assert reward_bellman(m2)(frame(0, 0)) == frame(1, 0)

    def test_second_iterate(self, m2):
        assert reward_bellman(m2)(frame(1, 0)) == frame(1.25, 0)

    def test_fixed_point(self, m2):
        F = reward_bellman(m2)
        d = frame(4.0 / 3.0, 0)
        out = F(d)
        assert out[0].base == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert out[1] == plain(0.0)

    def test_infinity_is_absorbing(self, m2):
        F = reward_bellman(m2)
        out = F((plain(math.inf), plain(0.0)))
        assert out[0] == plain(math.inf)

    def test_monotone_with_injected_infinities(self):
        rng = random.Random(3)
        for _ in range(50):
            M = random_mrm(rng)
            F = reward_bellman(M)
            lat = M.lattice()
            d1 = tuple(
                plain(math.inf) if rng.random() < 0.15 else plain(rng.random() * 5)
                for _ in range(M.state_count))
            d2 = lat.join(d1, tuple(
                plain(math.inf) if rng.random() < 0.15 else plain(rng.random() * 5)
                for _ in range(M.state_count)))
            assert lat.leq(F(d1), F(d2))


class TestHeuristics:
    def test_candidate(self, m2):
        M = dataclasses.replace(m2, threshold=1.3)
        out = heuristic_candidate_mrm(frame(4.0 / 3.0, 0), M)
        assert out == (eps_val(1.3), plain(0.0))

    def test_candidate_precondition(self, m2):
        with pytest.raises(ContractFailure):
            heuristic_candidate_mrm(frame(1.0, 0), m2)

    def test_decide_guard_fails_on_zero_frame(self, m2):
        # 1.3+eps <= F(0)(s0) = 1 fails, so Decide must not be invoked here.
        with pytest.raises(ContractFailure):
            solve_decide_lp_mrm(frame(0, 0), (eps_val(1.3), plain(0.0)), m2)

    def test_conflict_at_zero_frame(self, m2):
        out = heuristic_conflict_mrm(frame(0, 0), (eps_val(1.3), plain(0.0)), m2)
        assert out == (plain(1.3), plain(math.inf))

    def test_decide_contract_on_unfolded_frame(self, m2):
        F = reward_bellman(m2)
        lat = m2.lattice()
        X_prev = (plain(2.0), plain(0.0))
        C = (eps_val(1.3), plain(0.0))
        out = solve_decide_lp_mrm(X_prev, C, m2, F)
        assert lat.leq(out, X_prev) and lat.leq(C, F(out))


class TestSolver:
    def test_verdict_tracks_ground_truth(self, m2):
        gt = 4.0 / 3.0
        for lam, expected in [(1.3, Verdict.FALSE), (gt + 0.01, Verdict.TRUE),
                              (1.5, Verdict.TRUE), (10.0, Verdict.TRUE)]:
            M = dataclasses.replace(m2, threshold=lam)
            assert pdr_mrm(M, debug=True).verdict is expected, lam

    def test_empty_safe_region(self, m2):
        M = dataclasses.replace(m2, safe=frozenset(), threshold=0.0)
        assert pdr_mrm(M, debug=True).verdict is Verdict.TRUE

    def test_oracle_value(self, m2):
        assert vi_expected_reward(m2).value == pytest.approx(4.0 / 3.0,
                                                             abs=1e-9)


# (draw, threshold) -> (verdict, steps, rule counts, frames) of pdr_mrm on
# the draw-th random_mrm of Random(2026), counted from 0.
PINNED_SEARCHES = {
    (4, 9.9): (Verdict.FALSE, 124, {"unfold": 10, "candidate": 10,
                                    "conflict": 51, "decide": 52,
                                    "model": 1}, 12),
    (16, 1.0125): (Verdict.FALSE, 42, {"unfold": 5, "candidate": 5,
                                       "conflict": 15, "decide": 16,
                                       "model": 1}, 7),
    (20, 8.415): (Verdict.TRUE, 765, {"unfold": 61, "candidate": 61,
                                      "conflict": 350, "decide": 292,
                                      "valid": 1}, 63),
    (32, 5.432432): (Verdict.FALSE, 218, {"unfold": 10, "candidate": 10,
                                          "conflict": 98, "decide": 99,
                                          "model": 1}, 12),
}


@pytest.mark.parametrize("draw, threshold", sorted(PINNED_SEARCHES))
def test_random_search_is_pinned(draw, threshold):
    # Every Decide solves an LP and every rule tests the eps order: an LP
    # result or an order test that drifts by one ulp changes these counts.
    rng = random.Random(2026)
    for _ in range(draw):
        random_mrm(rng)
    M = dataclasses.replace(random_mrm(rng), threshold=threshold)
    verdict, steps, rules, frames = PINNED_SEARCHES[draw, threshold]
    ans = pdr_mrm(M)
    assert ans.verdict is verdict
    assert ans.stats.steps == steps
    assert ans.stats.rule_counts == rules
    assert ans.stats.frame_count == frames


class TestModelValidation:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            MRMModel(1, ((((0, 0), 0.5),),), 0, 1.0, frozenset({0}))

    def test_rejects_fractional_reward(self):
        with pytest.raises(ValueError):
            MRMModel(1, ((((0.5, 0), 1.0),),), 0, 1.0, frozenset({0}))

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            MRMModel(1, ((((0, 0), 1.0),),), 0, -1.0, frozenset({0}))
