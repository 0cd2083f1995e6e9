"""The reward instance: extended-real lattice and expected-reward bounds."""

import dataclasses
import math
import random

import pytest

from conftest import model_path
from ltpdr.cli import parse_mrm
from ltpdr.engine import ContractFailure, Verdict, rule_conflict, solve
from ltpdr.mdp import heuristic_candidate_mdp
from ltpdr.mrm import MRMModel, expected_reward
from ltpdr.oracles import NoConvergence, vi_expected_reward
from util import above, random_mrm


@pytest.fixture
def m2() -> MRMModel:
    """Safe state 0 pays reward 1 and stays with probability 1/4; the
    expected accumulated reward is the geometric series 1/(1-1/4) = 4/3."""
    return MRMModel(
        state_count=2,
        delta=((((1, 0), 0.25), ((1, 1), 0.75)), (((0, 1), 1.0),)),
        initial_state=0, threshold=1.5, safe=frozenset({0}))


def frame(*vals):
    return tuple(float(v) for v in vals)


def solve_decide_lp_mrm(X_prev, C, M):
    """The Decide choice of the reward bundle (``mdp.decide_lp``)."""
    return expected_reward(M).bundle.choose_decide(X_prev, C)


class TestRewardBellman:
    def test_one_step_reward(self, m2):
        assert expected_reward(m2).F(frame(0, 0)) == frame(1, 0)
        # 2**53 + 1 lies halfway between two floats.  Python adds an int to
        # a float by rounding the int first, here to 2**53, so c + 1.0 is
        # 2**53 where exact arithmetic gives 2**53 + 2.  The kernel and the
        # oracle, which hold float(c), must keep that rounding.
        c, p = 2**53 + 1, 2.0**-40
        M = MRMModel(3, ((((c, 1), p), ((0, 2), 1.0 - p)), (((1, 2), 1.0),),
                         (((0, 2), 1.0),)), 0, 1e6, frozenset({0, 1}))
        value = 0.0 + p * (c + 1.0) + (1.0 - p) * (0 + 0.0)
        assert value == 8192.0 != p * float(c + 1)
        assert expected_reward(M).F((0.0, 1.0, 0.0)) == (value, 1.0, 0.0)
        assert vi_expected_reward(M).value == value

    def test_second_iterate(self, m2):
        assert expected_reward(m2).F(frame(1, 0)) == frame(1.25, 0)

    def test_fixed_point(self, m2):
        F = expected_reward(m2).F
        d = frame(4.0 / 3.0, 0)
        out = F(d)
        assert out[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert out[1] == 0.0

    def test_infinity_is_absorbing(self, m2):
        F = expected_reward(m2).F
        out = F((math.inf, 0.0))
        assert out[0] == math.inf

    def test_monotone_with_injected_infinities(self):
        rng = random.Random(3)
        for _ in range(50):
            M = random_mrm(rng)
            F = expected_reward(M).F
            lat = M.lattice()
            d1 = tuple(
                math.inf if rng.random() < 0.15 else rng.random() * 5
                for _ in range(M.state_count))
            d2 = lat.join(d1, tuple(
                math.inf if rng.random() < 0.15 else rng.random() * 5
                for _ in range(M.state_count)))
            assert lat.leq(F(d1), F(d2))


class TestHeuristics:
    def test_candidate(self, m2):
        M = dataclasses.replace(m2, threshold=1.3)
        out = heuristic_candidate_mdp(M)(frame(4.0 / 3.0, 0), M.bound())
        assert out == (above(1.3), 0.0)

    def test_candidate_precondition(self, m2):
        with pytest.raises(ContractFailure):
            heuristic_candidate_mdp(m2)(frame(1.0, 0), m2.bound())

    def test_candidate_never_fires_at_threshold_inf(self):
        # State 0 pays 1 forever, so its value is inf; no frame exceeds the
        # threshold inf, not even top, and the bound holds.
        M = MRMModel(state_count=1, delta=((((1, 0), 1.0),),),
                     initial_state=0, threshold=math.inf, safe=frozenset({0}))
        with pytest.raises(ContractFailure):
            heuristic_candidate_mdp(M)(M.lattice().top, M.bound())
        ans = solve(expected_reward(M), debug=True)
        assert ans.verdict is Verdict.TRUE
        assert "candidate" not in ans.stats.rule_counts

    def test_decide_guard_fails_on_zero_frame(self, m2):
        # above(1.3) <= F(0)(s0) = 1 fails, so Decide must not be invoked here.
        with pytest.raises(ContractFailure):
            solve_decide_lp_mrm(frame(0, 0), (above(1.3), 0.0), m2)

    def test_conflict_caps_frames_at_image(self, m2):
        # above(1.3) <= F(X_1)(s0) = 1.25 fails, so Conflict fires with the
        # lemma F(X_1) = (1.25, 0): it caps X_2 at every state, the unsafe
        # one included, where the obligation asks for nothing.
        M = dataclasses.replace(m2, threshold=1.3)
        inst = expected_reward(M)
        xs, ob = [frame(0, 0), frame(1, 0), M.lattice().top], [(above(1.3), 0.0)]
        assert rule_conflict(xs, ob, inst.F, inst.alpha, inst.bundle) == 1
        assert xs == [frame(0, 0), frame(1, 0), frame(1.25, 0)]
        assert ob == []

    def test_decide_contract_on_unfolded_frame(self, m2):
        F = expected_reward(m2).F
        lat = m2.lattice()
        X_prev = (2.0, 0.0)
        C = (above(1.3), 0.0)
        out = solve_decide_lp_mrm(X_prev, C, m2)
        assert lat.leq(out, X_prev) and lat.leq(C, F(out))


class TestSolver:
    def test_verdict_tracks_ground_truth(self, m2):
        gt = 4.0 / 3.0
        for lam, expected in [(1.3, Verdict.FALSE), (gt + 0.01, Verdict.TRUE),
                              (1.5, Verdict.TRUE), (10.0, Verdict.TRUE)]:
            M = dataclasses.replace(m2, threshold=lam)
            assert solve(expected_reward(M), debug=True).verdict is expected, lam

    def test_empty_safe_region(self, m2):
        M = dataclasses.replace(m2, safe=frozenset(), threshold=0.0)
        assert solve(expected_reward(M), debug=True).verdict is Verdict.TRUE

    def test_oracle_value(self, m2):
        assert vi_expected_reward(m2).value == pytest.approx(4.0 / 3.0,
                                                             abs=1e-9)


# (draw, threshold) -> (verdict, steps, rule counts, frames) of the combined
# engine on the draw-th random_mrm of Random(2026), counted from 0.
PINNED_SEARCHES = {
    (4, 9.9): (Verdict.FALSE, 31, {"unfold": 10, "induction": 9,
                                   "candidate": 1, "decide": 10,
                                   "model": 1}, 12),
    (16, 1.0125): (Verdict.FALSE, 16, {"unfold": 5, "induction": 4,
                                       "candidate": 1, "decide": 5,
                                       "model": 1}, 7),
    # Proved by four canonical Inductions and one optimistic one (the
    # Kleene iterates alone took 181 steps and 62 frames).
    (20, 8.415): (Verdict.TRUE, 11, {"unfold": 5, "induction": 5,
                                     "valid": 1}, 7),
    (32, 5.432432): (Verdict.FALSE, 31, {"unfold": 10, "induction": 9,
                                         "candidate": 1, "decide": 10,
                                         "model": 1}, 12),
}


def nth_random_mrm(draw: int) -> MRMModel:
    """The draw-th ``random_mrm`` of ``Random(2026)``, counted from 0."""
    rng = random.Random(2026)
    for _ in range(draw):
        random_mrm(rng)
    return random_mrm(rng)


@pytest.mark.parametrize("draw, threshold", sorted(PINNED_SEARCHES))
def test_random_search_is_pinned(draw, threshold):
    # Every Decide solves an LP and every rule tests the float order: an LP
    # result or an order test that drifts by one ulp changes these counts.
    M = dataclasses.replace(nth_random_mrm(draw), threshold=threshold)
    verdict, steps, rules, frames = PINNED_SEARCHES[draw, threshold]
    ans = solve(expected_reward(M))
    assert ans.verdict is verdict
    assert ans.stats.steps == steps
    assert ans.stats.rule_counts == rules
    assert ans.stats.frame_count == frames


@pytest.mark.parametrize("draw", [52, 112, 153])
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_decide_lp_stays_feasible(draw, factor):
    # With a Conflict that capped only the states the obligation violated,
    # these draws of random_mrm(Random(2026)) led Decide into an infeasible
    # LP and the solve raised Infeasible (at 1.1x the value for #52 and
    # #112, at both factors for #153).
    M = nth_random_mrm(draw)
    value = vi_expected_reward(M).value
    ans = solve(expected_reward(dataclasses.replace(M, threshold=factor * value)),
                debug=True)
    assert ans.verdict is (Verdict.TRUE if factor > 1 else Verdict.FALSE)


class TestNegativeEngine:
    def test_refutes_the_tight_reference_model(self):
        # 1.3 is below the value 4/3: two iterates pass 1.3 at the initial
        # state, then Candidate, two Decides and Model.
        with open(model_path("die_by_coin_tight.mrm")) as fh:
            M = parse_mrm(fh.read())
        ans = solve(expected_reward(M), "negative", debug=True)
        assert ans.verdict is Verdict.FALSE
        assert ans.stats.steps == 6

    def test_refutes_most_false_random_bounds(self):
        # 46 of 150 draws of random_mrm(Random(7)) have a finite non-zero
        # value; at 0.9x the value each is refuted within 200 steps.
        rng = random.Random(7)
        false = refuted = 0
        for _ in range(150):
            M = random_mrm(rng)
            try:
                value = vi_expected_reward(M).value
            except NoConvergence:
                continue
            if not 0 < value < math.inf:
                continue
            false += 1
            M = dataclasses.replace(M, threshold=0.9 * value)
            ans = solve(expected_reward(M), "negative", budget=200, debug=True)
            assert ans.verdict is not Verdict.TRUE
            refuted += ans.verdict is Verdict.FALSE
        assert false == 46 and refuted == 46

    def test_refutes_draw_38(self):
        # 3 states, safe {2}, value about 2, bound 1.8.  The Decide LP
        # misses a strict row by one ulp here and falls back to the frame's
        # own entries, which must still lead down to bot.
        rng = random.Random(7)
        for _ in range(39):
            M = random_mrm(rng)
        value = vi_expected_reward(M).value
        assert M.state_count == 3 and M.safe == {2} and 1.99 < value < 2.01
        M = dataclasses.replace(M, threshold=0.9 * value)
        ans = solve(expected_reward(M), "negative", budget=200, debug=True)
        assert ans.verdict is Verdict.FALSE


class TestModelValidation:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            MRMModel(1, ((((0, 0), 0.5),),), 0, 1.0, frozenset({0}))

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError):
            MRMModel(1, ((((0, 0), math.nan),),), 0, 1.0, frozenset({0}))

    def test_rejects_fractional_reward(self):
        with pytest.raises(ValueError):
            MRMModel(1, ((((0.5, 0), 1.0),),), 0, 1.0, frozenset({0}))

    @pytest.mark.parametrize("reward", [math.inf, math.nan, 10 ** 400],
                             ids=["inf", "nan", "10**400"])
    def test_rejects_reward_no_float_holds(self, reward):
        # As in the .mrm parser: the kernel's c + d[t] needs a finite
        # float, and int() of inf or NaN raises no ValueError of its own.
        with pytest.raises(ValueError, match="finite nonnegative integers"):
            MRMModel(1, ((((reward, 0), 1.0),),), 0, 1.0, frozenset({0}))

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            MRMModel(1, ((((0, 0), 1.0),),), 0, -1.0, frozenset({0}))
