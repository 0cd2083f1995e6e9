"""The reward instance: extended-real lattice and expected-reward bounds."""

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import model_path
from ltpdr.cli import parse_mrm
from ltpdr.engine import ContractFailure, Verdict, rule_conflict, solve
from ltpdr.mdp import heuristic_candidate_mdp
from ltpdr.mrm import MRMModel, expected_reward
from ltpdr.oracles import NoConvergence, vi_expected_reward
from util import above, exact_reward_values, random_mrm, reward_ruin


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
    # Proved by the solved lemma and one canonical Induction (the Kleene
    # iterates alone took 181 steps and 62 frames).
    (20, 8.415): (Verdict.TRUE, 5, {"unfold": 2, "induction": 2,
                                    "valid": 1}, 4),
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


# Value 1e12: state 0 steps to state 1 for free, and state 1 pays 1e12 on
# its exit, taken with probability 1/2.  Refuting a bound below the value
# asks for obligation values above 1e9 at state 1, inside Decide's box, the
# frame itself, whose entries there are infinite.
VALUE_1E12 = ("states 3\ninit 0\nlambda {}\nsafe 0 1\ntrans\n0 -> (0,1):1\n"
              "1 -> (1000000000000,2):0.5 (0,1):0.5\n2 -> (0,2):1\n")


@pytest.mark.parametrize("lam", ["1e9", "1e10", "4e11", "6e11", "9.9e11", "1.1e12"])
def test_a_value_of_1e12_is_decided(lam):
    inst = expected_reward(parse_mrm(VALUE_1E12.format(lam)))
    want = Verdict.TRUE if float(lam) > 1e12 else Verdict.FALSE
    assert solve(inst, budget=200, debug=True).verdict is want
    if want is Verdict.FALSE:
        assert solve(inst, "negative", budget=200, debug=True).verdict is want


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
        # 47 of 150 draws of random_mrm(Random(7)) have a finite non-zero
        # value; at 0.9x the value each is refuted within 200 steps.  Draw
        # #15 (value 2.8) has a state of infinite value off its initial
        # state's paths.
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
        assert false == 47 and refuted == 47

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


class TestValueInduction:
    """``mrm.value_induction``: the chain's value, solved once and lifted
    halfway to the threshold, proposed as the Induction lemma."""

    # State 1 pays forever but is unreachable; the value at 0 is 1.  Its
    # Kleene iterates grow without bound, so only a lemma with an ``inf``
    # entry closes the search.
    ISLAND = ("states 3\ninit 0\nlambda 2\nsafe 0 1\ntrans\n"
              "0 -> (1,2):1\n1 -> (1,1):1\n2 -> (0,2):1\n")

    def test_the_island_is_proved(self):
        ans = solve(expected_reward(parse_mrm(self.ISLAND)), budget=10, debug=True)
        assert ans.verdict is Verdict.TRUE

    # The draws of ``random_mrm`` (seeds 0-5, 400 each) with a safe initial
    # state, a finite value above 1e-6 and some state of infinite value, by
    # (seed, draw), with the steps of their refutation at 0.9x the value.
    # Like the island, each has its infinite states off the initial state's
    # paths.  ``vi_expected_reward`` once read them all as Diverged.
    MISREAD = {(1, 342): 7, (2, 122): 7, (2, 212): 2, (2, 264): 2, (2, 279): 37,
               (2, 356): 4, (3, 164): 16, (3, 220): 2, (3, 295): 2, (3, 331): 2,
               (4, 229): 7, (4, 392): 7, (5, 54): 64, (5, 63): 2, (5, 154): 19,
               (5, 392): 7, (5, 398): 2}

    def test_the_draws_the_oracle_misreads_are_decided(self):
        found = {}
        for seed in range(6):
            rng = random.Random(seed)
            for i in range(400):
                M = random_mrm(rng)
                values = exact_reward_values(M)
                value = values[M.initial_state]
                if (1e-6 < value < math.inf and M.initial_state in M.safe
                        and math.inf in values):
                    found[seed, i] = M, float(value)
        assert found.keys() == self.MISREAD.keys()
        for key, (M, value) in found.items():
            assert vi_expected_reward(M).value == pytest.approx(value, abs=1e-9), key
            proved = solve(expected_reward(dataclasses.replace(M, threshold=1.1 * value)),
                           budget=50, debug=True)
            assert proved.verdict is Verdict.TRUE, key
            refuted = solve(expected_reward(dataclasses.replace(M, threshold=0.9 * value)),
                            budget=500, debug=True)
            assert refuted.verdict is Verdict.FALSE, key
            assert refuted.stats.steps == self.MISREAD[key], key

    def test_the_reward_ruin_is_proved(self):
        # The expected duration of the fair game is s0 (N - s0), which the
        # Kleene iterates approach slowly: without the solved lemma the
        # search takes thousands of steps.
        ans = solve(expected_reward(reward_ruin(200, 100, 1.1 * 100 * 100)), budget=10)
        assert ans.verdict is Verdict.TRUE

    def test_the_elimination_is_sparse(self):
        # Dense elimination of the 1,999 inner states would hold about 4M
        # floats; one dict per row holds the three diagonals.
        inst = expected_reward(reward_ruin(2000, 1000, 1.1 * 1000 * 1000))
        tracemalloc.start()
        try:
            ans = solve(inst, budget=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ans.verdict is Verdict.TRUE
        assert peak < 10 * 2**20

    def test_a_factor_that_fills_in_is_declined(self):
        # 2,000 safe states with three random successors each: elimination
        # fills the factor in, at cubic time, so the proposer declines once
        # its work bound is spent.
        rng = random.Random(5)
        delta = tuple(tuple(((1, t), 1 / 3) for t in rng.sample(range(2000), 3))
                      for _ in range(2000))
        inst = expected_reward(MRMModel(2000, delta, 1, 1e12, frozenset(range(1, 2000))))
        lat = inst.F.lattice
        tracemalloc.start()
        try:
            out = inst.bundle.choose_induction((lat.bot, lat.bot, lat.top))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is None
        assert peak < 10 * 2**20

    @staticmethod
    def injected(seed, closed_reward, unsafe_init) -> MRMModel:
        """A ``random_mrm`` draw; with ``closed_reward`` set, one entry of a
        random state is redirected into a new closed cycle of one or two
        safe states that pay ``closed_reward`` per step; with
        ``unsafe_init``, the initial state is an unsafe one."""
        rng = random.Random(seed)
        M = random_mrm(rng)
        n, delta, safe = M.state_count, list(M.delta), set(M.safe)
        if closed_reward is not None:
            size = rng.randint(1, 2)
            delta += [(((closed_reward, n + (i + 1) % size), 1.0),) for i in range(size)]
            safe |= set(range(n, n + size))
            s = rng.randrange(n)
            (c, _t), p = delta[s][0]
            delta[s] = (((c, n), p),) + delta[s][1:]
        init = min(set(range(len(delta))) - safe) if unsafe_init else M.initial_state
        return MRMModel(len(delta), tuple(delta), init, 1.0, frozenset(safe))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), closed_reward=st.sampled_from([None, 0, 2]),
           unsafe_init=st.booleans(), side=st.sampled_from(["inf", "at", "above", "below"]))
    def test_proposals_are_prefixed_points_below_alpha(self, seed, closed_reward,
                                                       unsafe_init, side):
        M = self.injected(seed, closed_reward, unsafe_init)
        values = exact_reward_values(M)
        value = values[M.initial_state]
        if side == "inf":
            lam = math.inf
        elif not 0 < value < math.inf:
            lam = 1.0
        else:
            lam = float(value) * {"at": 1.0, "above": 1.1, "below": 0.9}[side]
        M = dataclasses.replace(M, threshold=lam)
        inst = expected_reward(M)
        F, lat = inst.F, inst.F.lattice
        out = inst.bundle.choose_induction((lat.bot, F(lat.bot), lat.top))
        if lam == math.inf or value > Fraction(lam) * Fraction(1 + 1e-9):
            # alpha is top, or the value is not below the threshold
            assert out is None
            return
        if side == "above" or value == 0:
            assert out is not None
        if out is not None:
            k, x = out
            assert k == 2
            assert lat.leq(F(x), x) and lat.leq(x, M.bound())
            assert [s for s in range(M.state_count) if x[s] == math.inf] == [
                s for s in range(M.state_count) if values[s] == math.inf]
