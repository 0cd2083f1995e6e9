"""The optimistic Induction proposer of the MDP and reward instances."""

import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ltpdr.engine import Verdict, solve
from ltpdr.mdp import max_reach, optimistic_induction
from ltpdr.mrm import MRMModel, expected_reward
from ltpdr.oracles import NoConvergence, vi_expected_reward, vi_max_reach
from util import random_mdp, random_mrm

# kind -> (draw, oracle, Instance builder, true threshold, false threshold)
KINDS = {
    "mrm": (random_mrm, vi_expected_reward, expected_reward,
            lambda v: 1.1 * v, lambda v: 0.9 * v),
    "mdp": (random_mdp, vi_max_reach, max_reach,
            lambda v: min(v + 0.1, 1.0), lambda v: v - 0.1 if v >= 0.2 else v / 2),
}


def valued_draws(kind, count, seed=2026):
    """``(index, model, value)`` for the first ``count`` draws of ``kind``
    from ``Random(seed)`` whose value is finite and not zero."""
    draw, oracle = KINDS[kind][:2]
    rng = random.Random(seed)
    for i in range(count):
        M = draw(rng)
        try:
            value = oracle(M).value
        except NoConvergence:
            continue
        if 1e-6 < value < math.inf:
            yield i, M, value


def solve_recorded(kind, M, **kwargs):
    """Solve ``M`` with the instance's bundle, its Induction proposer
    wrapped to record every ``(frames, proposal)`` pair."""
    inst = KINDS[kind][2](M)
    calls = []

    def record(frames):
        out = inst.bundle.choose_induction(frames)
        calls.append((frames, out))
        return out

    bundle = dataclasses.replace(inst.bundle, choose_induction=record)
    ans = solve(dataclasses.replace(inst, bundle=bundle), **kwargs)
    return inst.F, ans, calls


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_true_bounds_proved_within_100_steps(kind):
    # Without the proposer a proof waits for two float Kleene iterates to
    # coincide: hundreds of steps on slowly mixing models, or never.
    build, upper = KINDS[kind][2:4]
    for i, M, value in valued_draws(kind, 200):
        ans = solve(build(dataclasses.replace(M, threshold=upper(value))),
                    budget=100, debug=True)
        assert ans.verdict is Verdict.TRUE, (i, ans.stats)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_false_bounds_never_get_a_proposal(kind):
    # The proposer returns None on every chain, so the search is the one
    # without it: the engine's own Induction lemmas are all it applies.
    build, lower = KINDS[kind][2], KINDS[kind][4]
    for i, M, value in valued_draws(kind, 200):
        M = dataclasses.replace(M, threshold=lower(value))
        _, ans, calls = solve_recorded(kind, M, budget=1000)
        assert ans.verdict is Verdict.FALSE, i
        assert all(out is None for _, out in calls), i
        inst = build(M)
        plain = solve(dataclasses.replace(inst, bundle=dataclasses.replace(
            inst.bundle, choose_induction=None)), budget=1000)
        assert (ans.verdict, ans.kt_witness, ans.kleene_witness) == (
            plain.verdict, plain.kt_witness, plain.kleene_witness), i
        assert (ans.stats.steps, ans.stats.rule_counts, ans.stats.frame_count) == (
            plain.stats.steps, plain.stats.rule_counts, plain.stats.frame_count), i


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)), seed=st.integers(0, 2**32 - 1),
       factor=st.floats(0.5, 2.0))
def test_proposals_are_prefixed_points_below_alpha(kind, seed, factor):
    draw, oracle = KINDS[kind][:2]
    M = draw(random.Random(seed))
    try:
        value = oracle(M).value
    except NoConvergence:
        value = math.inf
    assume(1e-6 < value < math.inf)
    lam = value * factor if kind == "mrm" else min(value * factor, 1.0)
    M = dataclasses.replace(M, threshold=lam)
    F, _, calls = solve_recorded(kind, M, budget=300)
    lat, alpha = F.lattice, M.bound()
    for frames, out in calls:
        if out is not None:
            k, x = out
            assert k == len(frames) - 1
            assert lat.leq(F(x), x) and lat.leq(x, alpha)


def test_fires_once_per_chain_length():
    # One safe state that pays 1 and stays with probability 1/2: the value
    # is 2 and the Kleene iterates are 0, 1, 1.5, 1.75, ...  The engine asks
    # once per chain length, right after Unfold (tests/test_engine.py,
    # TestInductionSchedule); here the proposal itself is checked.
    M = MRMModel(2, ((((1, 0), 0.5), ((1, 1), 0.5)), (((0, 1), 1.0),)), 0, 2.5,
                 frozenset({0}))
    F = expected_reward(M).F
    top = F.lattice.top
    propose = optimistic_induction(F, M.bound(), M.initial_state)
    chain = [F.lattice.bot]
    for _ in range(3):
        chain.append(F(chain[-1]))
    assert propose((chain[0], chain[1], top)) is None  # too short
    frames = tuple(chain) + (top,)
    k, x = propose(frames)
    # The limit 2 is extrapolated from 1, 1.5, 1.75 and lifted nine tenths
    # of the way to the bound; the unsafe state stays at 0.
    assert k == 4 and x == (2.45, 0.0)
    assert F.lattice.leq(F(x), x)


def kleene_chain(F, length):
    """``bot, F(bot), ..., F^{length-1}(bot)``."""
    chain = [F.lattice.bot]
    while len(chain) < length:
        chain.append(F(chain[-1]))
    return chain


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_the_same_chain_gets_the_same_answer(kind):
    # The proposer keeps no state but F(top): asked twice, on a fresh bundle
    # or on one that has already solved, it answers a chain the same way.
    build, upper = KINDS[kind][2:4]
    answered = 0
    for i, M, value in valued_draws(kind, 20):
        model = dataclasses.replace(M, threshold=upper(value))
        inst, fresh = build(model), build(model).bundle.choose_induction
        chain = tuple(kleene_chain(inst.F, 6)) + (inst.F.lattice.top,)
        first = fresh(chain)
        assert fresh(chain) == first, i
        solve(inst)
        reused = inst.bundle.choose_induction
        assert reused(chain) == reused(chain) == first, i
        answered += first is not None
    assert answered


def test_alternating_iterates_are_extrapolated_over_every_second_frame():
    # s0 pays 1 and moves to s1, which returns with probability 1/2: the
    # value at s0 is 2, and its iterates 0, 1, 1, 1.5, 1.5, 1.75, ... stand
    # still every second step, so no three consecutive ones are geometric.
    M = MRMModel(3, ((((1, 1), 1.0),), (((0, 0), 0.5), ((0, 2), 0.5)),
                     (((0, 2), 1.0),)), 0, 2.5, frozenset({0, 1}))
    F = expected_reward(M).F
    top = F.lattice.top
    propose = optimistic_induction(F, M.bound(), M.initial_state)
    chain = kleene_chain(F, 5)
    for n in (4, 5):
        assert propose(tuple(chain[:n - 1]) + (top,)) is None
    k, x = propose(tuple(chain) + (top,))
    # X_0, X_2, X_4 at s0 are 0, 1, 1.5: limit 2, lifted to 2.45.  s1 is
    # lifted from its own limit 1 (X_4(s1) is 0.75), and F(x) <= x as is.
    assert k == 5
    assert list(x) == pytest.approx([2.45, 1.3375, 0.0])
    assert F.lattice.leq(F(x), x)


def test_a_reused_bundle_proposes_on_the_next_solve():
    M = MRMModel(2, ((((1, 0), 0.5), ((1, 1), 0.5)), (((0, 1), 1.0),)), 0, 2.5,
                 frozenset({0}))
    inst = expected_reward(M)
    first, second = (solve(inst) for _ in range(2))
    assert first.verdict is second.verdict is Verdict.TRUE
    assert first.stats.rule_counts == second.stats.rule_counts
    assert first.kt_witness == second.kt_witness
    # The proposal 2.225 between two canonical lemmas; the canonical lemmas
    # alone close the run only at 2.0, after 54 Inductions and 56 frames.
    assert second.stats.rule_counts["induction"] == 3
    assert second.stats.frame_count == 5


def test_a_bundle_on_an_equal_transformer_proposes():
    # The proposer finds the chain's top by value, so a bundle built on a
    # second transformer of the same model closes the run of the test above
    # as the engine's own does, not after 54 canonical Inductions.
    M = MRMModel(2, ((((1, 0), 0.5), ((1, 1), 0.5)), (((0, 1), 1.0),)), 0, 2.5,
                 frozenset({0}))
    ans = solve(dataclasses.replace(expected_reward(M),
                                    bundle=expected_reward(M).bundle))
    assert ans.verdict is Verdict.TRUE
    assert (ans.stats.steps, ans.stats.frame_count) == (7, 5)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_second_transformer_makes_the_same_search(kind):
    build, sides = KINDS[kind][2], KINDS[kind][3:]
    proved = 0
    for i, M, value in valued_draws(kind, 60):
        for side in sides:
            model = dataclasses.replace(M, threshold=side(value))
            inst = build(model)
            own = solve(inst, budget=2000)
            other = solve(dataclasses.replace(inst, bundle=build(model).bundle),
                          budget=2000)
            assert (other.verdict, other.stats.steps, other.stats.rule_counts) == (
                own.verdict, own.stats.steps, own.stats.rule_counts), i
            proved += own.verdict is Verdict.TRUE
    assert proved


def test_a_repair_round_completes_the_guess():
    # s0 pays 1 and stays with probability 1/2, moves to s1 with 1/4 and
    # stops with 1/4; s1 returns to s0 for free.  Both values are 3.
    M = MRMModel(3, ((((1, 0), 0.5), ((1, 1), 0.25), ((0, 2), 0.25)),
                     (((0, 0), 1.0),), (((0, 2), 1.0),)), 0, 3.3, frozenset({0, 1}))
    F = expected_reward(M).F
    propose = optimistic_induction(F, M.bound(), M.initial_state)
    # X_0, X_1, X_2 at s0 are 0, 0.75, 1.125: limit 1.5, lifted to 3.12.
    # s1 (0, 0, 0.75) does not converge yet and is lifted from 0.75 to
    # 1.965, below F(x)(s1) = x(s0); one round x := x v F(x) raises it.
    guess = (3.12, 1.965, 0.0)
    assert not F.lattice.leq(F(guess), guess)
    k, x = propose(tuple(kleene_chain(F, 3)) + (F.lattice.top,))
    assert k == 3
    assert list(x) == pytest.approx([3.12, 3.12, 0.0])
    assert F.lattice.leq(F(x), x)
