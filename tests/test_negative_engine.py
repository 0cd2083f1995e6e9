"""The negative engine: its searches pinned on fixed random draws of every
instance, and its verdicts against the oracles."""

import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import KRIPKE_BUILDS
from ltpdr.engine import Verdict, solve
from ltpdr.kripke import forward, inverse_backward
from ltpdr.mdp import max_reach
from ltpdr.mrm import expected_reward
from ltpdr.oracles import NoConvergence, bfs_safe, vi_expected_reward, vi_max_reach
from util import random_kripke, random_mdp, random_mrm


def kripke_instances(build):
    rng = random.Random(10)
    return [build(random_kripke(rng, max_states=12)) for _ in range(60)]


def mdp_instances():
    rng = random.Random(11)
    out = []
    for _ in range(40):
        M = random_mdp(rng)
        value = vi_max_reach(M).value
        for t in (value - 0.1, value + 0.1):
            if 0.0 <= t <= 1.0:
                out.append(max_reach(dataclasses.replace(M, threshold=t)))
    return out


def mrm_instances():
    rng = random.Random(12)
    out = []
    for _ in range(60):
        M = random_mrm(rng)
        try:
            value = vi_expected_reward(M).value
        except NoConvergence:
            continue
        if 0 < value < math.inf:
            out.extend(expected_reward(dataclasses.replace(M, threshold=f * value))
                       for f in (0.9, 1.1))
    return out


FAMILIES = {
    "kripke-forward": lambda: kripke_instances(forward),
    "kripke-inverse-backward": lambda: kripke_instances(inverse_backward),
    "mdp": mdp_instances,
    "mrm": mrm_instances,
}

# Per family: the number of solves, the verdict counts, and a digest of
# every solve's verdict, steps, rule counts and witness, in draw order.
PINNED = {
    "kripke-forward": (60, {"False": 47, "Stuck": 13}, "6f94a95d5a45c0f2"),
    "kripke-inverse-backward": (60, {"False": 47, "Stuck": 13}, "0527d8744f401d84"),
    "mdp": (41, {"False": 18, "Stuck": 23}, "7326896c6be3fba5"),
    "mrm": (30, {"False": 15, "Stuck": 14, "BudgetExhausted": 1}, "ed31550738520018"),
}


def record(instances):
    verdicts: dict[str, int] = {}
    digest = hashlib.sha256()
    for inst in instances:
        ans = solve(inst, "negative", budget=300)
        v = ans.verdict.value
        verdicts[v] = verdicts.get(v, 0) + 1
        witness = None if ans.kleene_witness is None else ans.kleene_witness.elements
        digest.update(repr((v, ans.stats.steps, sorted(ans.stats.rule_counts.items()),
                            witness)).encode())
    return len(instances), verdicts, digest.hexdigest()[:16]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_negative_searches_are_pinned(family):
    assert record(FAMILIES[family]()) == PINNED[family]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.usefixtures("compensated_builtin_sum")
def test_negative_searches_are_pinned_under_a_compensated_sum(family):
    # The thresholds derive from oracle values, which must not move with
    # the interpreter's ``sum``.
    test_negative_searches_are_pinned(family)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_refutation_is_the_combined_engines(family):
    # On a false instance the combined engine's frames are the iterates too,
    # and both engines make the bundle's choices below them.
    for inst in FAMILIES[family]():
        ans = solve(inst, "negative", budget=300)
        if ans.verdict is Verdict.FALSE:
            assert ans.kleene_witness == solve(inst, budget=300).kleene_witness


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_refutes_exactly_the_unsafe_draws(seed):
    # A false instance is refuted once its iterates pass alpha; MDPs 0.1
    # below their value and reward models at 0.9x theirs needed at most
    # 2,436 steps on 20,000 draws.  A safe one ends Stuck or out of budget.
    rng = random.Random(seed)
    K = random_kripke(rng, max_states=12)
    unsafe = not bfs_safe(K).verdict
    cases = [(build(K), unsafe) for build in KRIPKE_BUILDS]
    M = random_mdp(rng)
    value = vi_max_reach(M).value
    cases += [(max_reach(dataclasses.replace(M, threshold=t)), t < value)
              for t in (value - 0.1, value + 0.1) if 0.0 <= t <= 1.0]
    R = random_mrm(rng)
    try:
        value = vi_expected_reward(R).value
    except NoConvergence:
        value = math.inf
    if 0 < value < math.inf:
        cases += [(expected_reward(dataclasses.replace(R, threshold=f * value)), f < 1)
                  for f in (0.9, 1.1)]
    for inst, false in cases:
        verdict = solve(inst, "negative", budget=20000, debug=True).verdict
        assert verdict is not Verdict.TRUE
        assert (verdict is Verdict.FALSE) == false
