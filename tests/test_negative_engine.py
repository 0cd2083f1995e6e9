"""The negative engine: the frame that bounds its Decide, and its searches
pinned on fixed random draws of every instance."""

import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ltpdr.engine import solve
from ltpdr.kripke import forward, inverse_backward, opdual
from ltpdr.mdp import max_reach
from ltpdr.mrm import expected_reward
from ltpdr.oracles import NoConvergence, vi_expected_reward, vi_max_reach
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
    "kripke-forward": (60, {"False": 31, "BudgetExhausted": 23, "Stuck": 6},
                       "2af1dc69bfd25dd6"),
    "kripke-inverse-backward": (60, {"False": 38, "BudgetExhausted": 14, "Stuck": 8},
                                "cb71e7e389069a36"),
    "mdp": (41, {"False": 11, "BudgetExhausted": 30}, "e58b45900e58d0cc"),
    "mrm": (30, {"False": 9, "BudgetExhausted": 21}, "1e77bdbdef1ec935"),
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


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_every_frame_is_a_prefixed_point(seed):
    # Deciding below F(frame) loses no counterexample only when frame is
    # above mu F, which F(frame) <= frame guarantees.
    rng = random.Random(seed)
    K = random_kripke(rng, max_states=12)
    for inst in (forward(K), inverse_backward(K), max_reach(random_mdp(rng)),
                 expected_reward(random_mrm(rng))):
        lat = inst.F.lattice
        assert lat.leq(inst.F(inst.frame), inst.frame)
    assert opdual(K).frame is None
