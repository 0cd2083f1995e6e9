"""The seven rewrite rules, the three engines, and the dualization helpers."""

import dataclasses
import math
import os
import random

import pytest

import ltpdr.engine as engine
from conftest import MODELS_DIR
from ltpdr.cli import parse_kripke, parse_mdp, parse_mrm
from ltpdr.engine import (
    EngineInvariantError,
    HeuristicViolation,
    HeuristicsBundle,
    NegativeHeuristics,
    PDRConfig,
    Verdict,
    canonical_heuristics,
    dualize,
    initial_config,
    involution_reduce,
    join_induction_proposer,
    rule_candidate,
    rule_conflict,
    rule_decide,
    rule_induction,
    rule_model,
    rule_unfold,
    rule_valid,
    run_combined,
    run_negative,
    run_positive,
    solve,
)
from ltpdr.kripke import (
    SubsetLattice,
    backward_transformer,
    forward,
    forward_bundle,
    forward_transformer,
    inverse_backward,
    opdual,
    pdr_fkr,
)
from ltpdr.lattice import (
    KTSequence,
    KleeneSequence,
    OppositeLattice,
    Transformer,
    UnsupportedDual,
    InvolutionViolation,
    check_kleene_witness,
)
from ltpdr.mdp import PointwiseLattice, eps_val, max_reach, plain
from ltpdr.mrm import expected_reward
from ltpdr.oracles import vi_expected_reward, vi_max_reach
from ltpdr.simplex import Infeasible
from util import random_kripke, random_mdp, random_mrm

ALPHA = 0b011
ALPHA_P = 0b001


def cfg(frames, obligations=(), start=None):
    fr = KTSequence(tuple(frames))
    if start is None:
        start = len(fr)
    return PDRConfig(fr, KleeneSequence(tuple(obligations), start))


@pytest.fixture
def F(k1):
    return forward_transformer(k1)


@pytest.fixture
def H(k1):
    return forward_bundle(k1)


class TestRules:
    def test_valid_fires_on_collapse(self, F):
        ans = rule_valid(cfg([0, 0b001, 0b011, 0b011]), F, ALPHA)
        assert ans.verdict is Verdict.TRUE
        assert ans.kt_witness.elements == (0, 0b001, 0b011, 0b011)

    def test_valid_on_empty_initial(self, k1):
        K = dataclasses.replace(k1, initial=0)
        F0 = forward_transformer(K)
        assert rule_valid(cfg([0, 0]), F0, ALPHA).verdict is Verdict.TRUE

    def test_valid_absent_when_ascending(self, F):
        assert rule_valid(cfg([0, 0b001, 0b011]), F, ALPHA) is None

    def test_unfold_appends_top(self, F):
        out = rule_unfold(cfg([0, 0b001]), F, ALPHA)
        assert out.frames.elements == (0, 0b001, 0b111)
        assert out.obligations.empty

    def test_unfold_blocked_by_bound(self, F):
        assert rule_unfold(cfg([0, 0b001, 0b111]), F, ALPHA) is None

    def test_unfold_with_tight_alpha(self, F):
        out = rule_unfold(cfg([0, 0b001]), F, ALPHA_P)
        assert out.frames.elements == (0, 0b001, 0b111)

    def test_induction_strengthens(self, F):
        out = rule_induction(cfg([0, 0b001, 0b111]), F, ALPHA, 2, 0b011)
        assert out.frames.elements == (0, 0b001, 0b011)

    def test_induction_requires_strengthening(self, F):
        assert rule_induction(cfg([0, 0b001, 0b011]), F, ALPHA, 2, 0b011) is None

    def test_induction_rejects_top(self, F):
        assert rule_induction(cfg([0, 0b001, 0b111]), F, ALPHA, 2, 0b111) is None

    def test_induction_waits_for_pending_obligations(self, F):
        # The lemma passes its guard, but meeting it into X_2 would leave
        # the pending obligation {2} above the frame.
        c = cfg([0, 0b001, 0b111], [0b100], start=2)
        assert rule_induction(c, F, ALPHA, 2, 0b011) is None
        assert rule_induction(cfg([0, 0b001, 0b111]), F, ALPHA, 2, 0b011) is not None

    def test_candidate_installs_singleton(self, F, H):
        out = rule_candidate(cfg([0, 0b001, 0b111]), F, ALPHA, H)
        assert out.obligations.elements == (0b100,)
        assert out.obligations.start_index == 2

    def test_candidate_lowest_index_tiebreak(self, F, H):
        out = rule_candidate(cfg([0, 0b001, 0b111]), F, ALPHA_P, H)
        assert out.obligations.elements == (0b010,)

    def test_candidate_absent_when_bounded(self, F, H):
        assert rule_candidate(cfg([0, 0b001]), F, ALPHA, H) is None

    def test_model_prepends_bottom(self, F):
        ans = rule_model(cfg([0, 0b001, 0b111], [0b001, 0b010], start=1),
                         F, ALPHA_P)
        assert ans.verdict is Verdict.FALSE
        assert ans.kleene_witness.elements == (0, 0b001, 0b010)
        assert check_kleene_witness(ans.kleene_witness, F, ALPHA_P)

    def test_model_absent_without_obligations(self, F):
        assert rule_model(cfg([0, 0b001]), F, ALPHA) is None

    def test_model_absent_above_index_one(self, F):
        assert rule_model(cfg([0, 0b001, 0b111], [0b100], start=2),
                          F, ALPHA) is None

    def test_decide_prepends_predecessor(self, F, H):
        out = rule_decide(cfg([0, 0b001, 0b111], [0b010], start=2), F, ALPHA_P, H)
        assert out.obligations.elements == (0b001, 0b010)
        assert out.obligations.start_index == 1

    def test_decide_guard_fails_for_unreachable(self, F, H):
        assert rule_decide(cfg([0, 0b001, 0b111], [0b100], start=2),
                           F, ALPHA, H) is None

    def test_decide_absent_without_obligations(self, F, H):
        assert rule_decide(cfg([0, 0b001]), F, ALPHA, H) is None

    def test_conflict_strengthens_and_pops(self, F, H):
        out = rule_conflict(cfg([0, 0b001, 0b111], [0b100], start=2), F, ALPHA, H)
        assert out.frames.elements == (0, 0b001, 0b011)
        assert out.obligations.empty

    def test_conflict_deeper_frame(self, F, H):
        out = rule_conflict(cfg([0, 0b001, 0b011, 0b111], [0b100], start=3),
                            F, ALPHA, H)
        assert out.frames.elements == (0, 0b001, 0b011, 0b011)
        assert rule_valid(out, F, ALPHA).verdict is Verdict.TRUE

    def test_conflict_guard_disjoint_from_decide(self, F, H):
        assert rule_conflict(cfg([0, 0b001, 0b111], [0b010], start=2),
                             F, ALPHA_P, H) is None

    def test_guard_partition(self, F, H):
        # For any pending head exactly one of Decide/Conflict applies.
        for head in (0b010, 0b100):
            c = cfg([0, 0b001, 0b111], [head], start=2)
            fired = [rule_decide(c, F, ALPHA, H), rule_conflict(c, F, ALPHA, H)]
            assert sum(x is not None for x in fired) == 1


class TestCombined:
    def test_safe_trace_matches_reference(self, k1):
        trace = []
        ans = pdr_fkr(k1, trace=trace.append, debug=True)
        assert ans.verdict is Verdict.TRUE
        assert [line.split()[1] for line in trace] == [
            "rule=unfold", "rule=candidate", "rule=conflict",
            "rule=unfold", "rule=candidate", "rule=conflict", "rule=valid"]

    def test_unsafe_witness(self, k1):
        K = dataclasses.replace(k1, safe=ALPHA_P)
        ans = pdr_fkr(K, debug=True)
        assert ans.verdict is Verdict.FALSE
        assert ans.kleene_witness.elements == (0, 0b001, 0b010)

    def test_empty_initial_is_immediately_true(self, k1):
        K = dataclasses.replace(k1, initial=0)
        ans = pdr_fkr(K)
        assert ans.verdict is Verdict.TRUE
        assert ans.stats.steps == 1

    def test_budget_must_be_positive(self, F, H):
        with pytest.raises(ValueError):
            run_combined(F, ALPHA, H, budget=0)

    def test_stats_counts_sum_to_steps(self, k1):
        ans = pdr_fkr(k1)
        assert sum(ans.stats.rule_counts.values()) == ans.stats.steps

    def test_heuristic_violation_aborts(self, F):
        bad = HeuristicsBundle(
            choose_candidate=lambda last, alpha, info: 0,  # bottom <= alpha
            choose_decide=lambda xp, c, fx: None,
            choose_conflict=lambda xp, c, fx: None)
        with pytest.raises(HeuristicViolation):
            run_combined(F, ALPHA, bad, budget=50)

    def test_canonical_heuristics_are_always_admissible(self, F):
        ans = run_combined(F, ALPHA, canonical_heuristics(F), debug=True)
        assert ans.verdict is Verdict.TRUE


class TestSolve:
    def test_engines_on_one_instance(self, k1):
        inst = forward(k1)
        assert solve(inst).verdict is Verdict.TRUE
        assert solve(inst, "positive").verdict is Verdict.TRUE
        assert solve(inst, "negative", budget=50).verdict is Verdict.BUDGET_EXHAUSTED
        assert solve(forward(dataclasses.replace(k1, safe=ALPHA_P)),
                     "negative").verdict is Verdict.FALSE

    def test_unknown_or_missing_engine_rejected(self, k1):
        with pytest.raises(ValueError):
            solve(opdual(k1), "negative")  # the dual instance has none
        with pytest.raises(ValueError):
            solve(forward(k1), "fuzz")

    def test_building_an_instance_calls_no_transformer(self, k1, monkeypatch):
        calls = []
        call = Transformer.__call__
        monkeypatch.setattr(Transformer, "__call__",
                            lambda self, x: calls.append(x) or call(self, x))
        rng = random.Random(3)
        for build, model in ((forward, k1), (inverse_backward, k1), (opdual, k1),
                             (max_reach, random_mdp(rng)),
                             (expected_reward, random_mrm(rng))):
            build(model)
        assert calls == []


class TestPositive:
    def test_safe_with_join_proposer(self, k1):
        F = forward_transformer(k1)
        ans = run_positive(F, ALPHA, join_induction_proposer(F), debug=True)
        assert ans.verdict is Verdict.TRUE

    def test_unsafe_exhausts_budget(self, k1):
        F = forward_transformer(k1)
        ans = run_positive(F, ALPHA_P, join_induction_proposer(F), budget=200)
        assert ans.verdict is Verdict.BUDGET_EXHAUSTED

    def test_empty_initial_immediate(self, k1):
        K = dataclasses.replace(k1, initial=0)
        F = forward_transformer(K)
        ans = run_positive(F, ALPHA, None, budget=10)
        assert ans.verdict is Verdict.TRUE

    def test_no_proposer_still_progresses_by_unfold(self, k1):
        F = forward_transformer(k1)
        ans = run_positive(F, 0b111, None, budget=50)  # alpha = top
        assert ans.verdict is Verdict.TRUE


class TestNegative:
    def test_unsafe_finds_counterexample(self, k1):
        F = forward_transformer(k1)
        ans = run_negative(F, ALPHA_P, forward(k1).negative(), debug=True)
        assert ans.verdict is Verdict.FALSE
        assert ans.kleene_witness.elements == (0, 0b001, 0b010)

    def test_alpha_top_is_stuck(self, k1):
        F = forward_transformer(k1)
        ans = run_negative(F, 0b111, forward(k1).negative(), budget=50)
        assert ans.verdict is Verdict.STUCK

    def test_safe_exhausts_budget(self, k1):
        F = forward_transformer(k1)
        ans = run_negative(F, ALPHA, forward(k1).negative(), budget=100)
        assert ans.verdict is Verdict.BUDGET_EXHAUSTED

    def test_bad_candidate_rejected(self, k1):
        F = forward_transformer(k1)
        bad = NegativeHeuristics(choose_candidate=lambda alpha: 0,
                                 choose_decide=lambda head: None)
        with pytest.raises(HeuristicViolation):
            run_negative(F, ALPHA, bad, budget=10)


class TestDualization:
    def _gfp_instance(self, K):
        Fb = backward_transformer(K)
        lat = Fb.lattice
        return Transformer(lat, lambda A: K.safe & Fb(A))

    def test_dual_answers_match_forward(self, k1):
        G = self._gfp_instance(k1)
        G_op, alpha_op = dualize(G, k1.initial)
        ans = run_combined(G_op, alpha_op, canonical_heuristics(G_op))
        assert ans.verdict is Verdict.TRUE

        K = dataclasses.replace(k1, safe=ALPHA_P)
        G2 = self._gfp_instance(K)
        G2_op, alpha2 = dualize(G2, K.initial)
        ans2 = run_combined(G2_op, alpha2, canonical_heuristics(G2_op))
        assert ans2.verdict is Verdict.FALSE

    def test_dual_with_alpha_top(self, k1):
        K = dataclasses.replace(k1, safe=0b111)
        G = self._gfp_instance(K)
        G_op, alpha_op = dualize(G, K.initial)
        ans = run_combined(G_op, alpha_op, canonical_heuristics(G_op))
        assert ans.verdict is Verdict.TRUE

    def test_dualize_requires_join(self):
        from ltpdr.lattice import Lattice

        class MeetOnly(Lattice):
            bot, top = 0, 1

            def leq_info(self, a, b):
                return (a <= b, None)

            def meet(self, a, b):
                return min(a, b)

        F = Transformer(MeetOnly(), lambda x: x)
        with pytest.raises(UnsupportedDual):
            dualize(F, 1)

    def test_involution_reduce_matches_forward(self, k1):
        Fb = backward_transformer(k1)
        lat = Fb.lattice
        neg = lambda A: lat.top & ~A
        G, bound = involution_reduce(Fb, k1.initial, k1.safe, neg)
        # G is the unsafe-or-existential-predecessor transformer; the bound
        # is the complement of the initial set.
        from ltpdr.kripke import inverse_backward_transformer
        ib = inverse_backward_transformer(k1)
        for A in range(8):
            assert G(A) == ib(A)
        assert bound == lat.top & ~k1.initial

    def test_involution_is_self_inverse(self, k1):
        lat = backward_transformer(k1).lattice
        neg = lambda A: lat.top & ~A
        assert neg(neg(0b101)) == 0b101

    def test_broken_involution_rejected(self, k1):
        Fb = backward_transformer(k1)
        with pytest.raises(InvolutionViolation):
            involution_reduce(Fb, k1.initial, k1.safe, lambda A: 0)


class TestDebugMode:
    def test_initial_config_shape(self, F):
        c = initial_config(F)
        assert c.frames.elements == (0, 0b001)
        assert c.obligations.empty

    # (frames, obligations, start) of a corrupted config reached from the
    # valid chain (0, 1, 3, 3, 7): each changes frames, which the checker
    # sees as new objects, except the last, which adds an obligation that is
    # not below its frame.
    CORRUPTED = {
        "not ascending": ([0, 0b001, 0b111, 0b011, 0b111], [], None),
        "not a prefixed point": ([0, 0b001, 0b001, 0b011, 0b111], [], None),
        "bound": ([0, 0b001, 0b011, 0b111, 0b111], [], None),
        "below F^i(bot)": ([0, 0, 0, 0b011, 0b111], [], None),
        "prefix": ([0, 0b011, 0b011, 0b011, 0b111], [], None),
        "obligation": ([0, 0b001, 0b011, 0b011, 0b111], [0b100, 0b100], 3),
    }

    @pytest.mark.parametrize("case", sorted(CORRUPTED))
    def test_checker_catches_a_corrupted_changed_frame(self, F, case):
        checker = engine._InvariantChecker(F, ALPHA, combined=True)
        checker.check(cfg([0, 0b001, 0b011, 0b011, 0b111]))
        with pytest.raises(EngineInvariantError):
            checker.check(cfg(*self.CORRUPTED[case]))

    def test_checker_skips_unchanged_frames(self, F):
        calls = []

        def counted(A):
            calls.append(A)
            return F(A)

        checker = engine._InvariantChecker(Transformer(F.lattice, counted), ALPHA,
                                           combined=True)
        xs = [0, 0b001, 0b011, 0b011, 0b111]
        checker.check(cfg(xs))
        calls.clear()
        checker.check(cfg(xs))
        assert calls == []
        # A new last frame touches one pair: one F call, on X_3.
        checker.check(cfg(xs[:4] + [0b011]))
        assert calls == [0b011]

    def test_final_check_rescans_the_whole_chain(self, F):
        # The per-step checker trusts unchanged frames; the final check in
        # debug mode does not.  The negative certificate is valid, so only
        # the frame chain (not ascending at X_2) can fail.
        witness = KleeneSequence((0, 0b001, 0b010), 0)
        ans = engine.PDRAnswer(Verdict.FALSE, kleene_witness=witness)
        broken = KTSequence((0, 0b001, 0b111, 0b011))
        stats = engine.RunStats()
        engine._finalize(ans, stats, F, ALPHA_P, 0.0, broken)
        with pytest.raises(EngineInvariantError):
            engine._finalize(ans, stats, F, ALPHA_P, 0.0, broken, debug=True)


class TestValidScan:
    """Valid is re-checked only on the frame pairs the last rule could have
    made conclusive, and ``F(X_j)`` is reused while ``X_j`` is unchanged.  A
    full scan -- every pair of the chain on every step, with ``F``
    evaluated afresh -- must give the same verdicts, rule counts, steps,
    frames and trace lines."""

    @staticmethod
    def _forward_with_induction(K):
        inst = forward(K)
        return dataclasses.replace(inst, bundle=dataclasses.replace(
            inst.bundle, choose_induction=join_induction_proposer(inst.F)))

    @classmethod
    def _combined_solves(cls):
        solves = []
        parsers = {".kr": (parse_kripke, (forward, inverse_backward, opdual)),
                   ".mdp": (parse_mdp, (max_reach,)),
                   ".mrm": (parse_mrm, (expected_reward,))}
        for name in sorted(os.listdir(MODELS_DIR)):
            parse, builders = parsers[os.path.splitext(name)[1]]
            with open(os.path.join(MODELS_DIR, name)) as fh:
                model = parse(fh.read())
            solves += [(build, model, {}) for build in builders]
        rng = random.Random(5)
        for _ in range(60):
            K = random_kripke(rng)
            solves += [(forward, K, {}), (inverse_backward, K, {})]
        for _ in range(30):
            M = random_mdp(rng)
            value = vi_max_reach(M).value
            for lam in (max(value - 0.1, value / 2), min(value + 0.1, 1.0)):
                solves.append((max_reach, dataclasses.replace(M, threshold=lam),
                               {"budget": 2000}))
        for _ in range(20):
            M = random_mrm(rng)
            value = vi_expected_reward(M).value
            for lam in (value / 2, value + 0.5):
                solves.append((expected_reward, dataclasses.replace(M, threshold=lam),
                               {"budget": 2000}))
        rng = random.Random(7)
        for _ in range(40):
            K = random_kripke(rng, max_states=12)
            solves.append((cls._forward_with_induction, K, {}))
        return solves

    @staticmethod
    def _run(build, model, kwargs):
        trace = []
        try:
            ans = solve(build(model), trace=trace.append, **kwargs)
        except Infeasible:  # the known MRM failure must repeat as well
            return ("Infeasible", trace)
        return (ans.verdict, ans.stats.rule_counts, ans.stats.steps,
                ans.stats.frame_count, trace)

    @classmethod
    def _compare_with_full_scan(cls, monkeypatch, solves):
        """Run ``solves`` as they are, then again with Valid over the whole
        chain and without the ``F`` cache on every step; return the rule
        counts of the first runs."""
        pairs = []  # frame pairs compared by Valid, per solve
        rule_valid = engine.rule_valid

        def restricted(cfg, F, alpha, lo=0, hi=None):
            pairs[-1] += (len(cfg.frames) - 1 if hi is None else hi) - lo
            return rule_valid(cfg, F, alpha, lo, hi)

        monkeypatch.setattr(engine, "rule_valid", restricted)
        outcomes = []
        for case in solves:
            pairs.append(0)
            outcomes.append(cls._run(*case))
        restricted_pairs = sum(pairs)

        scans = []

        def full_scan(cfg, F, alpha, lo=0, hi=None):
            scans[-1] += 1
            pairs[-1] += len(cfg.frames) - 1
            return rule_valid(cfg, F, alpha)

        monkeypatch.setattr(engine, "rule_valid", full_scan)
        monkeypatch.setattr(engine, "_fresh_pairs",
                            lambda rule, old, cfg, k: (0, len(cfg.frames) - 1))
        # ... and with a fresh F(X_{i-1}) on every step, bypassing the cache.
        monkeypatch.setattr(engine, "_image_at", lambda F, cache, xs, j: F(xs[j]))
        pairs.clear()
        for case, outcome in zip(solves, outcomes):
            pairs.append(0)
            scans.append(0)
            full = cls._run(*case)
            assert outcome == full
            if isinstance(full[0], Verdict):
                assert scans[-1] == full[2]
        assert sum(pairs) > restricted_pairs
        monkeypatch.undo()
        return [o[1] for o in outcomes if isinstance(o[0], Verdict)]

    def test_combined_matches_full_scan(self, monkeypatch):
        rules = self._compare_with_full_scan(monkeypatch, self._combined_solves())
        for rule in ("unfold", "induction", "conflict"):
            assert sum(r.get(rule, 0) for r in rules) > 0

    def test_positive_matches_full_scan(self, monkeypatch):
        rng = random.Random(6)
        solves = []
        positive = {"engine": "positive", "budget": 200}
        for _ in range(40):
            K = random_kripke(rng)
            solves += [(forward, K, positive), (inverse_backward, K, positive)]
        for _ in range(15):
            solves += [(max_reach, random_mdp(rng), positive),
                       (expected_reward, random_mrm(rng), positive)]
        rules = self._compare_with_full_scan(monkeypatch, solves)
        for rule in ("unfold", "induction", "noop", "valid"):
            assert sum(r.get(rule, 0) for r in rules) > 0

        # Noop steps keep the whole configuration, so Valid is also checked
        # from inside the run: every step that gets past Valid reaches
        # Unfold, where Valid must not hold on any pair.
        rule_valid, rule_unfold = engine.rule_valid, engine.rule_unfold
        held = []

        def checked_unfold(cfg, F, alpha):
            held.append(rule_valid(cfg, F, alpha) is not None)
            return rule_unfold(cfg, F, alpha)

        monkeypatch.setattr(engine, "rule_unfold", checked_unfold)
        for build, model, kwargs in solves:
            solve(build(model), **kwargs)
        assert held and not any(held)


class TestStrengthen:
    """Conflict and Induction meet ``x`` only into the frames above the
    highest ``X_j <= x``; on an ascending chain that is the full meet."""

    @staticmethod
    def _lattices():
        pool01 = [plain(0.0), eps_val(0.0), plain(0.5), eps_val(0.5), plain(1.0)]
        pool_inf = pool01[:4] + [plain(2.0), eps_val(2.0), plain(math.inf)]
        return [
            (SubsetLattice(10), lambda rng: rng.getrandbits(10)),
            (PointwiseLattice(4, 1.0),
             lambda rng: tuple(rng.choice(pool01) for _ in range(4))),
            (PointwiseLattice(4, math.inf),
             lambda rng: tuple(rng.choice(pool_inf) for _ in range(4))),
            (OppositeLattice(SubsetLattice(10)), lambda rng: rng.getrandbits(10)),
        ]

    @pytest.mark.parametrize("case", range(4), ids=["subset", "unit-interval",
                                                   "extended-reals", "opposite"])
    def test_matches_full_meet(self, case, monkeypatch):
        lat, draw = self._lattices()[case]
        full_meet = lat.meet
        met = []

        def counted_meet(a, b):
            met.append(a)
            return full_meet(a, b)

        monkeypatch.setattr(lat, "meet", counted_meet)
        rng = random.Random(case)
        kept = changed = 0
        for _ in range(300):
            n = rng.randint(3, 9)
            xs = [full_meet(draw(rng), draw(rng))]
            for _ in range(n - 1):
                xs.append(xs[-1] if rng.random() < 0.2 else lat.join(xs[-1], draw(rng)))
            xs = tuple(xs)
            r = rng.random()
            if r < 0.4:
                x = draw(rng)
            elif r < 0.7:
                x = xs[rng.randrange(n)]
            else:
                x = lat.join(xs[rng.randrange(n)], draw(rng))
            k = rng.randint(2, n - 1)
            met.clear()
            ys = engine._strengthen(lat, xs, k, x).elements
            assert not any(lat.leq(a, x) for a in met)
            assert len(ys) == n
            for j in range(n):
                if not 2 <= j <= k:
                    assert ys[j] is xs[j]
                    continue
                assert ys[j] == full_meet(xs[j], x)
                if lat.leq(xs[j], x):
                    assert ys[j] is xs[j]
                    kept += 1
                else:
                    changed += 1
        assert kept > 0 and changed > 0
