"""The seven rewrite rules, the engines, and the dualization helpers."""

import dataclasses
import math
import os
import random

import pytest

import ltpdr.engine as engine
from conftest import KRIPKE_BUILDS, MODELS_DIR
from ltpdr.cli import KINDS, parse_kripke, parse_mdp
from ltpdr.engine import (
    EngineInvariantError,
    HeuristicViolation,
    HeuristicsBundle,
    Instance,
    PUSHED,
    Verdict,
    canonical_heuristics,
    dualize,
    initial_config,
    rule_candidate,
    rule_conflict,
    rule_decide,
    rule_induction,
    rule_model,
    rule_unfold,
    rule_valid,
    run_combined,
    run_negative,
    solve,
)
from ltpdr.kripke import (
    KripkeStructure,
    SubsetLattice,
    backward_transformer,
    forward,
    forward_transformer,
    inverse_backward,
)
from ltpdr.lattice import (
    KleeneSequence,
    Lattice,
    LatticeError,
    OppositeLattice,
    Transformer,
    UnsupportedDual,
    check_kleene_witness,
)
from ltpdr.mdp import PointwiseLattice, max_reach
from ltpdr.mrm import expected_reward
from ltpdr.oracles import vi_expected_reward, vi_max_reach
from ltpdr.simplex import Infeasible
from util import above, random_kripke, random_mdp, random_mrm

ALPHA = 0b011
ALPHA_P = 0b001


def state(frames, obligations=()):
    """A run's frames and pending obligations as the lists the rules edit;
    the obligations are written head last, ``C_{n-1} .. C_i``."""
    return list(frames), list(obligations)


def index(xs, ob):
    """The index ``i`` of the head obligation ``C_i``."""
    return len(xs) - len(ob)


@pytest.fixture
def F(k1):
    return forward_transformer(k1)


@pytest.fixture
def H(k1):
    return forward(k1).bundle


class TestRules:
    """Each rule edits the run's two lists in place and returns the edit:
    the highest frame it kept, or ``PUSHED``; None leaves them as they were."""

    def test_valid_fires_on_collapse(self, F):
        ans = rule_valid(*state([0, 0b001, 0b011, 0b011]), F, ALPHA)
        assert ans.verdict is Verdict.TRUE
        assert ans.kt_witness.elements == (0, 0b001, 0b011, 0b011)

    def test_valid_on_empty_initial(self, k1):
        K = dataclasses.replace(k1, initial=0)
        F0 = forward_transformer(K)
        assert rule_valid(*state([0, 0]), F0, ALPHA).verdict is Verdict.TRUE

    def test_valid_absent_when_ascending(self, F):
        assert rule_valid(*state([0, 0b001, 0b011]), F, ALPHA) is None

    def test_valid_copies_the_frames_it_answers_with(self, F):
        xs, ob = state([0, 0b001, 0b011, 0b011])
        ans = rule_valid(xs, ob, F, ALPHA)
        xs[3] = 0b111
        assert ans.kt_witness.elements == (0, 0b001, 0b011, 0b011)

    def test_unfold_appends_top(self, F):
        xs, ob = state([0, 0b001])
        assert rule_unfold(xs, ob, F, ALPHA) == 1  # X_2 is new
        assert (xs, ob) == ([0, 0b001, 0b111], [])

    def test_unfold_blocked_by_bound(self, F):
        xs, ob = state([0, 0b001, 0b111])
        assert rule_unfold(xs, ob, F, ALPHA) is None
        assert xs == [0, 0b001, 0b111]

    def test_unfold_waits_for_pending_obligations(self, F):
        xs, ob = state([0, 0b001], [0b001])
        assert rule_unfold(xs, ob, F, ALPHA) is None
        assert (xs, ob) == ([0, 0b001], [0b001])

    def test_unfold_with_tight_alpha(self, F):
        xs, ob = state([0, 0b001])
        assert rule_unfold(xs, ob, F, ALPHA_P) == 1
        assert xs == [0, 0b001, 0b111]

    def test_induction_strengthens(self, F):
        xs, ob = state([0, 0b001, 0b111])
        assert rule_induction(xs, ob, F, ALPHA, 2, 0b011) == 1
        assert xs == [0, 0b001, 0b011]

    def test_induction_requires_strengthening(self, F):
        xs, ob = state([0, 0b001, 0b011])
        assert rule_induction(xs, ob, F, ALPHA, 2, 0b011) is None
        assert xs == [0, 0b001, 0b011]

    def test_induction_rejects_top(self, F):
        assert rule_induction(*state([0, 0b001, 0b111]), F, ALPHA, 2, 0b111) is None

    def test_induction_waits_for_pending_obligations(self, F):
        # The lemma passes its guard, but meeting it into X_2 would leave
        # the pending obligation {2} above the frame.
        xs, ob = state([0, 0b001, 0b111], [0b100])
        assert rule_induction(xs, ob, F, ALPHA, 2, 0b011) is None
        assert (xs, ob) == ([0, 0b001, 0b111], [0b100])
        assert rule_induction(*state([0, 0b001, 0b111]), F, ALPHA, 2, 0b011) == 1

    def test_candidate_installs_singleton(self, F, H):
        xs, ob = state([0, 0b001, 0b111])
        assert rule_candidate(xs, ob, F, ALPHA, H) == PUSHED
        assert ob == [0b100]
        assert index(xs, ob) == 2

    def test_candidate_lowest_index_tiebreak(self, F, H):
        xs, ob = state([0, 0b001, 0b111])
        rule_candidate(xs, ob, F, ALPHA_P, H)
        assert ob == [0b010]

    def test_candidate_absent_when_bounded(self, F, H):
        xs, ob = state([0, 0b001])
        assert rule_candidate(xs, ob, F, ALPHA, H) is None
        assert ob == []

    def test_model_prepends_bottom(self, F):
        ans = rule_model(*state([0, 0b001, 0b111], [0b010, 0b001]), F, ALPHA_P)
        assert ans.verdict is Verdict.FALSE
        assert ans.kleene_witness.elements == (0, 0b001, 0b010)
        assert check_kleene_witness(ans.kleene_witness, F, ALPHA_P)

    def test_model_absent_without_obligations(self, F):
        assert rule_model(*state([0, 0b001]), F, ALPHA) is None

    def test_model_absent_above_index_one(self, F):
        assert rule_model(*state([0, 0b001, 0b111], [0b100]), F, ALPHA) is None

    def test_model_fires_one_frame_above_the_obligations(self, F):
        # Model needs the head at index 1: len(obligations) == len(frames) - 1.
        chain = (0, 0b001, 0b010, 0b010)
        for xs in ([0, 0b001], [0, 0b001, 0b011], [0, 0b001, 0b011, 0b111]):
            for m in range(len(xs) + 1):
                ob = chain[len(chain) - m:]
                ans = rule_model(*state(xs, reversed(ob)), F, ALPHA_P)
                if m == len(xs) - 1:
                    assert ans.kleene_witness.elements == (0,) + ob
                else:
                    assert ans is None

    def test_decide_and_conflict_act_at_the_derived_index(self, F):
        # The head is C_i with i = len(frames) - len(obligations), and both
        # rules read X_{i-1}: on the same frames, each obligation count
        # selects a different frame.
        seen = []

        def record(x_prev, head):
            seen.append(x_prev)
            return x_prev

        xs = [0, 0b001, 0b011, 0b111]
        H = HeuristicsBundle(None, record)
        frames, ob = state(xs, [0b010])
        assert rule_decide(frames, ob, F, ALPHA_P, H) == PUSHED
        assert seen == [0b011]  # X_2 at i = 3
        assert ob == [0b010, 0b011] and index(frames, ob) == 2
        frames, ob = state(xs, [0b010, 0b010])
        rule_decide(frames, ob, F, ALPHA_P, H)
        assert seen == [0b011, 0b001]  # X_1 at i = 2
        assert ob == [0b010, 0b010, 0b001] and index(frames, ob) == 1
        assert frames == xs

        H = HeuristicsBundle(None, None, choose_conflict=lambda x_prev, head, fx:
                             seen.append(x_prev) or fx)
        seen.clear()
        frames, ob = state(xs, [0b100])
        assert rule_conflict(frames, ob, F, ALPHA, H) == 2  # X_3 is met
        assert seen == [0b011]  # X_2 at i = 3, lemma F(X_2) = {0, 1}
        assert frames == [0, 0b001, 0b011, 0b011] and ob == []
        frames, ob = state(xs, [0b100, 0b100])
        assert rule_conflict(frames, ob, F, ALPHA, H) == 2  # no frame is met
        assert seen == [0b011, 0b001]  # X_1 at i = 2; X_2 is already below F(X_1)
        assert frames == xs and ob == [0b100]
        assert index(frames, ob) == 3

    def test_decide_prepends_predecessor(self, F, H):
        xs, ob = state([0, 0b001, 0b111], [0b010])
        assert rule_decide(xs, ob, F, ALPHA_P, H) == PUSHED
        assert ob == [0b010, 0b001]
        assert index(xs, ob) == 1

    def test_decide_guard_fails_for_unreachable(self, F, H):
        xs, ob = state([0, 0b001, 0b111], [0b100])
        assert rule_decide(xs, ob, F, ALPHA, H) is None
        assert ob == [0b100]

    def test_decide_absent_without_obligations(self, F, H):
        assert rule_decide(*state([0, 0b001]), F, ALPHA, H) is None

    def test_conflict_strengthens_and_pops(self, F, H):
        xs, ob = state([0, 0b001, 0b111], [0b100])
        assert rule_conflict(xs, ob, F, ALPHA, H) == 1
        assert xs == [0, 0b001, 0b011]
        assert ob == []

    def test_conflict_deeper_frame(self, F, H):
        xs, ob = state([0, 0b001, 0b011, 0b111], [0b100])
        assert rule_conflict(xs, ob, F, ALPHA, H) == 2
        assert xs == [0, 0b001, 0b011, 0b011]
        assert rule_valid(xs, ob, F, ALPHA).verdict is Verdict.TRUE

    def test_conflict_guard_disjoint_from_decide(self, F, H):
        xs, ob = state([0, 0b001, 0b111], [0b010])
        assert rule_conflict(xs, ob, F, ALPHA_P, H) is None
        assert (xs, ob) == ([0, 0b001, 0b111], [0b010])

    def test_guard_partition(self, F, H):
        # For any pending head exactly one of Decide/Conflict applies.
        for head in (0b010, 0b100):
            fired = [rule(*state([0, 0b001, 0b111], [head]), F, ALPHA, H)
                     for rule in (rule_decide, rule_conflict)]
            assert sum(x is not None for x in fired) == 1


class TestCombined:
    def test_safe_trace_matches_reference(self, k1):
        # alpha = {0, 1} is inductive, so alpha itself is the lemma at the
        # first step with X_{n-1} !<= alpha, and again after the next Unfold.
        trace = []
        ans = solve(forward(k1), trace=trace.append, debug=True)
        assert ans.verdict is Verdict.TRUE
        assert [line.split()[1] for line in trace] == [
            "rule=unfold", "rule=induction", "rule=unfold", "rule=induction",
            "rule=valid"]

    def test_safe_trace_with_a_bound_that_is_not_inductive(self, k1):
        # k1 plus state 3 -> 2: state 3 is safe and unreachable, but its
        # unsafe successor puts 2 into F(alpha), so alpha is not inductive.
        # F(X_{n-2}) <= alpha after each Unfold, so a Candidate would be
        # refuted; the engine applies F(X_{n-2}) as Induction instead.
        K = dataclasses.replace(k1, state_count=4,
                                transitions=k1.transitions | {(3, 2)}, safe=0b1011)
        trace = []
        ans = solve(forward(K), trace=trace.append, debug=True)
        assert ans.verdict is Verdict.TRUE
        assert [line.split()[1] for line in trace] == [
            "rule=unfold", "rule=induction", "rule=unfold", "rule=induction",
            "rule=valid"]
        assert ans.kt_witness.elements == (0, 0b0001, 0b0011, 0b0011)

    def test_unsafe_witness(self, k1):
        K = dataclasses.replace(k1, safe=ALPHA_P)
        ans = solve(forward(K), debug=True)
        assert ans.verdict is Verdict.FALSE
        assert ans.kleene_witness.elements == (0, 0b001, 0b010)

    def test_empty_initial_is_immediately_true(self, k1):
        K = dataclasses.replace(k1, initial=0)
        ans = solve(forward(K))
        assert ans.verdict is Verdict.TRUE
        assert ans.stats.steps == 1

    def test_budget_must_be_positive(self, F, H):
        with pytest.raises(ValueError):
            run_combined(F, ALPHA, H, budget=0)

    def test_stats_counts_sum_to_steps(self, k1):
        ans = solve(forward(k1))
        assert sum(ans.stats.rule_counts.values()) == ans.stats.steps

    def test_heuristic_violation_aborts(self, F):
        # ALPHA_P = {0} is not inductive (F({0}) = {0, 1}), so Candidate runs.
        bad = HeuristicsBundle(
            choose_candidate=lambda last, alpha: 0,  # bottom <= alpha
            choose_decide=lambda xp, c: None,
            choose_conflict=lambda xp, c, fx: None)
        with pytest.raises(HeuristicViolation):
            run_combined(F, ALPHA_P, bad, budget=50)

    def test_canonical_heuristics_are_always_admissible(self, F):
        # ALPHA is inductive and closes by Induction; ALPHA_P is not, and
        # Candidate, Decide and Conflict run.
        ans = run_combined(F, ALPHA, canonical_heuristics(), debug=True)
        assert ans.verdict is Verdict.TRUE
        ans = run_combined(F, ALPHA_P, canonical_heuristics(), debug=True)
        assert ans.verdict is Verdict.FALSE


def _two_unsafe_states():
    """Unsafe states 0 and 5, of which only 5 is reachable (2 -> 5).  After
    the first Unfold ``F(X_1) !<= alpha``, and Candidate takes the lowest
    state outside ``alpha``, the unreachable 0, so Conflict runs."""
    return forward(parse_kripke(
        "states 7\ninit 2 3 4\nsafe 1 2 3 4 6\ntrans\n1 4\n2 5\n"))


def _corpus_model(name: str):
    """The model in the corpus file ``name`` and the ``Instance`` builders of
    the kinds that read its suffix, in the order of ``cli.KINDS``."""
    kinds = [spec for spec in KINDS.values() if name.endswith(spec.suffix)]
    with open(os.path.join(MODELS_DIR, name)) as fh:
        return kinds[0].parse(fh.read()), [spec.build for spec in kinds]


def _model_instance(name: str):
    """The one instance of an ``.mdp`` or ``.mrm`` corpus file."""
    model, (build,) = _corpus_model(name)
    return build(model)


def _whole_frame_candidate(inst):
    """``inst`` with a Candidate that takes all of ``X_{n-1}``.  Decide
    refutes it whenever ``X_{n-1} !<= F(X_{n-2})``, so Conflict runs where
    ``F(X_{n-2}) !<= alpha`` and the bundle's own Candidate is decided."""
    return dataclasses.replace(inst, bundle=dataclasses.replace(
        inst.bundle, choose_candidate=lambda last, alpha: last))


def _count_images(monkeypatch) -> list:
    """Record the argument of every ``F`` call from now on."""
    calls = []
    call = Transformer.__call__
    monkeypatch.setattr(Transformer, "__call__",
                        lambda self, x: calls.append(x) or call(self, x))
    return calls


class TestConflictLemma:
    """``rule_conflict`` re-images no lemma that is the engine's own
    ``F(X_{i-1})``, and every other lemma in full."""

    @pytest.mark.parametrize("lemma", ["top", "bot"])
    @pytest.mark.parametrize("model", ["kripke", "grid3x3.mdp"])
    def test_a_lemma_breaking_its_contract_aborts(self, model, lemma):
        # top breaks C_i !<= x; bot breaks F(X_{i-1} /\ x) <= x, as F(bot)
        # is the initial set, and 1 at the grid's unsafe states.
        inst = (_two_unsafe_states() if model == "kripke"
                else _whole_frame_candidate(_model_instance(model)))
        x = getattr(inst.F.lattice, lemma)
        bundle = dataclasses.replace(inst.bundle, choose_conflict=lambda xp, c, fx: x)
        with pytest.raises(HeuristicViolation):
            run_combined(inst.F, inst.alpha, bundle, budget=50)

    @pytest.mark.parametrize("name", ["grid3x3.mdp", "die_by_coin_tight.mrm"])
    def test_a_copy_of_the_canonical_lemma_takes_the_full_check(self, name,
                                                                monkeypatch):
        calls = _count_images(monkeypatch)
        ans = solve(_whole_frame_candidate(_model_instance(name)))
        canonical = len(calls)
        inst = _whole_frame_candidate(_model_instance(name))
        copying = dataclasses.replace(
            inst.bundle, choose_conflict=lambda xp, c, fx: tuple(list(fx)))
        calls.clear()
        again = run_combined(inst.F, inst.alpha, copying)
        assert ans.stats.rule_counts["conflict"] == 1
        assert len(calls) == canonical + 1  # one re-image per Conflict
        assert (again.verdict, again.kt_witness, again.kleene_witness) == (
            ans.verdict, ans.kt_witness, ans.kleene_witness)
        assert (again.stats.steps, again.stats.rule_counts, again.stats.frame_count) == (
            ans.stats.steps, ans.stats.rule_counts, ans.stats.frame_count)

    @pytest.mark.parametrize("name, images, repeats", [
        ("grid3x3.mdp", 15, 0), ("die_by_coin.mrm", 6, 0)])
    def test_images_per_solve_are_pinned(self, name, images, repeats, monkeypatch):
        # The grid's solve applies the canonical lemma F(X_{n-2}) as
        # Induction 3 times, where Candidate would have been refuted, and the
        # reward model's once, after the lemma its proposer solved for;
        # re-imaging it would make 18 and 7 calls.  A repeat, the same object
        # imaged twice in a row, would be Decide's re-check of an element
        # the Decide choice had just imaged; the transformer keeps no memo.
        # The grid's four Decides, three of them slack, return the frame
        # restricted to the support without imaging it, so the engine's
        # re-check is that element's only image.
        calls = _count_images(monkeypatch)
        solve(_model_instance(name))
        assert len(calls) == images
        assert sum(x is y for x, y in zip(calls, calls[1:])) == repeats


class TestCanonicalInduction:
    """With no obligation pending, ``X_{n-1} !<= alpha`` and ``F(X_{n-2}) <=
    alpha``, Decide would refute every Candidate, and Conflict would meet
    ``F(X_{n-2})`` into the frames; the engine applies that lemma as one
    Induction instead."""

    @pytest.mark.parametrize("build, draw, oracle, thresholds", [
        (max_reach, random_mdp, vi_max_reach,
         lambda v: (max(v - 0.1, v / 2), min(v + 0.1, 1.0))),
        (expected_reward, random_mrm, vi_expected_reward, lambda v: (0.9 * v, 1.1 * v))])
    def test_a_candidate_is_never_refuted(self, build, draw, oracle, thresholds):
        rng = random.Random(19)
        followers = set()
        for _ in range(60):
            M = draw(rng)
            value = oracle(M).value
            if not 1e-6 < value < math.inf:
                continue
            for lam in thresholds(value):
                trace = []
                solve(build(dataclasses.replace(M, threshold=lam)), trace=trace.append,
                      budget=2000, debug=True)
                rules = [line.split()[1] for line in trace]
                followers.update(b for a, b in zip(rules, rules[1:]) if a == "rule=candidate")
        assert followers == {"rule=decide", "rule=model"}

    def test_the_canonical_lemma_is_not_re_imaged(self):
        # Only a lemma that is the caller's F(X_{k-1}) object skips the
        # guard's image: an equal copy of it is imaged in full.
        F = _model_instance("m1.mdp").F
        lat = F.lattice
        frames = [lat.bot, F(lat.bot), lat.top]
        fx = F(frames[1])
        calls = []
        counted = Transformer(lat, lambda x: calls.append(x) or F.fn(x))
        strengthened = [lat.bot, frames[1], fx]
        xs = list(frames)
        assert rule_induction(xs, [], counted, None, 2, fx, fx) == 1 and xs == strengthened
        assert calls == []
        xs = list(frames)
        assert rule_induction(xs, [], counted, None, 2, tuple(list(fx)), fx) == 1
        assert xs == strengthened
        assert calls == [lat.meet(frames[1], fx)]


class TestInductionSchedule:
    """The bundle's proposer is asked only on the step right after an
    Unfold, and never again once one of its lemmas has been applied."""

    @staticmethod
    def _events(inst, propose):
        """Solve ``inst`` with ``propose`` as its proposer; the events in
        order: ``("ask", proposal)`` per call, ``("rule", name)`` per step."""
        events = []

        def ask(xs):
            out = propose(xs)
            events.append(("ask", out))
            return out

        bundle = dataclasses.replace(inst.bundle, choose_induction=ask)
        solve(dataclasses.replace(inst, bundle=bundle), budget=2000, debug=True,
              trace=lambda line: events.append(("rule", line.split()[1][5:])))
        return events

    @staticmethod
    def _check(events) -> bool:
        """Assert the schedule on ``events``; whether a proposal applied."""
        none = [(None, None)]
        applied = False
        for prev, (kind, what), (_, then) in zip(none + events, events, events[1:] + none):
            if kind == "ask":
                assert prev == ("rule", "unfold") and not applied
                applied = what is not None and then == "induction"
        return applied

    def test_a_lemma_that_applies_is_its_last(self, k1):
        # The reachable set {0, 1} is a prefixed point below alpha; alpha
        # itself is not inductive, so the proposer is asked after the first
        # Unfold, and its lemma applies.
        K = dataclasses.replace(k1, state_count=4,
                                transitions=k1.transitions | {(3, 2)}, safe=0b1011)
        events = self._events(forward(K), lambda xs: (len(xs) - 1, 0b0011))
        assert events == [("rule", "unfold"), ("ask", (2, 0b0011)),
                          ("rule", "induction"), ("rule", "unfold"),
                          ("rule", "induction"), ("rule", "valid")]
        assert self._check(events)

    @pytest.mark.parametrize("build, draw, oracle, thresholds", [
        (max_reach, random_mdp, vi_max_reach,
         lambda v: (max(v - 0.1, v / 2), min(v + 0.1, 1.0))),
        (expected_reward, random_mrm, vi_expected_reward, lambda v: (0.9 * v, 1.1 * v))])
    def test_the_pointwise_proposer_is_asked_after_unfold(self, build, draw,
                                                          oracle, thresholds):
        rng = random.Random(23)
        asked = applied = 0
        for _ in range(40):
            M = draw(rng)
            value = oracle(M).value
            if not 1e-6 < value < math.inf:
                continue
            for lam in thresholds(value):
                inst = build(dataclasses.replace(M, threshold=lam))
                events = self._events(inst, inst.bundle.choose_induction)
                applied += self._check(events)
                asked += sum(kind == "ask" for kind, _ in events)
        assert applied and asked > applied


class TestSolve:
    def test_engines_on_one_instance(self, k1):
        inst = forward(k1)
        assert solve(inst).verdict is Verdict.TRUE
        assert solve(inst, "positive").verdict is Verdict.TRUE
        assert solve(inst, "negative", budget=50).verdict is Verdict.STUCK
        assert solve(forward(dataclasses.replace(k1, safe=ALPHA_P)),
                     "negative").verdict is Verdict.FALSE

    def test_every_instance_has_every_engine(self, k1):
        unsafe = dataclasses.replace(k1, safe=ALPHA_P)
        for build in KRIPKE_BUILDS:
            assert solve(build(k1), "negative").verdict is Verdict.STUCK
            assert solve(build(unsafe), "negative", debug=True).verdict is Verdict.FALSE

    @pytest.mark.parametrize("engine_name, lam, verdict", [
        ("combined", 6, Verdict.TRUE), ("combined", 3, Verdict.FALSE),
        ("positive", 6, Verdict.TRUE), ("positive", 3, Verdict.STUCK),
        ("negative", 6, Verdict.STUCK), ("negative", 3, Verdict.FALSE)])
    def test_a_lattice_needs_only_its_order_and_meet(self, engine_name, lam, verdict):
        """A lattice with ``bot``, ``top``, ``leq`` and ``meet`` alone, the
        ints 0..10 in their order, runs every engine with the canonical
        choices; ``mu F`` is 5."""

        class Chain(Lattice):
            bot, top = 0, 10

            def leq(self, a, b):
                return a <= b

            def meet(self, a, b):
                return min(a, b)

        F = Transformer(Chain(), lambda x: min(x + 1, 5))
        ans = solve(Instance(F, lam, canonical_heuristics()), engine_name, debug=True)
        assert ans.verdict is verdict

    @pytest.mark.parametrize("name", sorted(os.listdir(MODELS_DIR)))
    def test_a_trace_sink_changes_nothing(self, name):
        """A traced run has the untraced run's verdict, steps, frame count
        and rule counts, in the order of first application that ``--json``
        prints, and traces one line per applied rule."""
        model, builds = _corpus_model(name)
        for build in builds:
            for engine_name in ("combined", "positive", "negative"):
                runs, lines = [], []
                for trace in (None, lines.append):
                    ans = solve(build(model), engine_name, budget=2000, trace=trace)
                    runs.append((ans.verdict, ans.stats.steps, ans.stats.frame_count,
                                 list(ans.stats.rule_counts.items())))
                assert runs[0] == runs[1], (build.__name__, engine_name)
                verdict, steps, _, counts = runs[0]
                assert len(lines) == steps - (verdict is Verdict.STUCK)
                traced = {}
                for line in lines:
                    rule = line.split()[1].removeprefix("rule=")
                    traced[rule] = traced.get(rule, 0) + 1
                assert list(traced.items()) == counts

    def test_unknown_engine_rejected(self, k1):
        with pytest.raises(ValueError):
            solve(forward(k1), "fuzz")

    def test_building_an_instance_calls_no_transformer(self, k1, monkeypatch):
        calls = []
        call = Transformer.__call__
        monkeypatch.setattr(Transformer, "__call__",
                            lambda self, x: calls.append(x) or call(self, x))
        rng = random.Random(3)
        models = {".kr": k1, ".mdp": random_mdp(rng), ".mrm": random_mrm(rng)}
        for spec in KINDS.values():
            spec.build(models[spec.suffix])
        assert calls == []


class TestPositive:
    """The combined engine with no Candidate, Decide or Induction proposer:
    only the engine's own lemmas, ``alpha`` and ``F(X_{n-2})``, apply."""

    def test_safe_with_join_proposer(self, k1):
        ans = solve(forward(k1), "positive", debug=True)
        assert ans.verdict is Verdict.TRUE

    def test_unsafe_is_stuck(self, k1):
        # Unfold, then X_2 = top exceeds {0}.  Neither alpha nor the
        # canonical lemma F(X_1) = {0, 1} is below {0}, so no rule applies
        # on step 2.
        ans = solve(forward(dataclasses.replace(k1, safe=ALPHA_P)), "positive",
                    budget=200, debug=True)
        assert ans.verdict is Verdict.STUCK
        assert ans.stats.steps == 2
        assert ans.stats.rule_counts == {"unfold": 1}

    def test_empty_initial_immediate(self, k1):
        K = dataclasses.replace(k1, initial=0)
        ans = solve(forward(K), "positive", budget=10)
        assert ans.verdict is Verdict.TRUE

    def test_no_proposer_still_progresses_by_unfold(self, k1):
        # With alpha = top every frame is below alpha, so Unfold always
        # applies and no Induction lemma is tried.
        ans = solve(forward(dataclasses.replace(k1, safe=0b111)), "positive", budget=50)
        assert ans.verdict is Verdict.TRUE
        assert "induction" not in ans.stats.rule_counts

    def test_proposer_images_only_the_last_frames(self):
        # Draw #56 of random_differential.py --seed 1 at 1.1x its value: a
        # safe reward model that takes the positive engine 2,175 steps.  The
        # canonical lemma images only X_{n-2}, and Induction does not re-image
        # it, so the F calls must not grow with the frame count.
        rng = random.Random(1)
        for _ in range(200):
            random_kripke(rng)
        for _ in range(50):
            random_mdp(rng)
        for _ in range(57):
            M = random_mrm(rng)
        M = dataclasses.replace(M, threshold=1.1 * vi_expected_reward(M).value)
        inst = expected_reward(M)
        calls = [0]

        def counted(x):
            calls[0] += 1
            return inst.F.fn(x)

        F = Transformer(inst.F.lattice, counted)
        ans = solve(dataclasses.replace(inst, F=F), "positive")
        assert ans.verdict is Verdict.TRUE
        assert calls[0] <= 2 * ans.stats.steps


class TestNegative:
    def test_unsafe_finds_counterexample(self, k1):
        # Iterate to F^2(bot) = {0,1}, Candidate {1}, Decide {0}, Model.
        lines = []
        F = forward_transformer(k1)
        ans = run_negative(F, ALPHA_P, forward(k1).bundle, debug=True, trace=lines.append)
        assert ans.verdict is Verdict.FALSE
        assert ans.kleene_witness.elements == (0, 0b001, 0b010)
        assert [line.split()[1] for line in lines] == [
            "rule=iterate", "rule=candidate", "rule=decide", "rule=model"]

    def test_alpha_top_is_stuck(self, k1):
        F = forward_transformer(k1)
        ans = run_negative(F, 0b111, forward(k1).bundle, budget=50)
        assert ans.verdict is Verdict.STUCK

    def test_safe_is_stuck_once_the_iterates_repeat(self, k1):
        F = forward_transformer(k1)
        ans = run_negative(F, ALPHA, forward(k1).bundle, budget=100)
        assert ans.verdict is Verdict.STUCK
        assert ans.stats.rule_counts == {"iterate": 1} and ans.stats.steps == 2

    def test_safe_exhausts_budget(self):
        # F(x)(0) = x(0) / 2 + 1/4 climbs towards the value 1/2 < 0.6 and
        # repeats in floating point only after 54 iterates.
        M = parse_mdp("states 3\nactions 1\ninit 0\nlambda 0.6\nsafe 0 1\ntrans\n"
                      "0 0 -> 0:0.5 1:0.25 2:0.25\n1 0 -> 1:1\n2 0 -> 2:1\n")
        ans = solve(max_reach(M), "negative", budget=20)
        assert ans.verdict is Verdict.BUDGET_EXHAUSTED
        assert ans.stats.rule_counts == {"iterate": 20}

    def test_bad_candidate_rejected(self, k1):
        F = forward_transformer(k1)
        bad = HeuristicsBundle(choose_candidate=lambda last, alpha: 0,
                               choose_decide=lambda xp, c: None)
        with pytest.raises(HeuristicViolation):
            run_negative(F, ALPHA_P, bad, budget=10)

    def test_bad_decide_rejected(self, k1):
        F = forward_transformer(k1)
        bad = dataclasses.replace(forward(k1).bundle, choose_decide=lambda xp, c: 0b111)
        with pytest.raises(HeuristicViolation):
            run_negative(F, ALPHA_P, bad, budget=10)

    def test_debug_checks_every_configuration(self, k1, monkeypatch):
        # The shared per-step checker, as in the combined engine: on the
        # initial configuration and after every step that changes it, told
        # the fresh frame pairs of the step's edit, (0, 0) for a push.
        checked = []
        check = engine._InvariantChecker.check

        def record(self, xs, ob, *edit):
            checked.append((tuple(xs), tuple(ob), edit))
            return check(self, xs, ob, *edit)

        monkeypatch.setattr(engine._InvariantChecker, "check", record)
        F = forward_transformer(k1)
        lines = []
        ans = run_negative(F, ALPHA_P, forward(k1).bundle, debug=True,
                           trace=lines.append)
        assert ans.verdict is Verdict.FALSE
        assert checked == [((0, 0b001), (), ()), ((0, 0b001, 0b011), (), (1, 2)),
                           ((0, 0b001, 0b011), (0b010,), (0, 0)),
                           ((0, 0b001, 0b011), (0b010, 0b001), (0, 0))]
        assert len(checked) == len(lines)  # the last, Model, changes nothing

    def test_no_decide_choice_is_stuck(self, k1):
        F = forward_transformer(k1)
        none = dataclasses.replace(forward(k1).bundle, choose_decide=lambda xp, c: None)
        assert run_negative(F, ALPHA_P, none).verdict is Verdict.STUCK


class InvolutionViolation(LatticeError):
    """A claimed involution failed ``neg(neg(x)) == x`` on a sampled x."""


def involution_reduce(F_core: Transformer, iota, alpha, neg) -> tuple[Transformer, object]:
    """Turn the under-approximation problem ``iota <= nu x. alpha /\\ F_core(x)``
    into an equivalent least-fixed-point bound via an order-reversing
    self-inverse ``neg``, yielding ``(x -> neg(alpha /\\ F_core(neg x)), neg iota)``.
    """
    lat = F_core.lattice
    for sample in (lat.bot, lat.top, iota, alpha):
        if not lat.eq(neg(neg(sample)), sample):
            raise InvolutionViolation("neg is not self-inverse on sampled elements")

    def fn(x):
        return neg(lat.meet(alpha, F_core(neg(x))))

    return Transformer(lat, fn), neg(iota)


class TestDualization:
    def _gfp_instance(self, K):
        Fb = backward_transformer(K)
        lat = Fb.lattice
        return Transformer(lat, lambda A: K.safe & Fb(A))

    def test_dual_answers_match_forward(self, k1):
        G = self._gfp_instance(k1)
        G_op, alpha_op = dualize(G, k1.initial)
        ans = run_combined(G_op, alpha_op, canonical_heuristics())
        assert ans.verdict is Verdict.TRUE

        K = dataclasses.replace(k1, safe=ALPHA_P)
        G2 = self._gfp_instance(K)
        G2_op, alpha2 = dualize(G2, K.initial)
        ans2 = run_combined(G2_op, alpha2, canonical_heuristics())
        assert ans2.verdict is Verdict.FALSE

    def test_dual_with_alpha_top(self, k1):
        K = dataclasses.replace(k1, safe=0b111)
        G = self._gfp_instance(K)
        G_op, alpha_op = dualize(G, K.initial)
        ans = run_combined(G_op, alpha_op, canonical_heuristics())
        assert ans.verdict is Verdict.TRUE

    def test_dualize_requires_join(self):
        from ltpdr.lattice import Lattice

        class MeetOnly(Lattice):
            bot, top = 0, 1

            def leq(self, a, b):
                return a <= b

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
        assert initial_config(F) == ([0, 0b001], [])

    # (frames, obligations, edit) of a corrupted config reached from the
    # valid chain (0, 1, 3, 3, 7): each replaces frames, which the edit
    # (lo, hi) names as X_{lo+1} .. X_hi, except the last, which pushes two
    # obligations, the head {2} not below its frame.
    CORRUPTED = {
        "not ascending": ([0, 0b001, 0b111, 0b011, 0b111], [], (1, 2)),
        "not a prefixed point": ([0, 0b001, 0b001, 0b011, 0b111], [], (1, 2)),
        "bound": ([0, 0b001, 0b011, 0b111, 0b111], [], (2, 3)),
        "below F^i(bot)": ([0, 0, 0, 0b011, 0b111], [], (0, 2)),
        "prefix": ([0, 0b011, 0b011, 0b011, 0b111], [], (0, 2)),
        "obligation": ([0, 0b001, 0b011, 0b011, 0b111], [0b100, 0b100], (0, 0)),
    }

    @pytest.mark.parametrize("case", sorted(CORRUPTED))
    def test_checker_catches_a_corrupted_changed_frame(self, F, case):
        checker = engine._InvariantChecker(F, ALPHA)
        checker.check(*state([0, 0b001, 0b011, 0b011, 0b111]))
        xs, ob, edit = self.CORRUPTED[case]
        with pytest.raises(EngineInvariantError):
            checker.check(*state(xs, ob), *edit)

    def test_the_checker_reads_each_edit(self, k1, monkeypatch):
        # The rules edit the run's lists in place, so the configuration the
        # checker saw last is the very list it is given next: only the edit
        # tells it what changed.  A meet of X_{k-1} in place of the lemma
        # leaves F(X_1) = {0, 1} above X_2 = {0} at step 2; the budget ends
        # the run there, before the final check could see it.
        def bad_strengthen(lat, xs, k, x):
            xs[k] = lat.meet(xs[k], xs[k - 1])
            return k - 1

        monkeypatch.setattr(engine, "_strengthen", bad_strengthen)
        F = forward_transformer(k1)
        with pytest.raises(EngineInvariantError):
            run_combined(F, ALPHA, forward(k1).bundle, budget=2, debug=True)
        assert run_combined(F, ALPHA, forward(k1).bundle, budget=2).verdict is (
            Verdict.BUDGET_EXHAUSTED)

    def test_the_checker_trusts_the_reported_edit(self, k1, monkeypatch):
        # A rule that writes a frame outside the range it returns passes the
        # per-step checks: here the kept frame X_j becomes bottom, breaking
        # F(X_{j-1}) <= X_j, while the edit names only X_{j+1} .. X_k.  Only
        # _finalize rescans the chain, and this run never answers, so debug
        # mode misses the break; told the true range, the checker sees it.
        strengthen, broken = engine._strengthen, []

        def lying_strengthen(lat, xs, k, x):
            j = strengthen(lat, xs, k, x)
            if j >= 2:
                xs[j] = lat.bot
                broken.append((list(xs), j))
            return j

        monkeypatch.setattr(engine, "_strengthen", lying_strengthen)
        F = forward_transformer(k1)
        answer = run_combined(F, ALPHA, forward(k1).bundle, budget=4, debug=True)
        assert answer.verdict is Verdict.BUDGET_EXHAUSTED
        [(xs, j)] = broken
        checker = engine._InvariantChecker(F, ALPHA)
        checker.check(*state(xs), j, len(xs) - 1)
        with pytest.raises(EngineInvariantError):
            checker.check(*state(xs), j - 1, len(xs) - 1)

    def test_checker_skips_unchanged_frames(self, F):
        calls = []

        def counted(A):
            calls.append(A)
            return F(A)

        checker = engine._InvariantChecker(Transformer(F.lattice, counted), ALPHA)
        xs = [0, 0b001, 0b011, 0b011, 0b111]
        checker.check(*state(xs))
        calls.clear()
        checker.check(*state(xs), 0, 0)  # an edit that replaced no frame
        assert calls == []
        # A new last frame touches one pair: one F call, on X_3.
        checker.check(*state(xs[:4] + [0b011]), 3, 4)
        assert calls == [0b011]

    @pytest.mark.parametrize("which", ["negative", "combined"])
    def test_checker_images_each_new_obligation_once(self, which):
        # Re-testing the whole obligation chain on every step made the debug
        # F calls grow with the square of the counterexample's length.
        n = 200
        K = KripkeStructure(n, frozenset((i, min(i + 1, n - 1)) for i in range(n)),
                            1, (1 << n - 1) - 1)

        def f_calls(debug):
            inst, calls = forward(K), []
            F = Transformer(inst.F.lattice, lambda x: calls.append(x) or inst.F(x))
            ans = solve(dataclasses.replace(inst, F=F), which, debug=debug)
            assert ans.verdict is Verdict.FALSE
            return len(calls)

        assert f_calls(True) < 3 * f_calls(False)

    def test_final_check_rescans_the_whole_chain(self, F):
        # The per-step checker trusts unchanged frames; the final check in
        # debug mode does not.  The negative certificate is valid, so only
        # the frame chain (not ascending at X_2) can fail.
        witness = KleeneSequence((0, 0b001, 0b010), 0)
        ans = engine.PDRAnswer(Verdict.FALSE, kleene_witness=witness)
        broken = (0, 0b001, 0b111, 0b011)
        stats = engine.RunStats()
        engine._finalize(ans, stats, F, ALPHA_P, 0.0, broken)
        with pytest.raises(EngineInvariantError):
            engine._finalize(ans, stats, F, ALPHA_P, 0.0, broken, debug=True)


class TestValidScan:
    """Valid is re-checked only on the frame pairs the last edit could have
    made conclusive, and ``F(X_j)`` is reused while no edit replaced
    ``X_j``.  A full scan -- every pair of the chain on every step, with
    ``F`` evaluated afresh -- must give the same verdicts, rule counts,
    steps, frames and trace lines.  The runner calls Valid only after an
    edit of the frames, so the full scan also follows each Candidate and
    Decide, and must fail there."""

    @staticmethod
    def _forward_with_induction(K):
        """``forward(K)`` with a proposer of ``X_{n-2} v F(X_{n-2})`` for the
        last frame once it exceeds alpha, so that proposer-driven Induction
        is scanned too."""
        inst = forward(K)
        F, alpha, lat = inst.F, inst.alpha, inst.F.lattice

        def propose(xs):
            if lat.leq(xs[-1], alpha):
                return None
            return (len(xs) - 1, lat.join(xs[-2], F(xs[-2])))

        return dataclasses.replace(inst, bundle=dataclasses.replace(
            inst.bundle, choose_induction=propose))

    @classmethod
    def _combined_solves(cls):
        solves = []
        for name in sorted(os.listdir(MODELS_DIR)):
            model, builds = _corpus_model(name)
            solves += [(build, model, {}) for build in builds]
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

        def restricted(xs, ob, F, alpha, lo=0, hi=None):
            pairs[-1] += (len(xs) - 1 if hi is None else hi) - lo
            return rule_valid(xs, ob, F, alpha, lo, hi)

        monkeypatch.setattr(engine, "rule_valid", restricted)
        outcomes = []
        for case in solves:
            pairs.append(0)
            outcomes.append(cls._run(*case))
        restricted_pairs = sum(pairs)

        scans, missed = [], []

        def full_scan(xs, ob, F, alpha, lo=0, hi=None):
            scans[-1] += 1
            pairs[-1] += len(xs) - 1
            return rule_valid(xs, ob, F, alpha)

        def then_scan(push):
            def pushed(xs, ob, F, alpha, *args):
                edit = push(xs, ob, F, alpha, *args)
                if edit is not None and full_scan(xs, ob, F, alpha) is not None:
                    missed.append(len(xs))
                return edit
            return pushed

        monkeypatch.setattr(engine, "rule_valid", full_scan)
        for name in ("rule_candidate", "rule_decide"):
            monkeypatch.setattr(engine, name, then_scan(getattr(engine, name)))
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
        assert missed == []
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
        for rule in ("unfold", "induction", "valid"):
            assert sum(r.get(rule, 0) for r in rules) > 0


class TestStrengthen:
    """Conflict and Induction meet ``x`` only into the frames above the
    highest ``X_j <= x``; on an ascending chain that is the full meet."""

    @staticmethod
    def _lattices():
        pool01 = [0.0, above(0.0), 0.5, above(0.5), 1.0]
        pool_inf = pool01[:4] + [2.0, above(2.0), math.inf]
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
            ys = list(xs)
            j0 = engine._strengthen(lat, ys, k, x)  # the highest frame kept
            assert not any(lat.leq(a, x) for a in met)
            assert len(ys) == n and 1 <= j0 <= k
            for j in range(n):
                if not 2 <= j <= k:
                    assert ys[j] is xs[j]
                    continue
                assert ys[j] == full_meet(xs[j], x)
                if lat.leq(xs[j], x):
                    assert ys[j] is xs[j] and j <= j0
                    kept += 1
                else:
                    assert j > j0
                    changed += 1
        assert kept > 0 and changed > 0
