"""Transformers and solver instantiations for explicit-state models."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import KRIPKE_BUILDS
from ltpdr.engine import Verdict, canonical_heuristics, run_combined, solve
from ltpdr.kripke import (
    KripkeStructure,
    SubsetLattice,
    _image,
    backward_transformer,
    forward,
    forward_transformer,
    inverse_backward,
    inverse_backward_transformer,
    opdual,
)
from ltpdr.lattice import Transformer
from ltpdr.oracles import bfs_safe
from util import random_kripke


class TestForwardTransformer:
    def test_empty_gives_initial(self, k1):
        assert forward_transformer(k1)(0) == 0b001

    def test_adds_successors(self, k1):
        assert forward_transformer(k1)(0b001) == 0b011

    def test_full_is_fixed(self, k1):
        assert forward_transformer(k1)(0b111) == 0b111


class TestBackwardTransformer:
    def test_full_set_is_fixed(self, k1):
        assert backward_transformer(k1)(0b111) == 0b111

    def test_universal_predecessors(self, k1):
        # Successors: 0 -> {1}, 1 -> {1}, 2 -> {2}; only 0 and 1 lead into {1}.
        assert backward_transformer(k1)(0b010) == 0b011

    def test_empty_collects_deadlocks(self, k1):
        assert backward_transformer(k1)(0) == 0


class TestInverseBackwardTransformer:
    def test_empty_gives_unsafe(self, k1):
        assert inverse_backward_transformer(k1)(0) == 0b100

    def test_existential_predecessors(self, k1):
        assert inverse_backward_transformer(k1)(0b010) == 0b111

    def test_complement_duality_exhaustive(self, k1):
        ib = inverse_backward_transformer(k1)
        bw = backward_transformer(k1)
        full = 0b111
        for A in range(8):
            assert ib(A) == full & ~(k1.safe & bw(full & ~A))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_duality_on_random_small_models(seed):
    rng = random.Random(seed)
    K = random_kripke(rng, max_states=5)
    ib = inverse_backward_transformer(K)
    bw = backward_transformer(K)
    full = K.full_mask
    for A in range(full + 1):
        assert ib(A) == full & ~(K.safe & bw(full & ~A))


def _union_per_bit(masks, A):
    out = 0
    for s in range(len(masks)):
        if A >> s & 1:
            out |= masks[s]
    return out


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 300])
def test_image_matches_per_bit_union(n):
    # The image remembers its last argument, so the order of the arguments
    # matters: random ones mostly reset the memo, a growing chain (as the
    # frames grow) extends it, a subset after a superset must reset it, and
    # a repeated argument must return the remembered image unchanged.
    rng = random.Random(n)
    top = (1 << n) - 1
    for density in (0.0, 2 / n, 0.3):
        masks = tuple(sum(1 << b for b in range(n) if rng.random() < density)
                      for _ in range(n))
        image = _image(masks)
        samples = [0, top] + [rng.getrandbits(n) for _ in range(40)] \
            + [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
               for _ in range(40)]
        chain = [0]
        for _ in range(12):
            chain.append(chain[-1] | rng.getrandbits(n) & rng.getrandbits(n))
        samples += chain + [top, chain[3], chain[3], chain[-1], chain[5]]
        for A in samples:
            expected = _union_per_bit(masks, A)
            assert image(A) == expected
            assert image(A) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_backward_matches_definition(seed):
    # backward(A) = {s : succ[s] <= A}, on structures where the states of
    # ``dead`` have no successor and so belong to every backward(A).
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    dead = rng.getrandbits(n)
    edges = frozenset((a, b) for a in range(n) for b in range(n)
                      if not dead >> a & 1 and rng.random() < 0.3)
    K = KripkeStructure(n, edges, initial=1, safe=(1 << n) - 1)
    bw = backward_transformer(K)
    for A in [0, K.full_mask] + [rng.getrandbits(n) for _ in range(30)]:
        expected = sum(1 << s for s in range(n) if K.succ[s] & ~A == 0)
        assert bw(A) == expected
        assert bw(A) & dead == dead


def unsafe_chain(n: int) -> KripkeStructure:
    """States 0 -> 1 -> ... -> n-1, initial {0}, only n-1 unsafe."""
    return KripkeStructure(n, frozenset((i, i + 1) for i in range(n - 1)),
                           initial=1, safe=((1 << n) - 1) & ~(1 << (n - 1)))


@pytest.mark.parametrize("build", [forward, inverse_backward])
def test_unsafe_chain_search_is_pinned(build, monkeypatch):
    # The exact search on a depth-99 counterexample: a change to the image
    # or to the engine's bookkeeping must not alter a single rule choice.
    # Each Unfold but the last is followed by one Induction with the
    # canonical lemma x := F(X_{n-2}), which caps the frame at everything
    # reachable within n-2 steps; only then does Candidate start the one
    # search, which Decide walks down to Model.  The step count is linear
    # in the depth, where the lemma that excluded only the obligation's
    # state took 9,902 steps (4,851 Conflicts, 14,656 F calls and 9,702
    # meets).  One of the 300 F calls is the engine's test of F(alpha) <=
    # alpha; the canonical lemma is not re-imaged, so an Induction costs no
    # F call and no meet for its contract.
    counts = {"F": 0, "meet": 0}
    call, meet = Transformer.__call__, SubsetLattice.meet

    def counted_call(self, x):
        counts["F"] += 1
        return call(self, x)

    def counted_meet(self, a, b):
        counts["meet"] += 1
        return meet(self, a, b)

    monkeypatch.setattr(Transformer, "__call__", counted_call)
    monkeypatch.setattr(SubsetLattice, "meet", counted_meet)
    ans = solve(build(unsafe_chain(100)))
    assert ans.verdict is Verdict.FALSE
    assert ans.stats.steps == 298
    assert ans.stats.rule_counts == {"unfold": 99, "induction": 98, "candidate": 1,
                                     "decide": 99, "model": 1}
    assert ans.stats.frame_count == 101
    assert counts == {"F": 300, "meet": 98}


def safe_ring(n: int) -> KripkeStructure:
    """A cycle through ``0 .. n-2``, initial {0}, plus the unsafe state
    ``n-1``, which nothing enters and which leads to 0."""
    edges = frozenset([(i, (i + 1) % (n - 1)) for i in range(n - 1)] + [(n - 1, 0)])
    return KripkeStructure(n, edges, initial=1, safe=((1 << n) - 1) & ~(1 << (n - 1)))


class TestInductiveBound:
    """The engine proposes ``alpha`` itself as a lemma once it has seen
    ``F(alpha) <= alpha``, tested with one ``F`` call where Candidate would
    first start a counterexample search."""

    @pytest.mark.parametrize("engine", ["combined", "positive"])
    def test_forward_ring_closes_in_five_steps(self, engine):
        # The safe set is inductive forward; the Kleene path took 2,998
        # (combined) and 1,999 (positive) steps.
        ans = solve(forward(safe_ring(1000)), engine, debug=True)
        assert ans.verdict is Verdict.TRUE
        assert ans.stats.rule_counts == {"unfold": 2, "induction": 2, "valid": 1}

    @pytest.mark.parametrize("build, engine", [
        (inverse_backward, "combined"), (inverse_backward, "positive"),
        (opdual, "combined")])
    def test_ring_bounds_that_are_not_inductive_keep_their_search(self, build, engine):
        # Backward, state 0 is a predecessor of the bound's state 1; on the
        # opposite lattice, 0 has a successor outside the initial set.  The
        # one Induction of either engine is the canonical lemma F(X_1),
        # which is below alpha.
        ans = solve(build(safe_ring(1000)), engine, debug=True)
        assert ans.verdict is Verdict.TRUE
        assert ans.stats.rule_counts == {"unfold": 1, "induction": 1, "valid": 1}

    @pytest.mark.parametrize("build", [forward, inverse_backward])
    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_chain_pays_one_image_for_the_test(self, build, n, monkeypatch):
        # The search on an unsafe chain of n states makes 3n - 1 F calls,
        # none for the n - 2 canonical Induction lemmas; F(alpha) is
        # evaluated once more, and no rule changes.  It takes 3n - 2 steps:
        # Candidate runs once, when F(X_{n-2}) first leaves alpha.
        calls = []
        call = Transformer.__call__
        monkeypatch.setattr(Transformer, "__call__",
                            lambda self, x: calls.append(x) or call(self, x))
        ans = solve(build(unsafe_chain(n)))
        assert ans.verdict is Verdict.FALSE
        assert ans.stats.rule_counts == {"unfold": n - 1, "induction": n - 2,
                                         "candidate": 1, "decide": n - 1,
                                         "model": 1}
        assert ans.stats.steps == 3 * n - 2
        assert len(calls) == 3 * n

    def test_random_draws_agree_with_reachability(self):
        rng = random.Random(21)
        for _ in range(1000):
            K = random_kripke(rng, max_states=12)
            expected = Verdict.TRUE if bfs_safe(K).verdict else Verdict.FALSE
            for build in KRIPKE_BUILDS:
                assert solve(build(K), debug=True).verdict is expected


@pytest.mark.parametrize("build", [forward, inverse_backward])
def test_deep_unsafe_chain_is_refuted_within_budget(build):
    # With a Conflict that blocks one state at a time the search takes
    # order n^2 steps, and the depth-999 chain exhausts the default
    # 100,000-step budget.
    ans = solve(build(unsafe_chain(1000)))
    assert ans.verdict is Verdict.FALSE
    assert ans.stats.steps == 2998
    # The path-shaped Decide keeps one state per obligation: the witness is
    # bot followed by the 1000 states of the path.
    path = ans.kleene_witness.elements[1:]
    assert len(path) == 1000 and all(c and c & (c - 1) == 0 for c in path)


@pytest.mark.parametrize("engine, extra", [("combined", 1), ("negative", 0)])
def test_opdual_chain_takes_linear_images(engine, extra, monkeypatch):
    # The canonical Decide picks X_{i-1}, whose image is the F(X_{i-1}) its
    # guard has just tested, so the engine does not re-image it.  Re-imaging
    # it took about 3n calls, each on a frame about n/2 states from the last
    # one imaged: quadratic time on the dual kind.
    n = 3000
    inst = opdual(unsafe_chain(n))
    calls = [0]
    call = Transformer.__call__

    def counted_call(self, x):
        calls[0] += self is inst.F
        return call(self, x)

    monkeypatch.setattr(Transformer, "__call__", counted_call)
    ans = solve(inst, engine)
    assert ans.verdict is Verdict.FALSE
    assert ans.stats.rule_counts["decide"] == n - 1
    assert calls[0] <= 2 * n + extra


class TestSolverInstances:
    def test_forward_safe(self, k1):
        assert solve(forward(k1)).verdict is Verdict.TRUE

    def test_forward_unsafe(self, k1):
        K = dataclasses.replace(k1, safe=0b001)
        ans = solve(forward(K))
        assert ans.verdict is Verdict.FALSE
        # The counterexample tail is a reachable state outside the safe set.
        assert ans.kleene_witness.elements[-1] & ~K.safe

    def test_forward_empty_initial(self, k1):
        K = dataclasses.replace(k1, initial=0)
        assert solve(forward(K)).verdict is Verdict.TRUE

    def test_inverse_backward_agrees(self, k1):
        assert solve(inverse_backward(k1)).verdict is Verdict.TRUE
        K = dataclasses.replace(k1, safe=0b001)
        assert solve(inverse_backward(K)).verdict is Verdict.FALSE

    def test_inverse_backward_alpha_full(self, k1):
        K = dataclasses.replace(k1, safe=0b111)
        assert solve(inverse_backward(K)).verdict is Verdict.TRUE

    def test_canonical_heuristics_agree(self):
        # The lattice-agnostic bundle (Candidate X_{n-1}, Decide X_{i-1})
        # reaches the same verdicts as the set heuristics, on both
        # transformers.
        rng = random.Random(5)
        for _ in range(100):
            K = random_kripke(rng)
            expected = Verdict.TRUE if bfs_safe(K).verdict else Verdict.FALSE
            for F, alpha in ((forward_transformer(K), K.safe),
                             (inverse_backward_transformer(K),
                              K.full_mask & ~K.initial)):
                ans = run_combined(F, alpha, canonical_heuristics(F), debug=True)
                assert ans.verdict is expected

    def test_opdual_agrees(self, k1):
        assert solve(opdual(k1)).verdict is Verdict.TRUE
        K = dataclasses.replace(k1, safe=0b001)
        assert solve(opdual(K)).verdict is Verdict.FALSE


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_all_instances_agree_with_reachability(seed):
    rng = random.Random(seed)
    K = random_kripke(rng)
    expected = Verdict.TRUE if bfs_safe(K).verdict else Verdict.FALSE
    assert solve(forward(K), debug=True).verdict is expected
    assert solve(inverse_backward(K), debug=True).verdict is expected
    assert solve(opdual(K)).verdict is expected


class TestModelValidation:
    def test_rejects_out_of_range_transition(self):
        with pytest.raises(ValueError):
            KripkeStructure(2, frozenset({(0, 5)}), 0b01, 0b11)

    def test_rejects_oversized_masks(self):
        with pytest.raises(ValueError):
            KripkeStructure(2, frozenset(), 0b100, 0b11)

    def test_adjacency_is_dual(self, k1):
        assert k1.succ == (0b010, 0b010, 0b100)
        assert k1.pred == (0, 0b011, 0b100)
