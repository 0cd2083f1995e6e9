"""Transformers and solver instantiations for explicit-state models."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from ltpdr.engine import Verdict, canonical_heuristics, run_combined, solve
from ltpdr.kripke import (
    KripkeStructure,
    SubsetLattice,
    _image,
    backward_transformer,
    forward_transformer,
    inverse_backward_transformer,
    opdual,
    pdr_fkr,
    pdr_ibkr,
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
    # n covers one partial byte, whole bytes, and a partial byte after
    # whole ones; each mask is imaged twice, filling a table slot and then
    # reading it back.
    rng = random.Random(n)
    top = (1 << n) - 1
    for density in (0.0, 2 / n, 0.3):
        masks = tuple(sum(1 << b for b in range(n) if rng.random() < density)
                      for _ in range(n))
        image = _image(masks)
        samples = [0, top] + [rng.getrandbits(n) for _ in range(40)] \
            + [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
               for _ in range(40)]
        for A in samples:
            expected = _union_per_bit(masks, A)
            assert image(A) == expected
            assert image(A) == expected


def unsafe_chain(n: int) -> KripkeStructure:
    """States 0 -> 1 -> ... -> n-1, initial {0}, only n-1 unsafe."""
    return KripkeStructure(n, frozenset((i, i + 1) for i in range(n - 1)),
                           initial=1, safe=((1 << n) - 1) & ~(1 << (n - 1)))


@pytest.mark.parametrize("solve", [pdr_fkr, pdr_ibkr])
def test_unsafe_chain_search_is_pinned(solve, monkeypatch):
    # The exact search on a depth-99 counterexample: a change to the image
    # or to the engine's bookkeeping must not alter a single rule choice.
    # Each Unfold is followed by one Candidate, one Decide and one Conflict,
    # so the step count is linear in the depth: the canonical Conflict
    # x := F(X_{i-1}) caps the frame at everything reachable within i-1
    # steps, where the lemma that excluded only the obligation's state took
    # 9,902 steps (4,851 Conflicts, 14,656 F calls and 9,702 meets).
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
    ans = solve(unsafe_chain(100))
    assert ans.verdict is Verdict.FALSE
    assert ans.stats.steps == 396
    assert ans.stats.rule_counts == {"unfold": 99, "candidate": 99, "decide": 99,
                                     "conflict": 98, "model": 1}
    assert ans.stats.frame_count == 101
    assert counts == {"F": 397, "meet": 196}


@pytest.mark.parametrize("solve", [pdr_fkr, pdr_ibkr])
def test_deep_unsafe_chain_is_refuted_within_budget(solve):
    # With a Conflict that blocks one state at a time the search takes
    # order n^2 steps, and the depth-999 chain exhausts the default
    # 100,000-step budget.
    ans = solve(unsafe_chain(1000))
    assert ans.verdict is Verdict.FALSE
    assert ans.stats.steps == 3996
    # The path-shaped Decide keeps one state per obligation: the witness is
    # bot followed by the 1000 states of the path.
    path = ans.kleene_witness.elements[1:]
    assert len(path) == 1000 and all(c and c & (c - 1) == 0 for c in path)


class TestSolverInstances:
    def test_forward_safe(self, k1):
        assert pdr_fkr(k1).verdict is Verdict.TRUE

    def test_forward_unsafe(self, k1):
        K = dataclasses.replace(k1, safe=0b001)
        ans = pdr_fkr(K)
        assert ans.verdict is Verdict.FALSE
        # The counterexample tail is a reachable state outside the safe set.
        assert ans.kleene_witness.elements[-1] & ~K.safe

    def test_forward_empty_initial(self, k1):
        K = dataclasses.replace(k1, initial=0)
        assert pdr_fkr(K).verdict is Verdict.TRUE

    def test_inverse_backward_agrees(self, k1):
        assert pdr_ibkr(k1).verdict is Verdict.TRUE
        K = dataclasses.replace(k1, safe=0b001)
        assert pdr_ibkr(K).verdict is Verdict.FALSE

    def test_inverse_backward_alpha_full(self, k1):
        K = dataclasses.replace(k1, safe=0b111)
        assert pdr_ibkr(K).verdict is Verdict.TRUE

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
    assert pdr_fkr(K, debug=True).verdict is expected
    assert pdr_ibkr(K, debug=True).verdict is expected
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
