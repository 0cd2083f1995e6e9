"""Lattice contract, sequence validity checks, and witness validators."""

import math

import pytest
from hypothesis import given, strategies as st

from ltpdr.kripke import SubsetLattice, forward_transformer
from ltpdr.lattice import (
    KTSequence,
    KleeneSequence,
    OppositeLattice,
    check_kleene_witness,
    check_kt_witness,
    is_conclusive_kleene,
    is_conclusive_kt,
    is_kleene_sequence,
    is_kt_sequence,
)
from ltpdr.mdp import PointwiseLattice

masks = st.integers(min_value=0, max_value=(1 << 8) - 1)


def _entries(top):
    """Pointwise entries from 0.0 to ``top``, with the bounds, a shared
    middle value and ``top`` drawn often so that ties are common."""
    return st.one_of(st.sampled_from([0.0, 0.5, top]),
                     st.floats(min_value=0.0, max_value=top))


# Each lattice with a strategy for its elements.
_LATTICES = {
    "subset": (SubsetLattice(8), masks),
    "pointwise-1": (PointwiseLattice(3, 1.0), st.tuples(*[_entries(1.0)] * 3)),
    "pointwise-inf": (PointwiseLattice(3, math.inf),
                      st.tuples(*[_entries(math.inf)] * 3)),
}


@pytest.fixture
def F(k1):
    return forward_transformer(k1)


ALPHA = 0b011  # {0, 1}
ALPHA_P = 0b001  # {0}


class TestKTSequence:
    def test_initial_config_is_valid(self, F):
        assert is_kt_sequence(KTSequence((0, 0b001)), F, ALPHA)

    def test_hand_evaluated_chain(self, F):
        assert is_kt_sequence(KTSequence((0, 0b001, 0b011)), F, ALPHA)

    def test_shifted_prefix_violation(self, F):
        # F({0}) = {0,1} is not below {0}.
        assert not is_kt_sequence(KTSequence((0, 0b001, 0b001)), F, ALPHA)

    def test_bound_violation(self, F):
        # All chain links hold but X_{n-2} = {0,1} is not below {0}.
        assert not is_kt_sequence(KTSequence((0, 0b011, 0b111)), F, ALPHA_P)

    def test_requires_bottom_start(self, F):
        assert not is_kt_sequence(KTSequence((0b001, 0b011)), F, ALPHA)


class TestKleeneSequence:
    def test_empty_is_vacuously_valid(self, F):
        assert is_kleene_sequence(KleeneSequence((), 2), F, ALPHA_P)

    def test_linked_chain(self, F):
        # {1} <= F({0}) = {0,1} and {1} is not below {0}.
        assert is_kleene_sequence(KleeneSequence((0b001, 0b010), 1), F, ALPHA_P)

    def test_broken_link(self, F):
        # {1} <= F({2}) = {0,2} fails.
        assert not is_kleene_sequence(KleeneSequence((0b100, 0b010), 1), F, ALPHA_P)

    def test_safe_tail_rejected(self, F):
        assert not is_kleene_sequence(KleeneSequence((0b001, 0b010), 1), F, ALPHA)


class TestConclusiveness:
    def test_repeated_bottom(self):
        lat = SubsetLattice(3)
        assert is_conclusive_kt(KTSequence((0, 0)), lat) == 0

    def test_smallest_collapse_index(self):
        lat = SubsetLattice(3)
        assert is_conclusive_kt(KTSequence((0, 0b001, 0b011, 0b011)), lat) == 2

    def test_strictly_ascending_is_inconclusive(self):
        lat = SubsetLattice(3)
        assert is_conclusive_kt(KTSequence((0, 0b001, 0b011)), lat) is None

    def test_kleene_bottom_head(self):
        lat = SubsetLattice(3)
        assert is_conclusive_kleene(KleeneSequence((0,), 0), lat)
        assert is_conclusive_kleene(KleeneSequence((0, 0b001, 0b010), 0), lat)

    def test_kleene_nonzero_start(self):
        lat = SubsetLattice(3)
        assert not is_conclusive_kleene(KleeneSequence((0b001, 0b010), 1), lat)
        assert not is_conclusive_kleene(KleeneSequence((), 0), lat)


class TestWitnessChecks:
    def test_prefixed_point_below_alpha(self, F):
        assert check_kt_witness(0b011, F, ALPHA)

    def test_bottom_with_empty_initial(self, k1):
        import dataclasses
        K = dataclasses.replace(k1, initial=0)
        F0 = forward_transformer(K)
        assert check_kt_witness(0, F0, 0)

    def test_top_not_below_alpha(self, F):
        assert not check_kt_witness(0b111, F, ALPHA)

    def test_kleene_witness_accepts_conclusive_chain(self, F):
        assert check_kleene_witness(KleeneSequence((0, 0b001, 0b010), 0), F, ALPHA_P)

    def test_kleene_witness_rejects_empty(self, F):
        assert not check_kleene_witness(KleeneSequence((), 2), F, ALPHA_P)

    def test_kleene_witness_rejects_nonzero_start(self, F):
        assert not check_kleene_witness(KleeneSequence((0b001, 0b010), 1), F, ALPHA_P)

    def test_conclusive_kt_index_yields_witness(self, F):
        # On any valid conclusive chain the collapsed frame is a certificate.
        X = KTSequence((0, 0b001, 0b011, 0b011))
        lat = SubsetLattice(3)
        j = is_conclusive_kt(X, lat)
        assert j is not None and j <= len(X) - 2
        assert check_kt_witness(X[j], F, ALPHA)


class TestPlainTuples:
    """The checkers read their argument only through ``len`` and ``[j]``:
    the engine's plain tuples get the answer of the certificate objects."""

    FRAMES = [(0, 0b001), (0, 0b001, 0b011), (0, 0b001, 0b001), (0, 0b011, 0b111),
              (0b001, 0b011), (0, 0), (0, 0b001, 0b011, 0b011), (0, 0b001, 0b111)]
    OBLIGATIONS = [(), (0b001, 0b010), (0b100, 0b010), (0b010,), (0b001,),
                   (0, 0b001, 0b010)]

    def test_frame_checkers(self, F):
        lat = F.lattice
        answers = set()
        for xs in self.FRAMES:
            cert = KTSequence(xs)
            for alpha in (ALPHA, ALPHA_P):
                answers.add(is_kt_sequence(xs, F, alpha))
                assert is_kt_sequence(xs, F, alpha) == is_kt_sequence(cert, F, alpha)
            for lo in range(len(xs)):
                answers.add(is_conclusive_kt(xs, lat, lo))
                assert is_conclusive_kt(xs, lat, lo) == is_conclusive_kt(cert, lat, lo)
                assert (is_conclusive_kt(xs, lat, 0, lo)
                        == is_conclusive_kt(cert, lat, 0, lo))
        assert {True, False, None, 0, 2} <= answers

    def test_obligation_checker(self, F):
        answers = set()
        for cs in self.OBLIGATIONS:
            cert = KleeneSequence(cs, 3 - len(cs))
            for alpha in (ALPHA, ALPHA_P):
                answer = is_kleene_sequence(cs, F, alpha)
                assert answer == is_kleene_sequence(cert, F, alpha)
                answers.add(answer)
        assert answers == {True, False}


class TestLatticeLaws:
    @given(masks, masks, masks)
    def test_meet_is_greatest_lower_bound(self, a, b, c):
        lat = SubsetLattice(8)
        m = lat.meet(a, b)
        assert lat.leq(m, a) and lat.leq(m, b)
        if lat.leq(c, a) and lat.leq(c, b):
            assert lat.leq(c, m)

    @given(masks, masks, masks)
    def test_partial_order(self, a, b, c):
        lat = SubsetLattice(8)
        assert lat.leq(a, a)
        if lat.leq(a, b) and lat.leq(b, a):
            assert lat.eq(a, b)
        if lat.leq(a, b) and lat.leq(b, c):
            assert lat.leq(a, c)

    @given(masks)
    def test_bounds(self, a):
        lat = SubsetLattice(8)
        assert lat.leq(lat.bot, a) and lat.leq(a, lat.top)

    @given(masks, masks)
    def test_opposite_reverses_order(self, a, b):
        lat = SubsetLattice(8)
        op = OppositeLattice(lat)
        assert op.leq(a, b) == lat.leq(b, a)
        assert op.meet(a, b) == lat.join(a, b)
        assert op.bot == lat.top and op.top == lat.bot


class TestDirectLeq:
    """A lattice's direct ``leq`` must agree with ``leq_info``, and ``eq``
    with ``leq_info`` both ways."""

    @pytest.mark.parametrize("opposite", [False, True], ids=["base", "opposite"])
    @pytest.mark.parametrize("name", sorted(_LATTICES))
    @given(data=st.data())
    def test_leq_agrees_with_leq_info(self, name, opposite, data):
        lat, elements = _LATTICES[name]
        if opposite:
            lat = OppositeLattice(lat)
        a = data.draw(elements)
        b = data.draw(st.one_of(elements, st.just(a)))  # often equal to a
        for x, y in ((a, b), (b, a), (a, a), (lat.bot, a), (a, lat.top)):
            assert lat.leq(x, y) == lat.leq_info(x, y)[0]
        assert lat.eq(a, b) == (lat.leq_info(a, b)[0] and lat.leq_info(b, a)[0])
