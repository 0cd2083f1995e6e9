"""The bounded-variable dual simplex against an exact vertex-enumeration
reference, on the program shape Decide poses (a ``[0, cap]`` box and
nonnegative costs): fixed programs, seeded Decide-shaped ones, generated box
programs with degenerate corners, non-finite input, and the inputs outside
the shape that it rejects."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ltpdr.simplex import Infeasible, simplex_min
from util import lp_vertex_min


def objective(costs, xs):
    return sum(c * x for c, x in zip(costs, xs))


def boxes(caps):
    """The reference's ``(lo, hi)`` form of the ``[0, cap]`` box."""
    return [(0.0, c) for c in caps]


class TestReferencePrograms:
    def test_single_variable(self):
        assert simplex_min([1.0], [([1.0], 0.3)], [1.0]) == \
            pytest.approx([0.3], abs=1e-9)

    def test_two_variable_weighted(self):
        xs = simplex_min([2.0, 1.0], [([0.5, 0.5], 0.4)], [1.0, 1.0])
        assert xs == pytest.approx([0.0, 0.8], abs=1e-9)

    def test_empty_constraints_stay_at_zero(self):
        assert simplex_min([1.0, 1.0], [], [1.0, 1.0]) == \
            pytest.approx([0.0, 0.0], abs=1e-9)

    def test_negative_shifted_rhs(self):
        # A constraint already satisfied at zero.
        xs = simplex_min([1.0], [([1.0], -0.5)], [1.0])
        assert xs == pytest.approx([0.0], abs=1e-9)

    def test_answers_at_a_bound_are_exact(self):
        # A variable left at zero is +0.0 and one at its cap is the cap, to
        # the bit; Decide snaps to the cap and compares with the frame.
        xs = simplex_min([1.0, 2.0, 1.0], [([0.5, 0.5, 0.0], 0.75)],
                         [1.0, 1.0, 0.3])
        assert xs == [1.0, 0.5, 0.0]
        assert math.copysign(1.0, xs[2]) == 1.0

    def test_infeasible_detected(self):
        with pytest.raises(Infeasible):
            simplex_min([1.0], [([1.0], 2.0)], [1.0])

    def test_empty_box_detected(self):
        with pytest.raises(Infeasible):
            simplex_min([1.0], [], [-0.5])

    def test_infinite_bound_feasible(self):
        xs = simplex_min([1.0], [([1.0], 2.5)], [math.inf])
        assert xs == pytest.approx([2.5], abs=1e-9)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="negative cost"):
            simplex_min([1.0, -1.0], [([1.0, 1.0], 0.3)], [1.0, 1.0])

    @pytest.mark.parametrize("caps", [[1.0], [1.0, 1.0, 1.0]])
    def test_caps_of_the_wrong_length_rejected(self, caps):
        with pytest.raises(ValueError, match="wrong length"):
            simplex_min([1.0, 1.0], [([1.0, 1.0], 0.3)], caps)


class TestAgainstVertexOracle:
    def _random_program(self, rng):
        n = rng.randint(2, 4)
        m = rng.randint(1, 4)
        costs = [round(2.0 - rng.random(), 3) for _ in range(n)]
        caps = [round(rng.random(), 3) for _ in range(n)]
        constraints = []
        for _ in range(m):
            coeffs = [round(rng.random(), 3) for _ in range(n)]
            rhs = round(rng.random() * 0.8, 3)
            constraints.append((coeffs, rhs))
        return costs, constraints, caps

    def test_random_decide_shaped_programs(self):
        rng = random.Random(11)
        agreements = 0
        for _ in range(100):
            costs, constraints, caps = self._random_program(rng)
            expected = lp_vertex_min(costs, constraints, boxes(caps))
            try:
                xs = simplex_min(costs, constraints, caps)
            except Infeasible:
                assert expected is None
                continue
            assert expected is not None
            assert objective(costs, xs) == pytest.approx(expected, abs=1e-6)
            agreements += 1
        assert agreements > 30


@st.composite
def box_programs(draw):
    """Programs of up to four variables and four rows with the corners a
    bounded simplex must get right: zero-width boxes, ``inf`` caps, zero and
    tied costs, all-zero and duplicate rows, and right-hand sides exactly at
    the box limit."""
    n = draw(st.integers(1, 4))
    caps = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, math.inf]),
                         min_size=n, max_size=n))
    costs = draw(st.lists(st.sampled_from([0.0, 1.0, 1.5]), min_size=n, max_size=n))
    coeff = st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5])
    constraints = []
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.sampled_from(["free", "limit", "zero", "duplicate"]))
        if shape == "duplicate" and constraints:
            constraints.append(constraints[-1])
            continue
        coeffs = ([0.0] * n if shape == "zero"
                  else draw(st.lists(coeff, min_size=n, max_size=n)))
        # The largest value the row takes on the box.
        limit = sum(a * cap for a, cap in zip(coeffs, caps) if a > 0)
        if shape == "limit" and limit < math.inf:
            rhs = limit
        else:
            rhs = draw(st.sampled_from([-0.5, 0.0, 0.3, 0.6, 1.2, 2.0]))
        constraints.append((coeffs, rhs))
    return costs, constraints, caps


@settings(max_examples=300, deadline=None)
@given(box_programs())
def test_box_programs_against_vertex_oracle(program):
    costs, constraints, caps = program
    expected = lp_vertex_min(costs, constraints, boxes(caps))
    try:
        xs = simplex_min(costs, constraints, caps)
    except Infeasible:
        assert expected is None
        return
    assert expected is not None
    for coeffs, rhs in constraints:
        assert objective(coeffs, xs) >= rhs - 1e-9
    for x, cap in zip(xs, caps):
        assert -1e-9 <= x <= cap + 1e-9
    assert objective(costs, xs) == pytest.approx(expected, abs=1e-6)


@pytest.mark.filterwarnings("error")
class TestNonFiniteInput:
    def test_infinite_rhs_is_infeasible(self):
        with pytest.raises(Infeasible):
            simplex_min([1.0], [([1.0], math.inf)], [1e9])

    def test_infinite_rhs_from_a_reward_decide(self):
        # A Decide program of the reward instance whose obligation values
        # were copied from an infinite frame: the ratio tie-break would
        # compute inf - inf.
        with pytest.raises(Infeasible):
            simplex_min([1.0] * 4,
                        [([0.8, 0.2, 0.0, 0.0], math.inf),
                         ([0.0, 0.1, 0.42000000000000004, 0.48], math.inf)],
                        [1e9, 0.0, 4.840000000000001, 1e9])

    @pytest.mark.parametrize("costs, constraints, bounds", [
        ([math.nan], [([1.0], 0.5)], [1.0]),
        ([1.0], [([math.nan], 0.5)], [1.0]),
        ([1.0], [([1.0], math.nan)], [1.0]),
        ([1.0], [([1.0], 0.5)], [math.nan]),
    ])
    def test_nan_is_rejected(self, costs, constraints, bounds):
        with pytest.raises(ValueError):
            simplex_min(costs, constraints, bounds)
