"""The dense two-phase simplex against a vertex-enumeration reference."""

import math
import random

import pytest

from ltpdr.simplex import Infeasible, Unbounded, simplex_min
from util import lp_vertex_min


def objective(costs, xs):
    return sum(c * x for c, x in zip(costs, xs))


class TestReferencePrograms:
    def test_single_variable(self):
        assert simplex_min([1.0], [([1.0], 0.3)], [(0.0, 1.0)]) == \
            pytest.approx([0.3], abs=1e-9)

    def test_two_variable_weighted(self):
        xs = simplex_min([2.0, 1.0], [([0.5, 0.5], 0.4)],
                         [(0.0, 1.0), (0.0, 1.0)])
        assert xs == pytest.approx([0.0, 0.8], abs=1e-9)

    def test_empty_constraints_stay_at_zero(self):
        assert simplex_min([1.0, 1.0], [], [(0.0, 1.0)] * 2) == \
            pytest.approx([0.0, 0.0], abs=1e-9)

    def test_negative_shifted_rhs(self):
        # A constraint already satisfied at the lower bound.
        xs = simplex_min([1.0], [([1.0], -0.5)], [(0.0, 1.0)])
        assert xs == pytest.approx([0.0], abs=1e-9)

    def test_nonzero_lower_bounds(self):
        xs = simplex_min([1.0, 1.0], [([1.0, 1.0], 0.5)],
                         [(0.2, 1.0), (0.1, 1.0)])
        assert objective([1.0, 1.0], xs) == pytest.approx(0.5, abs=1e-9)

    def test_infeasible_detected(self):
        with pytest.raises(Infeasible):
            simplex_min([1.0], [([1.0], 2.0)], [(0.0, 1.0)])

    def test_empty_box_detected(self):
        with pytest.raises(Infeasible):
            simplex_min([1.0], [], [(1.0, 0.5)])

    def test_unbounded_detected(self):
        with pytest.raises(Unbounded):
            simplex_min([-1.0], [([1.0], 0.3)], [(0.0, math.inf)])

    def test_infinite_bound_feasible(self):
        xs = simplex_min([1.0], [([1.0], 2.5)], [(0.0, math.inf)])
        assert xs == pytest.approx([2.5], abs=1e-9)


class TestAgainstVertexOracle:
    def _random_program(self, rng):
        n = rng.randint(2, 4)
        m = rng.randint(1, 4)
        costs = [round(2.0 - rng.random(), 3) for _ in range(n)]
        bounds = [(0.0, round(rng.random(), 3)) for _ in range(n)]
        constraints = []
        for _ in range(m):
            coeffs = [round(rng.random(), 3) for _ in range(n)]
            rhs = round(rng.random() * 0.8, 3)
            constraints.append((coeffs, rhs))
        return costs, constraints, bounds

    def test_random_decide_shaped_programs(self):
        rng = random.Random(11)
        agreements = 0
        for _ in range(100):
            costs, constraints, bounds = self._random_program(rng)
            expected = lp_vertex_min(costs, constraints, bounds)
            try:
                xs = simplex_min(costs, constraints, bounds)
            except Infeasible:
                assert expected is None
                continue
            assert expected is not None
            assert objective(costs, xs) == pytest.approx(expected, abs=1e-6)
            agreements += 1
        assert agreements > 30


@pytest.mark.filterwarnings("error")
class TestNonFiniteInput:
    def test_infinite_rhs_is_infeasible(self):
        with pytest.raises(Infeasible):
            simplex_min([1.0], [([1.0], math.inf)], [(0.0, 1e9)])

    def test_infinite_rhs_from_a_reward_decide(self):
        # A Decide program of the reward instance whose obligation values
        # were copied from an infinite frame: the ratio tie-break would
        # compute inf - inf.
        with pytest.raises(Infeasible):
            simplex_min([1.0] * 4,
                        [([0.8, 0.2, 0.0, 0.0], math.inf),
                         ([0.0, 0.1, 0.42000000000000004, 0.48], math.inf)],
                        [(0.0, 1e9), (0.0, 0.0), (0.0, 4.840000000000001),
                         (0.0, 1e9)])

    @pytest.mark.parametrize("costs, constraints, bounds", [
        ([math.nan], [([1.0], 0.5)], [(0.0, 1.0)]),
        ([1.0], [([math.nan], 0.5)], [(0.0, 1.0)]),
        ([1.0], [([1.0], math.nan)], [(0.0, 1.0)]),
        ([1.0], [([1.0], 0.5)], [(0.0, math.nan)]),
    ])
    def test_nan_is_rejected(self, costs, constraints, bounds):
        with pytest.raises(ValueError):
            simplex_min(costs, constraints, bounds)
