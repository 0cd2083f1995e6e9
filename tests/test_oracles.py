"""Brute-force reference implementations."""

import dataclasses
import inspect

import pytest

from ltpdr import oracles
from ltpdr.mdp import MDPModel
from ltpdr.mrm import MRMModel
from ltpdr.oracles import (
    DIVERGED,
    bfs_safe,
    vi_expected_reward,
    vi_max_reach,
)


@pytest.fixture
def m1():
    return MDPModel(3, 1, ((((1, 0.5), (2, 0.5)),), (((1, 1.0),),),
                           (((2, 1.0),),)), 0, 0.6, frozenset({0, 1}))


class TestBfs:
    def test_safe_closure(self, k1):
        res = bfs_safe(k1)
        assert res.verdict is True

    def test_unsafe_closure(self, k1):
        K = dataclasses.replace(k1, safe=0b001)
        assert bfs_safe(K).verdict is False

    def test_empty_initial(self, k1):
        K = dataclasses.replace(k1, initial=0)
        assert bfs_safe(K).verdict is True


class TestMaxReach:
    def test_coin_flip(self, m1):
        assert vi_max_reach(m1).value == pytest.approx(0.5, abs=1e-9)

    def test_all_safe_is_zero(self, m1):
        M = dataclasses.replace(m1, safe=frozenset({0, 1, 2}))
        assert vi_max_reach(M).value == pytest.approx(0.0, abs=1e-12)

    def test_certain_reach_is_one(self):
        M = MDPModel(2, 1, ((((1, 1.0),),), (((1, 1.0),),)), 0, 0.5,
                     frozenset({0}))
        assert vi_max_reach(M).value == pytest.approx(1.0, abs=1e-9)

    def test_rejects_nonpositive_tolerance(self, m1):
        with pytest.raises(ValueError):
            vi_max_reach(m1, tol=0.0)


class TestExpectedReward:
    def test_geometric_series(self):
        M = MRMModel(2, ((((1, 0), 0.25), ((1, 1), 0.75)), (((0, 1), 1.0),)),
                     0, 1.5, frozenset({0}))
        assert vi_expected_reward(M).value == pytest.approx(4.0 / 3.0,
                                                            abs=1e-9)

    def test_empty_safe_region(self):
        M = MRMModel(1, ((((1, 0), 1.0),),), 0, 1.0, frozenset())
        assert vi_expected_reward(M).value == pytest.approx(0.0, abs=1e-12)

    def test_divergence_flagged(self):
        M = MRMModel(1, ((((1, 0), 1.0),),), 0, 1.0, frozenset({0}))
        res = vi_expected_reward(M)
        assert res.verdict == DIVERGED


def test_oracles_have_no_engine_dependency():
    source = inspect.getsource(oracles)
    for forbidden in ("engine", "kripke", "mdp", "mrm", "simplex", "cli"):
        assert f"from .{forbidden}" not in source
        assert f"import {forbidden}" not in source
    # The models also carry the solver's views of themselves: its row view,
    # lattice, bound and class data.  The oracles read only the fields.
    for forbidden in (".rows", ".TOP", ".OFF", ".bound(", ".lattice("):
        assert forbidden not in source
