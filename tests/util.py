"""Shared helpers for the test suite: random model generators and a
vertex-enumeration oracle for small linear programs."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from ltpdr.kripke import KripkeStructure
from ltpdr.mdp import MDPModel
from ltpdr.mrm import MRMModel


def above(v: float) -> float:
    """The least float above ``v``: the obligation "strictly more than v"."""
    return math.nextafter(v, math.inf)


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 and later compute it: a float total adds each
    float term with Neumaier's compensation (python/cpython gh-100425), where
    3.10 and 3.11 add left to right.  Patched into ``builtins``, it shows
    whether an answer depends on which of the two sums the interpreter has.
    Only float and int terms are emulated; an int term is added plainly."""
    total, c = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            if abs(total) >= abs(x):
                c += (total - t) + x
            else:
                c += (x - t) + total
            total = t
        else:
            total = total + x
    # As CPython does: the compensation keeps a -0.0 total's sign and never
    # turns an infinite total into NaN.
    if c and math.isfinite(c):
        total += c
    return total


def random_kripke(rng: random.Random, max_states: int = 8) -> KripkeStructure:
    n = rng.randint(1, max_states)
    density = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5])
    transitions = frozenset(
        (a, b) for a in range(n) for b in range(n) if rng.random() < density)
    full = (1 << n) - 1
    initial = rng.randint(0, full)
    safe = rng.randint(0, full)
    return KripkeStructure(n, transitions, initial, safe)


def _random_distribution(rng: random.Random, n: int):
    support = rng.sample(range(n), rng.randint(1, min(n, 3)))
    weights = [rng.randint(1, 9) for _ in support]
    total = sum(weights)
    return tuple((t, w / total) for t, w in zip(support, weights))


def random_mdp(rng: random.Random, max_states: int = 6,
               max_actions: int = 2) -> MDPModel:
    n = rng.randint(2, max_states)
    m = rng.randint(1, max_actions)
    delta = []
    for s in range(n):
        row = []
        for a in range(m):
            if a == 0 or rng.random() < 0.7:
                row.append(_random_distribution(rng, n))
            else:
                row.append(None)
        delta.append(tuple(row))
    safe = frozenset(s for s in range(n) if rng.random() < 0.8)
    initial = rng.randrange(n)
    return MDPModel(n, m, tuple(delta), initial, 0.5, safe)


def random_mrm(rng: random.Random, max_states: int = 5) -> MRMModel:
    n = rng.randint(2, max_states)
    delta = []
    for s in range(n):
        dist = _random_distribution(rng, n)
        delta.append(tuple(((rng.randint(0, 3), t), p) for t, p in dist))
    # keep at least one unsafe state so rewards cannot accumulate forever
    # on every run (divergent instances are exercised separately)
    unsafe = rng.sample(range(n), rng.randint(1, n))
    safe = frozenset(s for s in range(n) if s not in unsafe)
    return MRMModel(n, tuple(delta), rng.randrange(n), 1.0, safe)


def _solve_exact(rows, rhs):
    """The solution of the square system ``rows x = rhs`` by Gaussian
    elimination over fractions, or None when it is singular."""
    n = len(rows)
    aug = [row + [r] for row, r in zip(rows, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col] / p[col]
                aug[i] = [a - f * b for a, b in zip(aug[i], p)]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def lp_vertex_min(costs, constraints, bounds, tol: float = 1e-9):
    """Brute-force LP reference: enumerate the candidate vertices, keep the
    feasible ones, return the best objective value, or None if infeasible.

    A vertex meets ``k`` of the rows with equality, and each of the other
    ``n - k`` variables sits at a face of its box.  Every float is read as
    the exact fraction it stores and each vertex is solved exactly, so only
    the feasibility test carries the tolerance."""
    n = len(costs)
    costs = [Fraction(c) for c in costs]
    rows = [([Fraction(a) for a in coeffs], Fraction(rhs))
            for coeffs, rhs in constraints]
    boxes = [(Fraction(lo), Fraction(hi) if math.isfinite(hi) else None)
             for lo, hi in bounds]
    faces = [[lo] if hi is None or hi == lo else [lo, hi] for lo, hi in boxes]
    tol = Fraction(tol)

    def feasible(x):
        return (all(sum(c * v for c, v in zip(coeffs, x)) >= rhs - tol
                    for coeffs, rhs in rows)
                and all(lo - tol <= v and (hi is None or v <= hi + tol)
                        for v, (lo, hi) in zip(x, boxes)))

    best = None
    for k in range(min(n, len(rows)) + 1):
        for active, free in itertools.product(
                itertools.combinations(rows, k), itertools.combinations(range(n), k)):
            fixed = [j for j in range(n) if j not in free]
            for values in itertools.product(*(faces[j] for j in fixed)):
                point = dict(zip(fixed, values))
                sol = _solve_exact(
                    [[coeffs[j] for j in free] for coeffs, _ in active],
                    [rhs - sum(coeffs[j] * v for j, v in point.items())
                     for coeffs, rhs in active])
                if sol is None:
                    continue
                point.update(zip(free, sol))
                x = [point[j] for j in range(n)]
                if feasible(x):
                    value = sum(c * v for c, v in zip(costs, x))
                    if best is None or value < best:
                        best = value
    return None if best is None else float(best)
