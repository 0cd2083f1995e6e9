"""Shared helpers for the test suite: random model generators, the reward
ruin, exact expected rewards of small reward models and a
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


def exact_reward_values(M: MRMModel) -> list:
    """The expected reward of every state of ``M`` until it leaves the safe
    set, as a ``Fraction`` of the float probabilities, or ``math.inf``.

    It shares no code with the solver.  A state's value is infinite when it
    reaches, through safe states, a state ``u`` of a closed class that pays:
    every state ``u`` reaches is safe and reaches ``u`` back, and one of
    them has a positive reward.  It is 0 when no positive reward is
    reachable.  The other values solve ``v = r + P v`` on those states by
    ``_solve_exact``."""
    n = M.state_count
    succ = [[t for (_c, t), p in M.delta[s] if p > 0] if s in M.safe else []
            for s in range(n)]
    pays = [s in M.safe and any(c > 0 and p > 0 for (c, _t), p in M.delta[s])
            for s in range(n)]
    reach = []
    for s in range(n):
        seen, todo = {s}, [s]
        while todo:
            for t in succ[todo.pop()]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        reach.append(seen)
    closed_paying = {u for u in range(n) if reach[u] <= M.safe
                     and all(u in reach[w] for w in reach[u])
                     and any(pays[w] for w in reach[u])}
    infinite = {s for s in range(n) if reach[s] & closed_paying}
    zero = {s for s in range(n) if not any(pays[w] for w in reach[s])}
    rest = [s for s in range(n) if s not in infinite and s not in zero]
    col = {s: i for i, s in enumerate(rest)}
    rows, rhs = [], []
    for s in rest:
        row = [Fraction(0)] * len(rest)
        row[col[s]] += 1
        r = Fraction(0)
        for (c, t), p in M.delta[s]:
            r += Fraction(p) * c
            if t in col:
                row[col[t]] -= Fraction(p)
        rows.append(row)
        rhs.append(r)
    values = [math.inf if s in infinite else Fraction(0) for s in range(n)]
    for s, v in zip(rest, _solve_exact(rows, rhs)):
        values[s] = v
    return values


def reward_ruin(N: int, s0: int, threshold: float) -> MRMModel:
    """The fair gambler's ruin with reward 1 per step: states ``0..N``,
    both ends unsafe, each inner state steps down or up with probability
    1/2.  The expected reward from ``s0`` is ``s0 (N - s0)``."""
    delta = [(((0, s), 1.0),) if s in (0, N) else
             (((1, s - 1), 0.5), ((1, s + 1), 0.5)) for s in range(N + 1)]
    return MRMModel(N + 1, tuple(delta), s0, threshold, frozenset(range(1, N)))


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
