"""Bounded-variable dual simplex for the probabilistic Decide programs.

Solves ``minimize c . x  subject to  A x >= b,  0 <= x <= cap`` with every
cost ``c_j >= 0``: the shape of the programs ``mdp.decide_lp`` poses for the
MDP and reward instances, a handful of variables, one to five rows, costs
in ``[1, 2]``.  All comparisons use an absolute tolerance of 1e-9.

Row ``i`` reads ``-A_i x + s_i = -b_i`` with a surplus ``s_i >= 0``: the
tableau has one row per constraint and ``n + m`` columns, and the surpluses
are the first basis.  The box stays implicit (the upper-bounding technique;
Chvatal, *Linear Programming*, 1983, ch. 8): a nonbasic variable sits at 0
or at its cap.

The dual simplex keeps every reduced cost of the sign its bound wants and
moves towards primal feasibility, so it needs no phase 1: with nonnegative
costs, ``x = 0`` is dual feasible from the start.  Each iteration takes the
basic variable out of its bounds with the smallest index to leave at the
bound it breaks, and the dual ratio test picks the entering column, the
smallest index among ties.  Bland's smallest-index choices make the method
terminate.  An empty ratio test proves the program infeasible; the first
primal feasible basis is optimal.

The tableau is a list of Python float lists: the Decide programs have about
three variables and two rows, so an array library's per-call overhead would
cost more than the arithmetic.
"""

from __future__ import annotations

import math
from itertools import chain

TOL = 1e-9


class Infeasible(Exception):
    """The constraint system has no point inside the box."""


def simplex_min(costs, constraints, caps):
    """Return the optimal assignment (list of floats, one per variable).

    ``constraints`` is a sequence of ``(coeffs, rhs)`` pairs read as
    ``coeffs . x >= rhs``; ``caps`` holds each variable's upper bound, which
    may be ``inf``.  A NaN anywhere, a negative cost or a ``caps`` list of
    the wrong length raises ValueError; a ``+inf`` rhs can never be met and
    raises Infeasible.
    """
    n = len(costs)
    if len(caps) != n or any(len(coeffs) != n for coeffs, _ in constraints):
        raise ValueError("caps or a row of the wrong length")
    costs = [float(c) for c in costs]
    A = [[float(a) for a in coeffs] for coeffs, _ in constraints]
    b = [float(rhs) for _, rhs in constraints]
    caps = [float(cap) for cap in caps]
    if any(map(math.isnan, (*costs, *b, *caps, *chain.from_iterable(A)))):
        raise ValueError("NaN in the program")
    if any(c < 0.0 for c in costs):
        raise ValueError("a negative cost")
    if any(cap < -TOL for cap in caps):
        raise Infeasible("empty box")
    if math.inf in b:
        raise Infeasible("a row demands coeffs . x >= inf")

    m = len(A)
    u = [max(cap, 0.0) for cap in caps] + [math.inf] * m
    upper = [False] * (n + m)  # which nonbasic variables sit at their cap
    d = costs + [0.0] * m  # the reduced costs
    beta = [0.0 - b_i for b_i in b]  # the basic values
    T = [[-a for a in row] + [0.0] * m for row in A]
    for i in range(m):
        T[i][n + i] = 1.0
    basis = list(range(n, n + m))
    basic = [False] * n + [True] * m

    while True:
        r, p = -1, n + m
        for i, q in enumerate(basis):
            if q < p and (beta[i] < -TOL or beta[i] > u[q] + TOL):
                r, p = i, q
        if r < 0:
            break
        below = beta[r] < -TOL
        row = T[r]
        q, best = -1, math.inf
        for j, a in enumerate(row):
            if basic[j] or u[j] == 0.0:
                continue
            # How far moving x_j off its bound pushes x_p towards its bound.
            push = -a if below != upper[j] else a
            if push > TOL:
                ratio = abs(d[j]) / push
                if ratio < best - TOL:
                    q, best = j, ratio
        if q < 0:
            raise Infeasible("an out-of-bounds row has an empty ratio test")

        a_q = row[q]
        theta = (beta[r] - (0.0 if below else u[p])) / a_q
        for i, other in enumerate(T):
            beta[i] -= other[q] * theta
        beta[r] = (u[q] if upper[q] else 0.0) + theta
        upper[p], upper[q] = not below, False
        basic[p], basic[q] = False, True
        basis[r] = q
        prow = T[r] = [v / a_q for v in row]
        for i, other in enumerate(T):
            f = other[q]
            if i != r and f != 0.0:
                T[i] = [v - f * w for v, w in zip(other, prow)]
        f = d[q]
        d = [v - f * w for v, w in zip(d, prow)]

    x = [0.0 + u_j if up else 0.0 for u_j, up in zip(u, upper[:n])]
    for i, q in enumerate(basis):
        if q < n:
            x[q] = 0.0 + beta[i]
    return x
