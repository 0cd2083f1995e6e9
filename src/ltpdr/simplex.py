"""Bounded-variable dual simplex for small box-constrained programs.

Solves ``minimize c . x  subject to  A x >= b,  lo <= x <= hi`` in the shape
of the probabilistic Decide programs: a handful of variables, one to five
rows, nonnegative costs, box bounds.  All comparisons use an absolute
tolerance of 1e-9.

Over ``x' = x - lo`` with ``u = hi - lo``, row ``i`` reads
``-A_i x' + s_i = -(b_i - A_i lo)`` with a surplus ``s_i >= 0``: the tableau
has one row per constraint and ``n + m`` columns, and the surpluses are the
first basis.  The box bounds stay implicit (the upper-bounding technique;
Chvatal, *Linear Programming*, 1983, ch. 8): a nonbasic variable sits at its
lower bound 0 or at its upper bound ``u_j``.

The dual simplex keeps every reduced cost of the sign its bound wants and
moves towards primal feasibility, so it needs no phase 1: with every cost
``>= 0``, as in both Decide programs, ``x' = 0`` is dual feasible from the
start, and a negative cost on a column with a finite bound starts that
column at the bound.  Each iteration takes the basic variable out of its
bounds with the smallest index to leave at the bound it breaks, and the
dual ratio test picks the entering column, the smallest index among ties.
Bland's smallest-index choices make the method terminate.  An empty ratio
test proves the program infeasible; the first primal feasible basis is
optimal.  A negative cost on a column with no finite upper bound has no
dual feasible start: the column is priced at 0, and ``Unbounded`` is raised
once the program is known to be feasible (exact when the column has no
negative coefficient, so that it is a ray of the feasible set).

The tableau is a list of Python float lists: the Decide programs have about
three variables and two rows, so an array library's per-call overhead would
cost more than the arithmetic.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain
from operator import add, mul

TOL = 1e-9


class SimplexError(Exception):
    pass


class Infeasible(SimplexError):
    """The constraint system has no point inside the box."""


class Unbounded(SimplexError):
    """A negative cost on a variable with no finite upper bound, in a
    feasible program (impossible with finite boxes)."""


def simplex_min(costs, constraints, bounds):
    """Return the optimal assignment (list of floats, one per variable).

    ``constraints`` is a sequence of ``(coeffs, rhs)`` pairs read as
    ``coeffs . x >= rhs``; ``bounds`` is a sequence of ``(lo, hi)`` boxes.
    A NaN anywhere raises ValueError; a ``+inf`` rhs can never be met and
    raises Infeasible.
    """
    n = len(costs)
    if any(len(coeffs) != n for coeffs, _ in constraints):
        raise ValueError("constraint arity does not match variable count")
    costs = [float(c) for c in costs]
    A = [[float(a) for a in coeffs] for coeffs, _ in constraints]
    b = [float(rhs) for _, rhs in constraints]
    lo = [float(lo_j) for lo_j, _ in bounds]
    hi = [float(hi_j) for _, hi_j in bounds]
    if any(map(math.isnan, (*costs, *b, *lo, *hi, *chain.from_iterable(A)))):
        raise ValueError("NaN in the program")
    if any(h - l < -TOL for l, h in zip(lo, hi)):
        raise Infeasible("empty box")
    if math.inf in b:
        raise Infeasible("a row demands coeffs . x >= inf")

    m = len(A)
    u = [max(h - l, 0.0) for l, h in zip(lo, hi)] + [math.inf] * m
    # Negative costs: see the module docstring.
    upper = [c < -TOL and u_j < math.inf for c, u_j in zip(costs, u)] + [False] * m
    rays = [j for j, c in enumerate(costs) if c < -TOL and not upper[j]]
    d = costs + [0.0] * m  # the reduced costs
    for j in rays:
        d[j] = 0.0
    x0 = [l + u_j if up else l for l, u_j, up in zip(lo, u, upper)]
    # The basic values.
    beta = [reduce(add, map(mul, row, x0), 0.0) - b_i for row, b_i in zip(A, b)]
    T = []
    for i, row in enumerate(A):
        T.append([-a for a in row] + [0.0] * m)
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

    if rays:
        raise Unbounded("a negative cost on a column with no upper bound")
    x = [l + u_j if up else l for l, u_j, up in zip(lo, u, upper)]
    for i, q in enumerate(basis):
        if q < n:
            x[q] = lo[q] + beta[i]
    return x
