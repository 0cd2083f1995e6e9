"""Dense two-phase tableau simplex for small box-constrained programs.

Solves ``minimize c . x  subject to  A x >= b,  lo <= x <= hi`` exactly in
the shape needed by the probabilistic Decide heuristics: a handful of
variables, nonnegative costs, box bounds.  Bland's rule guarantees
termination; all comparisons use an absolute tolerance of 1e-9.

The tableau is a list of Python float lists: the Decide programs have about
three variables and one or two rows, so an array library's per-call overhead
would cost more than the arithmetic.  Each tableau update is the single IEEE
operation an array library performs, so with zero lower bounds, as in both
Decide programs, the results match a numpy tableau to the last bit.
"""

from __future__ import annotations

import math

TOL = 1e-9


class SimplexError(Exception):
    pass


class Infeasible(SimplexError):
    """The constraint system has no point inside the box."""


class Unbounded(SimplexError):
    """The objective decreases without bound (impossible with finite boxes)."""


def _pivot(T: list, basis: list[int], row: int, col: int) -> None:
    p = T[row][col]
    prow = T[row] = [v / p for v in T[row]]
    for r, other in enumerate(T):
        f = other[col]
        if r != row and abs(f) > 0.0:
            T[r] = [v - f * w for v, w in zip(other, prow)]
    basis[row] = col


def _run(T: list, basis: list[int], ncols: int) -> None:
    """Minimize the objective in the last row over columns [0, ncols)."""
    while True:
        obj = T[-1]
        entering = -1
        for j in range(ncols):
            if obj[j] < -TOL:
                entering = j  # Bland: smallest eligible index
                break
        if entering < 0:
            return
        best_ratio = None
        leaving = -1
        for i in range(len(T) - 1):
            a = T[i][entering]
            if a > TOL:
                ratio = T[i][-1] / a
                if (best_ratio is None or ratio < best_ratio - TOL
                        or (abs(ratio - best_ratio) <= TOL
                            and basis[i] < basis[leaving])):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise Unbounded("no blocking constraint for the entering column")
        _pivot(T, basis, leaving, entering)


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
    if any(math.isnan(v) for v in (*costs, *b, *lo, *hi, *(a for r in A for a in r))):
        raise ValueError("NaN in the program")
    if any(h - l < -TOL for l, h in zip(lo, hi)):
        raise Infeasible("empty box")
    if math.inf in b:
        raise Infeasible("a row demands coeffs . x >= inf")
    u = [max(h - l, 0.0) for l, h in zip(lo, hi)]
    boxed = [j for j in range(n) if math.isfinite(u[j])]

    # Equality system over x' = x - lo >= 0 with surplus s and slack t
    # (one slack per finite upper bound):
    #   A x' - s = b - A lo         (m rows)
    #   x'_j + t_j = u_j            (one row per boxed j)
    m = len(constraints)
    nb = len(boxed)
    M = m + nb
    ncore = n + m + nb
    rows, rhs_col = [], []
    for i in range(m):
        rows.append(A[i] + [0.0] * (m + nb))
        rows[i][n + i] = -1.0
        rhs_col.append(b[i] - sum(a * l for a, l in zip(A[i], lo)))
    for k, j in enumerate(boxed):
        rows.append([0.0] * ncore)
        rows[m + k][j] = rows[m + k][n + m + k] = 1.0
        rhs_col.append(u[j])

    # A constraint row with a negative rhs is negated and starts with its
    # surplus basic; the others get one artificial column each, in row
    # order.  Box rows start with their slack basic (u_j is never negative).
    basis: list[int] = []
    art_rows: list[int] = []
    for i in range(m):
        if rhs_col[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs_col[i] = -rhs_col[i]
            basis.append(n + i)
        else:
            basis.append(ncore + len(art_rows))
            art_rows.append(i)
    basis += range(n + m, ncore)
    total = ncore + len(art_rows)
    art_cols = range(ncore, total)
    T = [row + [0.0] * len(art_rows) + [r] for row, r in zip(rows, rhs_col)]
    for i in art_rows:
        T[i][basis[i]] = 1.0
    T.append([0.0] * (total + 1))

    if art_cols:
        # Phase 1: minimize the sum of artificials.
        for col in art_cols:
            T[-1][col] = 1.0
        for i in art_rows:
            T[-1] = [v - w for v, w in zip(T[-1], T[i])]
        _run(T, basis, total)
        if T[-1][-1] < -TOL:
            raise Infeasible("phase-1 optimum is positive")
        for i in range(M):
            if basis[i] in art_cols:
                for j in range(ncore):
                    if abs(T[i][j]) > TOL:
                        _pivot(T, basis, i, j)
                        break
        for row in T:
            for col in art_cols:
                row[col] = 0.0

    # Phase 2: the real objective over x' (s and t cost nothing).
    obj = costs + [0.0] * (total + 1 - n)
    for i in range(M):
        if basis[i] < n:
            f = obj[basis[i]]
            obj = [v - f * w for v, w in zip(obj, T[i])]
    T[-1] = obj
    _run(T, basis, ncore)

    x = list(lo)
    for i in range(M):
        if basis[i] < n:
            x[basis[i]] = lo[basis[i]] + T[i][-1]
    return x
