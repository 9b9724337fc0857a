"""Dense two-phase tableau simplex for equality-form linear programs, with
dual-simplex warm restarts when the right-hand side moves.

Solves min c.x subject to A x = b, x >= 0, and returns the row duals y of
the optimum with it (c - A^T y >= 0, b.y = c.x).  Written for the
few-hundred variable scale of box polytopes; kept deliberately independent
of scipy so certification can cross-check two unrelated code paths.

Box polytopes are massively degenerate, so the leaving row is chosen
lexicographically against the running basis-inverse block (the classic
anti-cycling rule of Dantzig, Orden & Wolfe, Pacific J. Math. 5, 1955), with
Bland's rule as a sticky fallback.  Ratio ties are few (a median of two
candidates on the certify LP), so the lexicographic minimum is taken by
comparing the candidates' rows as Python lists rather than by sorting on
every column.

Phase 1 never reads the objective.  Given several objectives over the same
A and b (one per row of a 2-D c), phase 1, the removal of leftover
artificials and the row drop run once, and each objective gets its own
phase 2 from a copy of the feasible tableau and basis; every pivot is the
one a separate solve would make.

A `SimplexWalk` keeps those optimal tableaux and moves them from one b to
the next.  A change of b leaves every reduced cost alone, so each optimal
basis stays dual feasible: the right-hand side is re-read as B^-1 b from the
artificial block (the identity at the start, kept through both phases), and
a dual simplex restarts from that basis (Lemke, Naval Res. Logist. Q. 1,
1954).  Its leaving row is the most negative right-hand side; its entering
column has the least reduced cost / |a_rj| over a_rj < 0, ties going to the
largest |a_rj|.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9  # pivot, ratio-tie and reduced-cost tolerance
MAXITER = 50000  # pivots per phase before SimplexError
STALL_LIMIT = 1000  # pivots without progress before the sticky Bland fallback


class SimplexError(RuntimeError):
    pass


class InfeasibleError(SimplexError):
    pass


class UnboundedError(SimplexError):
    pass


def _pivot(tableau: np.ndarray, row: int, col: int, basis: np.ndarray) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    # Outer-product update reintroduces rounding dust in the pivot column.
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _leaving_row(tableau, basis, col, lex_lo, lex_hi, bland):
    """Ratio test.  Ties are broken lexicographically on the scaled
    basis-inverse rows, or by smallest basis label under Bland's rule."""
    column = tableau[:-1, col]
    positive = column > TOL
    if not positive.any():
        raise UnboundedError("objective unbounded below")
    # Rounding can leave the rhs a hair negative; treat that as zero so the
    # ratio test stays a degenerate pivot instead of a wild negative ratio.
    rhs = np.maximum(tableau[:-1, -1], 0.0)
    ratios = np.full(column.shape, np.inf)
    ratios[positive] = rhs[positive] / column[positive]
    best = float(np.min(ratios))
    candidates = np.where(ratios <= best + TOL * (1.0 + best))[0]
    if candidates.size == 1:
        return int(candidates[0])
    if bland:
        return int(candidates[np.argmin(basis[candidates])])
    scaled = tableau[candidates, lex_lo:lex_hi] / column[candidates, None]
    return int(candidates[_lex_first(scaled)])


def _lex_first(block: np.ndarray) -> int:
    """Index of the lexicographically smallest row of block, the first one
    among equal rows: what np.lexsort(block[:, ::-1].T)[0] gives.  Python
    compares floats by value (so -0.0 == 0.0) and min keeps the first of
    equal keys, as the stable sort does."""
    rows = block.tolist()
    return min(range(len(rows)), key=rows.__getitem__)


def _iterate(tableau, basis, enter_cols, lex_lo, lex_hi) -> int:
    """Pivot until no reduced cost among the first enter_cols columns is
    negative, and return the number of pivots.  Dantzig entering; sticky
    Bland entering after STALL_LIMIT pivots without progress."""
    stall = 0
    bland = False
    last_obj = tableau[-1, -1]
    for pivots in range(MAXITER):
        costs = tableau[-1, :enter_cols]
        if bland:
            negative = np.where(costs < -TOL)[0]
            if negative.size == 0:
                return pivots
            col = int(negative[0])
        else:
            col = int(np.argmin(costs))
            if costs[col] >= -TOL:
                return pivots
        row = _leaving_row(tableau, basis, col, lex_lo, lex_hi, bland)
        _pivot(tableau, row, col, basis)
        obj = tableau[-1, -1]
        if obj <= last_obj + 1e-12:
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
        else:
            stall = 0
        last_obj = obj
    raise SimplexError("iteration limit reached")


def _entering_column(tableau, row, enter_cols, bland):
    """Dual ratio test on a row with a negative right-hand side: the least
    reduced cost / |a_rj| over a_rj < -TOL among the first enter_cols
    columns.  Ties go to the largest |a_rj|, or to the first column under
    Bland's rule.  No a_rj < -TOL means the row sums non-negative terms to
    a negative value: InfeasibleError."""
    entries = tableau[row, :enter_cols]
    negative = entries < -TOL
    if not negative.any():
        raise InfeasibleError(f"dual simplex: row {row} has no entering column")
    # Rounding can leave a reduced cost a hair negative; treat that as zero,
    # as the primal ratio test treats the rhs.
    costs = np.maximum(tableau[-1, :enter_cols], 0.0)
    ratios = np.full(entries.shape, np.inf)
    ratios[negative] = costs[negative] / -entries[negative]
    best = float(np.min(ratios))
    candidates = np.where(ratios <= best + TOL * (1.0 + best))[0]
    if bland:
        return int(candidates[0])
    return int(candidates[np.argmin(entries[candidates])])


def _dual_iterate(tableau, basis, enter_cols) -> int:
    """Dual simplex from a dual feasible tableau: pivot until no right-hand
    side is below -TOL, and return the number of pivots.  The most negative
    right-hand side leaves; after STALL_LIMIT pivots without progress, a
    sticky Bland rule lets the infeasible row of smallest basis label leave
    instead."""
    stall = 0
    bland = False
    last_obj = tableau[-1, -1]
    for pivots in range(MAXITER):
        rhs = tableau[:-1, -1]
        if bland:
            negative = np.where(rhs < -TOL)[0]
            if negative.size == 0:
                return pivots
            row = int(negative[np.argmin(basis[negative])])
        else:
            row = int(np.argmin(rhs))
            if rhs[row] >= -TOL:
                return pivots
        col = _entering_column(tableau, row, enter_cols, bland)
        _pivot(tableau, row, col, basis)
        # The objective entry is -c.x; a dual pivot can only lower it.
        obj = tableau[-1, -1]
        if obj >= last_obj - 1e-12:
            stall += 1
            if stall > STALL_LIMIT:
                bland = True
        else:
            stall = 0
        last_obj = obj
    raise SimplexError("iteration limit reached")


class SimplexWalk:
    """The optimal tableaux of one or more objectives (the rows of a 2-D c,
    or a 1-D c) over A x = b, x >= 0, which `move` carries to a new b.
    Rows of A should be linearly independent; redundant rows surface as
    leftover artificial basics and are pivoted out or rejected.  Raises
    InfeasibleError / UnboundedError / SimplexError.

    Built cold: one phase 1, then a phase 2 per objective on its own copy.
    `pivots` holds, per objective, the pivots that reached its current
    optimum: phase 1's (counted in each) and its phase 2's when cold, its
    restart's after a move.  A move that raises leaves the walk spent."""

    def __init__(self, c, A, b):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        m, n = A.shape
        if b.shape != (m,) or c.ndim not in (1, 2) or c.shape[-1] != n:
            raise ValueError("inconsistent shapes")
        self._flip = b < 0
        tableau, basis, shared = _phase_one(A, b, self._flip)
        self._objectives = np.atleast_2d(c)
        self._states = [(tableau.copy(), basis.copy()) for _ in self._objectives]
        self.pivots = [shared + _phase_two(*state, row) for state, row in zip(self._states, self._objectives)]

    def move(self, b) -> None:
        """Re-solve every objective at right-hand side b from its optimal
        basis: re-read x_B = B^-1 b from the artificial block and -c_B.x_B
        into the objective entry, so that no rounding builds up along a
        walk, then run the dual simplex."""
        b = np.asarray(b, dtype=float)
        signed = np.where(self._flip, -b, b)  # the rows as phase 1 flipped them
        n = self._objectives.shape[1]
        for i, ((tableau, basis), c) in enumerate(zip(self._states, self._objectives)):
            tableau[:-1, -1] = tableau[:-1, n : n + len(signed)] @ signed
            tableau[-1, -1] = -c[basis] @ tableau[:-1, -1]
            self.pivots[i] = _dual_iterate(tableau, basis, n)

    def solutions(self) -> list:
        """(x, value, y) per objective, y the row duals: c_B B^-1, read off
        the final objective row over the artificial block, which started as
        the identity."""
        return [_solution(tableau, basis, c, self._flip)
                for (tableau, basis), c in zip(self._states, self._objectives)]


def _phase_one(A, b, flip):
    """A feasible (tableau, basis) for A x = b, x >= 0, the rows in flip
    negated so that b >= 0, with the artificial columns kept and the rows of
    redundant constraints dropped, and the number of pivots it took."""
    m, n = A.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, -1] = b
    tableau[:m][flip] *= -1.0
    # Artificial identity block doubles as the lexicographic tracker and as
    # B^-1 for a new b, so it is kept through both phases; artificials are
    # never eligible to enter.
    tableau[:m, n : n + m] = np.eye(m)
    tableau[-1] = -tableau[:m].sum(axis=0)
    tableau[-1, n : n + m] = 0.0
    basis = np.arange(n, n + m)
    pivots = _iterate(tableau, basis, n, n, n + m)
    if tableau[-1, -1] < -1e-7:
        raise InfeasibleError(f"phase 1 residual {-tableau[-1, -1]:.3e}")

    # Remove artificials still sitting in the basis (degenerate at zero).
    for row in range(m):
        if basis[row] >= n:
            nonzero = np.where(np.abs(tableau[row, :n]) > TOL)[0]
            if nonzero.size:
                _pivot(tableau, row, int(nonzero[0]), basis)
                pivots += 1
            elif abs(tableau[row, -1]) > 1e-7:
                raise InfeasibleError("inconsistent redundant row")
    keep = [r for r in range(m) if basis[r] < n]
    if len(keep) < m:
        tableau = np.vstack([tableau[keep], tableau[-1:]])
        basis = basis[keep]
    return tableau, basis, pivots


def _phase_two(tableau, basis, c) -> int:
    """Minimize c.x from phase 1's feasible tableau and basis, both updated
    in place, and return the number of pivots."""
    m = len(basis)
    n = len(c)
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for row in range(m):
        tableau[-1] -= tableau[-1, basis[row]] * tableau[row]
    return _iterate(tableau, basis, n, n, n + m)


def _solution(tableau, basis, c, flip):
    """(x, value, y) of an optimal tableau."""
    m = len(basis)
    n = len(c)
    x = np.zeros(n)
    x[basis] = np.maximum(tableau[:m, -1], 0.0)
    y = -tableau[-1, n : n + len(flip)]
    y[flip] *= -1.0  # duals of the rows as given, not as flipped
    return x, float(c @ x), y
