"""Dense two-phase tableau simplex for equality-form linear programs.

Solves min c.x subject to A x = b, x >= 0, and returns the row duals y of
the optimum with it (c - A^T y >= 0, b.y = c.x).  Written for the
few-hundred variable scale of box polytopes; kept deliberately independent
of scipy so certification can cross-check two unrelated code paths.

Box polytopes are massively degenerate, so the leaving row is chosen
lexicographically against the running basis-inverse block (the classic
anti-cycling rule), with Bland's rule as a sticky fallback.
"""

from __future__ import annotations

import numpy as np


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


def _leaving_row(tableau, basis, col, lex_lo, lex_hi, tol, bland):
    """Ratio test.  Ties are broken lexicographically on the scaled
    basis-inverse rows, or by smallest basis label under Bland's rule."""
    column = tableau[:-1, col]
    positive = column > tol
    if not positive.any():
        raise UnboundedError("objective unbounded below")
    # Rounding can leave the rhs a hair negative; treat that as zero so the
    # ratio test stays a degenerate pivot instead of a wild negative ratio.
    rhs = np.maximum(tableau[:-1, -1], 0.0)
    ratios = np.full(column.shape, np.inf)
    ratios[positive] = rhs[positive] / column[positive]
    best = float(np.min(ratios))
    candidates = np.where(ratios <= best + tol * (1.0 + best))[0]
    if candidates.size == 1:
        return int(candidates[0])
    if bland:
        return int(candidates[np.argmin(basis[candidates])])
    scaled = tableau[candidates, lex_lo:lex_hi] / column[candidates, None]
    order = np.lexsort(scaled[:, ::-1].T)
    return int(candidates[order[0]])


def _iterate(tableau, basis, enter_cols, lex_lo, lex_hi, tol, maxiter):
    """Pivot until no reduced cost among the first enter_cols columns is
    negative.  Dantzig entering; sticky Bland entering after a long stall."""
    stall = 0
    bland = False
    last_obj = tableau[-1, -1]
    for _ in range(maxiter):
        costs = tableau[-1, :enter_cols]
        if bland:
            negative = np.where(costs < -tol)[0]
            if negative.size == 0:
                return
            col = int(negative[0])
        else:
            col = int(np.argmin(costs))
            if costs[col] >= -tol:
                return
        row = _leaving_row(tableau, basis, col, lex_lo, lex_hi, tol, bland)
        _pivot(tableau, row, col, basis)
        obj = tableau[-1, -1]
        if obj <= last_obj + 1e-12:
            stall += 1
            if stall > 1000:
                bland = True
        else:
            stall = 0
        last_obj = obj
    raise SimplexError("iteration limit reached")


def simplex_solve(c, A, b, tol: float = 1e-9, maxiter: int = 50000):
    """Minimize c.x over A x = b, x >= 0.

    Returns (x, value, y), y the row duals: c_B B^-1, read off the final
    objective row over the artificial block, which started as the identity.
    Raises InfeasibleError / UnboundedError / SimplexError.  Rows of A should
    be linearly independent; redundant rows surface as leftover artificial
    basics and are pivoted out or rejected.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent shapes")
    A = A.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Artificial identity block doubles as the lexicographic tracker, so it is
    # kept through both phases; artificials are never eligible to enter.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1] = -tableau[:m].sum(axis=0)
    tableau[-1, n : n + m] = 0.0
    basis = np.arange(n, n + m)
    _iterate(tableau, basis, n, n, n + m, tol, maxiter)
    if tableau[-1, -1] < -1e-7:
        raise InfeasibleError(f"phase 1 residual {-tableau[-1, -1]:.3e}")

    # Remove artificials still sitting in the basis (degenerate at zero).
    for row in range(m):
        if basis[row] >= n:
            pivots = np.where(np.abs(tableau[row, :n]) > tol)[0]
            if pivots.size:
                _pivot(tableau, row, int(pivots[0]), basis)
            elif abs(tableau[row, -1]) > 1e-7:
                raise InfeasibleError("inconsistent redundant row")
    keep = [r for r in range(m) if basis[r] < n]
    if len(keep) < m:
        tableau = np.vstack([tableau[keep], tableau[-1:]])
        basis = basis[keep]
        m = len(keep)

    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for row in range(m):
        tableau[-1] -= tableau[-1, basis[row]] * tableau[row]
    _iterate(tableau, basis, n, n, n + m, tol, maxiter)

    x = np.zeros(n)
    x[basis] = np.maximum(tableau[:m, -1], 0.0)
    y = -tableau[-1, n : n + len(b)]
    y[flip] *= -1.0  # duals of the rows as given, not as flipped
    return x, float(c @ x), y
