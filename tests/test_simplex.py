import numpy as np
import pytest
from scipy.optimize import linprog

from randamp.simplex import InfeasibleError, UnboundedError, simplex_solve


def test_textbook_production_problem():
    # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18; optimum 36 at (2, 6)
    A = np.array(
        [
            [1.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 1.0, 0.0],
            [3.0, 2.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([4.0, 12.0, 18.0])
    c = np.array([-3.0, -5.0, 0.0, 0.0, 0.0])
    x, value, y = simplex_solve(c, A, b)
    assert value == pytest.approx(-36.0, abs=1e-9)
    assert x[0] == pytest.approx(2.0, abs=1e-9)
    assert x[1] == pytest.approx(6.0, abs=1e-9)
    assert np.max(np.abs(y - [0.0, -1.5, -1.0])) <= 1e-12
    # The second row negated (b < 0, flipped inside): the dual of the row as
    # given changes sign.
    A[1] *= -1.0
    b[1] *= -1.0
    _, flipped_value, flipped = simplex_solve(c, A, b)
    assert flipped_value == value
    assert np.max(np.abs(flipped - [0.0, 1.5, -1.0])) <= 1e-12


def test_beale_cycling_example():
    # Classic degenerate instance that cycles under naive Dantzig pivoting.
    A = np.array(
        [
            [1.0, 0.0, 0.0, 0.25, -60.0, -0.04, 9.0],
            [0.0, 1.0, 0.0, 0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0])
    x, value, _ = simplex_solve(c, A, b)
    assert value == pytest.approx(-0.05, abs=1e-9)


def test_infeasible_detected():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(InfeasibleError):
        simplex_solve(np.zeros(2), A, b)


def test_unbounded_detected():
    A = np.array([[1.0, -1.0]])
    b = np.array([1.0])
    with pytest.raises(UnboundedError):
        simplex_solve(np.array([-1.0, 0.0]), A, b)


def test_trivial_and_redundant_rows():
    x, value, _ = simplex_solve(np.array([1.0]), np.array([[1.0]]), np.array([0.0]))
    assert value == 0.0
    A = np.array([[1.0, 1.0], [2.0, 2.0]])  # consistent duplicate
    b = np.array([1.0, 2.0])
    x, value, _ = simplex_solve(np.array([1.0, 0.0]), A, b)
    assert value == pytest.approx(0.0, abs=1e-9)
    assert x[1] == pytest.approx(1.0, abs=1e-9)


def test_negative_rhs_rows_are_flipped():
    # Same feasible set as x1 + x2 = 1 written with a negated row.
    A = np.array([[-1.0, -1.0]])
    b = np.array([-1.0])
    x, value, _ = simplex_solve(np.array([2.0, 1.0]), A, b)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_shape_validation():
    with pytest.raises(ValueError):
        simplex_solve(np.zeros(3), np.zeros((2, 2)), np.zeros(2))


def test_random_instances_match_scipy():
    rng = np.random.default_rng(42)
    for trial in range(30):
        m = rng.integers(2, 6)
        n = rng.integers(m + 1, 10)
        A = rng.standard_normal((m, n))
        x0 = rng.random(n)
        # Add a total-mass row so the feasible set is bounded.
        A = np.vstack([A, np.ones(n)])
        A = np.hstack([A, np.zeros((m + 1, 1))])
        A[-1, -1] = 1.0
        b = np.concatenate([A[:m, :n] @ x0, [x0.sum() + 1.0]])
        c = np.concatenate([rng.standard_normal(n), [0.0]])

        x, value, y = simplex_solve(c, A, b)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0, f"trial {trial}: scipy failed"
        assert value == pytest.approx(ref.fun, abs=1e-7)
        assert np.max(np.abs(A @ x - b)) <= 1e-7
        assert np.min(x) >= -1e-9
        assert c @ x == pytest.approx(value, abs=1e-9)
        assert np.max(np.abs(y - ref.eqlin.marginals)) <= 1e-9, f"trial {trial}"
        assert np.min(c - A.T @ y) >= -1e-9
        assert b @ y == pytest.approx(value, abs=1e-9)
