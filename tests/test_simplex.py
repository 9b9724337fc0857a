import numpy as np
import pytest
from scipy.optimize import linprog

import randamp.simplex as simplex
from randamp import lp
from randamp.simplex import InfeasibleError, UnboundedError, _lex_first, simplex_solve


def textbook_problem():
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
    return c, A, b


def assert_same_triples(stacked, separate):
    assert len(stacked) == len(separate)
    for got, want in zip(stacked, separate):
        x, value, y = got
        assert np.array_equal(x, want[0]) and value == want[1] and np.array_equal(y, want[2])


def test_textbook_production_problem():
    c, A, b = textbook_problem()
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
    with pytest.raises(ValueError):
        simplex_solve(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        simplex_solve(np.float64(0.0), np.zeros((2, 2)), np.zeros(2))


@pytest.mark.parametrize("delta", [0.0, 2 / 9, 1 / 3, 1.0, 8.0])
def test_stacked_objectives_match_separate_solves_on_certify_lp(delta):
    instances = [lp.LpInstance(rep[0], delta, rep[1]) for rep, _ in lp.symmetry_orbits()]
    A, b, C = lp._simplex_program(instances)
    assert_same_triples(simplex_solve(C, A, b), [simplex_solve(c, A, b) for c in C])


def test_stacked_objectives_match_separate_solves_with_flipped_row():
    c, A, b = textbook_problem()
    A[1] *= -1.0
    b[1] *= -1.0  # b < 0: flipped inside, and the dual of that row with it
    C = np.array([c, [-1.0, -1.0, 0.0, 0.0, 0.0], [1.0, -2.0, 0.0, 0.0, 0.0]])
    stacked = simplex_solve(C, A, b)
    assert_same_triples(stacked, [simplex_solve(row, A, b) for row in C])
    assert np.max(np.abs(stacked[0][2] - [0.0, 1.5, -1.0])) <= 1e-12


def test_phase_one_runs_once_for_stacked_objectives(monkeypatch):
    calls = []
    iterate = simplex._iterate

    def counting(*args):
        calls.append(args)
        return iterate(*args)

    monkeypatch.setattr(simplex, "_iterate", counting)
    c, A, b = textbook_problem()
    for r in (1, 2, 3):
        calls.clear()
        results = simplex_solve(np.tile(c, (r, 1)), A, b)
        assert len(results) == r
        assert len(calls) == 1 + r
    calls.clear()
    simplex_solve(c, A, b)
    assert len(calls) == 2


def test_lex_first_matches_lexsort_on_ties():
    rng = np.random.default_rng(7)
    for trial in range(2000):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 8))
        block = rng.integers(-2, 3, size=(rows, cols)).astype(float)
        block[block == 0.0] = rng.choice([0.0, -0.0], size=int(np.sum(block == 0.0)))
        # Exact duplicates, some with zeros of the other sign.
        for _ in range(int(rng.integers(0, rows))):
            src, dst = rng.integers(0, rows, size=2)
            block[dst] = block[src]
            block[dst][block[dst] == 0.0] *= -1.0
        assert _lex_first(block) == np.lexsort(block[:, ::-1].T)[0], (trial, block)


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
