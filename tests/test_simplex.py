import numpy as np
import pytest
from scipy.optimize import linprog

import randamp.simplex as simplex
from randamp import lp
from randamp.simplex import InfeasibleError, SimplexWalk, UnboundedError, _lex_first


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
    (x, value, y), = SimplexWalk(c, A, b).solutions()
    assert value == pytest.approx(-36.0, abs=1e-9)
    assert x[0] == pytest.approx(2.0, abs=1e-9)
    assert x[1] == pytest.approx(6.0, abs=1e-9)
    assert np.max(np.abs(y - [0.0, -1.5, -1.0])) <= 1e-12
    # The second row negated (b < 0, flipped inside): the dual of the row as
    # given changes sign.
    A[1] *= -1.0
    b[1] *= -1.0
    (_, flipped_value, flipped), = SimplexWalk(c, A, b).solutions()
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
    (x, value, _), = SimplexWalk(c, A, b).solutions()
    assert value == pytest.approx(-0.05, abs=1e-9)


def test_infeasible_detected():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(InfeasibleError):
        SimplexWalk(np.zeros(2), A, b)


def test_unbounded_detected():
    A = np.array([[1.0, -1.0]])
    b = np.array([1.0])
    with pytest.raises(UnboundedError):
        SimplexWalk(np.array([-1.0, 0.0]), A, b)


def test_trivial_and_redundant_rows():
    (x, value, _), = SimplexWalk(np.array([1.0]), np.array([[1.0]]), np.array([0.0])).solutions()
    assert value == 0.0
    A = np.array([[1.0, 1.0], [2.0, 2.0]])  # consistent duplicate
    b = np.array([1.0, 2.0])
    (x, value, _), = SimplexWalk(np.array([1.0, 0.0]), A, b).solutions()
    assert value == pytest.approx(0.0, abs=1e-9)
    assert x[1] == pytest.approx(1.0, abs=1e-9)


def test_negative_rhs_rows_are_flipped():
    # Same feasible set as x1 + x2 = 1 written with a negated row.
    A = np.array([[-1.0, -1.0]])
    b = np.array([-1.0])
    (x, value, _), = SimplexWalk(np.array([2.0, 1.0]), A, b).solutions()
    assert value == pytest.approx(1.0, abs=1e-9)


def test_shape_validation():
    with pytest.raises(ValueError):
        SimplexWalk(np.zeros(3), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        SimplexWalk(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        SimplexWalk(np.float64(0.0), np.zeros((2, 2)), np.zeros(2))


@pytest.mark.parametrize("delta", [0.0, 2 / 9, 1 / 3, 1.0, 8.0])
def test_stacked_objectives_match_separate_solves_on_certify_lp(delta):
    route = lp._SimplexRoute([rep for rep, _ in lp.symmetry_orbits()], delta)
    A, b = route.A, route.b
    assert_same_triples(route.walk.solutions(), [SimplexWalk(c, A, b).solutions()[0] for c in route.C])


def test_stacked_objectives_match_separate_solves_with_flipped_row():
    c, A, b = textbook_problem()
    A[1] *= -1.0
    b[1] *= -1.0  # b < 0: flipped inside, and the dual of that row with it
    C = np.array([c, [-1.0, -1.0, 0.0, 0.0, 0.0], [1.0, -2.0, 0.0, 0.0, 0.0]])
    stacked = SimplexWalk(C, A, b).solutions()
    assert_same_triples(stacked, [SimplexWalk(row, A, b).solutions()[0] for row in C])
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
        results = SimplexWalk(np.tile(c, (r, 1)), A, b).solutions()
        assert len(results) == r
        assert len(calls) == 1 + r
    calls.clear()
    SimplexWalk(c, A, b)
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

        (x, value, y), = SimplexWalk(c, A, b).solutions()
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0, f"trial {trial}: scipy failed"
        assert value == pytest.approx(ref.fun, abs=1e-7)
        assert np.max(np.abs(A @ x - b)) <= 1e-7
        assert np.min(x) >= -1e-9
        assert c @ x == pytest.approx(value, abs=1e-9)
        assert np.max(np.abs(y - ref.eqlin.marginals)) <= 1e-9, f"trial {trial}"
        assert np.min(c - A.T @ y) >= -1e-9
        assert b @ y == pytest.approx(value, abs=1e-9)


def test_dual_restart_matches_a_cold_solve_after_an_rhs_change():
    """The textbook LP, then random bounded LPs: after b moves, the restart
    from the old optimal basis reaches the cold solve's value and duals."""
    c, A, b = textbook_problem()
    walk = SimplexWalk(c, A, b)
    pivots = []
    for moved in ([4.0, 12.0, 10.0], [1.0, 3.0, 18.0], [4.0, 12.0, 18.0], [6.0, 14.0, 30.0]):
        walk.move(np.array(moved))
        pivots += walk.pivots
        (x, value, y), = walk.solutions()
        (cold_x, cold_value, cold_y), = SimplexWalk(c, A, np.array(moved)).solutions()
        assert value == pytest.approx(cold_value, abs=1e-12), moved
        assert np.max(np.abs(x - cold_x)) <= 1e-12 and np.max(np.abs(y - cold_y)) <= 1e-12, moved
    # At (6, 14, 30) the last basis {x, y, s1} reads x = 16/3, y = 7, s1 = 2/3: feasible, no pivot.
    assert pivots[0] > 0 and pivots[-1] == 0

    rng = np.random.default_rng(2018)
    restarted = 0
    for trial in range(30):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m + 1, 10))
        A = np.hstack([np.vstack([rng.standard_normal((m, n)), np.ones(n)]), np.eye(m + 1)[:, -1:]])
        points = rng.random((2, n))
        b0, b1 = (np.concatenate([A[:m, :n] @ p, [p.sum() + 1.0]]) for p in points)
        c = np.concatenate([rng.standard_normal(n), [0.0]])
        walk = SimplexWalk(c, A, b0)
        walk.move(b1)
        restarted += walk.pivots[0] > 0
        (x, value, y), = walk.solutions()
        (cold_x, cold_value, cold_y), = SimplexWalk(c, A, b1).solutions()
        assert value == pytest.approx(cold_value, abs=1e-9), trial
        assert np.max(np.abs(A @ x - b1)) <= 1e-9 and np.min(x) >= 0.0, trial
        assert np.max(np.abs(y - cold_y)) <= 1e-9, trial
    assert restarted >= 10  # 12 of the 30 moves leave the old basis infeasible


def test_dual_restart_detects_an_infeasible_rhs():
    c, A, b = textbook_problem()
    walk = SimplexWalk(c, A, b)
    with pytest.raises(InfeasibleError, match="dual simplex"):
        walk.move(np.array([4.0, 12.0, -1.0]))  # 3x + 2y <= -1 with x, y >= 0


def test_dual_restart_falls_back_to_bland_and_terminates(monkeypatch):
    """With no stalled pivot allowed, the first dual pivot that leaves the
    objective alone switches the restart to Bland's rule for good.  On the
    certify LP, whose box polytope is massively degenerate, the restart
    from delta = 0.1 to 8 still ends at the cold optimum with a feasible
    dual."""
    ruled = []
    entering = simplex._entering_column

    def recording(tableau, row, enter_cols, bland):
        ruled.append(bland)
        return entering(tableau, row, enter_cols, bland)

    rep, _ = lp.symmetry_orbits()[0]
    (_, cold_value, _), = lp._SimplexRoute([rep], 8.0).walk.solutions()
    route = lp._SimplexRoute([rep], 0.1)
    monkeypatch.setattr(simplex, "_entering_column", recording)
    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)
    route.move(8.0)
    assert ruled[0] is False and True in ruled
    assert ruled[ruled.index(True):] == [True] * (len(ruled) - ruled.index(True))
    (x, value, y), = route.walk.solutions()
    A, b, C = route.A, route.b, route.C
    assert value == pytest.approx(cold_value, abs=1e-12)
    assert np.max(np.abs(A @ x - b)) <= 1e-9 and np.min(x) >= 0.0
    assert np.min(C[0] - A.T @ y) >= -1e-9 and b @ y == pytest.approx(value, abs=1e-9)
