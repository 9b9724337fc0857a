import subprocess
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest

import randamp.lp as lp
from randamp.boxes import bell_value, majority, pack_bits, unpack_bits
from randamp.lp import (
    INSTANCE_KEYS,
    CertificationError,
    LpInstance,
    SymmetryMap,
    analytic_bound,
    adversarial_box,
    _candidate_maps,
    _transport,
    _walk,
    certify_bound,
    check_symmetry_map,
    equality_constraints,
    independent_equality_rows,
    majority_sign_vector,
    solve,
    symmetry_orbits,
)

from helpers import clear_lp_caches, dense_check_symmetry_map, inequality_constraints, loop_equality_constraints
from test_cli import PINNED_CERTIFY_DELTAS

U_STAR = (0, 0, 0, 1)

# Optima of the guessing program, frozen from both solver paths (they agree
# to 5e-15).  All 16 instances per delta share the same value by symmetry.
FROZEN_OPTIMA = {
    0.0: 0.25,
    0.1: 0.3125,
    0.2: 0.375,
    0.4: 0.425,
    0.8: 0.475,
    1.0: 0.5,
    2.0: 0.5,
}


def test_analytic_bound_values():
    assert analytic_bound(0.0) == pytest.approx(11 / 32)
    assert analytic_bound(0.2) == pytest.approx(12.4 / 32)
    assert analytic_bound(0.8) == 0.5  # capped at the trivial ceiling
    assert analytic_bound(8.0) == 0.5


def test_equality_system_shape_and_rank():
    A, b = equality_constraints()
    assert A.shape == (272, 256)
    assert b.shape == (272,)
    keep = independent_equality_rows()
    assert len(keep) == np.linalg.matrix_rank(A)
    assert np.linalg.matrix_rank(A[keep]) == len(keep)


def test_stored_equality_rows_are_checked(monkeypatch):
    """The stored rows must be a basis of the equality system: a kept row
    swapped for a dropped one that the other kept rows span, or one kept
    row left out, is refused on first use."""
    A, _ = equality_constraints()
    keep = list(lp._INDEPENDENT_ROWS)
    dropped = min(set(range(len(A))) - set(keep))
    # The dropped row as the unique combination of the kept ones: a kept row
    # without weight in it can go, and the dropped row is still dependent.
    weights = np.linalg.lstsq(A[keep].T, A[dropped], rcond=None)[0]
    unused = keep[np.flatnonzero(np.abs(weights) < 1e-9)[0]]
    swapped = sorted(set(keep) - {unused} | {dropped})
    for rows in (swapped, keep[:-1]):
        monkeypatch.setattr(lp, "_INDEPENDENT_ROWS", tuple(rows))
        with pytest.raises(RuntimeError, match="stored equality rows"):
            independent_equality_rows.__wrapped__()


def test_equality_system_matches_row_by_row_oracle():
    A, b = equality_constraints()
    A_loop, b_loop = loop_equality_constraints()
    assert A.dtype == A_loop.dtype and b.dtype == b_loop.dtype
    assert A.shape == A_loop.shape and A.flags.c_contiguous
    assert A.tobytes() == A_loop.tobytes() and b.tobytes() == b_loop.tobytes()


def test_frozen_grid():
    for delta, frozen in FROZEN_OPTIMA.items():
        sol = solve(LpInstance(U_STAR, delta, 0))
        assert sol.value == pytest.approx(frozen, abs=1e-7), f"delta={delta}"
        assert sol.value <= analytic_bound(delta) + 1e-8


def test_two_solver_paths_agree():
    for delta in (0.0, 0.2, 0.8):
        a = solve(LpInstance(U_STAR, delta, 0), method="highs")
        b = solve(LpInstance(U_STAR, delta, 0), method="simplex")
        assert abs(a.value - b.value) <= 1e-7
        assert b.value == pytest.approx(FROZEN_OPTIMA[delta], abs=1e-7)


def test_all_instances_symmetric():
    report = certify_bound(0.1)
    values = list(report.optima.values())
    assert len(values) == 16
    assert max(values) - min(values) <= 1e-7
    assert report.passed
    assert report.max_optimum == pytest.approx(FROZEN_OPTIMA[0.1], abs=1e-7)


def test_optimum_monotone_and_concave_in_delta():
    grid = [0.1 * i for i in range(9)]
    values = [solve(LpInstance(U_STAR, d, 0)).value for d in grid]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-9)
    assert np.all(np.diff(diffs) <= 1e-7)  # marginal gain never increases


def test_weak_duality_and_dual_cap_at_zero():
    sol = solve(LpInstance(U_STAR, 0.0, 0))
    assert sol.value <= 0.5 * sol.dual_value + 1e-8
    assert sol.dual_value <= 11.0 / 16.0 + 1e-7
    assert np.min(sol.dual_certificate) >= -1e-9


def test_objective_structure():
    m = LpInstance(U_STAR, 0.0, 0).objective_m()
    u = pack_bits(U_STAR)
    signs = majority_sign_vector(0)
    assert np.sum(signs == 1.0) == 8
    for x in range(16):
        bits = unpack_bits(x)
        expected = 1.0 if majority(bits[0], bits[1], bits[2]) == 0 else -1.0
        assert m[x * 16 + u] == expected
    off = np.delete(m.reshape(16, 16), u, axis=1)
    assert not off.any()


def test_guess_flip_negates_objective():
    m0 = LpInstance(U_STAR, 0.3, 0).objective_m()
    m1 = LpInstance(U_STAR, 0.3, 1).objective_m()
    assert np.array_equal(m0, -m1)


def test_instance_validation():
    with pytest.raises(ValueError):
        LpInstance((0, 0, 0, 0), 0.1, 0)  # setting without a Bell coefficient
    with pytest.raises(ValueError):
        LpInstance(U_STAR, 0.1, 2)
    with pytest.raises(ValueError):
        LpInstance(U_STAR, -0.1, 0)
    with pytest.raises(ValueError):
        LpInstance(U_STAR, 8.5, 0)
    with pytest.raises(ValueError):
        solve(LpInstance(U_STAR, 0.1, 0), method="barrier")


def test_adversarial_box_achieves_optimum():
    delta = 0.4
    sol = solve(LpInstance(U_STAR, delta, 0))
    box = sol.box
    assert bell_value(box, validate=False) <= delta + 1e-6
    dist = box.outcome_distribution(U_STAR)
    maj_is_guess = np.array(
        [majority(*unpack_bits(x)[:3]) == 0 for x in range(16)]
    )
    advantage = dist[maj_is_guess].sum() - dist[~maj_is_guess].sum()
    assert advantage == pytest.approx(2.0 * sol.value, abs=1e-6)
    same = adversarial_box(delta, U_STAR, 0)
    assert np.max(np.abs(same.table - box.table)) <= 1e-9


def test_report_json_round_trip():
    report = certify_bound(0.0)
    payload = report.to_json()
    assert payload["passed"] is True
    assert payload["delta"] == 0.0
    assert payload["bound"] == pytest.approx(11 / 32)
    assert len(payload["optima"]) == 16
    assert payload["max_optimum"] == pytest.approx(0.25, abs=1e-7)


def _key(label):
    setting, guess = label
    return tuple(int(b) for b in setting), guess


def test_certify_matches_independent_solves():
    """Every optimum certify_bound reports, solved or carried by symmetry,
    equals a fresh solve of that instance on the same route."""
    for delta in (0.0, 0.1, 1 / 3, 0.8, 2.0):
        for method in ("highs", "simplex"):
            report = certify_bound(delta, method=method)
            assert report.solved == 2
            for label, value in report.optima.items():
                u_star, guess = _key(label)
                fresh = solve(LpInstance(u_star, delta, guess), method=method).value
                assert abs(value - fresh) <= 1e-9, (delta, method, label)


def test_symmetry_orbits_and_exact_maps():
    orbits = symmetry_orbits()
    assert sorted(1 + len(members) for _, members in orbits) == [4, 12]
    covered = [rep for rep, _ in orbits] + [m for _, members in orbits for m, _, _ in members]
    assert sorted(covered) == sorted(INSTANCE_KEYS)
    # The stored permutations, re-checked on the float matrix at a delta.
    A, c = inequality_constraints(0.3)
    for rep, members in orbits:
        m_rep = LpInstance(rep[0], 0.3, rep[1]).objective_m()
        for member, P, R in members:
            assert np.array_equal(A[R][:, P], A)
            assert np.array_equal(c[R], c)
            assert np.array_equal(LpInstance(member[0], 0.3, member[1]).objective_m()[P], m_rep)
    # Every candidate map passes the exact checks from every instance.
    by_objective = {LpInstance(u, 0.0, g).objective_m().tobytes(): (u, g) for u, g in INSTANCE_KEYS}
    maps = list(_candidate_maps())
    assert len(maps) == 24
    for smap in maps:
        for source in INSTANCE_KEYS:
            m = LpInstance(source[0], 0.0, source[1]).objective_m()
            image = np.empty_like(m)
            image[smap.var_perm()] = m
            check_symmetry_map(smap, source, by_objective[image.tobytes()])


def test_corrupted_symmetry_maps_rejected():
    source = ((0, 0, 0, 1), 0)
    # Swapping parties 1 and 4 keeps the constraints but not the objective.
    with pytest.raises(CertificationError, match="objective"):
        check_symmetry_map(SymmetryMap((3, 1, 2, 0), 0, False), source, ((1, 0, 0, 0), 0))
    # An odd output flip without the input flip moves the Bell row's support.
    with pytest.raises(CertificationError, match="inequality rows"):
        check_symmetry_map(SymmetryMap((0, 1, 2, 3), 8, False), source, source)
    check_symmetry_map(SymmetryMap((0, 1, 2, 3), 8, True), source, ((1, 1, 1, 0), 0))


def _verdict(check, *args):
    try:
        P, R = check(*args)
    except CertificationError as exc:
        return str(exc)
    return P.tobytes(), R.tobytes()


@dataclass(frozen=True)
class SwappedMap(SymmetryMap):
    """A symmetry map with two entries of its P or of its R swapped, or
    (j = None) entry i of P overwritten by entry i + 1."""

    which: str = "P"
    i: int = 0
    j: int | None = None

    def _corrupt(self, perm):
        perm = perm.copy()
        if self.j is None:
            perm[self.i] = perm[self.i + 1]
        else:
            perm[[self.i, self.j]] = perm[[self.j, self.i]]
        return perm

    def var_perm(self):
        P = super().var_perm()
        return self._corrupt(P) if self.which == "P" else P

    def row_perm(self):
        R = super().row_perm()
        return self._corrupt(R) if self.which == "R" else R


def test_support_map_check_matches_dense_oracle():
    """check_symmetry_map decides every map, sound or corrupted, as the
    dense A[R][:, P] == A check does, with the same message."""
    by_objective = {LpInstance(u, 0.0, g).objective_m().tobytes(): (u, g) for u, g in INSTANCE_KEYS}

    def image_of(smap, source):
        m = LpInstance(source[0], 0.0, source[1]).objective_m()
        image = np.empty_like(m)
        image[smap.var_perm()] = m
        return by_objective[image.tobytes()]

    rng = np.random.default_rng(4)
    seen = set()
    n_rows = 2 * lp.N_EQ + lp.N_VARS + 1
    for smap in _candidate_maps():
        for source in INSTANCE_KEYS:
            target = image_of(smap, source)
            accepted = _verdict(dense_check_symmetry_map, smap, source, target)
            assert _verdict(check_symmetry_map, smap, source, target) == accepted
            assert accepted == (smap.var_perm().tobytes(), smap.row_perm().tobytes())
            # The wrong target: only the objective check can fail.
            wrong = INSTANCE_KEYS[(INSTANCE_KEYS.index(target) + 1) % len(INSTANCE_KEYS)]
            verdict = _verdict(check_symmetry_map, smap, source, wrong)
            assert verdict == _verdict(dense_check_symmetry_map, smap, source, wrong)
            assert "does not carry the objective" in verdict
        # Two entries of R or of P swapped, some pairs drawn at random and
        # some chosen: the Bell row, and rows or variables of one block; and
        # one entry repeated, which is no bijection.
        corrupt = [("R", n_rows - 1, 0), ("R", 3, 300), ("R", 17, 18), ("R", 600, 601), ("P", 0, 1), ("P", 5, 250)]
        corrupt += [("R", *map(int, rng.choice(n_rows, 2, replace=False))) for _ in range(4)]
        corrupt += [("P", *map(int, rng.choice(lp.N_VARS, 2, replace=False))) for _ in range(4)]
        corrupt += [("P", 7, None), ("R", 40, None)]
        for which, i, j in corrupt:
            bad = SwappedMap(smap.parties, smap.out_flip, smap.in_flip, which, i, j)
            source = INSTANCE_KEYS[int(rng.integers(len(INSTANCE_KEYS)))]
            target = image_of(smap, source)
            verdict = _verdict(check_symmetry_map, bad, source, target)
            assert verdict == _verdict(dense_check_symmetry_map, bad, source, target)
            assert isinstance(verdict, str), (smap, which, i, j)
            seen.add(verdict.split(") ", 1)[1].split(" of ")[0])
    # Swapped entries break the row map before the objective is looked at.
    assert seen == {"is not a bijection", "moves the Bell row", "does not map the inequality rows onto themselves"}


def test_row_map_from_a_colliding_hash_is_refused(monkeypatch):
    """With every hash weight 1, distinct rows share a hash, so row_perm
    matches some rows to unequal ones: check_symmetry_map refuses that R, and
    certify stops before any certificate is carried."""
    transported = []
    monkeypatch.setattr(lp, "_ROW_HASH_WEIGHTS", np.ones(lp.N_VARS))
    monkeypatch.setattr(lp, "_transport", lambda *args: transported.append(args))
    clear_lp_caches()
    try:
        with pytest.raises(CertificationError, match="does not map the inequality rows"):
            symmetry_orbits()
        for method in ("highs", "simplex"):
            with pytest.raises(CertificationError, match="does not map the inequality rows"):
                lp.certify_grid([0.1, 1 / 3], method)
    finally:
        monkeypatch.undo()
        clear_lp_caches()
    assert transported == []
    assert certify_bound(1 / 3).passed


def test_transport_rechecks_the_dual():
    delta = 0.2
    rep, members = symmetry_orbits()[1]
    member, P, R = members[0]
    ((x, _, lam, _),), = _walk("highs", [rep], [delta])
    target = LpInstance(member[0], delta, member[1])
    carried = _transport(target, x, lam, P, R)
    assert carried.value == pytest.approx(FROZEN_OPTIMA[delta], abs=1e-9)
    bad = lam.copy()
    bad[0] += 0.5  # weight on the normalization row of setting 0000
    with pytest.raises(CertificationError, match="dual certificate infeasible"):
        _transport(target, x, bad, P, R)
    bad = lam.copy()
    bad[np.argmax(lam == 0.0)] = -0.1  # certifies nothing, whatever its residual
    with pytest.raises(CertificationError, match="negative multiplier"):
        _transport(target, x, bad, P, R)


def test_route_certificates_checked_independently(monkeypatch):
    """Every certificate certify_bound checks, solved or carried, on both
    routes: non-negative, A^T lam = m on the dense inequality matrix, and
    dual value / 2 equal to the primal value."""
    checked = []
    certified = lp._certified

    def recording(*args):
        sol = certified(*args)
        checked.append(sol)
        return sol

    monkeypatch.setattr(lp, "_certified", recording)
    for delta in (0.0, 0.1, 2 / 9, 1 / 3, 1.0, 2.0, 8.0):
        A, c = inequality_constraints(delta)
        for method in ("highs", "simplex"):
            checked.clear()
            report = certify_bound(delta, method=method)
            assert len(checked) == 16
            for sol in checked:
                lam = sol.dual_certificate
                assert np.min(lam) >= 0.0
                residual = np.max(np.abs(A.T @ lam - sol.instance.objective_m()))
                assert residual <= 1e-9, (delta, method, sol.instance)
                assert sol.dual_residual == pytest.approx(residual, abs=1e-12)
                assert c @ lam == pytest.approx(sol.dual_value, abs=1e-12)
                assert abs(0.5 * sol.dual_value - sol.value) <= 1e-9, (delta, method, sol.instance)
            assert report.dual_residual == max(sol.dual_residual for sol in checked)
            assert report.duality_gap == max(sol.duality_gap for sol in checked)


def test_one_solve_per_orbit_and_no_dual_program(monkeypatch):
    calls = []
    real = lp._highs_solve

    def counting(c, delta):
        calls.append((c.tobytes(), delta))
        return real(c, delta)

    monkeypatch.setattr(lp, "_highs_solve", counting)
    for delta in (0.1, 1 / 3):
        calls.clear()
        certify_bound(delta, method="simplex")
        assert calls == []
        certify_bound(delta, method="highs")
        # One primal solve per orbit, on the representative's own objective
        # and the certified delta; no solve of a dual program.
        assert calls == [((-0.5 * LpInstance(rep[0], delta, rep[1]).objective_m()).tobytes(), delta)
                         for rep, _ in symmetry_orbits()]


@pytest.mark.parametrize("delta", [0.0, 0.05, 0.1, 2 / 9, 0.3, 1 / 3, 0.5, 5 / 7, 1.0, 2.0, 8.0])
def test_direct_highs_matches_linprog_bit_for_bit(delta):
    """The direct HiGHS call returns what scipy's linprog returns on the same
    program, to the bit: primal point, objective, every marginal and the
    iteration count.  So does the first delta of a chain, whatever deltas
    follow it.  Guards the direct call against a change in scipy."""
    from scipy.optimize import linprog

    A_eq, b_eq = equality_constraints()
    for rep, _ in symmetry_orbits():
        c = -0.5 * LpInstance(rep[0], delta, rep[1]).objective_m()
        want = linprog(c, A_ub=lp.bell_row()[None, :], b_ub=[delta], A_eq=A_eq, b_eq=b_eq,
                       bounds=(0, None), method="highs")
        _, (x, value, row_dual, lower, nit) = lp._highs_solve(c, delta)
        assert np.array_equal(x, want.x), rep
        assert value == want.fun, rep
        assert np.array_equal(row_dual[:1], want.ineqlin.marginals), rep
        assert np.array_equal(row_dual[1:], want.eqlin.marginals), rep
        assert np.array_equal(lower, want.lower.marginals), rep
        assert nit == want.nit, rep
        chain = _walk("highs", [rep], [delta, 1 / 3, 8.0])
        (x, value, lam, nit), = chain[0]
        assert np.array_equal(x, want.x), rep
        assert value == -want.fun, rep
        assert np.array_equal(lam, lp._dual_vector(-2.0 * want.eqlin.marginals, 2.0 * want.lower.marginals,
                                                   -2.0 * float(want.ineqlin.marginals[0]))), rep
        assert nit == want.nit, rep


def test_threaded_certify_leaves_the_shared_model_as_built(monkeypatch):
    """Every solver of a threaded grid starts from one HighsLp and sets its
    objective and Bell bound on its own copy, so the model keeps its zero
    objective and free Bell row: the fact threads sharing it rest on."""
    threads = []
    real = lp._walk

    def recording(method, keys, deltas):
        threads.append(threading.get_ident())
        return real(method, keys, deltas)

    monkeypatch.setattr(lp.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(lp, "_walk", recording)
    reports = lp.certify_grid([0.05, 0.3, 1 / 3, 2.0])
    assert all(isinstance(report, lp.CertificationReport) for report in reports)
    assert len(threads) == 2 and threading.get_ident() not in threads
    model, _ = lp._highs_model()
    assert list(model.col_cost_) == [0.0] * lp.N_VARS
    assert model.row_upper_[0] == lp._highs_core().kHighsInf


@pytest.mark.parametrize("steps", [
    # The bindings loaded from their file first: scipy.optimize then reuses
    # them, and linprog still solves.
    "core = lp._highs_core()\n"
    "import scipy.optimize\n"
    "from scipy.optimize._highspy import _core\n"
    "assert _core is core is sys.modules[lp._HIGHS_CORE]\n"
    "res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method='highs')\n"
    "assert res.status == 0 and res.fun == 1.0, res\n",
    # scipy.optimize first: the loader returns its module and loads nothing.
    "import scipy.optimize, importlib.util\n"
    "core = sys.modules[lp._HIGHS_CORE]\n"
    "def load(spec):\n"
    "    raise AssertionError('second load')\n"
    "importlib.util.module_from_spec = load\n"
    "assert lp._highs_core() is core\n",
], ids=["bindings-first", "scipy.optimize-first"])
def test_highs_bindings_loaded_once_in_either_import_order(steps):
    """Either way one module serves both, and the HiGHS route certifies."""
    script = f"import sys\nimport randamp.lp as lp\n{steps}assert lp.certify_bound(1 / 3).passed\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_highs_bindings_missing_from_scipy_is_named(monkeypatch, tmp_path):
    import scipy

    lp._highs_core()  # so that monkeypatch puts the loaded module back
    monkeypatch.delitem(sys.modules, lp._HIGHS_CORE)
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ModuleNotFoundError, match=r"no module 'scipy\.optimize\._highspy\._core' in "):
        lp._highs_core()
    assert lp._HIGHS_CORE not in sys.modules


def test_direct_highs_names_a_status_that_is_not_optimal():
    """No box has a negative Bell value, so a bound of -1 is infeasible."""
    c = -0.5 * LpInstance(U_STAR, 0.0, 0).objective_m()
    with pytest.raises(RuntimeError, match="model status 'Infeasible'"):
        lp._highs_solve(c, -1.0)


def test_shuffled_grid_matches_independent_linprog_solves():
    """A grid out of order, with every linear piece, the tight delta = 1/3
    and both ends of [0, 8]: every optimum certify_grid reports, solved cold
    or warm or carried by symmetry, is within 1e-12 of linprog's own solve of
    that instance."""
    from scipy.optimize import linprog

    A_eq, b_eq = equality_constraints()
    deltas = [8.0, 0.0, 1 / 3, 2 / 9, 5 / 7, 1.0, 0.05, 3.0]
    for delta, report in zip(deltas, lp.certify_grid(deltas)):
        assert isinstance(report, lp.CertificationReport), report
        assert report.delta == delta
        for label, value in report.optima.items():
            u_star, guess = _key(label)
            c = -0.5 * LpInstance(u_star, delta, guess).objective_m()
            want = linprog(c, A_ub=lp.bell_row()[None, :], b_ub=[delta], A_eq=A_eq, b_eq=b_eq,
                           bounds=(0, None), method="highs")
            assert abs(value + want.fun) <= 1e-12, (delta, label)


def test_random_grid_keeps_every_dual_residual_small():
    """100 seeded deltas in random order over [0, 2], where the value
    function bends: every warm-started certificate still checks, with a dual
    residual of at most 1e-9."""
    deltas = np.random.default_rng(1308_4635).uniform(0.0, 2.0, 100).tolist()
    reports = lp.certify_grid(deltas)
    assert all(isinstance(report, lp.CertificationReport) for report in reports)
    assert max(report.dual_residual for report in reports) <= 1e-9


def test_failure_at_a_middle_delta_stays_its_own(monkeypatch):
    """A solve that fails inside a chain is that delta's outcome: the deltas
    before it are certified as without it, and the next delta starts a fresh
    solver, so it matches a grid of its own."""
    deltas = [0.1, 0.2, 1 / 3, 1.5]
    want = lp.certify_grid(deltas[:2]) + lp.certify_grid(deltas[3:])
    real_solve, real_resolve = lp._highs_solve, lp._highs_resolve
    cold = []

    def solving(c, delta):
        cold.append(delta)
        return real_solve(c, delta)

    def failing(solver, delta):
        if delta == 1 / 3:
            raise RuntimeError("HiGHS ended with model status 'Time limit reached'")
        return real_resolve(solver, delta)

    monkeypatch.setattr(lp, "_highs_solve", solving)
    monkeypatch.setattr(lp, "_highs_resolve", failing)
    first, second, failed, last = lp.certify_grid(deltas)
    assert [first, second, last] == want
    assert isinstance(failed, RuntimeError)
    assert str(failed).startswith("HiGHS failed on LpInstance(") and f"delta={1 / 3}" in str(failed)
    assert sorted(cold) == [0.1, 0.1, 1.5, 1.5]


RANDOM_DELTAS = np.random.default_rng(3408_1127).uniform(0.0, 8.0, 10).tolist()
WALKED_GRIDS = {
    "pinned": PINNED_CERTIFY_DELTAS,
    "reversed": PINNED_CERTIFY_DELTAS[::-1],
    "random": sorted(RANDOM_DELTAS),
    "shuffled": RANDOM_DELTAS,
}


@lru_cache(maxsize=None)
def _cold_simplex(delta):
    return certify_bound(delta, method="simplex")


@pytest.mark.parametrize("name", list(WALKED_GRIDS))
def test_simplex_walk_matches_cold_solves(name):
    """The simplex route walks a grid from one phase 1: every delta
    certifies, and every optimum lies within 1e-11 of the grid of that delta
    alone, which is solved cold.  Walking the grid in order, the restarts of
    all later deltas together take fewer pivots than the first delta; in
    random order each restart still takes fewer pivots than a cold solve."""
    deltas = WALKED_GRIDS[name]
    reports = lp.certify_grid(deltas, method="simplex")
    assert all(isinstance(report, lp.CertificationReport) for report in reports), reports
    for delta, report in zip(deltas, reports):
        cold = _cold_simplex(delta)
        assert report.optima.keys() == cold.optima.keys()
        assert max(abs(report.optima[key] - cold.optima[key]) for key in cold.optima) <= 1e-11, delta
    assert reports[0].iterations == _cold_simplex(deltas[0]).iterations
    first = sum(reports[0].iterations)
    later = [sum(report.iterations) for report in reports[1:]]
    if name == "shuffled":
        assert max(later) < first, (first, later)
    else:
        assert sum(later) < first, (first, later)


def test_walk_reports_a_failed_delta_and_rebuilds_the_route(monkeypatch):
    """The one failure policy of both routes: a delta whose move raises is
    that delta's entry alone, and the next delta builds a fresh route."""
    built, moved = [], []

    class Route:
        def __init__(self, keys, delta):
            built.append((keys, delta))
            self.delta = delta

        def move(self, delta):
            moved.append(delta)
            if delta == 0.2:
                raise ArithmeticError("route gave up")
            self.delta = delta

        def solutions(self):
            return [(None, self.delta, None, 0)]

    monkeypatch.setitem(lp._ROUTES, "fake", Route)
    keys = [INSTANCE_KEYS[0]]
    first, failed, third, fourth = _walk("fake", keys, [0.1, 0.2, 0.3, 0.4])
    assert first == [(None, 0.1, None, 0)] and third == [(None, 0.3, None, 0)]
    assert fourth == [(None, 0.4, None, 0)]
    assert isinstance(failed, ArithmeticError) and str(failed) == "route gave up"
    assert built == [(keys, 0.1), (keys, 0.3)]  # two constructions: the third delta starts afresh
    assert moved == [0.2, 0.4]
    with pytest.raises(ValueError, match="unknown method"):
        _walk("nope", keys, [0.1])


@pytest.mark.parametrize("method", ["highs", "simplex"])
@pytest.mark.parametrize("perturbation", ["dual_value", "residual"])
def test_cap_checked_against_the_dual(monkeypatch, method, perturbation):
    """At the tight delta = 1/3, a certificate that passes the residual gate
    and weak duality but proves less than the cap is rejected, though every
    primal optimum meets the cap."""
    delta, setting = 1 / 3, 5
    n_eq = len(equality_constraints()[0])
    positivity = slice(2 * n_eq + setting, 2 * n_eq + lp.N_VARS, lp.N_SETTINGS)
    raw = lp._walk
    perturbed = []

    def perturbing(route, keys, deltas):
        results = raw(route, keys, deltas)
        x, value, lam, nit = results[0][0]
        lam = lam.copy()
        if perturbation == "dual_value":
            # +t on the +A_eq normalization row of one setting and on the
            # positivity rows of its 16 variables: A^T lam is unchanged and
            # the dual value grows by t.
            lam[setting] += 1e-3
            lam[positivity] += 1e-3
        else:
            # Residual 5e-7, inside the 1e-6 gate; 8 times it exceeds tol.
            lam[positivity.start] += 5e-7
        perturbed.append(keys[0])
        return [[(x, value, lam, nit)] + results[0][1:]] + results[1:]

    monkeypatch.setattr(lp, "_walk", perturbing)
    with pytest.raises(CertificationError, match="dual certificate proves only") as err:
        certify_bound(delta, method=method)
    u_star, guess = perturbed[0]
    assert f"u*={u_star}, guess={guess}" in str(err.value)
    monkeypatch.setattr(lp, "_walk", raw)
    report = certify_bound(delta, method=method)
    assert 0.5 * lp.N_SETTINGS * report.dual_residual < 1e-9


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1e-9])
def test_certify_refuses_a_tolerance_that_checks_nothing(tol):
    with pytest.raises(ValueError, match="tol"):
        certify_bound(1 / 3, tol=tol)


def test_certify_accepts_a_zero_tolerance():
    # The cap is tight at delta = 1/3 and on [1, 8], but not at 0 or 0.5.
    assert certify_bound(0.0, tol=0.0).passed
    assert certify_bound(0.5, tol=0.0, method="simplex").passed


def test_cached_arrays_are_read_only():
    """Threads certifying deltas side by side share these caches, so none
    of them can be written through."""
    A, b = equality_constraints()
    A_int, c_int, (rows, cols) = lp._integer_rows()
    shared = {
        "equality A": A,
        "equality b": b,
        "independent rows": independent_equality_rows(),
        "majority signs": majority_sign_vector(1),
        "bit permutation": lp._bit_permutation((1, 0, 2, 3)),
        "integer rows": A_int,
        "integer rhs": c_int,
        "nonzero rows": rows,
        "nonzero cols": cols,
        **{f"objective {key}": m for key, m in lp._objectives_int().items()},
    }
    for name, array in shared.items():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
