import itertools
import re
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
    _checked,
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
            assert report.solved == 1
            for label, value in report.optima.items():
                u_star, guess = _key(label)
                fresh = solve(LpInstance(u_star, delta, guess), method=method).value
                assert abs(value - fresh) <= 1e-9, (delta, method, label)


REP = ((0, 0, 0, 1), 0)
IDENTITY_MAP = SymmetryMap((0, 1, 2, 3), (0, 0, 0, 0), ((0, 0),) * 4)


def _objective(key, delta=0.0):
    return LpInstance(key[0], delta, key[1]).objective_m()


def _image(smap, source):
    """The instance whose objective smap carries source's onto, or None."""
    by_objective = {_objective(key).tobytes(): key for key in INSTANCE_KEYS}
    image = np.empty(lp.N_VARS)
    image[smap.var_perm()] = _objective(source)
    return by_objective.get(image.tobytes())


def test_symmetry_orbits_and_exact_maps():
    orbits = symmetry_orbits()
    assert [(rep, len(members)) for rep, members in orbits] == [(REP, 15)]
    (rep, members), = orbits
    assert sorted([rep] + [member for member, _, _ in members]) == sorted(INSTANCE_KEYS)
    # The stored permutations, re-checked on the float matrix at a delta.
    A, c = inequality_constraints(0.3)
    for member, P, R in members:
        assert np.array_equal(A[R][:, P], A)
        assert np.array_equal(c[R], c)
        assert np.array_equal(_objective(member, 0.3)[P], _objective(rep, 0.3))
    # Every joining map keeps the parties in place, flips the inputs by
    # u* ^ u', and passes the exact checks from every instance it carries
    # to an instance.
    maps = list(_candidate_maps())
    assert [target for target, _ in maps] == [member for member, _, _ in members]
    for target, smap in maps:
        assert smap.parties == (0, 1, 2, 3)
        assert smap.in_flip == tuple(a ^ b for a, b in zip(REP[0], target[0]))
        assert _image(smap, REP) == target
        carried = 0
        for source in INSTANCE_KEYS:
            if (image := _image(smap, source)) is not None:
                check_symmetry_map(smap, source, image)
                carried += 1
        assert carried >= 1


def test_joining_maps_by_their_rule():
    """Two of the rule's maps, and a second map between one pair of them:
    the rule picks one of the 12 that the stabilizer allows."""
    maps = dict(_candidate_maps())
    guess_flip = ((0, 0, 0, 1), 1)
    assert maps[guess_flip] == SymmetryMap((0, 1, 2, 3), (0, 0, 0, 0), ((1, 1),) * 4)  # every output flips
    assert maps[((0, 0, 1, 0), 0)] == SymmetryMap((0, 1, 2, 3), (0, 0, 1, 1), ((0, 0), (0, 0), (0, 1), (1, 0)))
    other = SymmetryMap((0, 1, 2, 3), (0, 0, 0, 0), ((1, 0), (1, 0), (1, 0), (0, 1)))
    P, _ = check_symmetry_map(other, REP, guess_flip)
    assert not np.array_equal(P, maps[guess_flip].var_perm())


def test_a_joining_map_with_one_entry_changed_is_refused():
    """Each of the 15 maps with one input flip or one output flip (party,
    input) toggled no longer carries the representative to its target."""
    for target, smap in _candidate_maps():
        for party in range(4):
            in_flip = list(smap.in_flip)
            in_flip[party] ^= 1
            with pytest.raises(CertificationError, match=r"on \(\(0, 0, 0, 1\), 0\) -> "):
                check_symmetry_map(SymmetryMap(smap.parties, tuple(in_flip), smap.out_flip), REP, target)
            for u in (0, 1):
                out_flip = [list(pair) for pair in smap.out_flip]
                out_flip[party][u] ^= 1
                changed = SymmetryMap(smap.parties, smap.in_flip, tuple(map(tuple, out_flip)))
                with pytest.raises(CertificationError, match=r"on \(\(0, 0, 0, 1\), 0\) -> "):
                    check_symmetry_map(changed, REP, target)


def test_local_relabelings_fixing_the_bell_row():
    """All 4! 8^4 local relabelings, enumerated here one party permutation at
    a time.  3072 fix the Bell row; 192 of them carry the representative's
    objective to an instance's, 12 to each of the 16 instances.  The 12
    that fix it, its stabilizer, each pass check_symmetry_map."""
    v, party = np.arange(lp.N_VARS)[:, None], np.arange(4)
    u, x = ((v % 16 >> party) & 1).astype(np.int8), ((v // 16 >> party) & 1).astype(np.int8)
    flips = np.array(list(itertools.product((0, 1), repeat=12)), dtype=np.int8)
    in_flip, out_flip = flips[:, :4], flips[:, 4:].reshape(-1, 4, 2)
    x_flipped, u_flipped = x ^ out_flip[:, party, u], u ^ in_flip[:, None, :]  # (4096, 256, 4)
    bell, m_rep = lp.bell_row(), _objective(REP)
    objectives = {_objective(key).tobytes(): key for key in INSTANCE_KEYS}
    group, landed, stabilizer = 0, [], []
    for parties in itertools.permutations(range(4)):
        weights = (1 << np.array(parties)).astype(np.int8)
        P = (x_flipped @ weights).astype(np.int64) * 16 + u_flipped @ weights
        fixes = (bell[P] == bell).all(axis=1)
        group += int(fixes.sum())
        image = np.empty((int(fixes.sum()), lp.N_VARS))
        np.put_along_axis(image, P[fixes], m_rep, axis=1)
        landed += [objectives[row.tobytes()] for row in image if row.tobytes() in objectives]
        for i in np.flatnonzero(fixes & (m_rep[P] == m_rep).all(axis=1)):
            smap = SymmetryMap(parties, tuple(map(int, in_flip[i])), tuple(tuple(map(int, f)) for f in out_flip[i]))
            assert np.array_equal(smap.var_perm(), P[i])
            stabilizer.append(smap)
    assert group == 3072
    assert sorted(landed) == sorted(INSTANCE_KEYS * 12)
    assert len(stabilizer) == 12 and IDENTITY_MAP in stabilizer
    for smap in stabilizer:
        check_symmetry_map(smap, REP, REP)


def test_corrupted_symmetry_maps_rejected():
    # Swapping parties 1 and 4 keeps the constraints but not the objective.
    with pytest.raises(CertificationError, match="objective"):
        check_symmetry_map(SymmetryMap((3, 1, 2, 0), (0, 0, 0, 0), ((0, 0),) * 4), REP, ((1, 0, 0, 0), 0))
    # Party 4's output flipped without an input flip moves the Bell row's support.
    flip_4 = ((0, 0),) * 3 + ((1, 1),)
    with pytest.raises(CertificationError, match="inequality rows"):
        check_symmetry_map(SymmetryMap((0, 1, 2, 3), (0, 0, 0, 0), flip_4), REP, REP)
    check_symmetry_map(SymmetryMap((0, 1, 2, 3), (1, 1, 1, 1), flip_4), REP, ((1, 1, 1, 0), 0))


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
    rng = np.random.default_rng(4)
    seen = set()
    n_rows = 2 * lp.N_EQ + lp.N_VARS + 1
    for joined, smap in _candidate_maps():
        for source in INSTANCE_KEYS:
            if (target := _image(smap, source)) is None:
                continue
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
            bad = SwappedMap(smap.parties, smap.in_flip, smap.out_flip, which, i, j)
            verdict = _verdict(check_symmetry_map, bad, REP, joined)
            assert verdict == _verdict(dense_check_symmetry_map, bad, REP, joined)
            assert isinstance(verdict, str), (smap, which, i, j)
            seen.add(verdict.split(") ", 1)[1].split(" on ")[0])
    # Swapped entries break the row map before the objective is looked at.
    assert seen == {"is not a bijection", "moves the Bell row", "does not map the inequality rows onto themselves"}


def test_row_map_from_a_colliding_hash_is_refused(monkeypatch):
    """With every hash weight 1, distinct rows share a hash, so row_perm
    matches some rows to unequal ones: check_symmetry_map refuses that R, and
    certify stops before any certificate is carried or checked."""
    checked = []
    monkeypatch.setattr(lp, "_ROW_HASH_WEIGHTS", np.ones(lp.N_VARS))
    monkeypatch.setattr(lp, "_checked", lambda *args: checked.append(args))
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
    assert checked == []
    assert certify_bound(1 / 3).passed


def _carried_stack(delta, method="highs"):
    """The representative's (x, value, lam) at delta and the stacks certify
    checks: row k carries them to instance keys[k]."""
    (rep, members), = symmetry_orbits()
    ((x, value, lam, _),), = _walk(method, [rep], [delta])
    keys, X, Lam = [rep], [x], [lam]
    for member, P, R in members:
        keys.append(member)
        X.append(np.empty_like(x))
        X[-1][P] = x
        Lam.append(np.empty_like(lam))
        Lam[-1][R] = lam
    return keys, np.array(X), np.array(Lam), value


def test_transport_rechecks_the_dual():
    delta = 0.2
    keys, X, Lam, value = _carried_stack(delta)
    solutions = _checked(keys, delta, X, Lam, value)
    assert list(solutions) == keys
    for key, solution in solutions.items():
        assert solution.instance == LpInstance(key[0], delta, key[1])
        assert solution.value == pytest.approx(FROZEN_OPTIMA[delta], abs=1e-9)
    k = 5
    named = f"on {LpInstance(keys[k][0], delta, keys[k][1])}"
    bad = Lam.copy()
    bad[k, 0] += 0.5  # weight on the normalization row of setting 0000
    with pytest.raises(CertificationError, match=rf"dual certificate infeasible {re.escape(named)}"):
        _checked(keys, delta, X, bad, value)
    for poison in (-0.1, np.nan):  # certifies nothing, whatever its residual
        bad = Lam.copy()
        bad[k, np.argmax(Lam[k] == 0.0)] = poison
        with pytest.raises(CertificationError, match=rf"negative multiplier {re.escape(named)}"):
            _checked(keys, delta, X, bad, value)


def test_each_certificate_check_refuses_an_input_just_past_its_bound(monkeypatch):
    """Each check of a certificate, fed a carried certificate just inside
    its bound and then just past it, passes and then raises a
    CertificationError that names the instance; the symmetry map check
    refuses a right-hand side with one entry changed."""
    delta, k = 0.3, 9
    keys, X, Lam, value = _carried_stack(delta)
    instance = LpInstance(keys[k][0], delta, keys[k][1])
    named = re.escape(str(instance))
    # The dual residual: one positivity multiplier off by t moves A^T lam by t.
    positivity = 2 * lp.N_EQ + int(np.argmax(X[k] > 0.01))
    for t, past in ((5e-7, False), (2e-6, True)):
        bad = Lam.copy()
        bad[k, positivity] += t
        if past:
            with pytest.raises(CertificationError, match=rf"dual certificate infeasible on {named}, residual 2\.0"):
                _checked(keys, delta, X, bad, value)
        else:
            assert _checked(keys, delta, X, bad, value)[keys[k]].dual_residual == pytest.approx(t, rel=1e-6)
    # Weak duality, on the solved row 0: its primal value is the route's own.
    dual = float(Lam[0] @ lp._inequality_rhs(delta))
    assert _checked(keys, delta, X, Lam, 0.5 * dual + 5e-9)[keys[0]].value == 0.5 * dual + 5e-9
    rep = re.escape(str(LpInstance(keys[0][0], delta, keys[0][1])))
    with pytest.raises(CertificationError, match=rf"weak duality violated on {rep}"):
        _checked(keys, delta, X, Lam, 0.5 * dual + 2e-8)
    # No-signaling: mass t moved to party 1's other output at setting 0000,
    # which no objective reads, shifts the marginals of parties 2-4 by t.
    u = 0
    x = int(np.argmax(X[k].reshape(16, 16)[:, u]))
    for t, past in ((5e-8, False), (2e-7, True)):
        bad = X.copy()
        moved = bad[k].reshape(16, 16)
        moved[x, u] -= t
        moved[x ^ 1, u] += t
        if past:
            with pytest.raises(CertificationError, match=rf"primal box of {named} is not no-signaling within 1e-7: "
                                                         r"party \d marginal shifts by 2\.0"):
                _checked(keys, delta, bad, Lam, value)
        else:
            _checked(keys, delta, bad, Lam, value)
    # The right-hand side of the symmetry map check.
    A, c, nonzero = lp._integer_rows()
    changed = c.copy()
    changed[0] = 2  # the normalization row of setting 0000
    monkeypatch.setattr(lp, "_integer_rows", lambda: (A, changed, nonzero))
    clear_lp_caches()
    try:
        with pytest.raises(CertificationError, match=r"changes the right-hand side on \(\(0, 0, 0, 1\), 0\) -> "
                                                     r"\(\(\d, \d, \d, \d\), \d\)"):
            certify_bound(delta)
    finally:
        monkeypatch.undo()
        clear_lp_caches()


def test_route_certificates_checked_independently(monkeypatch):
    """Every certificate certify_bound checks, solved or carried, on both
    routes: non-negative, A^T lam = m on the dense inequality matrix, and
    dual value / 2 equal to the primal value."""
    checked = []
    stacked = lp._checked

    def recording(*args):
        solutions = stacked(*args)
        checked.extend(solutions.values())
        return solutions

    monkeypatch.setattr(lp, "_checked", recording)
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


def test_certify_leaves_the_shared_model_as_built(monkeypatch):
    """Every solver of a grid starts from one HighsLp and sets its objective
    and Bell bound on its own copy, so the model keeps its zero objective
    and free Bell row.  The grid is one walk, on the calling thread."""
    threads = []
    real = lp._walk

    def recording(method, keys, deltas):
        threads.append(threading.get_ident())
        return real(method, keys, deltas)

    monkeypatch.setattr(lp, "_walk", recording)
    reports = lp.certify_grid([0.05, 0.3, 1 / 3, 2.0])
    assert all(isinstance(report, lp.CertificationReport) for report in reports)
    assert threads == [threading.get_ident()]
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
    assert cold == [0.1, 1.5]


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
    """Every caller shares these caches, so none of them can be written
    through."""
    A, b = equality_constraints()
    A_int, c_int, (rows, cols) = lp._integer_rows()
    shared = {
        "equality A": A,
        "equality b": b,
        "independent rows": independent_equality_rows(),
        "majority signs": majority_sign_vector(1),
        "rows by hash": lp._rows_by_hash(),
        "integer rows": A_int,
        "integer rhs": c_int,
        "nonzero rows": rows,
        "nonzero cols": cols,
        **{f"objective {key}": m for key, m in lp._objectives_int().items()},
    }
    for name, array in shared.items():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
