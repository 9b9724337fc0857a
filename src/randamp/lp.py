"""Linear programs bounding how well an adversary can predict the majority bit.

Over all no-signaling boxes whose Bell value is at most delta, maximize
(1/2) * (P(maj = g | u*) - P(maj != g | u*)) for a fixed inequality setting u*
and guess g.  The certified analytic cap on each optimum is (11 + 7 delta)/32.

Two independent primal solvers are kept on purpose: scipy's HiGHS and the
vendored dense simplex.  Each route takes its dual certificate from its own
primal optimum (HiGHS's constraint multipliers, or the simplex tableau's
row duals and reduced costs), and the certificate is then verified directly:
non-negative, dual residual |A^T lam - m| small, weak duality.  The cap is
checked against the bound the certificate proves, dual value / 2 plus
8 times the residual, as well as against the primal optimum.

The 16 instances (8 settings u* x 2 guesses) are related by local
relabelings of the box that leave the feasible set alone: a permutation of
the parties, a flip of each party's input, and a flip of each party's
output that may depend on that party's input.  The relabelings that fix
the Bell row form a group of 3072, and under it the 16 instances are one
orbit.  `certify_grid` solves the representative ((0,0,0,1), 0) at each
delta and carries its primal box and dual vector to the other 15 instances,
through one map each that keeps the parties in place.  A map's row action
R follows from its column action P (Bodi, Herr & Joswig, Math. Program.
137, 2013): row R[r] is row r carried by P, found by an exact row hash.
The 15 maps are derived as one stack (`map_perms`) and checked exactly, in
integers, as one stack (`check_symmetry_map`) on the constraint rows, their
right-hand side and the objectives.  The row map is checked on the ~2.9k
nonzero entries of the constraint matrix: once P and R are bijections,
A[R][:, P] == A holds exactly when every nonzero entry lands on an equal
one.  The 16 certificates of a delta, solved or carried, are then checked
as one stack of arrays (`_checked`), each row as a solved certificate is
checked, and the cap on those arrays (`_report`).

The equality system is built by index arithmetic.  Both routes walk a
delta grid through one loop, `_walk`: a route is built cold at the first
delta, and each later delta moves only the Bell row's bound.  The previous
optimal basis then stays dual feasible, so the dual simplex restarts from
it and takes a few iterations instead of hundreds (Huangfu & Hall, Math.
Prog. Comp. 10, 2018).  A delta whose solve fails is that delta's error,
and the next delta builds a fresh route.  A walk of one delta is the cold
solve; a warm delta may differ from its cold solve in the last digits.
`_HighsRoute` keeps one HiGHS solver per objective, called through scipy's
bindings without `scipy.optimize.linprog`: one HighsLp, built once, holds
the model linprog would hand it (the Bell row stacked over the equality
rows in CSC form, the row and column bounds with kHighsInf for infinity)
with a zero objective and the Bell row free, and a fresh solver takes
linprog's default options, a copy of that model and its objective.  Its
cold solve returns what linprog returns, to the bit (checked in
tests/test_lp.py).  `_SimplexRoute` keeps one `SimplexWalk` for all its
objectives, which share the constraints: phase 1 runs once, then a phase 2
per objective.

Neither route imports a scipy subpackage.  `_highs_core` loads the
bindings' extension module from its file: importing it by name would first
run scipy.optimize's __init__, ~780 modules and ~0.5 s that the bindings do
not use.  The simplex route takes its independent equality rows from a
stored list, which numpy checks on first use.  Everything runs on the
calling thread.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boxes import (
    BELL_FUNCTIONAL,
    INEQUALITY_SETTINGS,
    N_OUTCOMES,
    N_SETTINGS,
    NsBox,
    bits_str,
    in_inequality,
    majority,
    no_signaling_violations,
    pack_bits,
    unpack_bits,
    violation_masks,
)
from .simplex import SimplexWalk

N_VARS = N_OUTCOMES * N_SETTINGS  # p(x|u) flattened outcome-major
N_EQ = N_SETTINGS + 4 * 64  # normalization rows, then 64 marginal rows per party


class CertificationError(AssertionError):
    pass


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only: cached arrays are shared by every caller."""
    array.setflags(write=False)
    return array


def var_index(x: int, u: int) -> int:
    return x * N_SETTINGS + u


def _insert_zero_bit(index, pos):
    low = index & ((1 << pos) - 1)
    return low | ((index >> pos) << (pos + 1))


@lru_cache(maxsize=1)
def equality_constraints():
    """(A, b) for normalization and the per-party marginal matching rows.

    Row u < 16 sums p(.|u) to 1.  Row 16 + 64 i + 8 s + o, for party i and
    the other parties' settings s and outcomes o (their bits in party
    order), is the sum over x_i of p(x|u_i = 0) - p(x|u_i = 1) = 0."""
    A = np.zeros((N_EQ, N_VARS))
    u = np.arange(N_SETTINGS)[:, None]
    A[u, var_index(np.arange(N_OUTCOMES), u)] = 1.0
    r = np.arange(N_EQ - N_SETTINGS)[:, None]
    party = r // 64
    x = _insert_zero_bit(r % 8, party) | (np.arange(2) << party)
    u = _insert_zero_bit((r // 8) % 8, party)
    A[N_SETTINGS + r, var_index(x, u)] = 1.0
    A[N_SETTINGS + r, var_index(x, u | (1 << party))] = -1.0
    b = np.concatenate([np.ones(N_SETTINGS), np.zeros(N_EQ - N_SETTINGS)])
    return _read_only(A), _read_only(b)


# The rows that scipy.linalg.qr(A.T, mode="economic", pivoting=True) keeps
# (scipy 1.17.1; the leading pivots whose |R_ii| exceeds 1e-10 |R_00|,
# sorted).  They are stored so that the simplex route imports no scipy, and
# so that its tableau, and with it every pivot, does not depend on the LAPACK
# build.
_INDEPENDENT_ROWS = (
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21, 23, 25, 26, 27, 29,
    30, 33, 34, 36, 37, 39, 41, 42, 43, 44, 47, 49, 50, 52, 55, 57, 59, 62, 64, 65, 67, 69, 70, 73,
    74, 76, 77, 78, 79, 80, 81, 82, 85, 86, 87, 88, 91, 93, 95, 96, 97, 98, 101, 102, 103, 104, 106,
    109, 110, 111, 113, 114, 115, 116, 117, 119, 120, 121, 123, 124, 125, 126, 130, 131, 132, 135,
    136, 137, 138, 140, 143, 144, 145, 147, 149, 150, 153, 154, 156, 159, 160, 161, 165, 166, 169,
    170, 172, 174, 175, 176, 177, 179, 181, 182, 184, 185, 187, 188, 189, 190, 192, 193, 194, 197,
    198, 199, 200, 203, 205, 206, 207, 208, 210, 211, 212, 215, 216, 219, 220, 221, 222, 224, 227,
    228, 229, 230, 231, 232, 233, 236, 238, 239, 240, 243, 244, 245, 246, 248, 251, 253, 254, 255,
    256, 258, 259, 265, 266, 268, 269, 271,
)


@lru_cache(maxsize=1)
def independent_equality_rows():
    """Indices of a maximal independent subset of the equality rows.

    Dropping the rest must not change the feasible set: the kept rows must
    be independent and span the augmented rows [A | b], so both ranks must
    equal their number; asserted here once.
    """
    A, b = equality_constraints()
    keep = np.array(_INDEPENDENT_ROWS)
    rank = np.linalg.matrix_rank(A[keep], tol=1e-10)
    if not rank == len(keep) == np.linalg.matrix_rank(np.hstack([A, b[:, None]]), tol=1e-10):
        raise RuntimeError("stored equality rows are not a basis of the consistent equality system")
    return _read_only(keep)


def bell_row() -> np.ndarray:
    return BELL_FUNCTIONAL.reshape(-1)  # outcome-major flatten matches var_index


@lru_cache(maxsize=4)
def majority_sign_vector(guess: int) -> np.ndarray:
    """m[x] = +1 if maj(x1,x2,x3) == guess else -1."""
    signs = np.empty(N_OUTCOMES)
    for x in range(N_OUTCOMES):
        bits = unpack_bits(x)
        signs[x] = 1.0 if majority(bits[0], bits[1], bits[2]) == guess else -1.0
    return _read_only(signs)


@dataclass(frozen=True)
class LpInstance:
    u_star: tuple
    delta: float
    guess: int

    def __post_init__(self):
        if not in_inequality(self.u_star):
            raise ValueError(f"u_star {self.u_star} carries no Bell coefficient")
        if self.guess not in (0, 1):
            raise ValueError("guess must be 0 or 1")
        if not 0.0 <= self.delta <= 8.0:
            raise ValueError("delta must lie in [0, 8]")

    def objective_m(self) -> np.ndarray:
        """The unhalved objective M with M[x,u] = +-1 at u = u_star, else 0."""
        m = np.zeros(N_VARS)
        u = pack_bits(self.u_star)
        m[u::N_SETTINGS] = majority_sign_vector(self.guess)
        return m


@dataclass
class LpSolution:
    """A certificate that passed `_checked`."""

    instance: LpInstance
    value: float
    box: NsBox
    dual_certificate: np.ndarray
    dual_value: float
    dual_residual: float  # max |A^T lam - m|

    @property
    def duality_gap(self) -> float:
        """|dual value / 2 - primal value|; the dual objective is unhalved."""
        return abs(0.5 * self.dual_value - self.value)


def _inequality_rhs(delta: float) -> np.ndarray:
    """Right-hand side of the all-inequality form A x <= c the dual lives
    over: rows +A_eq, -A_eq, -I (positivity) and the Bell cap, in that order."""
    _, b_eq = equality_constraints()
    return np.concatenate([b_eq, -b_eq, np.zeros(N_VARS), [float(delta)]])


def _dual_vector(free, pos, bell: float) -> np.ndarray:
    """lam over the rows of the inequality form from the multipliers of
    m = A_eq^T free + bell * bell_row - pos: the free equality multipliers
    split into their +A_eq and -A_eq parts, and the rounding dust of the
    non-negative ones clipped at 0."""
    return np.concatenate([
        np.maximum(free, 0.0), np.maximum(-free, 0.0), np.maximum(pos, 0.0), [max(bell, 0.0)]
    ])


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's HiGHS bindings, the extension module `_HIGHS_CORE`.

    A module already imported (by `import scipy.optimize`, say) is returned.
    Otherwise the extension is found in scipy's directory and loaded from its
    file under its full name, which runs no scipy.optimize __init__, and is
    registered in sys.modules, so that a later `import scipy.optimize` reuses
    it instead of initialising the pybind11 module a second time."""
    module = sys.modules.get(_HIGHS_CORE)
    if module is None:
        import importlib.machinery
        import importlib.util

        import scipy

        path = os.path.join(scipy.__path__[0], "optimize", "_highspy")
        spec = importlib.machinery.PathFinder.find_spec(_HIGHS_CORE, [path])
        if spec is None:
            raise ModuleNotFoundError(f"no module {_HIGHS_CORE!r} in {path}", name=_HIGHS_CORE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_HIGHS_CORE] = module
    return module


@lru_cache(maxsize=1)
def _highs_model():
    """(model, options): the HighsLp linprog hands HiGHS for the primal, with
    a zero objective and the Bell row free, and linprog's default options.
    Each solver takes a copy of the model; nobody writes to the model itself."""
    highs = _highs_core()

    _, b_eq = equality_constraints()
    A, _, (rows, cols) = _integer_rows()
    kept = (rows < N_EQ) | (rows == len(A) - 1)  # the nonzeros of +A_eq and of the Bell row
    row_index = np.where(rows[kept] < N_EQ, rows[kept] + 1, 0)  # the Bell row first, then A_eq
    order = np.lexsort((row_index, cols[kept]))  # column-major, rows ascending in each column
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = N_VARS
    model.num_row_ = model.a_matrix_.num_row_ = N_EQ + 1
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = np.searchsorted(cols[kept][order], np.arange(N_VARS + 1)).tolist()
    model.a_matrix_.index_ = row_index[order].tolist()
    model.a_matrix_.value_ = A[rows, cols][kept][order].astype(float).tolist()
    model.col_cost_ = [0.0] * N_VARS
    model.col_lower_ = [0.0] * N_VARS
    model.col_upper_ = [highs.kHighsInf] * N_VARS
    model.row_lower_ = [-highs.kHighsInf, *b_eq.tolist()]
    model.row_upper_ = [highs.kHighsInf, *b_eq.tolist()]
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return model, options


def _highs_solve(c: np.ndarray, delta: float):
    """A fresh HiGHS solver on min c.x subject to bell_row.x <= delta,
    A_eq x = b_eq, x >= 0, run once exactly as linprog(method="highs") would
    run it: (the solver, its solution as `_highs_run` reads it).  Raises
    RuntimeError naming the model status unless it is optimal."""
    highs = _highs_core()
    model, options = _highs_model()
    solver = highs._Highs()
    solver.passOptions(options)
    solver.passModel(model)
    solver.changeColsCost(N_VARS, np.arange(N_VARS, dtype=np.int32), c)
    return solver, _highs_resolve(solver, delta)


def _highs_resolve(solver, delta: float):
    """The solver's program with the Bell bound set to delta, run.  On a
    fresh solver that is its first, cold solve; after a solve only that row
    bound changes, so the previous optimal basis stays dual feasible and the
    dual simplex restarts from it."""
    solver.changeRowBounds(0, -_highs_core().kHighsInf, float(delta))
    return _highs_run(solver)


def _highs_run(solver):
    """Run the solver and return what linprog would: (x, objective value,
    row duals with the Bell row's first, the lower-bound marginals, simplex
    iterations).  A lower-bound marginal is the column dual where the column
    is nonbasic at its lower bound, else 0.  Only `run` releases the GIL.
    Raises RuntimeError naming the model status unless it is optimal."""
    highs = _highs_core()
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"HiGHS ended with model status {solver.modelStatusToString(status)!r}")
    info, solution = solver.getInfo(), solver.getSolution()
    lower = np.where(_at_lower(solver), solution.col_dual, 0.0)
    return (np.array(solution.col_value), info.objective_function_value, np.array(solution.row_dual),
            lower, info.simplex_iteration_count)


def _at_lower(solver) -> np.ndarray:
    """Mask of the columns nonbasic in the solver's basis.  Every column
    has bounds [0, inf), so a nonbasic one is at its lower bound."""
    status, basic = solver.getBasicVariables()  # a column index, or -1 - r for row r's slack
    if status != _highs_core().HighsStatus.kOk:
        raise RuntimeError(f"HiGHS has no basis to read: {status}")
    return np.bincount(basic[basic >= 0], minlength=N_VARS) == 0


class _HighsRoute:
    """HiGHS on min -m.x/2 with one solver per (u_star, guess) key: the
    first delta goes to fresh solvers (`_highs_solve`), each later one only
    moves their Bell bound (`_highs_resolve`).  The multipliers satisfy
    -m/2 = A_eq^T y + bell_row * mu + s with mu <= 0 and s >= 0.  x <= 1 is
    implied by normalization, so no bound row is given for it."""

    def __init__(self, keys, delta: float):
        self._keys, self._solvers = keys, [None] * len(keys)
        self.move(delta)

    def move(self, delta: float) -> None:
        self._solved = []
        for i, (u_star, guess) in enumerate(self._keys):
            instance = LpInstance(u_star, delta, guess)
            try:
                if self._solvers[i] is None:
                    self._solvers[i], solution = _highs_solve(-0.5 * instance.objective_m(), delta)
                else:
                    solution = _highs_resolve(self._solvers[i], delta)
            except RuntimeError as exc:
                raise RuntimeError(f"HiGHS failed on {instance}: {exc}") from exc
            self._solved.append(solution)

    def solutions(self) -> list:
        """(x, value, lam, HiGHS simplex iterations) per key."""
        return [(x, -value, _dual_vector(-2.0 * row_dual[1:], 2.0 * lower, -2.0 * float(row_dual[0])), nit)
                for x, value, row_dual, lower, nit in self._solved]


class _SimplexRoute:
    """The tableau simplex with one `SimplexWalk` for every (u_star, guess)
    key: A x = b holds the independent equality rows and the Bell cap with
    one slack, and C one objective row -m/2 per key.  The first delta runs
    phase 1 once and a phase 2 per key; each later one only moves b's last
    entry and restarts every key from its previous optimal basis.  The row
    duals y and reduced costs c - A^T y >= 0 give
    -m/2 = A_eq[keep]^T y[:-1] + bell_row * y[-1] + (c - A^T y)[:N_VARS]."""

    def __init__(self, keys, delta: float):
        A_eq, b_eq = equality_constraints()
        keep = independent_equality_rows()
        self.A = np.zeros((len(keep) + 1, N_VARS + 1))
        self.A[:-1, :N_VARS] = A_eq[keep]
        self.A[-1, :N_VARS] = bell_row()
        self.A[-1, -1] = 1.0
        self.b = np.concatenate([b_eq[keep], [delta]])
        self.C = np.zeros((len(keys), N_VARS + 1))
        for row, (u_star, guess) in zip(self.C, keys):
            row[:N_VARS] = -0.5 * LpInstance(u_star, delta, guess).objective_m()
        self.walk = SimplexWalk(self.C, self.A, self.b)

    def move(self, delta: float) -> None:
        self.b[-1] = delta
        self.walk.move(self.b)

    def solutions(self) -> list:
        """(x, value, lam, tableau pivots) per key."""
        keep = independent_equality_rows()
        solved = []
        for c, (x, value, y), pivots in zip(self.C, self.walk.solutions(), self.walk.pivots):
            free = np.zeros(N_EQ)
            free[keep] = -2.0 * y[:-1]
            lam = _dual_vector(free, 2.0 * (c - self.A.T @ y)[:N_VARS], -2.0 * float(y[-1]))
            solved.append((x[:N_VARS], -value, lam, pivots))
        return solved


_ROUTES = {"highs": _HighsRoute, "simplex": _SimplexRoute}


def _walk(method: str, keys, deltas) -> list:
    """The route `method` names over the (u_star, guess) keys, walked
    through the deltas in order: per delta, [(primal x, primal value, dual
    vector, iterations) per key], or the exception that delta raised.  The
    route is built at the first delta and moved to each later one; a failed
    delta is that delta's entry, and the next delta builds a fresh route."""
    if method not in _ROUTES:
        raise ValueError(f"unknown method {method!r}")
    route, outcomes = None, []
    for delta in deltas:
        try:
            if route is None:
                route = _ROUTES[method](keys, delta)
            else:
                route.move(delta)
            outcomes.append(route.solutions())
        except Exception as exc:  # this delta's outcome; the next one starts afresh
            route = None
            outcomes.append(exc)
    return outcomes


def _checked(keys, delta: float, X: np.ndarray, Lam: np.ndarray, value: float) -> tuple:
    """Check a stack of primal points X and dual vectors Lam, row k for
    instance keys[k] at delta, and return the checked stack as arrays, row
    k for keys[k]: (primal values, boxes as normalized tables, dual values,
    dual residuals).  Row 0's primal value is the route's own, `value`;
    every other row's is m.x/2 of its point.

    Per row: every multiplier is >= 0; the dual residual max |A^T lam - m|
    is at most 1e-6, formed from the equality blocks in one product for the
    stack, so no dense copy of the inequality matrix is needed; the primal
    box, clipped at 0 and normalized per setting, is no-signaling within
    1e-7 (`boxes.violation_masks`); and weak duality holds, the primal value
    at most the dual value / 2 plus 1e-8.  Each comparison fails on NaN.
    The first row that fails raises CertificationError naming its instance
    and the first check it fails, in that order."""
    objectives = _objectives_int()
    M = np.array([objectives[key] for key in keys], dtype=float)
    values = 0.5 * np.einsum("ij,ij->i", M, X)
    values[0] = value
    A_eq, _ = equality_constraints()
    residuals = np.abs((Lam[:, :N_EQ] - Lam[:, N_EQ : 2 * N_EQ]) @ A_eq - Lam[:, 2 * N_EQ : 2 * N_EQ + N_VARS]
                       + Lam[:, -1:] * bell_row() - M).max(axis=1)
    dual_values = Lam @ _inequality_rhs(delta)
    tables = np.maximum(X.reshape(len(keys), N_OUTCOMES, N_SETTINGS), 0.0)
    tables /= tables.sum(axis=1, keepdims=True)
    masks, _, _ = violation_masks(tables, 1e-7)
    signals = np.any([mask.reshape(len(keys), -1).any(axis=1) for mask in masks], axis=0)
    negative = ~(Lam.min(axis=1) >= 0.0)
    infeasible = ~(residuals <= 1e-6)
    above_dual = ~(values <= 0.5 * dual_values + 1e-8)
    for k in np.flatnonzero(negative | infeasible | signals | above_dual):
        instance = LpInstance(keys[k][0], delta, keys[k][1])
        if negative[k]:
            raise CertificationError(f"dual certificate has a negative multiplier on {instance}: {Lam[k].min():.3e}")
        if infeasible[k]:
            raise CertificationError(f"dual certificate infeasible on {instance}, residual {residuals[k]:.3e}")
        if signals[k]:
            raise CertificationError(f"primal box of {instance} is not no-signaling within 1e-7: "
                                     f"{no_signaling_violations(tables[k], 1e-7)[0]}")
        raise CertificationError(f"weak duality violated on {instance}: primal {values[k]} vs dual {dual_values[k]}")
    return values, tables, dual_values, residuals


def solve(instance: LpInstance, method: str = "highs") -> LpSolution:
    """Solve one predictability program.

    method "highs" uses scipy; "simplex" uses the vendored tableau solver.
    Either way the dual certificate comes from that route's own primal
    optimum and is checked (`_checked`, on a stack of one), so the two
    routes stay independent.
    """
    key = (instance.u_star, instance.guess)
    (solved,) = _walk(method, [key], [instance.delta])
    if isinstance(solved, Exception):
        raise solved
    ((x, value, lam, _),) = solved
    (value,), (table,), (dual_value,), (residual,) = _checked([key], instance.delta, x[None, :], lam[None, :], value)
    return LpSolution(instance, float(value), NsBox(table, tol=1e-7, validate=False), lam, float(dual_value),
                      float(residual))


# -- the symmetry orbit of the 16 instances ---------------------------------

INSTANCE_KEYS = tuple((u_star, guess) for u_star in INEQUALITY_SETTINGS for guess in (0, 1))


@dataclass(frozen=True)
class SymmetryMap:
    """A local relabeling of box entries: party i's input u_i becomes party
    parties[i]'s input u_i ^ in_flip[i], and its output x_i becomes party
    parties[i]'s output x_i ^ out_flip[i][u_i].  It sends p to p' with
    p'(x'|u') = p(x|u).

    Nothing here is trusted: `check_symmetry_map` verifies the P and R that
    `map_perms` derives."""

    parties: tuple
    in_flip: tuple  # per party, 0 or 1
    out_flip: tuple  # per party, (flip at input 0, flip at input 1)


def map_perms(smaps):
    """(P, R) of the maps, stacked with row k for smaps[k]: p'[P[k, v]] = p[v]
    over flat variables v = var_index(x, u), and row r of the inequality
    form (+A_eq, -A_eq, -I, Bell; see `_integer_rows`) read on p is row
    R[k, r] read on p', so row R[k, r] is row r carried by P[k].  The carried
    rows, hashed for all maps in one bincount, are matched to the rows by
    the rank of their hashes (`_rows_by_hash`, P clipped into range); a bad
    match or a P out of range gives a map that `check_symmetry_map` refuses."""
    parties = np.array([smap.parties for smap in smaps])
    in_flip = np.array([smap.in_flip for smap in smaps])
    out_flip = np.array([smap.out_flip for smap in smaps])
    v, party = np.arange(N_VARS)[:, None], np.arange(4)
    u, x = (v % N_SETTINGS >> party) & 1, (v // N_SETTINGS >> party) & 1
    weights = (1 << parties)[:, :, None]
    P = var_index(((x ^ out_flip[:, party, u]) @ weights)[..., 0], ((u ^ in_flip[:, None, :]) @ weights)[..., 0])
    A, _, (rows, cols) = _integer_rows()
    stacked = rows + len(A) * np.arange(len(P))[:, None]  # map k's rows offset by k len(A)
    R = np.empty((len(P), len(A)), dtype=np.intp)
    carried = np.bincount(stacked.ravel(), (A[rows, cols] * _ROW_HASH_WEIGHTS.take(P[:, cols], mode="clip")).ravel(), R.size)
    np.put_along_axis(R, np.argsort(carried.reshape(R.shape), axis=1), _rows_by_hash()[None, :], axis=1)
    return P, R


def _candidate_maps():
    """(target, map) for each of the 15 other instances: a map that keeps
    the parties in place and carries the representative ((0,0,0,1), 0) to
    the target (u', g').

    Its input flip is d = (0,0,0,1) ^ u'.  The Bell row holds the even
    outputs of weight-1 settings and the odd ones of weight-3 settings, and
    an odd-weight setting u moves to u ^ d, so the number of outputs flipped
    at u must have the parity of sum_i d_i u_i + [|d| = 2]: party i flips at
    input 1 as at input 0, xor d_i, and the flips at input 0 sum to
    [|d| = 2].  At u* parties 1-3 hold input 0, and majority is self-dual,
    so they flip together exactly when g' = 1; party 4's flip at input 0
    makes up the sum."""
    (u_rep, _), *others = INSTANCE_KEYS
    for u_t, guess in others:
        d = tuple(a ^ b for a, b in zip(u_rep, u_t))
        at_zero = (guess,) * 3 + (guess ^ (sum(d) == 2),)
        yield (u_t, guess), SymmetryMap((0, 1, 2, 3), d, tuple((f, f ^ di) for f, di in zip(at_zero, d)))


@lru_cache(maxsize=1)
def _integer_rows():
    """The rows (+A_eq, -A_eq, -I, Bell) and right-hand side of the
    inequality form in integers, the Bell entry of the right-hand side
    (delta) left at 0, and the (row, column) indices of the rows' nonzero
    entries."""
    A_eq, b_eq = equality_constraints()
    A_int, b_int = A_eq.astype(np.int8), b_eq.astype(np.int8)
    if not (np.array_equal(A_int, A_eq) and np.array_equal(b_int, b_eq)):
        raise CertificationError("equality constraints are not integral")
    A = np.vstack([A_int, -A_int, -np.eye(N_VARS, dtype=np.int8), bell_row().astype(np.int8)[None, :]])
    c = np.concatenate([b_int, -b_int, np.zeros(N_VARS + 1, dtype=np.int8)])
    rows, cols = np.divmod(np.flatnonzero(A != 0), N_VARS)
    return _read_only(A), _read_only(c), (_read_only(rows), _read_only(cols))


# One weight per variable, the Park-Miller states 16807^(v+1) mod (2^31 - 1): a row
# hash sums at most 256 of them, signed, so it is an integer below 2^39, exact in float64.
_ROW_HASH_WEIGHTS = _read_only(np.array([pow(16807, v + 1, 2**31 - 1) for v in range(N_VARS)], dtype=float))


@lru_cache(maxsize=1)
def _rows_by_hash():
    """The rows of the inequality form in the order of their hashes A @ _ROW_HASH_WEIGHTS."""
    A, _, (rows, cols) = _integer_rows()
    return _read_only(np.argsort(np.bincount(rows, A[rows, cols] * _ROW_HASH_WEIGHTS[cols], len(A))))


@lru_cache(maxsize=1)
def _objectives_int() -> dict:
    """The unhalved objective of every instance in integers, by key."""
    return {key: _read_only(LpInstance(key[0], 0.0, key[1]).objective_m().astype(np.int8))
            for key in INSTANCE_KEYS}


_MAP_FAILURES = ("is not a bijection", "moves the Bell row", "does not map the inequality rows onto themselves",
                 "changes the right-hand side", "does not carry the objective")


def check_symmetry_map(joins, P: np.ndarray, R: np.ndarray) -> None:
    """Verify exactly that map k of `joins`, a sequence of (map, source,
    target) with (u_star, guess) keys, carries source to target by the
    column action P[k] and the row action R[k]; one map is a stack of one.

    Checked in integers, each check once for the stack: P[k] and R[k] are
    bijections, the Bell row is fixed (so every delta is kept), every
    inequality row maps onto row R[k, r] under P[k], the right-hand side is
    unchanged and the source objective becomes the target objective.  The
    first failing map in `joins` order raises CertificationError naming it,
    its source and target, and the first check it fails."""
    A, c, (rows, cols) = _integer_rows()
    objectives = _objectives_int()
    _, sources, targets = zip(*joins)
    M_source, M_target = (np.array([objectives[key] for key in keys]) for keys in (sources, targets))
    bijective = (np.sort(P, axis=1) == np.arange(N_VARS)).all(axis=1) & (np.sort(R, axis=1) == np.arange(len(A))).all(axis=1)
    # The later checks index by P and R, so they read a map that is no bijection as the identity.
    P, R = (np.where(bijective[:, None], X, np.arange(X.shape[1])) for X in (P, R))
    failed = np.array([
        ~bijective, R[:, -1] != len(A) - 1,
        # A[R][:, P] == A, checked on A's nonzero entries only: (r, v) ->
        # (R[r], P[v]) is a bijection, so once it sends every nonzero entry to
        # an equal one, the nonzero entries fill A's support and zeros go to zeros.
        (A[R[:, rows], P[:, cols]] != A[rows, cols]).any(axis=1),
        (c[R] != c).any(axis=1),
        (np.take_along_axis(M_target, P, axis=1) != M_source).any(axis=1),
    ])
    for k in np.flatnonzero(failed.any(axis=0)):
        smap, source, target = joins[k]
        raise CertificationError(f"{smap} {_MAP_FAILURES[np.argmax(failed[:, k])]} on {source} -> {target}")


@lru_cache(maxsize=1)
def symmetry_orbits():
    """((representative, ((member, P, R), ...)),): the one orbit of the 16
    instances, each of the 15 members reached from the representative by its
    map from `_candidate_maps`.  The 15 maps pass `check_symmetry_map` as one
    stack; the members follow INSTANCE_KEYS."""
    rep = INSTANCE_KEYS[0]
    targets, smaps = zip(*_candidate_maps())
    P, R = map(_read_only, map_perms(smaps))
    check_symmetry_map([(smap, rep, target) for target, smap in zip(targets, smaps)], P, R)
    return ((rep, tuple(zip(targets, P, R))),)


def analytic_bound(delta: float) -> float:
    """Certified cap on each LP optimum; 1/2 is the trivial ceiling."""
    return min((11.0 + 7.0 * delta) / 32.0, 0.5)


@dataclass
class CertificationReport:
    delta: float
    bound: float
    optima: dict
    max_optimum: float
    passed: bool
    method: str
    solved: int  # LP instances solved; the rest were carried by symmetry
    dual_residual: float  # worst over the 16 certificates
    duality_gap: float  # worst |dual value / 2 - primal value|
    iterations: tuple  # per solve: HiGHS simplex iterations, or tableau pivots on the simplex route

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "bound": self.bound,
            "max_optimum": self.max_optimum,
            "passed": self.passed,
            "method": self.method,
            "optima": {f"{setting}|guess={guess}": v for (setting, guess), v in self.optima.items()},
        }


_LABELS = {key: (bits_str(pack_bits(key[0])), key[1]) for key in INSTANCE_KEYS}  # the optima's keys


def _report(delta: float, keys, checked, method: str, tol: float, solved: int, iterations) -> CertificationReport:
    """The cap checked on a stack that passed `_checked`, row k for keys[k],
    in row order: per instance against its primal value, then against the
    bound its dual certificate proves.  iterations are the route's own per
    solve."""
    bound = analytic_bound(delta)
    values, _, dual_values, residuals = checked
    proved = 0.5 * dual_values + 0.5 * N_SETTINGS * residuals
    above, unproved = values > bound + tol, proved > bound + tol
    for k in np.flatnonzero(above | unproved):
        at = f"at u*={keys[k][0]}, guess={keys[k][1]}, delta={delta}"
        if above[k]:
            raise CertificationError(f"optimum {float(values[k])} exceeds bound {bound} {at}")
        raise CertificationError(f"dual certificate proves only {float(proved[k])} against bound {bound} {at}")
    optima = {_LABELS[key]: value for key, value in zip(keys, values.tolist())}
    return CertificationReport(
        float(delta), bound, optima, max(optima.values()), True, method, solved, float(residuals.max()),
        float(np.abs(0.5 * dual_values - values).max()), iterations,
    )


def certify_grid(deltas, method: str = "highs", tol: float = 1e-8) -> list:
    """Check the cap on all 16 instances (8 settings x 2 guesses) at every
    delta of the grid: per delta, in grid order, its CertificationReport or
    the exception certifying it raised.

    Solves the orbit's representative, carries its primal box and dual
    certificate to the other 15 instances, and checks all 16 as one stack
    (`_checked`), each as a solved one is checked.  The cap must hold for
    the primal optimum and for the bound each dual certificate proves: for
    every feasible x (|x|_1 = 16, one unit per setting),
    m.x/2 <= dual_value/2 + 8 * dual_residual.  A violation is a
    CertificationError naming the first violating instance.

    The representative walks the grid in order (`_walk`), on the calling
    thread, so a delta's last digits may depend on the delta before it; a
    grid of one delta is solved cold.

    Raises ValueError, before any solve, for an unknown method, a delta
    outside [0, 8] or a tol that is not finite and >= 0: a NaN one would
    make every cap comparison false."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    deltas = list(deltas)  # read once: an iterator would be spent by the range check
    if not all(0.0 <= delta <= 8.0 for delta in deltas):  # LpInstance's range, checked before any solve
        raise ValueError("delta must lie in [0, 8]")
    ((rep, members),) = symmetry_orbits()
    keys = [rep] + [member for member, _, _ in members]  # INSTANCE_KEYS, in its order
    # Row k of the stacks is instance keys[k]: x_k[P_k] = x and lam_k[R_k] = lam,
    # with the identity for the representative.
    P = np.array([np.arange(N_VARS)] + [P for _, P, _ in members])
    R = np.array([np.arange(2 * N_EQ + N_VARS + 1)] + [R for _, _, R in members])
    stack = np.arange(len(keys))[:, None]
    outcomes = []
    for delta, solved in zip(deltas, _walk(method, [rep], deltas)):
        if isinstance(solved, Exception):
            outcomes.append(solved)
            continue
        ((x, value, lam, iterations),) = solved
        X, Lam = np.empty(P.shape), np.empty(R.shape)
        X[stack, P], Lam[stack, R] = x, lam
        try:
            outcomes.append(_report(delta, keys, _checked(keys, delta, X, Lam, value), method, tol, 1, (iterations,)))
        except CertificationError as exc:
            outcomes.append(exc)
    return outcomes


def certify_bound(delta: float, method: str = "highs", tol: float = 1e-8) -> CertificationReport:
    """`certify_grid` on the grid of one delta: its report, or the exception
    certifying it raised is raised here."""
    (outcome,) = certify_grid([delta], method, tol)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def adversarial_box(delta: float, u_star, guess: int, method: str = "highs") -> NsBox:
    """The optimizing box itself, for feeding back into protocol simulations."""
    return solve(LpInstance(tuple(u_star), float(delta), int(guess)), method=method).box
