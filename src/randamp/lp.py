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

The 16 instances (8 settings u* x 2 guesses) are related by relabelings of
the box that leave the feasible set alone: permuting parties 1-3, flipping
the outputs of parties 1-3 together or of party 4, and flipping all four
inputs exactly when an odd number of outputs flips.  They fall into two
orbits, of sizes 4 and 12.  `certify_grid` solves one instance per orbit
and delta (on the simplex route both representatives of a delta in one
call that shares phase 1, since they differ only in the objective) and
carries its primal box and dual vector to the others; each map is first
checked exactly, in integers, on the constraint rows, their right-hand
side and the objectives, and each carried certificate is checked again
like a solved one (Bodi, Herr & Joswig, Math. Program. 137, 2013).  The row map is checked on the ~2.9k
nonzero entries of the constraint matrix: once P and R are bijections,
A[R][:, P] == A holds exactly when every nonzero entry lands on an equal
one.

The equality system is built by index arithmetic.  HiGHS is called through
scipy's bindings without `scipy.optimize.linprog`: the model linprog would
hand it (the Bell row stacked over the equality rows in CSC form, the row
and column bounds with kHighsInf for infinity, and linprog's default
options) is built once.  `certify_grid` gives each orbit representative one
solver for the whole delta grid: the model goes to it once, at the grid's
first delta, and for each later delta only the Bell row's upper bound
changes before the solver runs again.  The previous optimal basis stays
dual feasible, so the dual simplex restarts from it and takes a few
iterations instead of ~200 (Huangfu & Hall, Math. Prog. Comp. 10, 2018).
A solve that is not optimal is that delta's error, and the next delta
starts a fresh solver.  A first, cold solve returns what linprog returns,
to the bit (checked in tests/test_lp.py); a warm one may differ from it in
the last digits.

Neither route imports a scipy subpackage.  `_highs_core` loads the
bindings' extension module from its file: importing it by name would first
run scipy.optimize's __init__, ~780 modules and ~0.5 s that the bindings do
not use.  The simplex route takes its independent equality rows from a
stored list, which numpy checks on first use.

The cached arrays and the model are read-only, so that threads may share
them: on the HiGHS route `certify_grid` runs the representatives' solvers
on threads, since HiGHS releases the GIL while it solves, after
`prepare_highs` has built every cache and import on the calling thread.
"""

from __future__ import annotations

import itertools
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
    pack_bits,
    unpack_bits,
)
from .simplex import simplex_solve

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


def _drop_bit(index, pos):
    low = index & ((1 << pos) - 1)
    return low | ((index >> (pos + 1)) << pos)


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
    instance: LpInstance
    value: float
    box: NsBox
    dual_certificate: np.ndarray
    dual_value: float
    method: str
    dual_residual: float  # max |A^T lam - m|

    @property
    def duality_gap(self) -> float:
        """|dual value / 2 - primal value|; the dual objective is unhalved."""
        return abs(0.5 * self.dual_value - self.value)

    def __post_init__(self):
        # Weak duality, with the halving convention of the primal objective.
        if self.value > 0.5 * self.dual_value + 1e-8:
            raise CertificationError(
                f"weak duality violated: primal {self.value} vs dual {self.dual_value}"
            )


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


@dataclass(frozen=True)
class _HighsModel:
    """What linprog hands HiGHS for the primal, less the objective and the
    Bell bound: the matrix vstack((bell_row, A_eq)) in CSC form, its row
    bounds (the Bell row's lower one -kHighsInf), the column bounds 0 and
    kHighsInf, and linprog's default options.  The sequences are tuples,
    which HiGHS reads faster than arrays and nobody can edit."""

    start: tuple
    index: tuple
    value: tuple
    row_lower: tuple
    b_eq: tuple
    col_lower: tuple
    col_upper: tuple
    options: object  # HighsOptions


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
def _highs_model() -> _HighsModel:
    highs = _highs_core()

    A_eq, b_eq = equality_constraints()
    rows = np.vstack([bell_row()[None, :], A_eq])
    cols, row_index = np.nonzero(rows.T)  # column-major, rows ascending in each column
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    return _HighsModel(
        tuple(np.searchsorted(cols, np.arange(N_VARS + 1)).tolist()),
        tuple(row_index.tolist()),
        tuple(rows[row_index, cols].tolist()),
        (-highs.kHighsInf, *b_eq.tolist()),
        tuple(b_eq.tolist()),
        (0.0,) * N_VARS,
        (highs.kHighsInf,) * N_VARS,
        options,
    )


def _highs_solve(c: np.ndarray, delta: float):
    """A fresh HiGHS solver on min c.x subject to bell_row.x <= delta,
    A_eq x = b_eq, x >= 0, run once exactly as linprog(method="highs") would
    run it: (the solver, its solution as `_highs_run` reads it).  Raises
    RuntimeError naming the model status unless it is optimal."""
    highs = _highs_core()
    model = _highs_model()
    problem = highs.HighsLp()
    problem.num_col_ = problem.a_matrix_.num_col_ = N_VARS
    problem.num_row_ = problem.a_matrix_.num_row_ = len(model.row_lower)
    problem.a_matrix_.format_ = highs.MatrixFormat.kColwise
    problem.a_matrix_.start_ = model.start
    problem.a_matrix_.index_ = model.index
    problem.a_matrix_.value_ = model.value
    problem.col_cost_ = c.tolist()
    problem.col_lower_ = model.col_lower
    problem.col_upper_ = model.col_upper
    problem.row_lower_ = model.row_lower
    problem.row_upper_ = (float(delta), *model.b_eq)
    solver = highs._Highs()
    solver.passOptions(model.options)
    solver.passModel(problem)
    return solver, _highs_run(solver)


def _highs_resolve(solver, delta: float):
    """The solver's last program with the Bell bound moved to delta, run
    again.  Only that row bound changes, so the previous optimal basis stays
    dual feasible and the dual simplex restarts from it."""
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
    at_lower = highs.HighsBasisStatus.kLower
    lower = np.where([col == at_lower for col in solver.getBasis().col_status],
                     solution.col_dual, 0.0)
    return (np.array(solution.col_value), info.objective_function_value, np.array(solution.row_dual),
            lower, info.simplex_iteration_count)


def prepare_highs() -> None:
    """Do on the calling thread the one-time work of the HiGHS route: build
    the symmetry orbits and the cached systems they rest on, and the HiGHS
    model, which loads scipy's bindings through `_highs_core`.  The threads
    `certify_grid` starts afterwards only read caches and never load a
    module.  `_highs_core` takes no lock: two threads that both found the
    bindings missing would each load the extension and initialise the
    pybind11 module twice."""
    symmetry_orbits()
    _highs_model()


def _highs_chain(instances) -> list:
    """HiGHS on min -m.x/2 for instances that share one objective, in order,
    with one solver: the first instance goes to a fresh solver, each later
    one only moves the Bell bound (`_highs_resolve`).  After a failure the
    next instance starts a fresh solver.  Per instance (x, value, lam, nit)
    or the exception; the multipliers satisfy
    -m/2 = A_eq^T y + bell_row * mu + s with mu <= 0 and s >= 0.  x <= 1 is
    implied by normalization, so no bound row is given for it."""
    if len({(instance.u_star, instance.guess) for instance in instances}) > 1:
        raise ValueError("a HiGHS chain walks one objective")
    solver, results = None, []
    for instance in instances:
        try:
            if solver is None:
                solver, solution = _highs_solve(-0.5 * instance.objective_m(), instance.delta)
            else:
                solution = _highs_resolve(solver, instance.delta)
        except Exception as exc:  # this delta's outcome; the next one starts afresh
            solver = None
            results.append(RuntimeError(f"HiGHS failed on {instance}: {exc}")
                           if isinstance(exc, RuntimeError) else exc)
            continue
        x, value, row_dual, lower, nit = solution
        lam = _dual_vector(-2.0 * row_dual[1:], 2.0 * lower, -2.0 * float(row_dual[0]))
        results.append((x, -value, lam, nit))
    return results


def _simplex_program(instances):
    """(A, b, C) for the tableau simplex: the independent equality rows plus
    the Bell cap with one slack, and one objective row -m/2 per instance.
    The instances must share their delta, which is all b depends on."""
    deltas = {instance.delta for instance in instances}
    if len(deltas) != 1:
        raise ValueError(f"instances must share one delta, got {sorted(deltas)}")
    A_eq, b_eq = equality_constraints()
    keep = independent_equality_rows()
    n = N_VARS + 1
    A = np.zeros((len(keep) + 1, n))
    A[: len(keep), :N_VARS] = A_eq[keep]
    A[-1, :N_VARS] = bell_row()
    A[-1, -1] = 1.0
    b = np.concatenate([b_eq[keep], [deltas.pop()]])
    C = np.zeros((len(instances), n))
    for row, instance in zip(C, instances):
        row[:N_VARS] = -0.5 * instance.objective_m()
    return A, b, C


def _solve_primal_simplex(instances):
    """The tableau simplex on instances sharing one delta, one phase 1 for
    all of them; per instance its row duals y and reduced costs
    c - A^T y >= 0 give
    -m/2 = A_eq[keep]^T y[:-1] + bell_row * y[-1] + (c - A^T y)[:N_VARS]."""
    A, b, C = _simplex_program(instances)
    keep = independent_equality_rows()
    n_eq = len(equality_constraints()[0])
    results = []
    for c, (x, value, y) in zip(C, simplex_solve(C, A, b)):
        free = np.zeros(n_eq)
        free[keep] = -2.0 * y[:-1]
        lam = _dual_vector(free, 2.0 * (c - A.T @ y)[:N_VARS], -2.0 * float(y[-1]))
        results.append((x[:N_VARS], -value, lam, None))
    return results


def _solve_raw(instances, method: str) -> list:
    """(primal x, primal value, dual vector, HiGHS iterations) per instance,
    or the exception its solve raised.  On HiGHS the instances share one
    objective and walk one solver (`_highs_chain`); on the simplex route
    they share one delta and one call, whose failure is every instance's,
    and the iteration entry is None."""
    if method == "highs":
        return _highs_chain(instances)
    if method == "simplex":
        try:
            return _solve_primal_simplex(instances)
        except Exception as exc:  # the delta's outcome, as on HiGHS
            return [exc] * len(instances)
    raise ValueError(f"unknown method {method!r}")


def _certified(instance: LpInstance, x, value: float, lam, method: str) -> LpSolution:
    """Check a primal point and a dual vector for one instance and wrap them.

    lam must be non-negative; the dual residual |A^T lam - m| is formed from
    the equality blocks, so no dense copy of the inequality matrix is needed;
    the box must be no-signaling within 1e-7 and LpSolution checks weak
    duality."""
    if lam.min() < 0.0:
        raise CertificationError(
            f"dual certificate has a negative multiplier on {instance}: {lam.min():.3e}"
        )
    A_eq, _ = equality_constraints()
    lam_pos = lam[2 * N_EQ : 2 * N_EQ + N_VARS]
    residual = float(np.abs(
        A_eq.T @ (lam[:N_EQ] - lam[N_EQ : 2 * N_EQ]) - lam_pos + lam[-1] * bell_row() - instance.objective_m()
    ).max())
    if residual > 1e-6:
        raise CertificationError(
            f"dual certificate infeasible on {instance}, residual {residual:.3e}"
        )
    dual_value = float(_inequality_rhs(instance.delta) @ lam)
    table = np.maximum(x.reshape(N_OUTCOMES, N_SETTINGS), 0.0)
    table /= table.sum(axis=0, keepdims=True)
    box = NsBox(table, tol=1e-7)
    return LpSolution(instance, float(value), box, lam, dual_value, method, residual)


def solve(instance: LpInstance, method: str = "highs") -> LpSolution:
    """Solve one predictability program.

    method "highs" uses scipy; "simplex" uses the vendored tableau solver.
    Either way the dual certificate comes from that route's own primal
    optimum and is checked (non-negative, dual residual, weak duality), so
    the two routes stay independent.
    """
    (raw,) = _solve_raw([instance], method)
    if isinstance(raw, Exception):
        raise raw
    x, value, lam, _ = raw
    return _certified(instance, x, value, lam, method)


# -- symmetry orbits of the 16 instances ------------------------------------

INSTANCE_KEYS = tuple((u_star, guess) for u_star in INEQUALITY_SETTINGS for guess in (0, 1))


@lru_cache(maxsize=None)
def _bit_permutation(parties: tuple) -> np.ndarray:
    """The 16 four-bit indices with bit i of each moved to bit parties[i]."""
    bits = (np.arange(N_SETTINGS)[:, None] >> np.arange(4)) & 1
    return _read_only(bits @ (1 << np.asarray(parties)))


@dataclass(frozen=True)
class SymmetryMap:
    """A relabeling of box entries: party i+1's bits move to party
    parties[i]+1, the outputs are then XORed with out_flip, and all four
    inputs are flipped when in_flip.  It sends p to p' with p'(x'|u') = p(x|u).

    Nothing here is trusted: `check_symmetry_map` verifies what the index
    arithmetic claims."""

    parties: tuple
    out_flip: int
    in_flip: bool

    def outcome(self, x):
        return _bit_permutation(tuple(self.parties))[x] ^ self.out_flip

    def setting(self, u):
        return _bit_permutation(tuple(self.parties))[u] ^ (N_SETTINGS - 1 if self.in_flip else 0)

    def var_perm(self) -> np.ndarray:
        """P with p'[P[v]] = p[v] over flat variables v = var_index(x, u)."""
        v = np.arange(N_VARS)
        return var_index(self.outcome(v // N_SETTINGS), self.setting(v % N_SETTINGS))

    def row_perm(self) -> np.ndarray:
        """R over the rows of the inequality form (+A_eq, -A_eq, -I, Bell;
        see `_inequality_rhs`): row r read on p is row R[r] read on p'.  A
        marginal row whose own input flips changes sign, so it moves between
        the +A_eq and the -A_eq block."""
        rows = np.empty(2 * N_EQ + N_VARS + 1, dtype=np.int64)
        rows[:N_SETTINGS] = self.setting(np.arange(N_SETTINGS))
        # Marginal row 16 + 64 i + 8 s + o: party i, other settings s and
        # other outcomes o; its +1 entries sit at the party's own input 0.
        r = np.arange(4 * 64)
        party = r // 64
        x = self.outcome(_insert_zero_bit(r % 8, party))
        u = self.setting(_insert_zero_bit((r // 8) % 8, party))
        moved = np.asarray(self.parties)[party]
        own_input = (u >> moved) & 1
        rows[N_SETTINGS:N_EQ] = (
            N_SETTINGS + 64 * moved + 8 * _drop_bit(u, moved) + _drop_bit(x, moved) + N_EQ * own_input
        )
        rows[N_EQ : 2 * N_EQ] = (rows[:N_EQ] + N_EQ) % (2 * N_EQ)
        rows[2 * N_EQ : -1] = 2 * N_EQ + self.var_perm()
        rows[-1] = len(rows) - 1
        return rows


def _candidate_maps():
    """The 24 relabelings that keep the Bell row and carry majority-of-three
    objectives to majority-of-three objectives: permute parties 1-3, flip the
    outputs of parties 1-3 together and/or of party 4, and flip every input
    exactly when an odd number of outputs flips.  Flipping only some of
    parties 1-3 also keeps the LP but no objective."""
    for perm in itertools.permutations(range(3)):
        for out_flip in (0, 7, 8, 15):
            yield SymmetryMap(perm + (3,), out_flip, bin(out_flip).count("1") % 2 == 1)


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


@lru_cache(maxsize=1)
def _objectives_int() -> dict:
    """The unhalved objective of every instance in integers, by key."""
    return {key: _read_only(LpInstance(key[0], 0.0, key[1]).objective_m().astype(np.int8))
            for key in INSTANCE_KEYS}


def check_symmetry_map(smap: SymmetryMap, source, target):
    """Verify exactly that smap carries instance `source` to `target`, both
    (u_star, guess) keys, and return its (P, R).

    Checked in integers: P and R are bijections, every inequality row maps
    onto row R[r] under P, the right-hand side is unchanged, the Bell row is
    fixed (so every delta is kept) and the source objective becomes the
    target objective.  Any failure raises CertificationError."""
    A, c, (rows, cols) = _integer_rows()
    P, R = smap.var_perm(), smap.row_perm()
    if not (np.array_equal(np.sort(P), np.arange(N_VARS)) and np.array_equal(np.sort(R), np.arange(len(A)))):
        raise CertificationError(f"{smap} is not a bijection")
    if R[-1] != len(A) - 1:
        raise CertificationError(f"{smap} moves the Bell row")
    # A[R][:, P] == A, checked on A's nonzero entries only: (r, v) ->
    # (R[r], P[v]) is a bijection, so once it sends every nonzero entry to
    # an equal one, the nonzero entries fill A's support and zeros go to zeros.
    if not np.array_equal(A[R[rows], P[cols]], A[rows, cols]):
        raise CertificationError(f"{smap} does not map the inequality rows onto themselves")
    if not np.array_equal(c[R], c):
        raise CertificationError(f"{smap} changes the right-hand side")
    objectives = _objectives_int()
    if not np.array_equal(objectives[target][P], objectives[source]):
        raise CertificationError(f"{smap} does not carry the objective of {source} to {target}")
    return P, R


@lru_cache(maxsize=1)
def symmetry_orbits():
    """((representative, ((member, P, R), ...)), ...) over the 16 instances.

    Representatives are taken in INSTANCE_KEYS order.  Each candidate map is
    applied to a representative's objective; the first map that lands on
    another instance's objective carries the representative to it, and must
    pass `check_symmetry_map`.  An instance no map reaches is its own
    representative."""
    objectives = _objectives_int()
    by_objective = {m.tobytes(): key for key, m in objectives.items()}
    candidates = [(smap, smap.var_perm()) for smap in _candidate_maps()]
    reached, orbits = set(), []
    for rep in INSTANCE_KEYS:
        if rep in reached:
            continue
        reached.add(rep)
        m_rep = objectives[rep]
        members = []
        for smap, P in candidates:
            image = np.empty_like(m_rep)
            image[P] = m_rep
            member = by_objective.get(image.tobytes())
            if member is None or member in reached:
                continue
            reached.add(member)
            members.append((member, *check_symmetry_map(smap, rep, member)))
        orbits.append((rep, tuple(members)))
    return tuple(orbits)


def _transport(instance: LpInstance, x, lam, P, R, method: str) -> LpSolution:
    """Carry a representative's primal point and dual vector to another
    instance of its orbit and check them there as if solved."""
    x_t, lam_t = np.empty_like(x), np.empty_like(lam)
    x_t[P] = x
    lam_t[R] = lam
    value = 0.5 * float(instance.objective_m() @ x_t)
    return _certified(instance, x_t, value, lam_t, method)


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
    highs_nit: tuple | None = None  # HiGHS simplex iterations per orbit solve; None on the simplex route

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "bound": self.bound,
            "max_optimum": self.max_optimum,
            "passed": self.passed,
            "method": self.method,
            "optima": {f"{setting}|guess={guess}": v for (setting, guess), v in self.optima.items()},
        }


def _orbit_solutions(orbit, instances, raws, method: str) -> list:
    """Per instance of one representative's grid, the checked LpSolution of
    every instance of its orbit by key (the representative's as solved, the
    others carried through the orbit's maps), or the exception its solve or
    a check raised."""
    rep, members = orbit
    outcomes = []
    for instance, raw in zip(instances, raws):
        if isinstance(raw, Exception):
            outcomes.append(raw)
            continue
        x, value, lam, _ = raw
        try:
            solutions = {rep: _certified(instance, x, value, lam, method)}
            for member, P, R in members:
                solutions[member] = _transport(
                    LpInstance(member[0], instance.delta, member[1]), x, lam, P, R, method)
        except Exception as exc:  # this delta's outcome
            outcomes.append(exc)
            continue
        outcomes.append(solutions)
    return outcomes


def _report(delta: float, solutions: dict, method: str, tol: float, solved: int, highs_nit) -> CertificationReport:
    """The cap checked on all 16 checked solutions of one delta."""
    bound = analytic_bound(delta)
    optima = {}
    for u_star, guess in INSTANCE_KEYS:
        solution = solutions[(u_star, guess)]
        value = solution.value
        optima[(bits_str(pack_bits(u_star)), guess)] = value
        if value > bound + tol:
            raise CertificationError(
                f"optimum {value} exceeds bound {bound} at u*={u_star}, guess={guess}, delta={delta}"
            )
        proved = 0.5 * solution.dual_value + 0.5 * N_SETTINGS * solution.dual_residual
        if proved > bound + tol:
            raise CertificationError(
                f"dual certificate proves only {proved} against bound {bound} "
                f"at u*={u_star}, guess={guess}, delta={delta}"
            )
    return CertificationReport(
        float(delta), bound, optima, max(optima.values()), True, method, solved,
        max(sol.dual_residual for sol in solutions.values()),
        max(sol.duality_gap for sol in solutions.values()),
        highs_nit,
    )


def certify_grid(deltas, method: str = "highs", tol: float = 1e-8) -> list:
    """Check the cap on all 16 instances (8 settings x 2 guesses) at every
    delta of the grid: per delta, in grid order, its CertificationReport or
    the exception certifying it raised.

    Solves one instance per symmetry orbit, transports its primal box and
    dual certificate to the rest of the orbit, and re-checks every
    transported certificate as a solved one is checked.  The cap must hold
    for the primal optimum and for the bound each dual certificate proves:
    for every feasible x (|x|_1 = 16, one unit per setting),
    m.x/2 <= dual_value/2 + 8 * dual_residual.  A violation is a
    CertificationError naming the first violating instance.

    On HiGHS each orbit representative walks the grid in order with one
    solver (`_highs_chain`), so a delta's last digits may depend on the
    delta before it; a grid of one delta is solved cold.  With more than
    one delta the representatives are mapped over min(#orbits, CPUs)
    threads, each running its chain and then checking and transporting its
    own orbit's certificates: HiGHS releases the GIL while it solves, so one
    orbit's solves overlap the other's checks.  The results are the same
    whatever the number of threads.  A single delta, and the simplex route
    (one call per delta for both representatives, sharing phase 1), stay on
    the calling thread.

    Raises ValueError, before any solve, for an unknown method, a delta
    outside [0, 8] or a tol that is not finite and >= 0: a NaN one would
    make every cap comparison false."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if method not in ("highs", "simplex"):
        raise ValueError(f"unknown method {method!r}")
    orbits = symmetry_orbits()
    grids = [[LpInstance(rep[0], delta, rep[1]) for delta in deltas] for rep, _ in orbits]
    by_delta = None if method == "highs" else [_solve_raw(list(column), method) for column in zip(*grids)]

    def certify_orbit(i):
        raws = _solve_raw(grids[i], method) if by_delta is None else [solved[i] for solved in by_delta]
        return raws, _orbit_solutions(orbits[i], grids[i], raws, method)

    workers = min(len(orbits), os.cpu_count() or 1) if method == "highs" and len(deltas) > 1 else 1
    if workers > 1:
        # imported here: only a pool needs it, and it slows every command's start
        from concurrent.futures import ThreadPoolExecutor

        prepare_highs()  # no worker then imports a module or builds a cache
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_orbit = list(pool.map(certify_orbit, range(len(orbits))))
    else:
        per_orbit = [certify_orbit(i) for i in range(len(orbits))]
    outcomes = []
    for i, delta in enumerate(deltas):
        raws = [orbit[0][i] for orbit in per_orbit]
        checked = [orbit[1][i] for orbit in per_orbit]
        # A failed solve is reported before a failed check, each in orbit order.
        errors = [outcome for outcome in raws + checked if isinstance(outcome, Exception)]
        if errors:
            outcomes.append(errors[0])
            continue
        solutions = {key: sol for orbit in checked for key, sol in orbit.items()}
        highs_nit = tuple(raw[3] for raw in raws) if method == "highs" else None
        try:
            outcomes.append(_report(delta, solutions, method, tol, len(orbits), highs_nit))
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
