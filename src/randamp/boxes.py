"""Four-party conditional probability boxes and the Bell expression they feed.

A box is the dense table p(x|u) for four parties, each holding one input bit
u^i and producing one output bit x^i.  Flat indices pack party i into bit i-1,
so the string u^1 u^2 u^3 u^4 = 0001 is index 8.  Tables are stored
outcome-major: table[outcome_index, setting_index].
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np

N_PARTIES = 4
N_SETTINGS = 16
N_OUTCOMES = 16
DEFAULT_TOL = 1e-9

# Weight-one and weight-three input strings entering the Bell expression.
U0 = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
U1 = ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0))
INEQUALITY_SETTINGS = U0 + U1


class BoxValidationError(ValueError):
    """A conditional probability table fails normalization, positivity or no-signaling."""


def pack_bits(bits):
    """Party i's bit lands on bit position i-1 of the flat index."""
    return sum(int(b) << i for i, b in enumerate(bits))


def unpack_bits(index, width=N_PARTIES):
    return tuple((int(index) >> i) & 1 for i in range(width))


def bits_str(index, width=N_PARTIES):
    """Render a flat index in u^1 u^2 u^3 u^4 reading order."""
    return "".join(str(b) for b in unpack_bits(index, width))


ALL_SETTINGS = tuple(unpack_bits(i) for i in range(N_SETTINGS))
INEQUALITY_INDICES = tuple(pack_bits(u) for u in INEQUALITY_SETTINGS)


def parity(bits):
    return int(sum(bits) % 2)


def in_inequality(setting) -> bool:
    """True when the setting carries a Bell coefficient, i.e. has weight 1 or 3."""
    return tuple(setting) in U0 or tuple(setting) in U1


def majority(x1, x2, x3) -> int:
    for b in (x1, x2, x3):
        if b not in (0, 1):
            raise ValueError(f"majority expects bits, got {(x1, x2, x3)}")
    return 1 if x1 + x2 + x3 >= 2 else 0


def bell_functional() -> np.ndarray:
    """Coefficient table b[x, u]: 1 on even-parity outcomes at weight-1 settings
    and odd-parity outcomes at weight-3 settings, else 0."""
    b = np.zeros((N_OUTCOMES, N_SETTINGS))
    for u in U0:
        col = pack_bits(u)
        for x in range(N_OUTCOMES):
            if parity(unpack_bits(x)) == 0:
                b[x, col] = 1.0
    for u in U1:
        col = pack_bits(u)
        for x in range(N_OUTCOMES):
            if parity(unpack_bits(x)) == 1:
                b[x, col] = 1.0
    return b


BELL_FUNCTIONAL = bell_functional()
BELL_FUNCTIONAL.setflags(write=False)


def box_tensor(table: np.ndarray) -> np.ndarray:
    """Reshape a (16, 16) table to axes (x1, x2, x3, x4, u1, u2, u3, u4)."""
    t = np.asarray(table).reshape((2,) * 8)
    # C-order reshape puts party 4 on axis 0; flip to party order.
    return t.transpose(3, 2, 1, 0, 7, 6, 5, 4)


def no_signaling_violations(table: np.ndarray, tol: float = DEFAULT_TOL):
    """List human-readable constraint violations of a candidate box table."""
    table = np.asarray(table, dtype=float)
    if table.shape != (N_OUTCOMES, N_SETTINGS):
        return [f"table shape {table.shape} != (16, 16)"]
    violations = []
    if np.min(table) < -tol:
        for x, u in zip(*np.where(table < -tol)):
            violations.append(f"negative entry p({bits_str(x)}|{bits_str(u)}) = {table[x, u]:.3e}")
    col_sums = table.sum(axis=0)
    for u in np.where(np.abs(col_sums - 1.0) > tol)[0]:
        violations.append(f"setting {bits_str(u)} sums to {col_sums[u]:.12f}")
    t = box_tensor(table)
    for party in range(N_PARTIES):
        # Marginal over this party's outcome must not react to its own input.
        marg = t.sum(axis=party)
        diff = np.abs(np.take(marg, 0, axis=3 + party) - np.take(marg, 1, axis=3 + party))
        for idx in zip(*np.where(diff > tol)):
            out_bits = idx[:3]
            set_bits = idx[3:]
            violations.append(
                f"party {party + 1} marginal shifts by {diff[idx]:.3e} "
                f"(other outcomes {''.join(map(str, out_bits))}, "
                f"other settings {''.join(map(str, set_bits))})"
            )
    return violations


def is_no_signaling(table: np.ndarray, tol: float = DEFAULT_TOL):
    violations = no_signaling_violations(table, tol)
    return (len(violations) == 0, violations)


class NsBox:
    """Validated, immutable four-party no-signaling box.

    Parameters
    ----------
    table : array_like, shape (16, 16)
        Conditional probabilities, outcome-major.
    tol : float
        Slack allowed on normalization, positivity and marginal equalities.
    validate : bool
        Skip validation only for tables already known good.
    """

    def __init__(self, table, tol: float = DEFAULT_TOL, validate: bool = True):
        table = np.array(table, dtype=float)
        if table.shape != (N_OUTCOMES, N_SETTINGS):
            raise BoxValidationError(f"box table must be (16, 16), got {table.shape}")
        if validate:
            ok, violations = is_no_signaling(table, tol)
            if not ok:
                head = "; ".join(violations[:4])
                more = f" (+{len(violations) - 4} more)" if len(violations) > 4 else ""
                raise BoxValidationError(f"invalid box: {head}{more}")
        table.setflags(write=False)
        self.table = table
        self.tol = tol

    def outcome_distribution(self, setting) -> np.ndarray:
        return self.table[:, pack_bits(setting)]

    def to_json(self) -> dict:
        return {"p": self.table.tolist(), "order": "outcome-major"}

    @classmethod
    def from_json(cls, payload: dict, tol: float = DEFAULT_TOL) -> "NsBox":
        if set(payload.keys()) != {"p", "order"}:
            raise BoxValidationError(f"box JSON must have exactly keys 'p' and 'order', got {sorted(payload)}")
        if payload["order"] != "outcome-major":
            raise BoxValidationError(f"unsupported box order {payload['order']!r}")
        return cls(payload["p"], tol=tol)

    def __repr__(self):
        return f"NsBox(bell={bell_value(self, validate=False):.6f}, tol={self.tol:g})"


def as_table(box) -> np.ndarray:
    return box.table if isinstance(box, NsBox) else np.asarray(box, dtype=float)


def bell_value(box, functional: np.ndarray | None = None, validate: bool = True) -> float:
    """Contract a coefficient table against a box. Default functional has
    local-hidden-variable minimum 2 and algebraic minimum 0."""
    table = as_table(box)
    if validate and not isinstance(box, NsBox):
        ok, violations = is_no_signaling(table)
        if not ok:
            raise BoxValidationError(f"invalid box: {violations[0]}")
    f = BELL_FUNCTIONAL if functional is None else np.asarray(functional, dtype=float)
    if f.shape != (N_OUTCOMES, N_SETTINGS):
        raise ValueError(f"functional must be (16, 16), got {f.shape}")
    return float(np.sum(f * table))


def uniform_box() -> NsBox:
    return NsBox(np.full((16, 16), 1.0 / 16.0), validate=False)


def parity_box(parities) -> NsBox:
    """Uniform weight 1/8 on the outcomes of the given parity at each setting.

    parities: sequence of 16 parity bits indexed by setting.
    """
    parities = [int(p) for p in parities]
    if len(parities) != N_SETTINGS or any(p not in (0, 1) for p in parities):
        raise ValueError("parities must be 16 bits")
    table = np.zeros((16, 16))
    for u in range(N_SETTINGS):
        for x in range(N_OUTCOMES):
            if parity(unpack_bits(x)) == parities[u]:
                table[x, u] = 1.0 / 8.0
    return NsBox(table)


def algebraic_violation_box() -> NsBox:
    """No-signaling box whose Bell value is exactly zero: outcome parity is
    the complement of the coefficient-carrying parity at every inequality setting."""
    parities = [0] * N_SETTINGS
    for u in U0:
        parities[pack_bits(u)] = 1
    for u in U1:
        parities[pack_bits(u)] = 0
    return parity_box(parities)


def mixed_with_uniform(box, weight: float) -> NsBox:
    """(1 - weight) * box + weight * uniform; Bell value interpolates linearly."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    return NsBox((1.0 - weight) * as_table(box) + weight / 16.0)


def local_deterministic_box(responses) -> np.ndarray:
    """Deterministic local box from per-party response pairs (f_i(0), f_i(1))."""
    responses = tuple((int(a), int(b)) for a, b in responses)
    if len(responses) != N_PARTIES:
        raise ValueError("need one response pair per party")
    table = np.zeros((16, 16))
    for u_idx, u in enumerate(ALL_SETTINGS):
        x = tuple(responses[i][u[i]] for i in range(N_PARTIES))
        table[pack_bits(x), u_idx] = 1.0
    return table


def enumerate_local_deterministic_boxes():
    """Yield (responses, table) over all 4^4 = 256 local deterministic boxes."""
    pairs = list(itertools.product((0, 1), repeat=2))
    for combo in itertools.product(pairs, repeat=N_PARTIES):
        yield combo, local_deterministic_box(combo)


def lhv_minimum() -> float:
    """Brute-force minimum of the Bell value over all local deterministic boxes."""
    return min(bell_value(t, validate=False) for _, t in enumerate_local_deterministic_boxes())


def product_box(boxes) -> np.ndarray:
    """Joint table of independent boxes; device 1 takes the most significant
    index digits.  The result is a (16^k, 16^k) conditional table."""
    tables = [as_table(b) for b in boxes]
    if not tables:
        raise ValueError("product_box needs at least one box")
    for t in tables:
        if t.shape != (16, 16):
            raise ValueError("every factor must be a (16, 16) table")
    return reduce(np.kron, tables)
