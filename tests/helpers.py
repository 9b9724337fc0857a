"""Reference helpers that only the tests use: a parameter check for
Santha-Vazirani sources, a kept-setting sampler, a transcript replay audit,
a no-signaling checker for tables of any number of binary parties, the
exhaustive XOR oracle of criterion 4, the mutual information of a 2-D
joint, the all-inequality form of the guessing LP, and the goodness oracle
over a run's selected conditional boxes."""

from dataclasses import dataclass

import numpy as np

from randamp.boxes import DEFAULT_TOL, bell_value, in_inequality
from randamp.definetti import _pinsker_batch
from randamp.lp import N_VARS, _inequality_rhs, bell_row, equality_constraints
from randamp.protocol import RunTranscript
from randamp.sv import StrategyViolationError, SvTranscript, draw_setting


@dataclass
class SvParams:
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in [0, 1/2), got {self.epsilon}")


def draw_kept_setting(strategy, transcript: SvTranscript, rng: np.random.Generator, max_draws: int = 10**6):
    """Draw settings until one carries a Bell coefficient; returns (setting, draws used)."""
    for attempt in range(1, max_draws + 1):
        u = draw_setting(strategy, transcript, rng)
        if in_inequality(u):
            return u, attempt
    raise RuntimeError(f"no inequality setting after {max_draws} draws")


def replay_transcript(strategy, transcript: SvTranscript) -> None:
    """Recompute every recorded bias from the recorded history; raises on mismatch
    or on any bias outside the source interval."""
    for i, (bit, recorded) in enumerate(zip(transcript.bits, transcript.biases)):
        b = float(strategy.bias(transcript.bits[:i]))
        if abs(b) > transcript.epsilon:
            raise StrategyViolationError(f"bias {b} outside interval at position {i}")
        if abs(b - recorded) > 1e-12:
            raise StrategyViolationError(
                f"recorded bias {recorded} at position {i} does not replay ({b})"
            )
        if bit not in (0, 1):
            raise StrategyViolationError(f"non-bit {bit} at position {i}")


def ns_max_violation(table: np.ndarray, n_parties: int, tol_norm: float = DEFAULT_TOL) -> float:
    """Largest no-signaling defect of a 2^n x 2^n binary-party table.

    Bit b of either index is party b+1's bit.  Returns the max over parties of
    the marginal shift when one party flips its input; normalization and
    positivity failures beyond tol_norm count as infinite.
    """
    table = np.asarray(table, dtype=float)
    d = 2**n_parties
    if table.shape != (d, d):
        raise ValueError(f"expected shape {(d, d)}")
    if np.min(table) < -tol_norm or np.max(np.abs(table.sum(axis=0) - 1.0)) > tol_norm:
        return np.inf
    t = table.reshape((2,) * (2 * n_parties))
    # Axis p is party (n_parties - p)'s outcome bit; mirror for settings.
    worst = 0.0
    for party in range(n_parties):
        out_axis = n_parties - 1 - party
        set_axis = 2 * n_parties - 1 - party
        marg = t.sum(axis=out_axis)
        shift = np.take(marg, 0, axis=set_axis - 1) - np.take(marg, 1, axis=set_axis - 1)
        worst = max(worst, float(np.max(np.abs(shift))))
    return worst


def is_no_signaling_parties(table: np.ndarray, n_parties: int, tol: float = DEFAULT_TOL) -> bool:
    return ns_max_violation(table, n_parties, tol) <= tol


def xor_distribution_exact(biases, signs=None) -> float:
    """P(XOR = 0) by exhaustive enumeration; bit i is 0 w.p. 1/2 + s_i b_i."""
    b = [float(v) for v in biases]
    s = [1.0] * len(b) if signs is None else [float(v) for v in signs]
    if len(s) != len(b):
        raise ValueError("one sign per bias")
    p0 = 0.0
    for code in range(1 << len(b)):
        p = 1.0
        parity = 0
        for i, (bi, si) in enumerate(zip(b, s)):
            bit = (code >> i) & 1
            p *= 0.5 + si * bi if bit == 0 else 0.5 - si * bi
            parity ^= bit
        if parity == 0:
            p0 += p
    return p0


def mutual_information(joint: np.ndarray) -> float:
    """I(A:B) in bits for a normalized 2-D joint distribution, clamped at 0."""
    joint = np.asarray(joint, dtype=float)
    return float(_pinsker_batch(joint[np.newaxis])[2][0])


def inequality_constraints(delta: float):
    """All-inequality form A x <= c of the guessing LP: the equalities in both
    directions, positivity and the Bell cap; the dual certificates live over
    these rows."""
    A_eq, _ = equality_constraints()
    A = np.vstack([A_eq, -A_eq, -np.eye(N_VARS), bell_row()[None, :]])
    return A, _inequality_rhs(delta)


@dataclass
class GoodnessReport:
    verdict: bool
    delta_values: tuple
    good_count: int
    required: float


def goodness_oracle(devices, transcript: RunTranscript,
                    delta: float | None = None, mu: float | None = None) -> GoodnessReport:
    """Simulation-side check: do >= mu k of the selected conditional boxes sit
    below delta?  Never consulted by the protocol itself."""
    params = transcript.params
    delta = params.delta if delta is None else delta
    mu = params.mu if mu is None else mu
    values = []
    for j, device in enumerate(devices):
        pos = transcript.selected_use(j)
        box = device.box_given(tuple(transcript.uses[j][:pos]))
        values.append(bell_value(box, validate=False))
    good = sum(1 for v in values if v < delta)
    return GoodnessReport(
        verdict=good >= mu * params.k,
        delta_values=tuple(values),
        good_count=good,
        required=mu * params.k,
    )
