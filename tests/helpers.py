"""Reference helpers that only the tests use: a parameter check for
Santha-Vazirani sources, a kept-setting sampler, a no-signaling checker for
tables of any number of binary parties, and the exhaustive XOR oracle of
criterion 4."""

from dataclasses import dataclass

import numpy as np

from randamp.boxes import DEFAULT_TOL, in_inequality
from randamp.sv import SvTranscript, draw_setting


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
