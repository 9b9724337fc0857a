"""Santha-Vazirani bit sources with adversarially chosen per-bit biases.

Every bit satisfies P(0 | history) = 1/2 + b with |b| <= epsilon.  A strategy
is any rule from the full bit history to a bias; bit_probabilities refuses
rules that step outside [-epsilon, epsilon] rather than clamping them.

A strategy whose bias is a function of bit position alone, repeating every
`period` bits, declares that period as an attribute.  bit_probabilities is
the one notion of such a position-only source: its bits are independent,
and every exact law the library reports (the vectorized engine's draw and
selection laws, the de Finetti selection weights and input laws) is
code_law of its per-bit laws, and the protocol engines draw its bits from
them.  Strategies without a `period` are treated as history-dependent and
have no exact law here; the engines refuse them.
"""

from __future__ import annotations

import operator

import numpy as np


class StrategyViolationError(ValueError):
    """A bias rule returned a value outside the admissible interval."""


def as_integer(value, field: str) -> int:
    """value as an int when it is one (operator.index, so numpy integers
    pass); a bool, a float or a string is refused, not truncated."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{field} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{field} must be an integer, got {value!r}") from None


def _bit_string(bits, field: str) -> tuple:
    """bits as a nonempty tuple of the integers 0 and 1, each entry taken by
    as_integer: a bool, a float, a string or any other integer is refused,
    not converted."""
    bits = tuple(as_integer(b, field) for b in bits)
    if not bits or any(b not in (0, 1) for b in bits):
        raise ValueError(f"{field} must be a nonempty bit string, got {bits}")
    return bits


class HonestBits:
    """Fair coin; the only strategy allowed at epsilon = 0."""

    period = 1

    def bias(self, history) -> float:
        return 0.0


class ConstantBias:
    period = 1

    def __init__(self, bias: float):
        self.constant = float(bias)

    def bias(self, history) -> float:
        return self.constant


class GreedyTowardString:
    """Push every bit toward a cyclic target pattern as hard as allowed."""

    def __init__(self, target, epsilon: float):
        self.target = _bit_string(target, "target")
        self.period = len(self.target)
        self.epsilon = float(epsilon)

    def bias(self, history) -> float:
        want = self.target[len(history) % len(self.target)]
        return self.epsilon if want == 0 else -self.epsilon


class SettingSteering(GreedyTowardString):
    """Steer each four-bit group toward one Bell setting.

    Alignment assumes draws are consumed in whole four-bit groups, which holds
    throughout protocol step 1.
    """

    def __init__(self, setting, epsilon: float):
        setting = _bit_string(setting, "setting")
        if len(setting) != 4:
            raise ValueError(f"setting must have four bits, got {setting}")
        super().__init__(setting, epsilon)


def string_probability_bounds(epsilon: float, length: int):
    """Range of probabilities an epsilon-SV source can give any fixed bit string."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return ((0.5 - epsilon) ** length, (0.5 + epsilon) ** length)


def bit_probabilities(strategy, length: int, epsilon: float) -> np.ndarray:
    """(P(bit i = 0), P(bit i = 1)) = (1/2 + b, 1/2 - b) for each of the first
    `length` bit positions, shape (length, 2), of a strategy whose bias b
    depends on position only (one that declares a `period`), so that the
    bits are independent.  Each bias used is checked against epsilon."""
    period = getattr(strategy, "period", None)
    if period is None:
        raise ValueError("per-bit probabilities need a strategy with a position-only bias (a period)")
    if length < 0:
        raise ValueError("length must be nonnegative")
    p = np.empty((min(period, length), 2))
    for pos in range(len(p)):
        b = float(strategy.bias([0] * pos))
        if not abs(b) <= epsilon:  # false for NaN too
            raise StrategyViolationError(f"bias {b} exceeds epsilon {epsilon} at position {pos}")
        p[pos] = 0.5 + b, 0.5 - b
    return p[np.arange(length) % period]


def code_law(bit_p) -> np.ndarray:
    """Law of the big-endian code of independent bits with per-bit laws
    bit_p[..., i, :] along axis -2 (first bit most significant, as a
    device's selection index packs them); leading axes are kept.  The
    product runs in bit order, so each probability is the same float as a
    walk over the history tree gives."""
    bit_p = np.asarray(bit_p, dtype=float)
    lead = bit_p.shape[:-2]
    law = np.ones(lead + (1,))
    for i in range(bit_p.shape[-2]):
        law = (law[..., :, np.newaxis] * bit_p[..., i, np.newaxis, :]).reshape(lead + (-1,))
    return law
