"""Santha-Vazirani bit sources with adversarially chosen per-bit biases.

Every bit satisfies P(0 | history) = 1/2 + b with |b| <= epsilon.  A strategy
is any rule from the full bit history to a bias; the draw helpers refuse rules
that step outside [-epsilon, epsilon] rather than clamping them.

A strategy whose bias is a function of bit position alone, repeating every
`period` bits, declares that period as an attribute; the exact samplers and
the de Finetti selection weights rely on it.  Strategies without a `period`
are treated as history-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class StrategyViolationError(ValueError):
    """A bias rule returned a value outside the admissible interval."""


@dataclass
class SvTranscript:
    """Record of emitted bits and the biases in force when each was drawn."""

    epsilon: float
    bits: list = field(default_factory=list)
    biases: list = field(default_factory=list)

    def __len__(self):
        return len(self.bits)


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
        self.target = tuple(int(b) for b in target)
        if not self.target or any(b not in (0, 1) for b in self.target):
            raise ValueError("target must be a nonempty bit string")
        self.period = len(self.target)
        self.epsilon = float(epsilon)

    def bias(self, history) -> float:
        want = self.target[len(history) % len(self.target)]
        return self.epsilon if want == 0 else -self.epsilon


class SettingSteering:
    """Steer each four-bit group toward one Bell setting.

    Alignment assumes draws are consumed in whole four-bit groups, which holds
    throughout protocol step 1.
    """

    period = 4

    def __init__(self, setting, epsilon: float):
        self.setting = tuple(int(b) for b in setting)
        if len(self.setting) != 4:
            raise ValueError("setting must have four bits")
        self.epsilon = float(epsilon)

    def bias(self, history) -> float:
        want = self.setting[len(history) % 4]
        return self.epsilon if want == 0 else -self.epsilon


def next_bit(strategy, transcript: SvTranscript, rng: np.random.Generator) -> int:
    b = float(strategy.bias(transcript.bits))
    if abs(b) > transcript.epsilon:
        raise StrategyViolationError(
            f"bias {b} exceeds epsilon {transcript.epsilon} at position {len(transcript.bits)}"
        )
    bit = 0 if rng.random() < 0.5 + b else 1
    transcript.bits.append(bit)
    transcript.biases.append(b)
    return bit


def draw_bits(strategy, transcript: SvTranscript, n: int, rng: np.random.Generator):
    return tuple(next_bit(strategy, transcript, rng) for _ in range(n))


def draw_setting(strategy, transcript: SvTranscript, rng: np.random.Generator):
    """Four source bits in order become (u^1, u^2, u^3, u^4)."""
    return draw_bits(strategy, transcript, 4, rng)


def draw_index(strategy, transcript: SvTranscript, n: int, rng: np.random.Generator) -> int:
    """Choose an index in [0, n) from log2(n) source bits, first bit most significant."""
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"index range must be a power of two, got {n}")
    width = n.bit_length() - 1
    index = 0
    for _ in range(width):
        index = (index << 1) | next_bit(strategy, transcript, rng)
    return index


def string_probability_bounds(epsilon: float, length: int):
    """Range of probabilities an epsilon-SV source can give any fixed bit string."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return ((0.5 - epsilon) ** length, (0.5 + epsilon) ** length)


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


def exact_bitstring_distribution(strategy, length: int, epsilon: float) -> np.ndarray:
    """Probability of every length-bit string under the strategy, exactly.

    Walks the full history tree, so the rule may depend on the past in any way.
    Index packs the first bit as most significant, matching draw_index.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    probs = np.zeros(2**length)

    def walk(history, p):
        if len(history) == length:
            idx = 0
            for b in history:
                idx = (idx << 1) | b
            probs[idx] = p
            return
        b = float(strategy.bias(history))
        if abs(b) > epsilon:
            raise StrategyViolationError(f"bias {b} outside interval at {history}")
        walk(history + [0], p * (0.5 + b))
        walk(history + [1], p * (0.5 - b))

    walk([], 1.0)
    return probs
