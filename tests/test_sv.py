import math

import numpy as np
import pytest
from scipy import stats

from randamp.boxes import in_inequality, pack_bits
from randamp.sv import (
    ConstantBias,
    GreedyTowardString,
    HonestBits,
    SettingSteering,
    StrategyViolationError,
    SvTranscript,
    bit_probabilities,
    code_law,
    draw_bits,
    draw_index,
    draw_setting,
    next_bit,
    string_probability_bounds,
)

from helpers import (
    SvParams,
    builtin_strategies,
    draw_kept_setting,
    exact_bitstring_distribution,
    replay_transcript,
)

EPSILONS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.49)


class FixedRng:
    """Feed next_bit a scripted sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class ParityFeedback:
    """History-dependent but admissible: push toward even running parity."""

    position_dependent = False

    def __init__(self, epsilon):
        self.epsilon = epsilon

    def bias(self, history):
        return self.epsilon if sum(history) % 2 else -self.epsilon


def test_params_validation():
    SvParams(0.0)
    SvParams(0.49)
    with pytest.raises(ValueError):
        SvParams(0.5)
    with pytest.raises(ValueError):
        SvParams(-0.1)


def test_greedy_string_probability():
    dist = exact_bitstring_distribution(GreedyTowardString((0, 0, 0), 0.1), 3, 0.1)
    assert dist[0] == pytest.approx(0.216, abs=1e-15)
    assert dist.sum() == pytest.approx(1.0, abs=1e-14)
    lo, hi = string_probability_bounds(0.1, 3)
    assert dist.max() == pytest.approx(hi)
    assert dist.min() == pytest.approx(lo)


def test_string_probability_bounds():
    assert string_probability_bounds(0.1, 2) == pytest.approx((0.16, 0.36))
    assert string_probability_bounds(0.0, 5) == pytest.approx((1 / 32, 1 / 32))
    assert string_probability_bounds(0.3, 0) == (1.0, 1.0)
    with pytest.raises(ValueError):
        string_probability_bounds(0.1, -1)


def test_constant_bias_distribution():
    dist = exact_bitstring_distribution(ConstantBias(0.1), 4, 0.1)
    assert dist[0] == pytest.approx(0.6**4)  # string 0000
    assert dist[-1] == pytest.approx(0.4**4)
    # draw_index over 4 choices consumes two bits
    pair = exact_bitstring_distribution(ConstantBias(0.1), 2, 0.1)
    assert pair[0] == pytest.approx(0.36)


def test_setting_steering_distribution():
    dist = exact_bitstring_distribution(SettingSteering((0, 0, 0, 1), 0.1), 4, 0.1)
    # big-endian packing: bit string 0001 sits at index 1
    assert dist[1] == pytest.approx(0.6**4)


def test_bit_zero_probabilities_match_exact_walk():
    """For a position-only strategy the bits are independent with P(0) =
    1/2 + bias, so the product of the per-bit laws is the exact walk."""
    for strategy in (HonestBits(), ConstantBias(-0.1), GreedyTowardString((0, 1, 1), 0.1),
                     SettingSteering((0, 1, 1, 0), 0.1)):
        bit_p = bit_probabilities(strategy, 7, 0.1)
        walk = exact_bitstring_distribution(strategy, 7, 0.1).reshape((2,) * 7)
        product = np.array(1.0)
        for p in bit_p:
            product = np.multiply.outer(product, p)
        assert np.array_equal(product, walk)
    assert list(bit_probabilities(GreedyTowardString((1, 0), 0.2), 5, 0.2)[:, 0]) == [0.3, 0.7, 0.3, 0.7, 0.3]
    assert bit_probabilities(HonestBits(), 0, 0.0).shape == (0, 2)
    with pytest.raises(StrategyViolationError):
        bit_probabilities(ConstantBias(0.2), 3, 0.1)
    with pytest.raises(StrategyViolationError, match="bias nan"):
        bit_probabilities(ConstantBias(math.nan), 3, 0.1)
    with pytest.raises(StrategyViolationError, match="bias nan"):
        next_bit(ConstantBias(math.nan), SvTranscript(epsilon=0.1), np.random.default_rng(0))

    class LateViolation:
        period = 2

        def bias(self, history):
            return 0.3 * (len(history) % 2)

    with pytest.raises(StrategyViolationError, match="position 1"):
        bit_probabilities(LateViolation(), 2, 0.1)
    with pytest.raises(ValueError, match="period"):
        bit_probabilities(ParityFeedback(0.1), 3, 0.1)


def test_code_law_is_the_exact_walk():
    """code_law of the per-bit laws is the walk over the history tree, float
    for float, for every built-in strategy; leading axes are batches."""
    for eps in EPSILONS:
        for strategy in builtin_strategies(eps):
            for length in (0, 1, 4, 7):
                law = code_law(bit_probabilities(strategy, length, eps))
                assert np.array_equal(law, exact_bitstring_distribution(strategy, length, eps)), (strategy, eps)
    bit_p = bit_probabilities(GreedyTowardString((0, 1, 1), 0.2), 6, 0.2).reshape(2, 3, 2)
    batched = code_law(bit_p)
    assert batched.shape == (2, 8)
    for row, p in zip(batched, bit_p):
        assert np.array_equal(row, code_law(p))


def test_setting_steering_is_a_four_bit_target():
    for setting in ((2, 0, 0, 0), (0, 1, 0), (0, 1, 1, 0, 1)):
        with pytest.raises(ValueError):
            SettingSteering(setting, 0.1)
    steer, greedy = SettingSteering((0, 1, 1, 0), 0.1), GreedyTowardString((0, 1, 1, 0), 0.1)
    assert steer.period == 4
    assert [steer.bias([0] * i) for i in range(9)] == [greedy.bias([0] * i) for i in range(9)]


def test_draw_setting_bit_order():
    transcript = SvTranscript(epsilon=0.0)
    rng = FixedRng([0.1, 0.1, 0.1, 0.9])
    setting = draw_setting(HonestBits(), transcript, rng)
    assert setting == (0, 0, 0, 1)
    assert transcript.bits == [0, 0, 0, 1]
    assert pack_bits(setting) == 8
    assert in_inequality(setting)


def test_draw_index_bit_order():
    transcript = SvTranscript(epsilon=0.0)
    assert draw_index(HonestBits(), transcript, 4, FixedRng([0.9, 0.1])) == 2
    assert draw_index(HonestBits(), transcript, 1, FixedRng([])) == 0
    assert len(transcript.bits) == 2  # the n=1 draw consumed nothing
    with pytest.raises(ValueError):
        draw_index(HonestBits(), transcript, 3, FixedRng([0.5, 0.5]))
    with pytest.raises(ValueError):
        draw_index(HonestBits(), transcript, 0, FixedRng([]))


def test_index_distribution_bounds_exhaustive():
    strategies = [
        HonestBits(),
        ConstantBias(0.1),
        ConstantBias(-0.1),
        GreedyTowardString((1, 0), 0.1),
        SettingSteering((1, 1, 0, 1), 0.1),
        ParityFeedback(0.1),
    ]
    for n in (1, 2, 4, 8, 16):
        width = n.bit_length() - 1
        lo, hi = string_probability_bounds(0.1, width)
        for strategy in strategies:
            dist = exact_bitstring_distribution(strategy, width, 0.1)
            assert dist.shape == (n,)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
            assert dist.max() <= hi + 1e-15
            assert dist.min() >= lo - 1e-15


def test_next_bit_rejects_violations():
    transcript = SvTranscript(epsilon=0.1)
    rogue = ConstantBias(0.2)
    with pytest.raises(StrategyViolationError):
        next_bit(rogue, transcript, np.random.default_rng(0))
    with pytest.raises(StrategyViolationError):
        exact_bitstring_distribution(rogue, 2, 0.1)
    # no clamping: nothing was emitted
    assert len(transcript) == 0


def test_honest_bit_mean():
    transcript = SvTranscript(epsilon=0.0)
    rng = np.random.default_rng(7)
    bits = draw_bits(HonestBits(), transcript, 100_000, rng)
    assert abs(np.mean(bits) - 0.5) < 0.01
    assert transcript.biases == [0.0] * 100_000


def test_honest_settings_uniform():
    rng = np.random.default_rng(99)
    counts = np.zeros(16)
    for _ in range(4000):
        transcript = SvTranscript(epsilon=0.0)
        counts[pack_bits(draw_setting(HonestBits(), transcript, rng))] += 1
    assert stats.chisquare(counts).pvalue > 1e-3


def test_sequential_draws_match_exact_distribution():
    strategy = GreedyTowardString((1, 0, 1), 0.12)
    rng = np.random.default_rng(2024)
    counts = np.zeros(8)
    for _ in range(10_000):
        transcript = SvTranscript(epsilon=0.12)
        bits = draw_bits(strategy, transcript, 3, rng)
        counts[(bits[0] << 2) | (bits[1] << 1) | bits[2]] += 1
    expected = exact_bitstring_distribution(strategy, 3, 0.12) * 10_000
    assert stats.chisquare(counts, expected).pvalue > 1e-4


def test_target_string_frequency_bounds():
    # Position-only biases let the million-run experiment vectorize exactly.
    strategy = GreedyTowardString((1, 0, 1), 0.1)
    target = np.array([1, 0, 1])
    runs = 1_000_000
    biases = np.array([strategy.bias([0] * i) for i in range(3)])
    rng = np.random.default_rng(5)
    bits = (rng.random((runs, 3)) >= 0.5 + biases).astype(int)
    freq = np.mean(np.all(bits == target, axis=1))
    lo, hi = string_probability_bounds(0.1, 3)
    sigma = np.sqrt(hi * (1 - hi) / runs)
    assert lo - 3 * sigma <= freq <= hi + 3 * sigma


def test_replay_transcript_audit():
    strategy = GreedyTowardString((0, 1, 1, 0), 0.2)
    transcript = SvTranscript(epsilon=0.2)
    draw_bits(strategy, transcript, 200, np.random.default_rng(3))
    replay_transcript(strategy, transcript)  # clean pass

    tampered_bias = SvTranscript(0.2, list(transcript.bits), list(transcript.biases))
    tampered_bias.biases[5] += 0.05
    with pytest.raises(StrategyViolationError):
        replay_transcript(strategy, tampered_bias)

    tampered_bit = SvTranscript(0.2, list(transcript.bits), list(transcript.biases))
    tampered_bit.bits[7] = 2
    with pytest.raises(StrategyViolationError):
        replay_transcript(strategy, tampered_bit)

    shrunk = SvTranscript(0.1, list(transcript.bits), list(transcript.biases))
    with pytest.raises(StrategyViolationError):
        replay_transcript(strategy, shrunk)


def test_draw_kept_setting():
    rng = np.random.default_rng(11)
    transcript = SvTranscript(epsilon=0.49)
    steer = SettingSteering((0, 0, 0, 1), 0.49)
    attempts = []
    for _ in range(200):
        u, used = draw_kept_setting(steer, transcript, rng)
        assert in_inequality(u)
        attempts.append(used)
    assert np.mean(attempts) < 1.3  # steering lands on 0001 almost surely

    dead = SvTranscript(epsilon=0.0)
    with pytest.raises(RuntimeError):
        draw_kept_setting(HonestBits(), dead, FixedRng([0.1] * 4), max_draws=1)


def test_strategy_constructor_validation():
    with pytest.raises(ValueError):
        GreedyTowardString("", 0.1)
    with pytest.raises(ValueError):
        GreedyTowardString((0, 1, 2), 0.1)
    with pytest.raises(ValueError):
        SettingSteering((0, 1, 0), 0.1)


def test_strategy_bits_are_the_integers_0_and_1():
    """Targets and settings are refused unless every entry is the integer 0
    or 1 (numpy integers included): nothing is truncated or parsed."""
    for bad in ((1.9, 0), (1.0, 0), (True, 0), (np.True_, 0), ("1", "0"), "10", (None, 1)):
        with pytest.raises(TypeError, match="target"):
            GreedyTowardString(bad, 0.1)
    for bad in ((0.5, 1, 1, 0), (1, 1, 1, False), ("0", 1, 1, 0)):
        with pytest.raises(TypeError, match="setting"):
            SettingSteering(bad, 0.1)
    for bad in ((2, 0, 0, 0), (0, -1, 0, 0), ()):
        with pytest.raises(ValueError, match="setting"):
            SettingSteering(bad, 0.1)
    with pytest.raises(ValueError, match="setting must have four bits"):
        SettingSteering((0, 1, 1), 0.1)
    assert GreedyTowardString((np.int64(1), np.uint8(0)), 0.1).target == (1, 0)
    assert type(GreedyTowardString(np.array([1, 0]), 0.1).target[0]) is int
    assert SettingSteering(np.array([0, 1, 1, 0]), 0.1).target == (0, 1, 1, 0)
