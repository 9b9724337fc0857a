import numpy as np
import pytest

import randamp.boxes
from randamp.boxes import (
    NsBox,
    algebraic_violation_box,
    mixed_with_uniform,
    pack_bits,
    parity_box,
    uniform_box,
)
from randamp.devices import (
    DeviceError,
    IidDevice,
    MixtureDevice,
    SequenceDevice,
    TimeOrderedDevice,
    ZeroProbabilityHistoryError,
    condition_device,
    history_likelihood,
    sample_outcome,
)


def test_iid_device_ignores_history():
    device = IidDevice(algebraic_violation_box())
    empty = device.box_given(())
    later = device.box_given(((8, 0), (1, 3)))
    assert empty is later


def test_sequence_device_schedule_and_exhaustion():
    good = algebraic_violation_box()
    bad = uniform_box()
    device = SequenceDevice([good, bad])
    assert device.box_given(()) is good
    assert device.box_given(((8, 0),)) is bad
    with pytest.raises(DeviceError):
        device.box_given(((8, 0), (8, 0)))
    with pytest.raises(ValueError):
        SequenceDevice([])


def test_mixture_posterior_hand_computed():
    box_a = algebraic_violation_box()
    box_b = uniform_box()
    device = MixtureDevice([IidDevice(box_a), IidDevice(box_b)], (0.3, 0.7))
    u, x = 8, 0  # outcome 0000 at setting 0001
    pa = box_a.table[x, u]
    pb = box_b.table[x, u]
    post = device.posterior(((u, x),))
    expected_a = 0.3 * pa / (0.3 * pa + 0.7 * pb)
    assert post[0] == pytest.approx(expected_a, abs=1e-14)
    assert post.sum() == pytest.approx(1.0)

    blended = device.box_given(((u, x),)).table
    want = expected_a * box_a.table + (1 - expected_a) * box_b.table
    assert np.max(np.abs(blended - want)) <= 1e-12


def test_mixture_two_step_bayes_update():
    box_a = mixed_with_uniform(algebraic_violation_box(), 0.2)
    box_b = uniform_box()
    device = MixtureDevice([IidDevice(box_a), IidDevice(box_b)], (0.5, 0.5))
    history = ((8, 0), (1, 5))
    post = device.posterior(history)
    la = box_a.table[0, 8] * box_a.table[5, 1]
    lb = box_b.table[0, 8] * box_b.table[5, 1]
    assert post[0] == pytest.approx(0.5 * la / (0.5 * la + 0.5 * lb), abs=1e-14)
    assert history_likelihood(device, history) == pytest.approx(
        0.5 * la + 0.5 * lb, abs=1e-15
    )


def test_mixture_validation():
    with pytest.raises(ValueError):
        MixtureDevice([], [])
    with pytest.raises(ValueError):
        MixtureDevice([IidDevice(uniform_box())], [0.5])
    with pytest.raises(ValueError):
        MixtureDevice([IidDevice(uniform_box())] * 2, [0.6, 0.6])


def test_zero_probability_history():
    # both components concentrate on definite parities, so a wrong-parity
    # outcome has zero likelihood
    even = parity_box([0] * 16)
    device = MixtureDevice([IidDevice(even), IidDevice(even)], (0.5, 0.5))
    odd_outcome = pack_bits((1, 0, 0, 0))
    with pytest.raises(ZeroProbabilityHistoryError):
        device.posterior(((0, odd_outcome),))
    with pytest.raises(ZeroProbabilityHistoryError):
        condition_device(device, ((0, odd_outcome),))
    with pytest.raises(ZeroProbabilityHistoryError):
        condition_device(IidDevice(even), ((0, odd_outcome),))


def test_condition_device_prefix():
    good = algebraic_violation_box()
    late = uniform_box()
    device = SequenceDevice([good, late])
    odd = pack_bits((1, 0, 0, 0))  # supported: odd parity at a weight-1 setting
    conditioned = condition_device(device, ((8, odd),))
    assert conditioned.box_given(()) is late
    plain = condition_device(device, ())
    assert plain.box_given(()) is good
    with pytest.raises(ZeroProbabilityHistoryError):
        condition_device(device, ((8, 0),))  # even parity is forbidden there


def test_history_likelihood_chains():
    device = IidDevice(uniform_box())
    history = ((0, 1), (5, 2), (8, 15))
    assert history_likelihood(device, history) == pytest.approx((1 / 16) ** 3)
    assert history_likelihood(device, ()) == 1.0


def test_sample_outcome_distribution():
    box = algebraic_violation_box()
    device = IidDevice(box)
    rng = np.random.default_rng(4)
    setting = 8
    counts = np.zeros(16)
    for _ in range(4000):
        counts[sample_outcome(device, (), setting, rng)] += 1
    freq = counts / counts.sum()
    assert np.max(np.abs(freq - box.table[:, setting])) < 0.03
    # outcomes the box forbids never appear
    assert counts[box.table[:, setting] == 0.0].sum() == 0


def test_sample_outcome_rejects_non_box():
    class Rogue:
        def box_given(self, history):
            return np.full((16, 16), 1.0 / 16.0)

    with pytest.raises(DeviceError):
        sample_outcome(Rogue(), (), 8, np.random.default_rng(0))


def test_iid_device_validates_table():
    with pytest.raises(Exception):
        IidDevice(np.full((16, 16), 0.5))
    device = IidDevice(np.full((16, 16), 1.0 / 16.0))
    assert isinstance(device.box, NsBox)


def test_mixture_box_is_posterior_weighted_sum_without_revalidation(monkeypatch):
    boxes = [
        algebraic_violation_box(),
        uniform_box(),
        mixed_with_uniform(algebraic_violation_box(), 0.4),
    ]
    device = MixtureDevice([IidDevice(b) for b in boxes], (0.2, 0.5, 0.3))
    history = ((8, 0), (1, 5), (14, 3))
    post = device.posterior(history)

    def no_validation(*args, **kwargs):
        raise AssertionError("mixture box validated again")

    monkeypatch.setattr(randamp.boxes, "is_no_signaling", no_validation)
    box = device.box_given(history)
    assert isinstance(box, NsBox)
    want = sum(w * b.table for w, b in zip(post, boxes))
    assert np.max(np.abs(box.table - want)) <= 1e-15
    monkeypatch.undo()
    assert randamp.boxes.is_no_signaling(box.table)[0]


def test_mixture_rejects_component_without_box():
    class RawTable(TimeOrderedDevice):
        def box_given(self, history):
            return np.full((16, 16), 1.0 / 16.0)

    device = MixtureDevice([IidDevice(uniform_box()), RawTable()], (0.5, 0.5))
    with pytest.raises(DeviceError, match="ndarray"):
        device.box_given(())
    with pytest.raises(DeviceError):
        sample_outcome(device, (), 8, np.random.default_rng(0))
