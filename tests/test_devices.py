from fractions import Fraction

import numpy as np
import pytest

import randamp.boxes
from randamp.boxes import (
    NsBox,
    algebraic_violation_box,
    bell_value,
    mixed_with_uniform,
    pack_bits,
    parity_box,
    uniform_box,
)
from randamp.devices import (
    DeviceError,
    IidDevice,
    MixtureDevice,
    TimeOrderedDevice,
    ZeroProbabilityHistoryError,
    sample_outcome,
)
from randamp.protocol import ProtocolParams, _reduced_table, run_protocol
from randamp.sv import GreedyTowardString

from helpers import SequenceDevice, condition_device, goodness_oracle, history_likelihood


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


def test_mixture_keeps_its_own_read_only_weights():
    weights = np.array([0.8, 0.2])
    device = MixtureDevice([IidDevice(algebraic_violation_box()), IidDevice(uniform_box())], weights)
    weights[:] = [0.2, 0.8]
    table = device.box_given(()).table
    assert device.weights.tolist() == [0.8, 0.2]
    assert device.posterior(()).tolist() == [0.8, 0.2]
    assert np.max(np.abs(_reduced_table(device) - table)) <= 1e-15
    assert np.max(np.abs(0.8 * algebraic_violation_box().table + 0.2 * uniform_box().table - table)) <= 1e-15
    with pytest.raises(ValueError):
        device.weights[0] = 1


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


def test_mixture_refuses_nan_weights():
    for weights in ([np.nan, np.nan], [np.nan, 1.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="weights"):
            MixtureDevice([IidDevice(uniform_box())] * 2, weights)


def test_mixture_refuses_weights_that_are_not_a_vector():
    """A 2-D weight array was accepted and failed later (a broadcast error in
    the audit, a TypeError in box_given); a scalar raised TypeError from
    len()."""
    device = IidDevice(uniform_box())
    for components, weights in (
        ([device], [[0.5, 0.5]]),
        ([device] * 2, [[0.5], [0.5]]),
        ([device], 1.0),
        ([device] * 2, 0.5),
    ):
        with pytest.raises(ValueError, match="1-D vector with one entry per component"):
            MixtureDevice(components, weights)


# accept/reject decisions of the numpy check min(w) >= 0 and
# |sum(w) - 1| <= 1e-12, pinned from that implementation
WEIGHT_DECISIONS = [
    ([np.nan, 1.0], False),
    ([1.0, np.nan], False),
    ([np.nan, 0.5, 0.5], False),
    ([-0.0, 1.0], True),
    ([1.0, -0.0], True),
    ([-0.0, -0.0, 1.0], True),
    ([-1e-300, 1.0], False),
    ([1.5, -0.5], False),
    ([np.inf, -np.inf], False),
    ([np.inf, 0.0], False),
    ([0.2, 0.5, 0.3], True),
    ([0.1, 0.2, 0.7], True),
    ([1 / 3] * 3, True),
    ([0.5, 0.5 + 5e-13], True),
    ([0.5, 0.5 - 5e-13], True),
    ([0.5, 0.25, 0.25 - 5e-13], True),
    ([0.25, 0.25, 0.5 + 5e-13], True),
    ([0.5, 0.5 + 2e-12], False),
    ([0.5, 0.5 - 2e-12], False),
    ([0.25, 0.25, 0.5 + 2e-12], False),
    ([0.1] * 10, True),
    ([0.125] * 8, True),
]


@pytest.mark.parametrize("weights, accepted", WEIGHT_DECISIONS)
def test_mixture_weight_boundary_decisions(weights, accepted):
    components = [IidDevice(uniform_box())] * len(weights)
    if accepted:
        MixtureDevice(components, weights)
    else:
        with pytest.raises(ValueError, match="distribution"):
            MixtureDevice(components, weights)


def test_mixture_weight_check_matches_numpy_at_the_tolerance():
    """The check runs on Python floats; its sum must round like numpy's,
    left to right below eight entries and pairwise from eight on, so
    vectors whose sum lands within a few ulps of 1 +- 1e-12 get numpy's
    decision."""
    rng = np.random.default_rng(31)
    device = IidDevice(uniform_box())
    decisions = set()
    for n in range(1, 13):
        for _ in range(400):
            w = rng.dirichlet(np.ones(n)) if n > 1 else np.ones(1)
            w[-1] += rng.choice([-1e-12, 1e-12]) + rng.integers(-8, 9) * 2.0**-52
            want = bool(np.min(w) >= 0 and abs(w.sum() - 1.0) <= 1e-12)
            try:
                MixtureDevice([device] * n, w.tolist())
                got = True
            except ValueError:
                got = False
            assert got == want, (n, w.tolist())
            decisions.add((n >= 8, want))
    assert decisions == {(False, False), (False, True), (True, False), (True, True)}


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


def stateless_box(device, history) -> np.ndarray:
    """The table a device answers with, recomputed from the full history by
    the same float operations as MixtureDevice, keeping nothing between calls."""
    if not isinstance(device, MixtureDevice):
        return device.box_given(history).table
    post = stateless_posterior(device, history)
    table = np.zeros((16, 16))
    for w, comp in zip(post, device.components):
        if w > 0:
            table += w * stateless_box(comp, history)
    return table


def stateless_posterior(device, history) -> np.ndarray:
    """history_likelihood of each component, weighted and normalized."""
    like = []
    for comp in device.components:
        p = 1.0
        for l, (u, x) in enumerate(history):
            if p == 0.0:
                break
            p *= float(stateless_box(comp, history[:l])[x, u])
        like.append(p)
    joint = device.weights * np.array(like)
    return joint / joint.sum()


def test_mixture_posterior_updates_one_use_at_a_time():
    inner = MixtureDevice(
        [IidDevice(mixed_with_uniform(algebraic_violation_box(), 0.3)), IidDevice(uniform_box())],
        (0.5, 0.5),
    )
    device = MixtureDevice([inner, IidDevice(algebraic_violation_box())], (0.6, 0.4))
    params = ProtocolParams(0.1, 0.8, 0.9, 3, n=(6,))
    rng = np.random.default_rng(21)
    for _ in range(3):
        # the three devices share one object, so each one's first use
        # arrives after another device's history
        _, run = run_protocol(params, [device] * 3, GreedyTowardString((0,), 0.1), rng)
        zeta = goodness_oracle([device] * 3, run).zeta
        scale = (0.5 - params.epsilon) ** 4
        for j in range(3):
            pos = run.selected_use(j)
            want = scale * bell_value(stateless_box(device, run.uses[j][:pos]), validate=False)
            assert zeta[j] == want
        history = tuple(run.uses[0])
        for l in range(len(history) + 1):  # one use at a time
            assert np.array_equal(device.posterior(history[:l]), stateless_posterior(device, history[:l]))
        fresh = tuple(run.uses[1])[:3]
        assert fresh[:2] != history[:2]
        for query in (history[:2], fresh, history, history, ()):
            # a prefix, a fresh history one use longer, a repeat and the empty one
            assert np.array_equal(device.posterior(query), stateless_posterior(device, query))
            assert np.array_equal(device.box_given(query).table, stateless_box(device, query))


def test_mixture_posterior_keeps_zero_likelihoods():
    even = IidDevice(parity_box([0] * 16))
    odd = pack_bits((1, 0, 0, 0))
    history = ((3, odd), (8, 5), (1, 0), (8, 0))
    # a one-use schedule: like history_likelihood, the update must not query
    # a component again once its likelihood is 0
    once = SequenceDevice([parity_box([0] * 16)])
    device = MixtureDevice([once, IidDevice(uniform_box())], (0.5, 0.5))
    for l in range(len(history) + 1):
        post = device.posterior(history[:l])
        assert np.array_equal(post, stateless_posterior(device, history[:l]))
    assert post[0] == 0.0 and post[1] == 1.0
    only_even = MixtureDevice([even, even], (0.5, 0.5))
    only_even.posterior(history[3:])
    with pytest.raises(ZeroProbabilityHistoryError):
        only_even.posterior(history[3:] + history[:1])  # one use on from the kept history
    with pytest.raises(ZeroProbabilityHistoryError):
        only_even.posterior(history[3:] + history[:2])
    with pytest.raises(ZeroProbabilityHistoryError):
        only_even.posterior(history)  # recomputed from the start


def uniform_half_mixture():
    half = mixed_with_uniform(algebraic_violation_box(), 0.5)
    return MixtureDevice([IidDevice(uniform_box()), IidDevice(half)], (0.5, 0.5))


def test_mixture_long_run_does_not_underflow():
    # Plain likelihood products of this mixture underflow to 0 under both
    # components after about 280 uses.
    device = uniform_half_mixture()
    params = ProtocolParams(0.1, 0.8, 0.9, 2, n=(1000,))
    result, run = run_protocol(params, [device] * 2, GreedyTowardString((0,), 0.1), np.random.default_rng(5))
    history = tuple(run.uses[0])
    assert len(history) > 1000 and 0.0 <= result.z_k <= 1.0
    post = device.posterior(history)
    assert np.all(np.isfinite(post)) and post.sum() == pytest.approx(1.0, abs=1e-15)
    assert history_likelihood(IidDevice(uniform_box()), history) == 0.0  # below the float range
    condition_device(IidDevice(uniform_box()), history)  # but not zero


def fraction_posterior(device, history):
    """Posterior of a mixture of IidDevices in exact rational arithmetic."""
    joint = []
    for w, comp in zip(device.weights, device.components):
        p = Fraction(float(w))
        for u, x in history:
            p *= Fraction(float(comp.box.table[x, u]))
        joint.append(p)
    total = sum(joint)
    return [float(p / total) for p in joint]


def test_mixture_posterior_matches_fractions():
    boxes = [mixed_with_uniform(algebraic_violation_box(), 0.3), uniform_box(), mixed_with_uniform(algebraic_violation_box(), 0.7)]
    device = MixtureDevice([IidDevice(b) for b in boxes], (0.2, 0.5, 0.3))
    params = ProtocolParams(0.1, 0.8, 0.9, 1, n=(300,))
    _, run = run_protocol(params, [device], GreedyTowardString((0,), 0.1), np.random.default_rng(8))
    history = tuple(run.uses[0])
    assert len(history) > 400  # long enough to underflow plain products
    for length in (0, 1, 12, 40, len(history)):
        want = fraction_posterior(device, history[:length])
        # incrementally extended, then recomputed from the start
        assert np.max(np.abs(device.posterior(history[:length]) - want)) <= 1e-12
        fresh = MixtureDevice(device.components, device.weights)
        assert np.max(np.abs(fresh.posterior(history[:length]) - want)) <= 1e-12
