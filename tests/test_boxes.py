import itertools

import numpy as np
import pytest

from randamp.boxes import (
    BELL_FUNCTIONAL,
    INEQUALITY_INDICES,
    INEQUALITY_SETTINGS,
    U0,
    U1,
    BoxValidationError,
    NsBox,
    algebraic_violation_box,
    bell_value,
    bits_str,
    enumerate_local_deterministic_boxes,
    in_inequality,
    is_no_signaling,
    lhv_minimum,
    local_deterministic_box,
    majority,
    mixed_with_uniform,
    pack_bits,
    parity,
    parity_box,
    product_box,
    uniform_box,
    unpack_bits,
)

from helpers import is_no_signaling_parties


def test_bit_packing_roundtrip():
    for idx in range(16):
        assert pack_bits(unpack_bits(idx)) == idx
    # the string u1 u2 u3 u4 = "0001" is the weight-one setting of party 4
    assert pack_bits((0, 0, 0, 1)) == 8
    assert bits_str(8) == "0001"
    assert unpack_bits(1) == (1, 0, 0, 0)


def test_setting_groups():
    assert set(U0) == {(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)}
    assert set(U1) == {(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)}
    assert len(INEQUALITY_SETTINGS) == 8
    assert all(in_inequality(u) for u in INEQUALITY_SETTINGS)
    assert not in_inequality((0, 0, 0, 0))
    assert not in_inequality((1, 1, 1, 1))


def test_functional_structure():
    # one indicator per (outcome, setting): settings of weight 1 pair with
    # even outcome parity, weight 3 with odd parity, all other settings zero
    assert BELL_FUNCTIONAL.shape == (16, 16)
    assert set(np.unique(BELL_FUNCTIONAL)) <= {0.0, 1.0}
    nonzero_settings = [u for u in range(16) if BELL_FUNCTIONAL[:, u].any()]
    assert nonzero_settings == sorted(INEQUALITY_INDICES)
    for u in range(16):
        expected_count = 8 if u in INEQUALITY_INDICES else 0
        assert BELL_FUNCTIONAL[:, u].sum() == expected_count
        for x in range(16):
            want = 0.0
            if unpack_bits(u) in U0 and parity(unpack_bits(x)) == 0:
                want = 1.0
            if unpack_bits(u) in U1 and parity(unpack_bits(x)) == 1:
                want = 1.0
            assert BELL_FUNCTIONAL[x, u] == want


def test_uniform_box_value():
    assert bell_value(uniform_box()) == pytest.approx(4.0, abs=1e-12)


def test_local_deterministic_bound():
    values = [
        bell_value(table, validate=False)
        for _, table in enumerate_local_deterministic_boxes()
    ]
    assert len(values) == 256
    assert min(values) == 2.0
    assert all(v >= 2.0 for v in values)
    assert lhv_minimum() == 2.0


def test_local_deterministic_box_structure():
    # party responses f_i(u_i): one unit entry per setting column
    responses = ((0, 1), (1, 1), (0, 0), (1, 0))
    table = local_deterministic_box(responses)
    assert np.array_equal(table.sum(axis=0), np.ones(16))
    u = (1, 0, 1, 1)
    x = (1, 1, 0, 0)  # f1(1), f2(0), f3(1), f4(1)
    assert table[pack_bits(x), pack_bits(u)] == 1.0
    with pytest.raises(ValueError):
        local_deterministic_box(((0, 1), (1, 1)))


def test_algebraic_violation_box():
    box = algebraic_violation_box()
    assert bell_value(box) == 0.0
    ok, violations = is_no_signaling(box.table)
    assert ok and violations == []


def test_parity_box_matching_functional_is_no_signaling():
    # all weight on the indicator outcomes: even parity on U0, odd on U1
    parities = [
        1 if unpack_bits(u) in U1 else 0 for u in range(16)
    ]
    box = parity_box(parities)
    assert is_no_signaling(box.table)[0]
    assert bell_value(box) == pytest.approx(8.0)


def test_signaling_box_detected():
    table = np.full((16, 16), 1.0 / 16.0)
    u0 = pack_bits((0, 0, 0, 0))
    u1 = pack_bits((1, 0, 0, 0))
    table[:, u0] = 0.0
    table[u0, u0] = 1.0
    table[:, u1] = 1.0 / 16.0
    ok, violations = is_no_signaling(table)
    assert not ok
    assert any("party 1" in v for v in violations)
    with pytest.raises(BoxValidationError):
        NsBox(table)


def test_box_validation_errors():
    bad_shape = np.ones((4, 4))
    with pytest.raises(BoxValidationError):
        NsBox(bad_shape)
    negative = np.full((16, 16), 1.0 / 16.0)
    negative[0, 0] = -0.5
    negative[1, 0] = 0.5 + 2.0 / 16.0  # keep the column normalized
    with pytest.raises(BoxValidationError):
        NsBox(negative)
    unnormalized = np.full((16, 16), 1.0 / 8.0)
    with pytest.raises(BoxValidationError):
        NsBox(unnormalized)


def test_bell_value_linearity():
    rng = np.random.default_rng(3)
    box_a = uniform_box()
    box_b = algebraic_violation_box()
    for _ in range(20):
        alpha = rng.random()
        mix = alpha * box_a.table + (1 - alpha) * box_b.table
        expected = alpha * bell_value(box_a) + (1 - alpha) * bell_value(box_b)
        assert bell_value(NsBox(mix)) == pytest.approx(expected, abs=1e-12)


def test_mixing_with_uniform_interpolates():
    base = algebraic_violation_box()
    for w in (0.0, 0.1, 0.25, 0.5, 1.0):
        assert bell_value(mixed_with_uniform(base, w)) == pytest.approx(4 * w, abs=1e-12)
    with pytest.raises(ValueError):
        mixed_with_uniform(base, 1.5)


def test_majority():
    assert majority(0, 0, 1) == 0
    assert majority(1, 1, 0) == 1
    assert majority(0, 0, 0) == 0
    for bits in itertools.product((0, 1), repeat=3):
        for perm in itertools.permutations(bits):
            assert majority(*perm) == majority(*bits)


def test_product_box_single_is_identity():
    box = algebraic_violation_box()
    assert np.array_equal(product_box([box]), box.table)
    with pytest.raises(ValueError):
        product_box([])


def test_product_box_of_uniforms():
    joint = product_box([uniform_box(), uniform_box()])
    assert joint.shape == (256, 256)
    assert np.allclose(joint, 1.0 / 256.0)
    assert is_no_signaling_parties(joint, 8)


def test_product_box_marginals_reproduce_factors():
    rng = np.random.default_rng(11)
    w = rng.random()
    box_a = mixed_with_uniform(algebraic_violation_box(), w)
    box_b = uniform_box()
    joint = product_box([box_a, box_b])
    # device 1 owns the most significant outcome/setting nibble
    t = joint.reshape(16, 16, 16, 16)  # (x_a, x_b, u_a, u_b)
    marg_a = t.sum(axis=1)[:, :, 0]
    marg_b = t.sum(axis=0)[:, 0, :]
    assert np.max(np.abs(marg_a - box_a.table)) <= 1e-12
    assert np.max(np.abs(marg_b - box_b.table)) <= 1e-12


def test_json_round_trip():
    box = algebraic_violation_box()
    payload = box.to_json()
    assert set(payload) == {"p", "order"}
    assert payload["order"] == "outcome-major"
    again = NsBox.from_json(payload)
    assert np.array_equal(again.table, box.table)
    with pytest.raises(BoxValidationError):
        NsBox.from_json({"p": payload["p"]})
    with pytest.raises(BoxValidationError):
        NsBox.from_json({"p": payload["p"], "order": "setting-major"})


def test_enumerate_local_deterministic_boxes_complete():
    boxes = list(enumerate_local_deterministic_boxes())
    assert len(boxes) == 256
    seen = {tuple(np.flatnonzero(table)) for _, table in boxes}
    assert len(seen) == 256  # all distinct deterministic vertices
    for _, table in boxes[:16]:
        assert is_no_signaling(table)[0]
