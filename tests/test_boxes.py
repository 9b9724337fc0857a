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
    no_signaling_violations,
    pack_bits,
    parity,
    parity_box,
    uniform_box,
    unpack_bits,
)

from helpers import (
    is_no_signaling_parties,
    product_box,
    tensor_marginal_shifts,
    tensor_no_signaling_violations,
)


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


def test_non_finite_entries_refused():
    """Every comparison against tol is false for NaN: a NaN table validated."""
    with pytest.raises(BoxValidationError, match=r"non-finite entry p\(0000\|0000\) = nan; .*\(\+252 more\)"):
        NsBox(np.full((16, 16), np.nan))
    for value in (np.nan, np.inf, -np.inf):
        table = np.full((16, 16), 1.0 / 16.0)
        table[3, 8] = value
        assert no_signaling_violations(table) == [f"non-finite entry p(1100|0001) = {value}"]
        with pytest.raises(BoxValidationError, match="non-finite"):
            NsBox(table)


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


def test_enumerate_local_deterministic_boxes_complete():
    boxes = list(enumerate_local_deterministic_boxes())
    assert len(boxes) == 256
    seen = {tuple(np.flatnonzero(table)) for _, table in boxes}
    assert len(seen) == 256  # all distinct deterministic vertices
    for _, table in boxes[:16]:
        assert is_no_signaling(table)[0]


def _same_verdict_as_oracle(table, tol):
    """no_signaling_violations and NsBox agree with the one-party-at-a-time
    oracle: the same violations, in order, and the same NsBox error."""
    violations = tensor_no_signaling_violations(table, tol)
    assert no_signaling_violations(table, tol) == violations
    if violations:
        more = f" (+{len(violations) - 4} more)" if len(violations) > 4 else ""
        with pytest.raises(BoxValidationError) as err:
            NsBox(table, tol=tol)
        assert str(err.value) == f"invalid box: {'; '.join(violations[:4])}{more}"
    else:
        NsBox(table, tol=tol)
    return violations


@pytest.mark.parametrize("tol", [1e-7, 1e-9])
def test_validation_matches_oracle_at_the_tolerance(tol):
    """Tables a few ulps inside and outside tol for each kind of violation
    keep the decision and messages of the one-party-at-a-time check."""
    def steps(ulp):
        return [tol + k * ulp for k in range(-6, 7)]

    # A negative entry: p(0000|0000) = -e in a deterministic box.
    kinds = {"negative entry": []}
    for e in [np.nextafter(tol, -np.inf), tol, np.nextafter(tol, np.inf)]:
        table = local_deterministic_box(((1, 1), (0, 1), (0, 0), (1, 0)))
        table[0, 0] = -e
        kinds["negative entry"].append(_same_verdict_as_oracle(table, tol))
    # A column sum: every entry of setting 0101 scaled by 1 + s, s stepped
    # by ulps of 1.
    kinds["sums to"] = []
    for s in steps(2.0**-52):
        table = np.full((16, 16), 1.0 / 16.0)
        table[:, 5] *= 1.0 + s
        kinds["sums to"].append(_same_verdict_as_oracle(table, tol))
    # A marginal: mass d moved along party j's output bit at setting 0000,
    # which shifts every other party's marginal and leaves party j's alone;
    # d stepped by ulps of the 1/8 marginal sums.
    for j in range(4):
        kinds[f"party {j + 1}"] = []
        for d in steps(2.0**-55):
            table = np.full((16, 16), 1.0 / 16.0)
            table[0, 0] -= d
            table[1 << j, 0] += d
            found = _same_verdict_as_oracle(table, tol)
            assert not any(v.startswith(f"party {j + 1} ") for v in found)
            kinds[f"party {j + 1}"].append(found)
    for kind, verdicts in kinds.items():
        # Each sweep crosses the tolerance: its first table passes and its
        # last one fails, naming that kind of violation.
        assert verdicts[0] == [] and verdicts[-1], kind
        if kind.startswith("party"):
            others = {f"party {i + 1} " for i in range(4)} - {kind + " "}
            assert {v[:8] for v in verdicts[-1] if v.startswith("party")} == others
        else:
            assert any(kind in v for v in verdicts[-1]), kind


def test_validation_matches_oracle_on_perturbed_boxes():
    rng = np.random.default_rng(20)
    tables = [algebraic_violation_box().table, uniform_box().table,
              local_deterministic_box(((0, 1), (1, 0), (1, 1), (0, 0)))]
    for trial in range(300):
        table = tables[trial % 3] + rng.normal(scale=10.0 ** rng.uniform(-10, -6), size=(16, 16))
        _same_verdict_as_oracle(table, 1e-8)
        # At the largest marginal shift itself and one ulp either side, so a
        # shift summed in another order, off in its last bit, shows.
        worst = max(float(d.max()) for d in tensor_marginal_shifts(table))
        for tol in (np.nextafter(worst, 0.0), worst, np.nextafter(worst, 1.0)):
            _same_verdict_as_oracle(table, tol)
    assert no_signaling_violations(np.ones((4, 4))) == ["table shape (4, 4) != (16, 16)"]
