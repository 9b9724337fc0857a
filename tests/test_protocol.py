import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import randamp.protocol as protocol
from randamp.boxes import (
    BELL_FUNCTIONAL,
    INEQUALITY_INDICES,
    U1,
    NsBox,
    algebraic_violation_box,
    bell_value,
    local_deterministic_box,
    majority,
    mixed_with_uniform,
    pack_bits,
    parity_box,
    uniform_box,
    unpack_bits,
)
from randamp.devices import IidDevice, MixtureDevice
from randamp.protocol import (
    ProtocolParams,
    _IidSampler,
    _selection_law,
    _shared_table,
    acceptance_threshold,
    azuma_rejection_bound,
    estimate_output_bias,
    f_epsilon,
    fast_path_applicable,
    per_draw_setting_distribution,
    proposition_bound,
    robustness_acceptance_bound,
    robustness_threshold,
    simulate_trials,
    trial_law,
    wilson_interval,
    xor_bias_bound,
)
from randamp.quantum import NoiseSpec, born_box, build_state, noisy_box, xz_bases
from randamp.sv import ConstantBias, GreedyTowardString, HonestBits, SettingSteering, bit_probabilities

from helpers import (
    ConditionedDevice,
    SequenceDevice,
    Shifted,
    builtin_strategies,
    distance_d,
    exact_bitstring_distribution,
    goodness_oracle,
    oracle_rows,
    run_protocol,
    xor_distribution_exact,
)

HONEST = HonestBits()


def honest_params(k=5, epsilon=0.0, delta=0.8, mu=0.9, **kw):
    return ProtocolParams(epsilon=epsilon, delta=delta, mu=mu, k=k, **kw)


def engine_columns(chunks, fields=("z_k", "accepted", "output", "selection", "m_realized")):
    """Concatenate the chunks simulate_trials yields, one array per field."""
    chunks = list(chunks)
    return [np.concatenate([getattr(c, f) for c in chunks]) for f in fields]


def test_params_validation_and_broadcast():
    p = ProtocolParams(0.1, 0.8, 0.9, 3, n=2)
    assert p.n == (2, 2, 2)
    p = ProtocolParams(0.1, 0.8, 0.9, 3, n=(4,))
    assert p.n == (4, 4, 4)
    p = ProtocolParams(0.1, 0.8, 0.9, 3, n=(3, 5, 8))
    assert p.selection_sizes() == (2, 4, 8)
    for bad in (
        dict(epsilon=0.5),
        dict(epsilon=-0.1),
        dict(delta=0.0),
        dict(delta=8.5),
        dict(mu=0.0),
        dict(mu=1.0),
        dict(k=0),
        dict(n=(1, 2)),
        dict(n=0),
        dict(t=0.0),
        dict(t=math.nan),
    ):
        kwargs = dict(epsilon=0.1, delta=0.8, mu=0.9, k=3)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ProtocolParams(**kwargs)


def test_acceptance_threshold_examples():
    assert acceptance_threshold(honest_params()) == pytest.approx(0.0025, abs=1e-15)
    assert acceptance_threshold(honest_params(epsilon=0.1)) == pytest.approx(
        0.001024, abs=1e-15
    )


def test_xor_bias_bound_values():
    assert xor_bias_bound([0.25, 0.25]) == pytest.approx(0.125)
    assert xor_bias_bound([0.5] * 6) == 0.5
    assert xor_bias_bound([]) == 0.5  # empty product capped at the ceiling
    with pytest.raises(ValueError):
        xor_bias_bound([0.6])


def test_xor_bias_bound_past_a_thousand_biases():
    """1/2 prod(2 eps_i) is 2^(n-1) prod(eps_i) bit for bit where the power
    does not overflow, and stays finite past 1024 biases."""
    rng = np.random.default_rng(19)
    for _ in range(2000):
        eps = list(rng.random(rng.integers(1, 61)) * 0.5)
        assert xor_bias_bound(eps) == min(0.5, 2.0 ** (len(eps) - 1) * math.prod(eps))
    assert xor_bias_bound([0.5] * 1025) == 0.5
    assert xor_bias_bound([0.25] * 1025) == 2.0**-1026
    assert xor_bias_bound([0.1] * 1025) == 0.0
    assert xor_bias_bound([0.5] * 10**5) == 0.5
    assert xor_bias_bound([0.1] * 10**5) == 0.0


def test_integer_fields_are_not_truncated():
    for kw, field in ((dict(k=1, n=(2.9,)), "n"), (dict(k=2, n=(2, 1.0)), "n"), (dict(k=1, n=True), "n"),
                      (dict(k=True), "k"), (dict(k=2.0), "k"), (dict(k="2"), "k")):
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            ProtocolParams(0.1, 0.8, 0.9, **kw)
    params = ProtocolParams(0.1, 0.8, 0.9, np.int64(2), n=np.int64(3))
    assert params.k == 2 and params.n == (3, 3) and type(params.k) is int


def test_xor_enumeration_matches_product_identity():
    grid = (0.0, 0.1, 0.25, 0.5)
    for m in range(1, 5):
        for biases in itertools.product(grid, repeat=m):
            bound = xor_bias_bound(biases)
            for signs in itertools.product((1.0, -1.0), repeat=m):
                p0 = xor_distribution_exact(biases, signs)
                signed = 2.0 ** (m - 1) * math.prod(
                    s * b for s, b in zip(signs, biases)
                )
                assert p0 - 0.5 == pytest.approx(signed, abs=1e-15)
                assert abs(p0 - 0.5) <= bound + 1e-15
            # extremal corner: every bias maximal makes the bound tight
        corner = xor_distribution_exact([0.5] * m)
        assert abs(corner - 0.5) == pytest.approx(xor_bias_bound([0.5] * m))
    with pytest.raises(ValueError):
        xor_distribution_exact([0.1], signs=[1.0, 1.0])


def test_concentration_bound_values():
    p = honest_params(k=2000)
    assert azuma_rejection_bound(p) == pytest.approx(1.0 - math.exp(-0.00625), abs=1e-15)
    assert robustness_acceptance_bound(p) == pytest.approx(
        1.0 - math.exp(-2.44140625e-5), abs=1e-18
    )


def test_f_epsilon_and_robustness_threshold():
    assert f_epsilon(0.0) == pytest.approx(0.5, abs=1e-15)
    assert robustness_threshold(0.0, 0.9, 0.8) == pytest.approx(0.01, abs=1e-15)
    # shrinks as the source gets more adversarial
    values = [robustness_threshold(e, 0.9, 0.8) for e in (0.0, 0.1, 0.2, 0.3)]
    assert values == sorted(values, reverse=True)


def test_proposition_bound_terms():
    p = ProtocolParams(0.1, 0.5, 0.9, 100, t=1e6)
    bound = proposition_bound(p)
    assert bound.estimation_term == pytest.approx((14.5 / 16.0) ** 90.0)
    assert bound.azuma_term == pytest.approx(
        2.0 * math.exp(-100 * 0.4**8 * 0.01 * 0.25 / 8.0)
    )
    assert bound.definetti_term == pytest.approx(0.004)
    assert bound.total == pytest.approx(
        bound.estimation_term + bound.azuma_term + bound.definetti_term
    )
    far = proposition_bound(ProtocolParams(0.1, 0.5, 0.9, 100, t=1e12))
    assert far.definetti_term == pytest.approx(4e-6)


def test_proposition_bound_caps_vacuous_estimation_term():
    # For delta > 5/7 the base (11 + 7 delta)/16 exceeds 1; at k = 1e5 the
    # uncapped power overflows a float.
    bound = proposition_bound(ProtocolParams(0.1, 0.8, 0.9, 100_000))
    assert bound.estimation_term == 1.0
    assert math.isfinite(bound.total)
    assert proposition_bound(ProtocolParams(0.1, 0.8, 0.9, 20)).estimation_term == 1.0


def test_distance_examples():
    report = distance_d(np.array([0.75, 0.25]))
    assert report.d == pytest.approx(0.125, abs=1e-15)
    assert report.d_c == pytest.approx(0.25, abs=1e-15)
    assert report.sigma_size == 2

    b = 0.07
    two_z = np.array([[0.5 + b, 0.5 - b], [0.5 - b, 0.5 + b]])
    report = distance_d(two_z.reshape(1, 2, 2))
    assert report.d == pytest.approx(b / 2.0, abs=1e-15)
    assert report.d_c == pytest.approx(b, abs=1e-15)

    with pytest.raises(ValueError):
        distance_d(np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        distance_d(np.array([0.75, 0.25]), z_weights=np.array([-0.2, 1.2]))


def test_distance_refuses_nan():
    """NaN conditionals or z weights fail every comparison: they gave
    d = d_c = NaN."""
    with pytest.raises(ValueError, match="conditional"):
        distance_d(np.array([math.nan, math.nan]))
    with pytest.raises(ValueError, match="z_weights"):
        distance_d(np.full((1, 2, 2), 0.5), z_weights=np.array([math.nan, math.nan]))


def test_distance_inequalities_randomized():
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        n_w = rng.integers(1, 4)
        n_z = rng.integers(1, 5)
        sigma = rng.integers(2, 6)
        p = rng.random((n_w, n_z, sigma)) + 1e-3
        p /= p.sum(axis=2, keepdims=True)
        w = rng.random((n_w, n_z)) + 1e-3
        w /= w.sum(axis=1, keepdims=True)
        report = distance_d(p, w)  # constructor enforces d_c <= sigma * d
        assert report.d <= 0.5 + 1e-12


def test_run_protocol_honest_always_accepts():
    params = honest_params(k=5)
    devices = [IidDevice(algebraic_violation_box()) for _ in range(params.k)]
    rng = np.random.default_rng(31)
    for _ in range(20):
        result, run = run_protocol(params, devices, HONEST, rng)
        assert result.accepted
        assert result.z_k == 0.0
        assert result.output_bit in (0, 1)
        assert result.output_bit == int(np.bitwise_xor.reduce(result.majority_bits))
        for j in range(params.k):
            u, x = run.selected_pair(j)
            assert u in INEQUALITY_INDICES
            assert run.m_realized[j] >= params.n[j]
            assert 0 <= run.selection[j] < params.selection_sizes()[j]
            kept_settings = [run.uses[j][i][0] for i in run.kept[j]]
            assert all(s in INEQUALITY_INDICES for s in kept_settings)
        report = goodness_oracle(devices, run)
        assert report.verdict and report.good_count == params.k
        assert all(z == 0.0 for z in report.zeta)


def test_run_protocol_uniform_rejects():
    params = honest_params(k=100)
    devices = [IidDevice(uniform_box()) for _ in range(params.k)]
    result, _ = run_protocol(params, devices, HONEST, np.random.default_rng(2))
    assert not result.accepted
    assert result.output_bit is None
    assert result.z_k > 0.3


def test_run_protocol_validates_device_count():
    with pytest.raises(ValueError):
        run_protocol(honest_params(k=3), [IidDevice(uniform_box())], HONEST,
                     np.random.default_rng(0))


def test_goodness_boundary():
    params = ProtocolParams(0.0, 0.8, 0.7, 10)
    good = IidDevice(algebraic_violation_box())
    bad = IidDevice(uniform_box())
    rng = np.random.default_rng(5)

    devices = [good] * 7 + [bad] * 3
    _, run = run_protocol(params, devices, HONEST, rng)
    report = goodness_oracle(devices, run)
    assert report.required == pytest.approx(7.0)
    assert report.good_count == 7 and report.verdict

    devices = [good] * 6 + [bad] * 4
    _, run = run_protocol(params, devices, HONEST, rng)
    report = goodness_oracle(devices, run)
    assert report.good_count == 6 and not report.verdict
    # a box at delta exactly is not good: strict inequality
    at_delta = IidDevice(mixed_with_uniform(algebraic_violation_box(), 0.2))
    assert bell_value(at_delta.box) == pytest.approx(0.8)
    devices = [at_delta] * 10
    _, run = run_protocol(params, devices, HONEST, rng)
    assert goodness_oracle(devices, run).good_count == 0


def test_supermartingale_increments_bounded():
    params = ProtocolParams(0.1, 0.8, 0.9, 20)
    mixture = MixtureDevice(
        [IidDevice(algebraic_violation_box()), IidDevice(uniform_box())], (0.5, 0.5)
    )
    steer = SettingSteering((0, 0, 0, 1), 0.1)
    rng = np.random.default_rng(77)
    for _ in range(10):
        devices = [mixture] * params.k
        _, run = run_protocol(params, devices, steer, rng)
        report = goodness_oracle(devices, run)  # asserts each |zeta_l - B_l| <= 1
        xs = (0.0,) + report.x_values
        for a, b in zip(xs, xs[1:]):
            assert abs(b - a) <= 1.0 + 1e-12
        for z in report.zeta:
            assert 0.0 <= z <= 0.5


def test_honest_majority_bit_conditional_range():
    # exact check straight from the measurement box, no sampling
    box = born_box(build_state(), xz_bases())
    maj0 = np.array([majority(*unpack_bits(x)[:3]) == 0 for x in range(16)])
    for u in INEQUALITY_INDICES:
        p0 = box.table[maj0, u].sum()
        assert 0.25 <= p0 <= 0.75


def test_per_draw_setting_distribution():
    dist = per_draw_setting_distribution(HONEST, 0.0)
    assert np.allclose(dist, 1 / 16.0)
    steer = per_draw_setting_distribution(SettingSteering((0, 0, 0, 1), 0.1), 0.1)
    assert steer[8] == pytest.approx(0.6**4)  # setting 0001
    assert steer.sum() == pytest.approx(1.0)
    greedy = per_draw_setting_distribution(GreedyTowardString((0,), 0.1), 0.1)
    assert greedy[0] == pytest.approx(0.6**4)


def test_draw_and_selection_laws_are_the_exact_walk():
    """The per-draw law, reordered by code, and each selection bit's P(0)
    equal the walk over the history tree, float for float; a source without
    a period has neither."""
    setting_of_code = [pack_bits(tuple((code >> (3 - i)) & 1 for i in range(4))) for code in range(16)]
    for eps in (0.0, 0.05, 0.1, 0.2, 0.3, 0.49):
        params = ProtocolParams(eps, 0.8, 0.9, 3, n=(1, 4, 8))
        for source in builtin_strategies(eps):
            walk = exact_bitstring_distribution(source, 4, eps)
            assert np.array_equal(per_draw_setting_distribution(source, eps)[setting_of_code], walk)
            p0 = [exact_bitstring_distribution(Shifted(source, i), 1, eps)[0] for i in range(5)]
            assert np.array_equal(_selection_law(params, source)[0], p0)

    class Opaque:
        def bias(self, history):
            return 0.0

    with pytest.raises(ValueError, match="period"):
        per_draw_setting_distribution(Opaque(), 0.1)
    with pytest.raises(ValueError, match="period"):
        _selection_law(honest_params(k=2, n=(2,)), Opaque())


def test_fast_path_applicability():
    params = honest_params(k=3)
    iid = [IidDevice(algebraic_violation_box()) for _ in range(3)]
    assert fast_path_applicable(params, iid, HONEST)
    assert fast_path_applicable(params, iid, ConstantBias(0.05))
    assert fast_path_applicable(params, iid, GreedyTowardString((0, 1), 0.1))
    assert fast_path_applicable(params, iid, SettingSteering((0, 1, 1, 1), 0.1))
    assert not fast_path_applicable(params, iid, GreedyTowardString((0, 1, 1), 0.1))
    mixed_boxes = iid[:2] + [IidDevice(uniform_box())]
    assert not fast_path_applicable(params, mixed_boxes, HONEST)
    mixture = [MixtureDevice([IidDevice(uniform_box())], (1.0,))] * 3
    assert fast_path_applicable(params, mixture, HONEST)
    scheduled = MixtureDevice([IidDevice(uniform_box()), SequenceDevice([uniform_box()])], (0.5, 0.5))
    assert not fast_path_applicable(params, [scheduled] * 3, HONEST)

    class Custom:
        position_dependent = True

        def bias(self, history):
            return 0.0

    assert not fast_path_applicable(params, iid, Custom())


def test_vectorized_engine_reduces_each_device_once(monkeypatch):
    import randamp.protocol as protocol

    calls = []
    real = protocol._reduced_table

    def counting(device):
        calls.append(device)
        return real(device)

    monkeypatch.setattr(protocol, "_reduced_table", counting)
    params = honest_params(k=3)
    devices = [IidDevice(algebraic_violation_box()) for _ in range(3)]
    rows = list(simulate_trials(params, devices, HONEST, 300, seed=5))
    assert len(rows) == 2
    assert calls == devices
    calls.clear()
    list(simulate_trials(params, devices[:1] * 3, HONEST, 10, seed=5))
    assert calls == devices[:1]


def test_engine_shapes_and_abort_marking():
    params = honest_params(k=50)
    accepted, output = engine_columns(
        simulate_trials(params, [IidDevice(uniform_box())] * 50, HONEST, 300, seed=3),
        ("accepted", "output"),
    )
    assert accepted.shape == (300,) and output.shape == (300,)
    assert accepted.dtype == bool
    assert np.all(output[~accepted] == -1)
    assert np.all(np.isin(output[accepted], [0, 1]))
    assert accepted.mean() < 0.05  # uniform boxes fail the test


def test_fast_and_general_paths_agree():
    # interior acceptance rate so the comparison has teeth
    params = honest_params(k=20)
    box = mixed_with_uniform(algebraic_violation_box(), 0.3)
    p_one = bell_value(box) / 8.0
    expect = (1.0 - p_one) ** params.k  # accept iff no selected pair scores

    accepted, output = engine_columns(
        simulate_trials(params, [IidDevice(box)] * params.k, HONEST, 50_000, seed=9),
        ("accepted", "output"),
    )
    fast_rate = accepted.mean()
    assert fast_rate == pytest.approx(expect, abs=4 * math.sqrt(expect / 50_000))

    general = 0
    zeros_g = 0
    rng = np.random.default_rng(10)
    trials = 1500
    for _ in range(trials):
        result, _ = run_protocol(
            params, [IidDevice(box)] * params.k, HONEST, rng
        )
        if result.accepted:
            general += 1
            zeros_g += result.output_bit == 0
    g_rate = general / trials
    sigma = math.sqrt(expect * (1 - expect) * (1 / 50_000 + 1 / trials))
    assert abs(g_rate - fast_rate) <= 4 * sigma + 1e-12

    # output-bit law agrees between the two samplers
    p0_fast = np.mean(output[accepted] == 0)
    p0_general = zeros_g / general
    s = math.sqrt(0.25 / accepted.sum() + 0.25 / general)
    assert abs(p0_fast - p0_general) <= 4 * s


def cell_law(table, source, epsilon):
    """P(Bell coefficient b, majority g of the first three outcome bits) of
    one device's selected pair, indexed 2b + g, by enumeration: bit i of a
    four-bit draw is 0 w.p. 1/2 + bias at position i, draws of odd weight are
    kept, and the kept draw's column is renormalized."""
    biases = [source.bias([0] * i) for i in range(4)]
    assert all(abs(b) <= epsilon for b in biases)
    law, kept_total = np.zeros(4), 0.0
    for bits in itertools.product((0, 1), repeat=4):
        if sum(bits) % 2 == 0:
            continue
        p_u = math.prod(0.5 + b if bit == 0 else 0.5 - b for bit, b in zip(bits, biases))
        kept_total += p_u
        u = sum(bit << i for i, bit in enumerate(bits))
        col = table[:, u] / table[:, u].sum()
        for x in range(16):
            g = int(((x & 1) + (x >> 1 & 1) + (x >> 2 & 1)) >= 2)
            law[2 * int(BELL_FUNCTIONAL[x, u]) + g] += p_u * col[x]
    return law / kept_total


def binomial_table(law, k):
    """P(B, parity), indexed [B, parity], for k i.i.d. devices with cell law
    law[2b + g]: a DP over devices of (Bell-coefficient count, majority parity)."""
    dist = np.zeros((k + 1, 2))
    dist[0, 0] = 1.0
    for _ in range(k):
        step = np.zeros_like(dist)
        for b, g in itertools.product((0, 1), repeat=2):
            shifted = np.roll(dist, b, axis=0)[:, [g, 1 - g]]
            if b:
                shifted[0] = 0.0
            step += law[2 * b + g] * shifted
        dist = step
    return dist


def binomial_dp(law, k, threshold):
    """(P(accept), P(output 0 | accept)) from binomial_table."""
    dist = binomial_table(law, k)
    accept = dist[[c for c in range(k + 1) if c / k <= threshold]].sum(axis=0)
    return accept.sum(), accept[0] / accept.sum()


# half a local deterministic box: its outcomes make the Bell coefficient and
# the majority lean on the setting, so the cell law depends on the source and
# the output bit of three devices is visibly biased
DETERMINISTIC = NsBox(local_deterministic_box(((0, 0), (0, 0), (0, 1), (1, 1))))
LEANING = NsBox(0.5 * algebraic_violation_box().table + 0.5 * DETERMINISTIC.table)


def test_iid_sampler_cell_law_is_exact():
    boxes = [
        born_box(build_state(), xz_bases()),
        algebraic_violation_box(),
        uniform_box(),
        LEANING,
    ]
    sources = [GreedyTowardString((0, 1), 0.2), SettingSteering((0, 1, 1, 1), 0.2)]
    params = ProtocolParams(0.2, 0.8, 0.9, 4)
    laws = []
    for box in boxes:
        for source in sources:
            law = _IidSampler(params, box.table, source).law
            assert np.max(np.abs(law - cell_law(box.table, source, 0.2))) <= 1e-15
            laws.append(law)
    assert not np.allclose(laws[-2], laws[-1])  # the source matters on LEANING


def test_iid_sampler_algebraic_box_always_accepts():
    params = ProtocolParams(0.1, 0.8, 0.9, 20, n=(4,))
    devices = [IidDevice(algebraic_violation_box())] * 20
    source = GreedyTowardString((0, 1), 0.1)
    assert fast_path_applicable(params, devices, source)
    z, accepted = engine_columns(
        simulate_trials(params, devices, source, 5000, seed=8), ("z_k", "accepted")
    )
    assert np.all(z == 0.0) and np.all(accepted)


def test_iid_sampler_matches_binomial_dp():
    """The audit's one multinomial draw per symbol reaches 10^12 trials, which
    checks the closed form to about 1e-6."""
    source = SettingSteering((0, 1, 1, 1), 0.1)
    law = cell_law(LEANING.table, source, 0.1)
    # k = 3 accepts only with no Bell coefficient, k = 20 with at most one
    for k, trials, seed in ((3, 200_000, 12), (20, 200_000, 13), (3, 10**12, 14), (20, 10**12, 15)):
        params = ProtocolParams(0.1, 8.0, 0.5, k)
        p_acc, p_zero = binomial_dp(law, k, acceptance_threshold(params))
        assert 0.05 < p_acc < 0.95
        report = estimate_output_bias(
            params, [(1.0, lambda: [IidDevice(LEANING)] * k, source)], trials, seed=seed
        )
        _, n_acc, p0, _ = report.per_symbol[0]
        assert abs(n_acc / trials - p_acc) <= 4 * math.sqrt(p_acc * (1 - p_acc) / trials)
        assert abs(p0 - p_zero) <= 4 * math.sqrt(p_zero * (1 - p_zero) / n_acc)
    assert 4 * math.sqrt(p_zero * (1 - p_zero) / n_acc) < 4e-6
    assert abs(binomial_dp(law, 3, 0.0)[1] - 0.5) > 0.03  # the k = 3 bias has teeth


# signs of (a_0, a_1) = (law[0] - law[1], law[2] - law[3]): (-, -) and (-, +)
SIGNED_LAWS = [np.array([0.1, 0.4, 0.2, 0.3]), np.array([0.05, 0.45, 0.35, 0.15])]


def test_trial_law_matches_binomial_table():
    sources = [GreedyTowardString((0, 1), 0.2), SettingSteering((0, 1, 1, 1), 0.2)]
    laws = [cell_law(box.table, source, 0.2) for source in sources
            for box in (noisy_box(NoiseSpec(state_mixing=0.05)), LEANING, DETERMINISTIC,
                        mixed_with_uniform(algebraic_violation_box(), 0.3))]
    for law in laws + SIGNED_LAWS:
        for k in (3, 20, 60):
            table = binomial_table(law, k)
            assert np.max(np.abs(trial_law(law, k) - table.ravel())) <= 1e-14, (law, k)


def exact_trial_law(law, k):
    """P(B, parity) as Fractions, entry 2B + parity, summed over all 4^k
    cell sequences."""
    pmf = [Fraction(0)] * (2 * k + 2)
    for cells in itertools.product(range(4), repeat=k):
        score = sum(c >> 1 for c in cells)
        parity = sum(c & 1 for c in cells) % 2
        pmf[2 * score + parity] += math.prod((law[c] for c in cells), start=Fraction(1))
    return pmf


def test_trial_law_matches_exact_fractions():
    F = Fraction
    laws = [(F(1, 7), F(2, 7), F(3, 7), F(1, 7)), (F(1, 2), F(0), F(1, 3), F(1, 6)),
            (F(0), F(1, 5), F(0), F(4, 5)), (F(1, 10), F(1, 2), F(3, 10), F(1, 10)),
            (F(3, 8), F(1, 8), F(1, 8), F(3, 8))]
    for law in laws:
        for k in range(1, 7):
            pmf = trial_law(np.array([float(v) for v in law]), k)
            for got, want in zip(pmf, exact_trial_law(law, k)):
                # impossible outcomes are exactly 0, possible ones within a few ulps
                assert (got == 0.0) == (want == 0)
                assert abs(F(got) - want) <= 4e-15 * want, (law, k)


def test_trial_law_at_large_k_is_finite_and_normalized():
    from scipy.stats import binom

    source = SettingSteering((0, 1, 1, 1), 0.1)
    law = cell_law(LEANING.table, source, 0.1)
    q = law[2] + law[3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (10**5, 10**6):
            pmf = trial_law(law, k)
            assert np.all(np.isfinite(pmf)) and abs(pmf.sum() - 1.0) <= 1e-12
            marginal = pmf[0::2] + pmf[1::2]
            assert np.max(np.abs(marginal - binom.pmf(np.arange(k + 1), k, q))) <= 1e-9
        params = ProtocolParams(0.1, 8.0, 0.5, 10**5)
        sampler = _IidSampler(params, LEANING.table, source)
        z, _, _ = sampler.sample(1000, np.random.default_rng(4))
    assert abs(z.mean() - q) <= 4 * math.sqrt(q * (1 - q) / (1000 * params.k))


class EdgeRng:
    """Uniforms at 0, just below 1 and on either side of each CDF step."""

    def __init__(self, cdf):
        below = np.nextafter(cdf, 0.0)
        self.u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cdf[cdf < 1.0], below])

    def random(self, m):
        return self.u[np.arange(m) % len(self.u)]


def test_degenerate_cell_laws_never_draw_impossible_outcomes():
    """a_0 = a_1 = 0 gives a fair parity at every B; q = 0 never scores, q = 1
    always scores, and a box whose outcomes are all 0 never outputs 1.  At
    k = 7 the CDF of that last box sums to 1 - 2^-53 at its last possible
    outcome, so the impossible one after it must still get no width.  The
    audit's multinomial counts never include an impossible category either,
    at any trial count."""
    k = 7
    params = ProtocolParams(0.1, 0.8, 0.9, k)
    greedy = GreedyTowardString((0,), 0.1)
    scoring = [0] * 16
    for u in U1:
        scoring[pack_bits(u)] = 1
    zeros = NsBox(local_deterministic_box(((0, 0), (0, 0), (0, 0), (0, 0))))
    cases = {
        "fair parity": (mixed_with_uniform(algebraic_violation_box(), 0.3), HONEST),
        "q = 0": (noisy_box(NoiseSpec()), greedy),
        "q = 1": (parity_box(scoring), greedy),
        "even parity": (zeros, HONEST),
    }
    pmfs, draws, counts = {}, {}, {}
    for name, (box, source) in cases.items():
        sampler = _IidSampler(params, box.table, source)
        counts[name] = [(trials, *sampler.counts(trials, seed))
                        for trials in (1, 1000, 10**12, 2**53) for seed in range(3)]
        pmf = pmfs[name] = trial_law(sampler.law, k).reshape(k + 1, 2)
        assert np.array_equal(np.diff(sampler.cdf, prepend=0.0) > 0, pmf.ravel() > 0), name
        for rng in (EdgeRng(sampler.cdf), np.random.default_rng(9)):
            z, accepted, output = draws[name, type(rng).__name__] = sampler.sample(20_000, rng)
            b = np.rint(z * k).astype(int)
            # an aborted run hides its parity
            possible = np.where(accepted, pmf[b, np.maximum(output, 0)], pmf[b].sum(axis=1)) > 0
            assert np.all(possible), name
    assert np.array_equal(pmfs["fair parity"][:, 0], pmfs["fair parity"][:, 1])
    assert np.all(pmfs["fair parity"] > 0)
    assert np.all(pmfs["q = 0"][1:] == 0.0)
    assert np.all(pmfs["q = 1"][:-1] == 0.0)
    assert np.all(pmfs["even parity"][:, 1] == 0.0)
    for rng in ("EdgeRng", "Generator"):
        z, accepted, _ = draws["q = 0", rng]
        assert np.all(z == 0.0) and np.all(accepted)
        z, _, output = draws["q = 1", rng]
        assert np.all(z == 1.0) and np.all(output == -1)
        assert not np.any(draws["even parity", rng][2] == 1)
        assert np.any(draws["fair parity", rng][2] == 1)
    assert all(n_acc == trials for trials, n_acc, _ in counts["q = 0"])
    assert all(n_acc == 0 for _, n_acc, _ in counts["q = 1"])
    assert all(zeros == n_acc for _, n_acc, zeros in counts["even parity"])
    assert counts["even parity"][-1][1] > 0  # P(accept) = 1/128: the equality has teeth
    # numpy's multinomial hands the remainder to the last category; here the
    # first two sum to 1 - 2^-54, so a zero last category must stay out
    sampler = _IidSampler(params, noisy_box(NoiseSpec()).table, greedy)
    sampler.category_p = np.array([0.1, np.nextafter(0.9, 0.0), 0.0])
    for seed in range(5):
        assert sampler.counts(2**53, seed)[0] == 2**53


def test_packed_selection_indices_equal_bit_matmul():
    """rows packs each device's selection bits, most significant first, into
    its index without a matmul; the indices are those of bits @ weights in
    int64, at unequal n, with n_j = 1 (no bits, index 0) first, inside and
    last, and past 2^53, where a float sum would round."""
    table = noisy_box(NoiseSpec(state_mixing=0.05)).table
    source = GreedyTowardString((0, 1, 1), 0.1)
    for n in ((1, 2, 5, 1, 16, 3, 1), (1,), (2**60 + 5, 1, 3)):
        params = ProtocolParams(0.1, 0.8, 0.9, len(n), n=n)
        widths = [size.bit_length() - 1 for size in params.selection_sizes()]
        weights = np.zeros((sum(widths), len(n)), dtype=np.int64)
        pos = 0
        for j, width in enumerate(widths):
            for i in range(width):
                weights[pos, j] = 1 << (width - 1 - i)
                pos += 1
        p0 = bit_probabilities(source, sum(widths), 0.1)[:, 0]
        sampler = _IidSampler(params, table, source)
        for seed in range(3):
            rows = sampler.rows(40, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            sampler.sample(40, rng)
            rng.negative_binomial(params.n, sampler.kept_mass, size=(40, len(n)))
            bits = (rng.random((40, sum(widths))) >= p0).astype(np.int64)
            assert rows.selection.dtype == np.int64
            assert np.array_equal(rows.selection, bits @ weights), (n, seed)
        assert np.all(rows.selection < np.array(params.selection_sizes()))


def nested_mixture():
    """A mixture of a mixture and an IidDevice, and its leaf boxes with their
    overall weights."""
    inner = MixtureDevice([IidDevice(LEANING), IidDevice(DETERMINISTIC)], (1 / 3, 2 / 3))
    outer = MixtureDevice([inner, IidDevice(uniform_box())], (3 / 4, 1 / 4))
    leaves = [(1 / 4, LEANING), (1 / 2, DETERMINISTIC), (1 / 4, uniform_box())]
    return outer, leaves


def test_scalar_negative_binomial_count_draws_the_array_stream():
    """_IidSampler passes negative_binomial one scalar count when every
    device has the same n; numpy then draws exactly what the broadcast
    array of that count draws, so m_realized keeps its bytes."""
    for seed in range(24):
        for p in (0.05, 0.3, 0.5, 0.9375, 0.999):
            for n, shape in ((1, (256, 20)), (4, (7, 3)), (1000, (5, 1)), (3, (1, 1))):
                scalar = np.random.default_rng(seed).negative_binomial(n, p, size=shape)
                array = np.random.default_rng(seed).negative_binomial(np.full(shape[1], n), p, size=shape)
                assert scalar.dtype == array.dtype and np.array_equal(scalar, array), (seed, p, n, shape)


def test_equal_counts_rows_match_the_array_count_draw():
    """At equal n the sampler's m_realized is the array-count draw of the
    same stream, after the trial-law draw."""
    table = noisy_box(NoiseSpec(state_mixing=0.05)).table
    source = GreedyTowardString((0, 1), 0.1)
    for n in ((4,) * 5, (1,) * 3, (1000,)):
        params = ProtocolParams(0.1, 0.8, 0.9, len(n), n=n)
        sampler = _IidSampler(params, table, source)
        for seed in range(3):
            rows = sampler.rows(50, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            sampler.sample(50, rng)
            want = np.array(n) + rng.negative_binomial(np.array(n), sampler.kept_mass, size=(50, len(n)))
            assert rows.m_realized.dtype == want.dtype and np.array_equal(rows.m_realized, want), (n, seed)


def test_nested_mixture_law_is_weight_average():
    params = ProtocolParams(0.2, 0.8, 0.9, 4)
    device, leaves = nested_mixture()
    for source in (GreedyTowardString((0, 1), 0.2), SettingSteering((0, 1, 1, 1), 0.2)):
        law = _IidSampler(params, _shared_table([device] * 4, source), source).law
        expect = sum(w * cell_law(box.table, source, 0.2) for w, box in leaves)
        assert np.max(np.abs(law - expect)) <= 1e-15


def phase_trial_law(table, source, epsilon, k):
    """P(B, parity), indexed [B, parity], for k devices with n = 1 whose
    selected pairs are drawn from one table, under a position-only source of
    any period.  A device's selected use is its first kept use, which starts
    where the previous device stopped, so its setting's law depends on the
    use index mod the period: a DP over devices of (that phase, B, parity)."""
    period = source.period
    p0 = bit_probabilities(source, period, epsilon)[:, 0]
    kept = np.array([bin(u).count("1") % 2 == 1 for u in range(16)])
    # draw[c, u]: setting u (bit i is u^(i+1)) at a use whose index is c mod the period
    draw = np.array([[math.prod(p0[(4 * c + i) % period] if not u >> i & 1 else 1 - p0[(4 * c + i) % period]
                                for i in range(4)) for u in range(16)] for c in range(period)])
    cell = np.zeros((16, 4))
    for u in np.flatnonzero(kept):
        for x in range(16):
            cell[u, 2 * int(BELL_FUNCTIONAL[x, u]) + majority(*unpack_bits(x)[:3])] += table[x, u] / table[:, u].sum()
    # step[c, c', cell]: from phase c, the first kept use has that cell and the next device starts at c'
    step = np.zeros((period, period, 4))
    for c0 in range(period):
        reach = 1.0
        for t in range(400):  # each use keeps about half the remaining mass
            c = (c0 + t) % period
            step[c0, (c + 1) % period] += reach * draw[c, kept] @ cell[kept]
            reach *= draw[c, ~kept].sum()
    dist = np.zeros((period, k + 1, 2))
    dist[0, 0, 0] = 1.0
    for _ in range(k):
        new = np.zeros_like(dist)
        for c0, c1, c in itertools.product(range(period), range(period), range(4)):
            b, g = c >> 1, c & 1
            new[c1, b:, :] += step[c0, c1, c] * dist[c0, :k + 1 - b][:, [g, 1 - g]]
        dist = new
    return dist.sum(axis=0)


def test_general_engine_on_nested_mixture_matches_closed_form():
    """run_protocol per trial (from the tests, with per-use posteriors), the
    walk and the vectorized sampler against the law the label-first
    reduction gives: accept iff at most thr k selected pairs score.  Under a
    period dividing four that law is binomial in the closed-form cell law;
    under a period-3 source it is phase_trial_law's DP."""
    k = 3
    params = ProtocolParams(0.1, 8.0, 0.5, k)
    device, leaves = nested_mixture()
    table = sum(w * box.table for w, box in leaves)
    accept = [b for b in range(k + 1) if b / k <= acceptance_threshold(params)]
    sources = ((HONEST, 21), (GreedyTowardString((0, 1), 0.1), 22), (GreedyTowardString((0, 1, 1), 0.1), 23))
    for source, seed in sources:
        law = phase_trial_law(table, source, 0.1, k)
        p_acc = law[accept].sum()
        p_zero = law[accept, 0].sum() / p_acc
        assert 0.05 < p_acc < 0.95 and abs(p_zero - 0.5) > 0.02
        samplers = [(lambda m, rng: oracle_rows(params, [device] * k, source, m, rng), 3000),
                    (protocol._WalkSampler(params, *protocol._reduced_tables([device] * k), source).rows, 20_000)]
        if 4 % source.period == 0:
            fast = _IidSampler(params, _shared_table([device] * k, source), source)
            assert np.max(np.abs(law - binomial_table(fast.law, k))) <= 1e-14
            samplers.append((fast.rows, 100_000))
        for rows_of, trials in samplers:
            rows = rows_of(trials, np.random.default_rng(seed))
            accepted, output = rows.accepted, rows.output
            n_acc = int(accepted.sum())
            assert abs(n_acc / trials - p_acc) <= 4 * math.sqrt(p_acc * (1 - p_acc) / trials)
            p0 = np.mean(output[accepted] == 0)
            assert abs(p0 - p_zero) <= 4 * math.sqrt(p_zero * (1 - p_zero) / n_acc)


WALK_CASES = {
    # source, n, boxes by device, trials: every case takes the walk
    "period-1": (ConstantBias(0.1), (1, 3), (LEANING, DETERMINISTIC), 40),
    "period-2": (GreedyTowardString((1, 0), 0.1), (4, 2, 4), (LEANING, LEANING, uniform_box()), 40),
    "period-3": (GreedyTowardString((0, 1, 1), 0.1), (1, 2, 5, 1, 16, 3, 1),
                 (LEANING, DETERMINISTIC, uniform_box(), LEANING, algebraic_violation_box(), LEANING, DETERMINISTIC),
                 40),
    "period-4": (SettingSteering((0, 1, 1, 1), 0.1), (3, 1, 6), (DETERMINISTIC, LEANING, LEANING), 40),
    "period-5": (GreedyTowardString((0, 1, 1, 0, 1), 0.1), (6, 1, 3), (LEANING,) * 3, 40),
    "k=1-three-chunks": (GreedyTowardString((0, 1, 1), 0.1), (7,), (LEANING,), 600),
}


@pytest.mark.parametrize("case", WALK_CASES)
def test_walk_rows_equal_run_protocol(case):
    """On i.i.d. devices the walk's rows are those of run_protocol (from the
    tests) on an identically seeded generator, element for element, chunk
    by chunk: it takes the generator's uniforms in run_protocol's order and
    maps only each selected use's outcome uniform, as sample_outcome maps
    it."""
    source, n, boxes, trials = WALK_CASES[case]
    params = ProtocolParams(0.1, 0.8, 0.9, len(n), n=n)
    devices = [IidDevice(box) for box in boxes]
    assert isinstance(protocol._sampler(params, devices, source), protocol._WalkSampler)
    for seed in range(3):
        chunks = list(simulate_trials(params, devices, source, trials, seed=seed))
        assert len(chunks) == -(-trials // 256)
        for rows, (size, child) in zip(chunks, protocol._chunks(trials, seed)):
            want = oracle_rows(params, devices, source, size, np.random.default_rng(child))
            for field in ("z_k", "accepted", "output", "selection", "m_realized"):
                a, b = getattr(rows, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (case, seed, field)
        accepted = np.concatenate([rows.accepted for rows in chunks])
        assert 0 < accepted.sum() < trials  # an interior rate, so the rows have teeth


def test_engines_refuse_inputs_without_an_exact_law():
    """simulate_trials and estimate_output_bias raise a ValueError that names
    what is missing: devices that do not reduce to one table per use (a
    schedule, a conditioned device, a mixture over a schedule), or a source
    without a period."""
    params = honest_params(k=2)
    iid = IidDevice(algebraic_violation_box())
    mixture = MixtureDevice([iid, IidDevice(uniform_box())], (0.5, 0.5))

    class Opaque:
        def bias(self, history):
            return 0.0

    cases = [
        ([SequenceDevice([uniform_box()] * 8)] * 2, HONEST, "i.i.d. given one hidden label"),
        ([ConditionedDevice(mixture, ()), iid], HONEST, "i.i.d. given one hidden label"),
        ([MixtureDevice([iid, SequenceDevice([uniform_box()])], (0.5, 0.5))] * 2, HONEST,
         "i.i.d. given one hidden label"),
        ([iid] * 2, Opaque(), "a strategy with a period"),
    ]
    for devices, source, reason in cases:
        with pytest.raises(ValueError, match=reason):
            simulate_trials(params, devices, source, 10, seed=1)
        with pytest.raises(ValueError, match=reason):
            estimate_output_bias(params, [(1.0, lambda: devices, source)], 10, seed=1)


def test_mixtures_that_do_not_reduce_stay_general():
    params = honest_params(k=3)
    device, _ = nested_mixture()
    assert fast_path_applicable(params, [device] * 3, HONEST)
    assert fast_path_applicable(params, [nested_mixture()[0] for _ in range(3)], HONEST)
    box = IidDevice(algebraic_violation_box())
    flat = IidDevice(uniform_box())
    weighted = [MixtureDevice([box, flat], (1 - w, w)) for w in (0.1, 0.2, 0.3)]
    assert not fast_path_applicable(params, weighted, HONEST)
    assert not fast_path_applicable(params, [ConditionedDevice(device, ())] * 3, HONEST)


def count_reductions(monkeypatch) -> list:
    """Record every _reduced_table call, recursive ones included."""
    import randamp.protocol as protocol

    calls = []
    real = protocol._reduced_table

    def counting(device):
        calls.append(device)
        return real(device)

    monkeypatch.setattr(protocol, "_reduced_table", counting)
    return calls


def test_fresh_mixtures_over_shared_boxes_reduce_once(monkeypatch):
    """k fresh mixtures over the same boxes and weights share one law key:
    one reduction, and the same rows and report, bit for bit, as k copies of
    one mixture object."""
    k = 6
    params = ProtocolParams(0.1, 0.8, 0.9, k, n=(4,))
    source = GreedyTowardString((0,), 0.1)
    strong, flat = IidDevice(algebraic_violation_box()), IidDevice(uniform_box())
    # the weights as a tuple, a list and an array have the same bytes
    fresh = [MixtureDevice([strong, flat], w) for w in [(0.8, 0.2), [0.8, 0.2], np.array([0.8, 0.2])] * 2]
    one = MixtureDevice([strong, flat], (0.8, 0.2))
    calls = count_reductions(monkeypatch)
    assert np.array_equal(_shared_table(fresh, source), _shared_table([one] * k, source))
    assert calls == [fresh[0], strong, flat, one, strong, flat]

    fresh_rows = engine_columns(simulate_trials(params, fresh, source, 600, seed=4))
    one_rows = engine_columns(simulate_trials(params, [one] * k, source, 600, seed=4))
    for got, want in zip(fresh_rows, one_rows):
        assert got.dtype == want.dtype and np.array_equal(got, want)

    reports = [
        estimate_output_bias(params, [(1.0, factory, source)], 5000, seed=12)
        for factory in (lambda: [MixtureDevice([strong, flat], (0.8, 0.2)) for _ in range(k)],
                        lambda: [one] * k)
    ]
    assert 0.05 < reports[0].acceptance_rate < 0.95  # interior, so the counts have teeth
    assert repr(reports[0]) == repr(reports[1])


def test_mixtures_over_equal_tables_compare_by_content(monkeypatch):
    """Distinct box objects give distinct keys; equal tables still take the
    vectorized engine, each reduced once."""
    params = honest_params(k=3)
    table = algebraic_violation_box().table
    flat = IidDevice(uniform_box())
    copies = [MixtureDevice([IidDevice(NsBox(table.copy())), flat], (0.8, 0.2)) for _ in range(3)]
    calls = count_reductions(monkeypatch)
    assert fast_path_applicable(params, copies, HONEST)
    assert [c for c in calls if isinstance(c, MixtureDevice)] == copies

    strong = IidDevice(algebraic_violation_box())
    weighted = [MixtureDevice([strong, flat], w) for w in ((0.8, 0.2), (0.8, 0.2), (0.7, 0.3))]
    calls.clear()
    assert not fast_path_applicable(params, weighted, HONEST)
    assert [c for c in calls if isinstance(c, MixtureDevice)] == [weighted[0], weighted[2]]


def test_nested_mixtures_are_keyed_through_inner_mixtures(monkeypatch):
    params = honest_params(k=4)
    leaning, deterministic, flat = IidDevice(LEANING), IidDevice(DETERMINISTIC), IidDevice(uniform_box())

    def nested(inner_weights=(1 / 3, 2 / 3), last=flat):
        inner = MixtureDevice([leaning, deterministic], inner_weights)
        return MixtureDevice([inner, last], (3 / 4, 1 / 4))

    devices = [nested() for _ in range(4)]
    calls = count_reductions(monkeypatch)
    table = _shared_table(devices, HONEST)
    assert calls == [devices[0], devices[0].components[0], leaning, deterministic, flat]
    assert np.array_equal(table, _shared_table([nested_mixture()[0]] * 4, HONEST))

    # a different inner weight is a different key, and here a different table
    calls.clear()
    assert not fast_path_applicable(params, devices[:3] + [nested((2 / 3, 1 / 3))], HONEST)
    assert len([c for c in calls if c is leaning]) == 2
    # an inner component that does not reduce keys the whole device to None
    scheduled = nested(last=SequenceDevice([uniform_box()]))
    assert not fast_path_applicable(params, devices[:3] + [scheduled], HONEST)


def test_audit_distances_equal_checked_distance_d():
    """The audit computes d and d_c without re-checking the rows it built;
    they equal distance_d on the same rows, bit for bit, with a symbol of
    weight 0 among three."""
    k = 4
    params = ProtocolParams(0.1, 0.8, 0.9, k)
    source = GreedyTowardString((0,), 0.1)
    strong, flat = IidDevice(algebraic_violation_box()), IidDevice(uniform_box())
    adversary = [
        (0.6, lambda: [MixtureDevice([strong, flat], (0.7, 0.3)) for _ in range(k)], source),
        (0.0, lambda: [IidDevice(mixed_with_uniform(algebraic_violation_box(), 0.2))] * k, HONEST),
        (0.4, lambda: [MixtureDevice([strong, flat], (0.9, 0.1))] * k, GreedyTowardString((0, 1, 1), 0.1)),
    ]
    report = estimate_output_bias(params, adversary, 400, seed=3)
    estimable = [row for row in report.per_symbol if row[1] > 0]
    assert len(estimable) == 3
    rows = np.array([[p0, 1.0 - p0] for _, _, p0, _ in estimable])
    w = np.array([w for w, _, _, _ in estimable])
    want = distance_d(rows.reshape(1, -1, 2), (w / w.sum()).reshape(1, -1))
    assert repr((report.d, report.d_c)) == repr((want.d, want.d_c))
    assert report.distances.sigma_size == want.sigma_size == 2


def test_estimate_output_bias_honest():
    params = honest_params(k=10)
    box = algebraic_violation_box()
    adversary = [(1.0, lambda: [IidDevice(box)] * 10, HONEST)]
    report = estimate_output_bias(params, adversary, trials=20_000, seed=42)
    assert report.acceptance_rate == 1.0
    assert report.distances is not None
    assert report.d <= 4 * report.d_std_error
    assert report.d_c <= 2 * report.d + 1e-12
    weight, n_acc, p0, interval = report.per_symbol[0]
    assert weight == 1.0 and n_acc == 20_000
    assert interval.low <= p0 <= interval.high


def test_estimate_output_bias_general_path():
    params = honest_params(k=2)
    mixture = MixtureDevice(
        [
            IidDevice(algebraic_violation_box()),
            IidDevice(mixed_with_uniform(algebraic_violation_box(), 0.05)),
        ],
        (0.5, 0.5),
    )
    # devices of different tables: the walk runs
    devices = [mixture, IidDevice(algebraic_violation_box())]
    assert not fast_path_applicable(params, devices, HONEST)
    adversary = [
        (0.5, lambda: devices, HONEST),
        (0.5, lambda: [IidDevice(algebraic_violation_box())] * 2, HONEST),
    ]
    report = estimate_output_bias(params, adversary, trials=300, seed=1)
    assert 0.9 <= report.acceptance_rate <= 1.0
    assert len(report.per_symbol) == 2
    assert report.distances is not None
    assert report.d_c <= 2 * report.d + 1e-12


def test_general_engine_audit_of_history_dependent_devices_pinned():
    """k = 20 fresh MixtureDevices, each one hidden label over an honest
    quantum box and a uniform one, against a period-3 source.  The audit
    runs them on the walk, which draws each selected outcome from the
    label-averaged table; run_protocol from the tests draws every outcome
    from a posterior-weighted box, the same law.  Both (accepted, zeros)
    counts are pinned: they depend on the seed alone, and neither the
    oracle's posterior cache nor the order of its queries may move a draw."""
    params = ProtocolParams(0.1, 0.8, 0.9, 20, n=(16,))
    honest, flat = IidDevice(noisy_box(NoiseSpec())), IidDevice(uniform_box())

    def factory():
        return [MixtureDevice([honest, flat], [0.9, 0.1]) for _ in range(params.k)]

    source = GreedyTowardString((0, 1, 1), 0.1)
    assert not fast_path_applicable(params, factory(), source)
    report = estimate_output_bias(params, [(1.0, factory, source)], 64, seed=3)
    _, n_acc, _, interval = report.per_symbol[0]
    assert (n_acc, interval.successes) == (24, 7)  # accepted, and accepted with output 0
    devices, counts = factory(), np.zeros(2, dtype=int)
    for size, child in protocol._chunks(64, np.random.SeedSequence(3).spawn(1)[0]):
        rows = oracle_rows(params, devices, source, size, np.random.default_rng(child))
        counts += rows.accepted.sum(), np.sum(rows.output == 0)
    assert tuple(counts) == (26, 12)


def test_estimate_output_bias_zero_acceptance():
    params = honest_params(k=50)
    adversary = [(1.0, lambda: [IidDevice(uniform_box())] * 50, HONEST)]
    report = estimate_output_bias(params, adversary, trials=30, seed=7)
    assert report.acceptance_rate == 0.0
    assert report.distances is None
    assert math.isnan(report.d) and math.isnan(report.d_c)


def test_estimate_output_bias_validation():
    params = honest_params(k=2)
    with pytest.raises(ValueError):
        estimate_output_bias(params, [(1.0, lambda: [], HONEST)], trials=0)
    with pytest.raises(ValueError):
        estimate_output_bias(params, [(0.7, lambda: [], HONEST)], trials=5)


def test_estimate_output_bias_refuses_nan_weights():
    """A NaN symbol weight fails every comparison: it was accepted and gave
    d_c = NaN."""
    params = honest_params(k=2)
    device = lambda: [IidDevice(algebraic_violation_box())] * 2  # noqa: E731
    for weights in ((math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="weights"):
            estimate_output_bias(params, [(w, device, HONEST) for w in weights], trials=5, seed=1)


def test_estimate_output_bias_rejects_inexact_trial_counts():
    """A trial count is a positive integer no larger than 2**53, where the
    multinomial draw stops being exact; no bool, no float."""
    params = honest_params(k=2)
    adversary = [(1.0, lambda: [IidDevice(algebraic_violation_box())] * 2, HONEST)]
    for trials in (2.5, 2.0, True, np.True_):
        with pytest.raises(TypeError):
            estimate_output_bias(params, adversary, trials)
    for trials in (0, -1, 2**53 + 1):
        with pytest.raises(ValueError):
            estimate_output_bias(params, adversary, trials)
    assert estimate_output_bias(params, adversary, np.int64(3), seed=1).per_symbol[0][1] == 3
    assert estimate_output_bias(params, adversary, 2**53, seed=1).per_symbol[0][1] == 2**53


def test_simulate_trials_chunks_and_engines():
    params = honest_params(k=3, epsilon=0.1, n=(4,))
    devices = [IidDevice(mixed_with_uniform(algebraic_violation_box(), 0.2))] * 3
    greedy = GreedyTowardString((0, 1), 0.1)
    assert fast_path_applicable(params, devices, greedy)
    assert not fast_path_applicable(params, devices, GreedyTowardString((0, 1, 1), 0.1))

    chunks = list(simulate_trials(params, devices, greedy, 600, seed=3))
    assert [len(c.z_k) for c in chunks] == [256, 256, 88]
    z, acc, out, sel, m = engine_columns(chunks)
    assert np.array_equal(acc, z <= acceptance_threshold(params))
    assert np.array_equal(out == -1, ~acc)
    assert sel.shape == m.shape == (600, 3)
    assert sel.min() >= 0 and sel.max() < 4 and m.min() >= 4
    with pytest.raises(ValueError):
        simulate_trials(params, devices, greedy, 0)
    with pytest.raises(ValueError, match="need 3 devices"):
        simulate_trials(params, devices[:2], greedy, 10)


@pytest.mark.parametrize("trials", [1, 257, 600])
@pytest.mark.parametrize("greedy_target", [(0, 1), (0, 1, 1)])  # vectorized and general engines
def test_simulate_trials_chunks_are_one_spawn_of_the_seed(trials, greedy_target):
    """Chunk c has min(256, trials left) rows drawn from child c of one
    SeedSequence(seed).spawn(n), though the children are spawned as the
    chunks are reached."""
    params = honest_params(k=3, epsilon=0.1, n=(4,))
    devices = [IidDevice(mixed_with_uniform(algebraic_violation_box(), 0.2))] * 3
    source = GreedyTowardString(greedy_target, 0.1)
    sizes = [min(256, trials - lo) for lo in range(0, trials, 256)]
    children = np.random.SeedSequence(7).spawn(len(sizes))
    sampler = protocol._sampler(params, devices, source)
    expected = [sampler.rows(size, np.random.default_rng(child)) for size, child in zip(sizes, children)]
    chunks = list(simulate_trials(params, devices, source, trials, seed=7))
    assert [len(c.z_k) for c in chunks] == sizes
    for a, b in zip(engine_columns(chunks), engine_columns(expected)):
        assert np.array_equal(a, b)


def test_simulate_trials_hands_out_chunks_one_at_a_time():
    """The first chunk of 10^12 trials comes without a list of every
    chunk's size and seed (~4e9 of each), and a bad count still raises at
    the call."""
    params = honest_params(k=3, epsilon=0.1, n=(4,))
    devices = [IidDevice(mixed_with_uniform(algebraic_violation_box(), 0.2))] * 3
    source = GreedyTowardString((0, 1), 0.1)
    next(simulate_trials(params, devices, source, 1, seed=3))  # numpy's lazy imports are not the chunks'
    tracemalloc.start()
    try:
        first = next(iter(simulate_trials(params, devices, source, 10**12, seed=3)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(first.z_k) == 256
    assert peak < 1_000_000, peak
    with pytest.raises(ValueError, match="at least one trial"):
        simulate_trials(params, devices, source, 0)


def test_audit_counts_match_simulate_rows():
    """On the general engine the audit's accepted and zero-output counts for
    one seed child are the simulate rows' counts.  On the vectorized engine
    the two share the per-trial law, not the random stream: the audit's
    category probabilities are exactly the CDF widths simulate's searchsorted
    assigns to each category, and at 10^6 trials the counts agree at z = 4."""
    params = honest_params(k=3, epsilon=0.1, n=(2,))
    box = mixed_with_uniform(algebraic_violation_box(), 0.3)
    mixture = MixtureDevice([IidDevice(box), IidDevice(uniform_box())], (0.7, 0.3))
    general = [
        ([IidDevice(box)] * 3, GreedyTowardString((0, 1, 1), 0.1), 300),
        ([mixture] * 3, GreedyTowardString((0, 1, 1), 0.1), 300),
    ]
    for devices, source, trials in general:
        assert not fast_path_applicable(params, devices, source)
        report = estimate_output_bias(params, [(1.0, lambda: devices, source)], trials, seed=5)
        child = np.random.SeedSequence(5).spawn(1)[0]
        accepted, output = engine_columns(
            simulate_trials(params, devices, source, trials, seed=child), ("accepted", "output")
        )
        _, n_acc, _, interval = report.per_symbol[0]
        assert 0 < n_acc < trials  # an interior rate, so the counts have teeth
        assert n_acc == int(accepted.sum())
        assert interval.successes == int(np.sum(output == 0))

    vectorized = [
        ([IidDevice(box)] * 3, GreedyTowardString((0, 1), 0.1)),
        ([mixture] * 3, HONEST),
    ]
    trials = 1_000_000
    for devices, source in vectorized:
        assert fast_path_applicable(params, devices, source)
        sampler = _IidSampler(params, _shared_table(devices, source), source)
        # one uniform at the left edge of each interval searchsorted can land in
        widths = np.diff(sampler.cdf, prepend=0.0)
        drawn = np.flatnonzero(widths > 0)
        left = np.where(drawn > 0, sampler.cdf[drawn - 1], 0.0)
        _, accepted, output = sampler.sample(len(drawn), SimpleNamespace(random=lambda m: left))
        by_category = [0.0, 0.0, 0.0]
        for width, acc, out in zip(widths[drawn], accepted, output):
            by_category[out if acc else 2] += width
        assert np.array_equal(sampler.category_p, by_category)

        # two independent samples of one law: seeds 5 and 6
        report = estimate_output_bias(params, [(1.0, lambda: devices, source)], trials, seed=5)
        accepted, output = engine_columns(
            simulate_trials(params, devices, source, trials, seed=6), ("accepted", "output")
        )
        _, n_acc, _, interval = report.per_symbol[0]
        rows_acc, rows_zeros = int(accepted.sum()), int(np.sum(output == 0))
        p_acc = (n_acc + rows_acc) / (2 * trials)
        assert 0.05 < p_acc < 0.95
        assert abs(n_acc - rows_acc) / trials <= 4 * math.sqrt(2 * p_acc * (1 - p_acc) / trials)
        p0 = (interval.successes + rows_zeros) / (n_acc + rows_acc)
        assert 0.05 < p0 < 0.95
        gap = abs(interval.successes / n_acc - rows_zeros / rows_acc)
        assert gap <= 4 * math.sqrt(p0 * (1 - p0) * (1 / n_acc + 1 / rows_acc))


def test_capped_cdf_has_nonnegative_widths_and_draws_as_before():
    """The running sum of a trial law can round past 1 before its last
    possible outcome (here at k = 8 for 1 % white noise), which would give
    that outcome a negative CDF width and the multinomial a negative
    probability.  The CDF is capped at 1, and no uniform below 1 lands
    differently for it, so simulate draws exactly as with the uncapped sum."""
    k = 8
    params = ProtocolParams(0.1, 0.8, 0.9, k)
    box = noisy_box(NoiseSpec(state_mixing=0.01))
    sampler = _IidSampler(params, box.table, HONEST)
    pmf = trial_law(sampler.law, k)
    last = np.flatnonzero(pmf)[-1]
    uncapped = np.cumsum(pmf)
    assert uncapped[:last].max() > 1.0
    uncapped[last:] = 1.0
    assert np.diff(uncapped, prepend=0.0).min() < 0.0
    assert np.diff(sampler.cdf, prepend=0.0).min() >= 0.0
    u = np.concatenate([np.random.default_rng(3).random(100_000), EdgeRng(sampler.cdf).u])
    assert np.array_equal(np.searchsorted(uncapped, u, side="right"),
                          np.searchsorted(sampler.cdf, u, side="right"))
    assert np.all(sampler.category_p >= 0.0)
    adversary = [(1.0, lambda: [IidDevice(box)] * k, HONEST)]
    _, n_acc, _, interval = estimate_output_bias(params, adversary, 10**9, seed=4).per_symbol[0]
    assert 0 < interval.successes < n_acc < 10**9


def test_wilson_interval_behavior():
    empty = wilson_interval(0, 0)
    assert (empty.low, empty.high) == (0.0, 1.0)
    mid = wilson_interval(50, 100)
    assert mid.low < 0.5 < mid.high
    tight = wilson_interval(5000, 10000)
    assert tight.high - tight.low < mid.high - mid.low
    zero = wilson_interval(0, 100)
    assert zero.low == 0.0 and zero.high < 0.1
