"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained and prints the measured numbers next to the
bound it enforces, so a failing run shows how far off the build is.
Statistical checks use frozen seeds and 3-sigma slack.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from randamp.boxes import (
    algebraic_violation_box,
    bell_value,
    local_deterministic_box,
    mixed_with_uniform,
)
from randamp.cli import main as cli_main
from randamp.definetti import ExchangeableMixture, definetti_check
from randamp.devices import IidDevice
from randamp.lp import analytic_bound, certify_bound
from randamp.protocol import (
    ProtocolParams,
    azuma_rejection_bound,
    estimate_output_bias,
    robustness_acceptance_bound,
    robustness_threshold,
    xor_bias_bound,
)
from randamp.quantum import NoiseSpec, born_box, build_state, noisy_box, xz_bases
from randamp.sv import GreedyTowardString, HonestBits

from dense_definetti import exchangeable_mixture, t_statistic
from helpers import xor_distribution_exact


def test_criterion_1_quantum_algebraic_violation():
    """Clean state hits Bell value 0; isotropic mixing m costs exactly 4m."""
    t0 = time.perf_counter()
    clean = bell_value(born_box(build_state(), xz_bases()))
    assert abs(clean) <= 1e-12
    for m in (0.25, 0.5):
        noisy = bell_value(noisy_box(NoiseSpec(state_mixing=m)))
        assert noisy == pytest.approx(4.0 * m, abs=1e-9)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: clean={clean:.2e}, 4m holds at m=0.25/0.5, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_2_lhv_bound_brute_force():
    """Minimum over all 4096 local deterministic strategies is 2 exactly.

    Per party a strategy is an affine response x = a ^ b*u ^ c*(1-u) on the
    binary setting, 8 codes mapping two-to-one onto the 4 response pairs
    (f(0), f(1)) = (a^c, a^b); 8^4 = 4096 strategies over 256 distinct boxes.
    """
    t0 = time.perf_counter()

    def response(code):
        a, b, c = code & 1, (code >> 1) & 1, (code >> 2) & 1
        return (a ^ c, a ^ b)

    cache = {}
    values = []
    for codes in itertools.product(range(8), repeat=4):
        key = tuple(response(c) for c in codes)
        if key not in cache:
            cache[key] = bell_value(local_deterministic_box(key))
        values.append(cache[key])
    elapsed = time.perf_counter() - t0
    assert len(values) == 4096
    assert len(cache) == 256
    assert min(values) == 2.0
    print(f"criterion 2: min over 4096 strategies = {min(values)}, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_3_lp_certification():
    """Every guessing-LP optimum stays under (11+7*delta)/32 on the delta
    grid, and the two independent solver routes agree."""
    t0 = time.perf_counter()
    worst_gap = 0.0
    for delta in (0.0, 0.1, 0.2, 0.4, 0.8):
        highs = certify_bound(delta, method="highs")
        simplex = certify_bound(delta, method="simplex")
        bound = analytic_bound(delta)
        assert highs.bound == pytest.approx(bound, abs=1e-15)
        assert highs.passed and simplex.passed
        assert highs.max_optimum <= bound + 1e-8
        assert simplex.max_optimum <= bound + 1e-8
        assert set(highs.optima) == set(simplex.optima) and len(highs.optima) == 16
        for key, value in highs.optima.items():
            assert value <= bound + 1e-8
            assert value == pytest.approx(simplex.optima[key], abs=1e-7)
            worst_gap = max(worst_gap, abs(value - simplex.optima[key]))
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: 5 deltas x 16 optima certified, route gap {worst_gap:.1e}, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_4_xor_composition_oracle():
    """Exhaustive XOR enumeration obeys |p - 1/2| <= 2^(m-1) prod eps_i for
    every sign pattern; equality at the all-extremal corners."""
    t0 = time.perf_counter()
    grid = (0.0, 0.1, 0.25, 0.5)
    for m in range(1, 5):
        for biases in itertools.product(grid, repeat=m):
            bound = xor_bias_bound(biases)
            for signs in itertools.product((1.0, -1.0), repeat=m):
                dev = abs(xor_distribution_exact(biases, signs) - 0.5)
                assert dev <= bound + 1e-15
            if all(b in (0.0, 0.5) for b in biases):
                dev = abs(xor_distribution_exact(biases) - 0.5)
                assert dev == pytest.approx(bound, abs=1e-15)
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: m<=4 grid exhausted, corners tight, {elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_5_verification_test_soundness():
    """Devices sitting at Bell value 0.8 are rejected at least as often as
    the martingale bound promises."""
    t0 = time.perf_counter()
    params = ProtocolParams(epsilon=0.0, delta=0.8, mu=0.9, k=2000)
    box = mixed_with_uniform(algebraic_violation_box(), 0.2)
    assert bell_value(box) == pytest.approx(0.8, abs=1e-12)
    trials = 10_000
    adversary = [(1.0, lambda: [IidDevice(box)] * params.k, HonestBits())]
    rejection = 1.0 - estimate_output_bias(params, adversary, trials, seed=51).acceptance_rate
    bound = azuma_rejection_bound(params)
    assert bound == pytest.approx(1.0 - math.exp(-0.00625), abs=1e-15)
    sigma = math.sqrt(bound * (1.0 - bound) / trials)
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: rejection {rejection:.4f} >= {bound:.5f} - 3*{sigma:.1e}, {elapsed:.1f}s")
    assert rejection >= bound - 3.0 * sigma
    assert elapsed < 300.0


def test_criterion_6_robustness_completeness():
    """Honest devices under mild noise (Bell value 0.008, below the 0.01
    robustness threshold) are accepted at least as often as promised."""
    t0 = time.perf_counter()
    threshold = robustness_threshold(0.0, 0.9, 0.8)
    assert threshold == pytest.approx(0.01, abs=1e-15)
    box = noisy_box(NoiseSpec(state_mixing=0.002))
    measured = bell_value(box)
    assert measured <= threshold
    params = ProtocolParams(epsilon=0.0, delta=0.8, mu=0.9, k=2000)
    trials = 10_000
    adversary = [(1.0, lambda: [IidDevice(box)] * params.k, HonestBits())]
    acceptance = estimate_output_bias(params, adversary, trials, seed=62).acceptance_rate
    bound = robustness_acceptance_bound(params)
    assert bound == pytest.approx(1.0 - math.exp(-2.44140625e-5), abs=1e-18)
    sigma = math.sqrt(max(bound * (1.0 - bound), 1.0 / trials) / trials)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 6: bell {measured:.4f} <= {threshold}, acceptance {acceptance:.4f}"
        f" >= {bound:.2e} - 3*{sigma:.1e}, {elapsed:.1f}s"
    )
    assert acceptance >= bound - 3.0 * sigma
    assert elapsed < 300.0


def test_criterion_7_end_to_end_bias():
    """Honest noiseless runs against a greedy 0.1-biased source keep the
    output bit's distance under the XOR-composed per-round guessing bound."""
    t0 = time.perf_counter()
    params = ProtocolParams(epsilon=0.1, delta=0.8, mu=0.9, k=20)
    qbox = born_box(build_state(), xz_bases())
    factory = lambda: [IidDevice(qbox)] * params.k  # noqa: E731
    trials = 100_000
    reports = [
        estimate_output_bias(
            params, [(1.0, factory, GreedyTowardString((0,), 0.1))], trials, seed=7
        ),
        estimate_output_bias(
            params, [(1.0, factory, GreedyTowardString((0, 1), 0.1))], 20_000, seed=8
        ),
        estimate_output_bias(params, [(1.0, factory, HonestBits())], 20_000, seed=9),
    ]
    main = reports[0]
    assert main.acceptance_rate == 1.0  # Bell value 0: the test cannot fire
    bound = xor_bias_bound([analytic_bound(0.0)] * params.k)
    assert bound == pytest.approx(2.0**19 * (11 / 32) ** 20, rel=1e-12)
    sigma = math.sqrt(0.25 / trials)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 7: d {main.d:.2e} <= {bound:.2e} + 3*{sigma:.1e},"
        f" d_c/d = {main.d_c / main.d if main.d else float('nan'):.2f}, {elapsed:.1f}s"
    )
    assert main.d <= bound + 3.0 * sigma
    for report in reports:
        assert report.d_c <= 2.0 * report.d + 1e-12
    assert elapsed < 600.0


def test_criterion_8_definetti_small_instance():
    """Two binary devices, exchangeable two-component mixture: deeper
    conditioning never increases T (on the dense oracle), Pinsker holds on
    every conditional, and the source-weighted mass above the threshold
    obeys the Markov budget (definetti_check on the type sum)."""
    t0 = time.perf_counter()
    q0 = np.array([[0.9, 0.7], [0.1, 0.3]])
    q1 = np.array([[0.1, 0.3], [0.9, 0.7]])
    strategy = GreedyTowardString((0,), 0.1)
    deepest = []
    for n2 in (1, 2, 4, 8):
        system = exchangeable_mixture((1, n2), [q0, q1], (0.5, 0.5))
        nu = np.full((2,) * (1 + n2), 2.0 ** -(1 + n2))
        deepest.append(t_statistic(system, (1, n2), nu))
        mix = ExchangeableMixture((1, n2), [q0, q1], (0.5, 0.5))
        for t2 in (2.0, 4.0):
            report = definetti_check(mix, strategy, 0.1, [t2], pinsker=True)
            assert report.pinsker_worst_slack <= 1e-9
            assert report.weighted_exceed_fraction <= report.probability_bound
            assert report.probability_bound == pytest.approx(1.0 / t2)
    assert all(a >= b - 1e-12 for a, b in zip(deepest, deepest[1:]))
    assert deepest[0] > deepest[-1]
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 8: T(deepest) {deepest[0]:.3f} -> {deepest[-1]:.3f},"
        f" Pinsker + Markov hold for n2 in 1..8, {elapsed:.1f}s"
    )
    assert elapsed < 120.0


def test_criterion_9_simulate_determinism(tmp_path, capsys):
    """Identical seed implies byte-identical CSV output."""
    t0 = time.perf_counter()
    config = {
        "epsilon": 0.1,
        "delta": 0.8,
        "mu": 0.9,
        "k": 3,
        "n": [2],
        "trials": 40,
        "seed": 1234,
        "device": {"model": "mixed_algebraic", "weight": 0.1},
        "sv": {"strategy": "greedy", "target": [0, 1]},
    }
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(config))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append((out / "trials.csv").read_bytes())
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    assert blobs[0] == blobs[1]
    print(f"criterion 9: two runs byte-identical ({len(blobs[0])} bytes), {elapsed:.1f}s")
    assert elapsed < 60.0
