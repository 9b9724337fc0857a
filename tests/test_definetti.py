import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import randamp
import randamp.definetti as definetti
from randamp.definetti import (
    ExchangeableMixture,
    _TypeSums,
    block_sizes,
    definetti_check,
    definetti_rhs,
    log2_block_sizes,
    sv_selection_distribution,
)
from randamp.cli import main as cli_main
from randamp.sv import (
    ConstantBias,
    GreedyTowardString,
    HonestBits,
    SettingSteering,
    StrategyViolationError,
)

from dense_definetti import (
    JointBoxSystem,
    _marginalize_rest,
    _pinsker_slack_over_conditionals,
    dense_check,
    exchangeable_mixture,
    iid_system,
    product_gap,
    sv_input_distribution,
    t_statistic,
    t_statistic_levels,
)
from helpers import Shifted, builtin_strategies, exact_bitstring_distribution, mutual_information, pinsker_gap

LN2 = math.log(2.0)

# Deterministic single-bit boxes, input-independent.
Q_ZERO = np.array([[1.0, 1.0], [0.0, 0.0]])
Q_ONE = np.array([[0.0, 0.0], [1.0, 1.0]])


def random_column_stochastic(rng, outputs=2, inputs=2):
    q = rng.random((outputs, inputs)) + 0.05
    return q / q.sum(axis=0, keepdims=True)


def test_mutual_information_oracle_values():
    # I = 0.8 log2(8/5) + 0.2 log2(2/5), worked out by hand
    joint = np.array([[0.4, 0.1], [0.1, 0.4]])
    assert mutual_information(joint) == pytest.approx(0.27807190511263774, abs=1e-14)
    corr = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert mutual_information(corr) == pytest.approx(1.0, abs=1e-14)
    rng = np.random.default_rng(1)
    pa, pb = rng.random(3), rng.random(4)
    product = np.outer(pa / pa.sum(), pb / pb.sum())
    assert abs(mutual_information(product)) <= 1e-12


def test_mutual_information_validation():
    with pytest.raises(ValueError):
        mutual_information(np.full((2, 2), 0.5))  # sums to 2
    with pytest.raises(ValueError):
        mutual_information(np.array([[0.6, -0.1], [0.3, 0.2]]))
    with pytest.raises(ValueError):
        mutual_information(np.full((2, 2, 2), 0.125))


def test_pinsker_gap_values():
    lhs, rhs = pinsker_gap(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert lhs == pytest.approx(1.0, abs=1e-14)
    assert rhs == pytest.approx(math.sqrt(2 * LN2), abs=1e-14)
    lhs, rhs = pinsker_gap(np.array([[0.4, 0.1], [0.1, 0.4]]))
    assert lhs == pytest.approx(0.6, abs=1e-14)
    assert rhs == pytest.approx(0.6208780186506162, abs=1e-12)


def test_pinsker_gap_product_joints():
    # the cancelling sum for I(A:B) rounds below 0 on this exact product
    product = np.outer([0.2, 0.8], [0.2, 0.8])
    lhs, rhs = pinsker_gap(product)
    assert lhs <= 1e-15
    assert 0.0 <= rhs <= 1e-6
    # so does this one; its true rhs (~1e-11) is below the sum's rounding
    near = product + 1e-12 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    lhs, rhs = pinsker_gap(near)
    assert lhs == pytest.approx(4e-12, abs=1e-15)
    assert 0.0 <= rhs <= 1e-6


def test_pinsker_near_product_joints_have_no_positive_slack():
    # ||p - q||_1 = 4 eta here; I(A:B) summed as p log(p/q) cancelled to
    # about 1e-17 and reported a positive slack on 11 of these 45 joints
    pattern = np.array([[1.0, -1.0], [-1.0, 1.0]])
    for a, b, eta in itertools.product((0.2, 0.3, 0.45), (0.25, 0.6, 0.7),
                                       (1e-6, 1e-7, 1e-8, 1e-9, 1e-10)):
        joint = np.outer([a, 1.0 - a], [b, 1.0 - b]) + eta * pattern
        lhs, rhs = pinsker_gap(joint)
        assert lhs - rhs <= 0.0, (a, b, eta)


def test_pinsker_inequality_random_joints():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        shape = (rng.integers(2, 5), rng.integers(2, 5))
        joint = rng.random(shape)
        joint /= joint.sum()
        lhs, rhs = pinsker_gap(joint)
        assert lhs <= rhs + 1e-12


def brute_force_gap(system, nu, cond, groups, rest):
    """Loop-based reference for product_gap: marginalized uses have their
    outputs summed and inputs pinned to 0, with nu marginalized to match."""
    N = system.total_uses
    S, L = system.num_outputs, system.num_inputs
    t = system.tensor
    flat = [g for grp in groups for g in grp]
    active = sorted(cond + flat)

    def prob(x_assign, u_full):
        total = 0.0
        for xs_rest in itertools.product(range(S), repeat=len(rest)):
            idx = [0] * N
            for g, x in x_assign.items():
                idx[g] = x
            for g, x in zip(rest, xs_rest):
                idx[g] = x
            total += float(t[tuple(idx) + u_full])
        return total

    total_gap = 0.0
    for u_active in itertools.product(range(L), repeat=len(active)):
        u_full = [0] * N
        for g, u in zip(active, u_active):
            u_full[g] = u
        u_full = tuple(u_full)
        weight = 0.0
        for u_rest in itertools.product(range(L), repeat=len(rest)):
            vu = list(u_full)
            for g, u in zip(rest, u_rest):
                vu[g] = u
            weight += float(nu[tuple(vu)])
        if weight == 0.0:
            continue
        for x_cond in itertools.product(range(S), repeat=len(cond)):
            base = dict(zip(cond, x_cond))
            r = sum(
                prob({**base, **dict(zip(flat, xs))}, u_full)
                for xs in itertools.product(range(S), repeat=len(flat))
            )
            if r <= 0.0:
                continue
            gap = 0.0
            for xs in itertools.product(range(S), repeat=len(flat)):
                joint = prob({**base, **dict(zip(flat, xs))}, u_full) / r
                prod = 1.0
                pos = 0
                for grp in groups:
                    width = len(grp)
                    block = xs[pos : pos + width]
                    marg = 0.0
                    for others in itertools.product(range(S), repeat=len(flat) - width):
                        cand = list(others[:pos]) + list(block) + list(others[pos:])
                        marg += prob({**base, **dict(zip(flat, cand))}, u_full)
                    prod *= marg / r
                    pos += width
                gap += abs(joint - prod)
            total_gap += weight * r * gap
    return total_gap


def test_product_gap_matches_brute_force():
    rng = np.random.default_rng(17)
    components = [random_column_stochastic(rng) for _ in range(2)]
    system = exchangeable_mixture((1, 2), components, (0.3, 0.7))
    nu = sv_input_distribution(GreedyTowardString((0,), 0.1), 0.1, 3, 2)

    # fully used: condition on device 2's first use
    got = product_gap(system, [1], [[0], [2]], nu)
    want = brute_force_gap(system, nu, [1], [[0], [2]], [])
    assert got == pytest.approx(want, abs=1e-12)

    # device 2's second use marginalized (a per-device suffix)
    got = product_gap(system, [], [[0], [1]], nu)
    want = brute_force_gap(system, nu, [], [[0], [1]], [2])
    assert got == pytest.approx(want, abs=1e-12)

    # a two-use group against a singleton
    got = product_gap(system, [], [[0], [1, 2]], nu)
    want = brute_force_gap(system, nu, [], [[0], [1, 2]], [])
    assert got == pytest.approx(want, abs=1e-12)


def random_mixture(rng, n, components=3):
    comps = [random_column_stochastic(rng) for _ in range(components)]
    w = rng.random(components)
    return exchangeable_mixture(n, comps, w / w.sum())


def test_product_gap_three_singleton_groups():
    # G = 3 scales the fused gap by 1/r^2
    rng = np.random.default_rng(31)
    for n in ((1, 1, 1), (1, 1, 2), (2, 1, 1)):
        system = random_mixture(rng, n)
        N = system.total_uses
        nu = rng.random((2,) * N)
        nu /= nu.sum()
        last = [system.device_uses(j)[-1] for j in range(3)]
        firsts = [system.device_uses(j)[0] for j in range(3)]
        cases = [([], [[g] for g in firsts], [g for g in range(N) if g not in firsts]),
                 ([g for g in range(N) if g not in last], [[g] for g in last], [])]
        for cond, groups, rest in cases:
            got = product_gap(system, cond, groups, nu)
            want = brute_force_gap(system, nu, cond, groups, rest)
            assert want > 1e-3
            assert got == pytest.approx(want, abs=1e-12)


def test_product_gap_with_zero_mass_conditionals():
    # deterministic components leave conditionals with r = 0, which must add
    # nothing and raise no division warning
    partial = np.array([[1.0, 0.3], [0.0, 0.7]])
    nu = np.full((2,) * 4, 1 / 16.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for comps in ([Q_ZERO, Q_ONE], [Q_ZERO, Q_ONE, partial]):
            system = exchangeable_mixture((2, 2), comps, np.full(len(comps), 1.0 / len(comps)))
            for cond, groups, rest in (([1], [[0], [2]], [3]), ([0, 2], [[1], [3]], []),
                                       ([2], [[0, 1], [3]], []), ([], [[0], [2]], [1, 3])):
                got = product_gap(system, cond, groups, nu)
                assert got == pytest.approx(brute_force_gap(system, nu, cond, groups, rest), abs=1e-12)
            for sel in all_selections(system):
                t_statistic_levels(system, sel, nu)
                _pinsker_slack_over_conditionals(system, sel)


def test_marginalized_uses_pinned_before_summing():
    # the sum over marginalized outputs runs on the pinned view: it allocates
    # no more than its L^r-times-smaller result
    system = random_mixture(np.random.default_rng(37), (2, 8))
    for rest in ([9], [5, 6, 7, 8, 9], [1] + list(range(3, 10))):
        tracemalloc.start()
        try:
            marginal = _marginalize_rest(system, rest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert marginal.size == system.tensor.size // 4 ** len(rest)
        assert peak <= marginal.nbytes + (1 << 16)

    # only input 0 of every marginalized use is read: NaN planted at input 1
    # leaves the gap and the Pinsker sweep finite and unchanged
    rng = np.random.default_rng(41)
    clean = random_mixture(rng, (2, 3))
    N = clean.total_uses
    nu = rng.random((2,) * N)
    nu /= nu.sum()
    cond, groups, rest = [2], [[0], [3]], [1, 4]
    tensor = np.array(clean.tensor)
    for g in rest:
        index = [slice(None)] * (2 * N)
        index[N + g] = 1
        tensor[tuple(index)] = np.nan
    planted = JointBoxSystem(clean.n, 2, 2, tensor, validate=False)
    got = product_gap(planted, cond, groups, nu)
    assert math.isfinite(got)
    assert got == product_gap(clean, cond, groups, nu)
    assert got == pytest.approx(brute_force_gap(clean, nu, cond, groups, rest), abs=1e-12)
    slack = _pinsker_slack_over_conditionals(planted, (1, 2))
    assert math.isfinite(slack)
    assert slack == _pinsker_slack_over_conditionals(clean, (1, 2))


def test_definetti_check_levels_match_standalone_levels():
    # levels are computed once per selection suffix and shared
    rng = np.random.default_rng(43)
    system = random_mixture(rng, (1, 2, 2))
    strategy = GreedyTowardString((0, 1), 0.1)
    report = dense_check(system, strategy, 0.1, (2.0, 2.0))
    nu = sv_input_distribution(strategy, 0.1, system.total_uses, system.num_inputs)
    assert len(report.selections) == 4
    for sel, _, t_val, levels in report.selections:
        assert (t_val, levels) == t_statistic_levels(system, sel, nu)


def test_exchangeable_mixture_build():
    rng = np.random.default_rng(47)
    comps = [random_column_stochastic(rng) for _ in range(3)]
    w = rng.random(3)
    w /= w.sum()
    n = (2, 8)
    N = sum(n)
    exchangeable_mixture((1, 1), comps, w)  # warm up
    tracemalloc.start()
    try:
        system = exchangeable_mixture(n, comps, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * system.tensor.nbytes + (1 << 16)
    # the component-by-component outer-product construction
    want = 0.0
    for weight, q in zip(w, comps):
        t = np.array(1.0)
        for _ in range(N):
            t = np.multiply.outer(t, q)
        want = want + weight * t.transpose([2 * g for g in range(N)] + [2 * g + 1 for g in range(N)])
    assert np.max(np.abs(system.tensor - want)) <= 1e-15
    assert system.tensor.flags.c_contiguous


def test_iid_system_has_zero_t():
    rng = np.random.default_rng(2)
    box = random_column_stochastic(rng)
    system = iid_system((2, 2), box)
    nu = np.full((2,) * 4, 1 / 16.0)
    for selection in itertools.product((1, 2), repeat=2):
        total, levels = t_statistic_levels(system, selection, nu)
        assert abs(total) <= 1e-12
        assert all(abs(v) <= 1e-12 for v in levels)


def test_correlated_pair_t_is_one():
    system = exchangeable_mixture((1, 1), [Q_ZERO, Q_ONE], (0.5, 0.5))
    nu = np.full((2, 2), 0.25)
    assert t_statistic(system, (1, 1), nu) == pytest.approx(1.0, abs=1e-12)


def test_conditioning_reveals_component():
    # Seeing device 2's first output pins the deterministic component, after
    # which the selected pair is an exact product.
    system = exchangeable_mixture((1, 2), [Q_ZERO, Q_ONE], (0.5, 0.5))
    nu = np.full((2, 2, 2), 0.125)
    assert t_statistic(system, (1, 1), nu) == pytest.approx(1.0, abs=1e-12)
    assert t_statistic(system, (1, 2), nu) == pytest.approx(0.0, abs=1e-12)


def test_more_conditioning_never_hurts_in_sweep():
    q0 = np.array([[0.9, 0.9], [0.1, 0.1]])
    q1 = np.array([[0.1, 0.1], [0.9, 0.9]])
    values = []
    for n2 in (1, 2, 4, 8):
        system = exchangeable_mixture((1, n2), [q0, q1], (0.5, 0.5))
        nu = np.full((2,) * (1 + n2), 2.0 ** -(1 + n2))
        values.append(t_statistic(system, (1, n2), nu))
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] > values[-1]


def test_level_decomposition_triangle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        components = [
            [random_column_stochastic(rng) for _ in range(3)] for _ in range(2)
        ]
        # two-component mixture over per-device boxes, uses i.i.d. per device
        weights = (0.4, 0.6)
        tensor = None
        for w, boxes in zip(weights, components):
            t = np.array(1.0)
            for j, n_j in enumerate((1, 1, 2)):
                for _ in range(n_j):
                    t = np.multiply.outer(t, boxes[j])
            perm = [2 * g for g in range(4)] + [2 * g + 1 for g in range(4)]
            part = w * t.transpose(perm)
            tensor = part if tensor is None else tensor + part
        system = JointBoxSystem((1, 1, 2), 2, 2, tensor)
        nu = rng.random((2,) * 4)
        nu /= nu.sum()
        for selection in itertools.product((1,), (1,), (1, 2)):
            total, levels = t_statistic_levels(system, selection, nu)
            assert total <= sum(levels) + 1e-9


def test_two_device_level_equals_total_when_first_is_single_use():
    rng = np.random.default_rng(9)
    components = [random_column_stochastic(rng) for _ in range(2)]
    system = exchangeable_mixture((1, 2), components, (0.25, 0.75))
    nu = np.full((2, 2, 2), 0.125)
    for a2 in (1, 2):
        total, levels = t_statistic_levels(system, (1, a2), nu)
        assert len(levels) == 1
        assert total == pytest.approx(levels[0], abs=1e-12)


def test_definetti_rhs_values():
    rhs = definetti_rhs((5,), (), 0.1, 16)
    assert rhs.threshold == 0.0
    assert rhs.probability_bound == 0.0

    rhs = definetti_rhs((1, 100), (2.0,), 0.0, 16)
    assert rhs.threshold == pytest.approx(math.sqrt(8 * LN2 * 4.0 / 100.0), abs=1e-14)
    assert rhs.threshold == pytest.approx(0.4709640090061899, abs=1e-12)
    assert rhs.probability_bound == 0.5

    shrink = 1.0 - math.log2(1.2)
    rhs = definetti_rhs((1, 100), (2.0,), 0.1, 16)
    assert rhs.threshold == pytest.approx(
        math.sqrt(8 * LN2 * 4.0 / 100.0**shrink), abs=1e-12
    )

    two = definetti_rhs((1, 4, 8), (2.0, 4.0), 0.0, 2)
    assert two.probability_bound == pytest.approx(0.75)
    # one level per t: sqrt(2 ln2 log2(sigma) t_i^2 (n_1 + .. + n_{i-1}) / n_i)
    assert two.threshold == pytest.approx(
        math.sqrt(2 * LN2 * 4.0 * 1 / 4) + math.sqrt(2 * LN2 * 16.0 * 5 / 8), abs=1e-14
    )


def test_definetti_rhs_validation():
    with pytest.raises(ValueError):
        definetti_rhs((1, 2), (), 0.0, 16)
    with pytest.raises(ValueError):
        definetti_rhs((1, 2), (0.0,), 0.0, 16)
    with pytest.raises(ValueError):
        definetti_rhs((1, 2), (2.0,), 0.0, 1)


def test_block_sizes():
    assert block_sizes(0.0, 2, 2.0) == [1, 178]
    assert block_sizes(0.0, 3, 1.0) == [1, 50, 2496]
    assert block_sizes(0.0, 2, 2.0, k_exponent=3) == [1, 355]
    # each level satisfies the defining recursion before ceiling
    sizes = block_sizes(0.1, 2, 2.0)
    shrink = 1.0 - math.log2(1.2)
    raw = (8 * LN2 * 4 * 8) ** (1.0 / shrink)
    assert sizes[1] == math.ceil(raw - 1e-9)
    with pytest.raises(OverflowError):
        block_sizes(0.49, 3, 2.0)
    logs = log2_block_sizes(0.49, 3, 2.0)
    assert logs[0] == 0.0
    assert logs[2] > logs[1] > 100.0
    # a tiny t puts the levels near 0 uses: each gets one, as n_1 does, and
    # its log2 is 0, not below (at t = 1e-120, t^3 underflows to 0)
    for t in (1e-3, 1e-30, 1e-120):
        # the schedule stops at its first repeated level: every later one is 1
        assert block_sizes(0.1, 4, t) == [1, 1]
        assert log2_block_sizes(0.1, 4, t) == [0.0, 0.0]
    with pytest.raises(ValueError):
        block_sizes(0.5, 2, 1.0)
    with pytest.raises(ValueError):
        block_sizes(0.1, 0, 1.0)
    with pytest.raises(ValueError):
        block_sizes(0.1, 2, 1.0, k_exponent=4)


def test_block_sizes_overflows_without_building_the_schedule():
    """A long schedule overflows at its third level; checking the arguments
    must not first build a list with one entry per level (10^6 here)."""
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError):
            block_sizes(0.1, 10**6, 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_log2_block_sizes_stops_at_its_first_infinite_level():
    """Every level after the first infinite one is infinite too, so the list
    ends there (at level 2 307 of 10^6 here) instead of holding all k."""
    tracemalloc.start()
    try:
        logs = log2_block_sizes(0.1, 10**6, 1e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isinf(logs[-1]) and not any(map(math.isinf, logs[:-1]))
    assert len(logs) < 10**4 and peak < 2**20


def test_sv_input_distribution():
    nu = sv_input_distribution(HonestBits(), 0.0, 2, 4)
    assert nu.shape == (4, 4)
    assert np.allclose(nu, 1 / 16.0)
    biased = sv_input_distribution(GreedyTowardString((0,), 0.1), 0.1, 1, 2)
    assert biased[0] == pytest.approx(0.6)
    with pytest.raises(ValueError):
        sv_input_distribution(HonestBits(), 0.0, 2, 3)


def test_sv_selection_distribution():
    sel = sv_selection_distribution(HonestBits(), 0.0, (1, 4))
    assert sel == pytest.approx({(1, a): 0.25 for a in (1, 2, 3, 4)})
    biased = sv_selection_distribution(ConstantBias(0.1), 0.1, (2, 2))
    assert biased[(1, 1)] == pytest.approx(0.36)
    assert biased[(2, 2)] == pytest.approx(0.16)
    assert sum(biased.values()) == pytest.approx(1.0)
    # non-power-of-two counts address only a power-of-two prefix, matching
    # how the protocol rounds block sizes down when drawing indices
    truncated = sv_selection_distribution(HonestBits(), 0.0, (3,))
    assert truncated == pytest.approx({(1,): 0.5, (2,): 0.5})
    with pytest.raises(ValueError):
        sv_selection_distribution(HonestBits(), 0.0, (0,))

    class Opaque:
        def bias(self, history):
            return 0.0

    with pytest.raises(ValueError):
        sv_selection_distribution(Opaque(), 0.0, (2,))


def test_selection_weights_and_input_laws_are_the_exact_walk():
    """The selection weights, decoded from the walk over all selection bits,
    and each use's input law, the walk over that use's bits alone, are the
    library's code laws float for float; a source without a period has
    neither."""
    for eps in (0.0, 0.05, 0.1, 0.2, 0.3, 0.49):
        for source in builtin_strategies(eps):
            for n in ((1, 8), (2, 8), (1, 2, 4), (3, 5), (16,), (1, 1024)):
                widths = [v.bit_length() - 1 for v in n]
                expect = {}
                for code, p in enumerate(exact_bitstring_distribution(source, sum(widths), eps)):
                    sel = []
                    for w in reversed(widths):
                        sel.insert(0, code % (1 << w) + 1)
                        code >>= w
                    expect[tuple(sel)] = p
                got = sv_selection_distribution(source, eps, n)
                assert list(got) == list(expect) and all(got[sel] == p for sel, p in expect.items())
            for n, inputs in (((2, 3), 2), ((2, 1), 4), ((1,), 16)):
                bits = inputs.bit_length() - 1
                rng = np.random.default_rng(inputs)
                mix = ExchangeableMixture(n, [random_column_stochastic(rng, 2, inputs)], [1.0])
                law = _TypeSums(mix, source, eps).input_law
                for use in range(sum(n)):
                    walk = exact_bitstring_distribution(Shifted(source, use * bits), bits, eps)
                    assert np.array_equal(law[use], walk), (source, eps, n, use)

    class Opaque:
        def bias(self, history):
            return 0.0

    with pytest.raises(ValueError, match="period"):
        sv_selection_distribution(Opaque(), 0.0, (2,))
    mix = ExchangeableMixture((1, 2), [Q_ZERO], [1.0])
    with pytest.raises(ValueError, match="period"):
        _TypeSums(mix, Opaque(), 0.0)


def test_mixture_use_counts_are_not_truncated():
    for n in ((1, 2.7), (1, True), (1, "2")):
        with pytest.raises(TypeError, match="^n must be an integer"):
            ExchangeableMixture(n, [Q_ZERO], [1.0])
    assert ExchangeableMixture((np.int64(2), 1), [Q_ZERO], [1.0]).n == (2, 1)


def test_system_validation():
    # output of use 1 tracking the input of use 2 breaks time order
    t = np.zeros((2, 2, 2, 2))
    for x1, x2, u1, u2 in itertools.product(range(2), repeat=4):
        t[x1, x2, u1, u2] = 0.5 if x1 == u2 else 0.0
    with pytest.raises(ValueError, match="signaling"):
        JointBoxSystem((2,), 2, 2, t)

    # device 2 echoing device 1's input is cross-device signaling
    t = np.zeros((2, 2, 2, 2))
    for x1, x2, u1, u2 in itertools.product(range(2), repeat=4):
        t[x1, x2, u1, u2] = 0.5 if x2 == u1 else 0.0
    with pytest.raises(ValueError, match="cross-device"):
        JointBoxSystem((1, 1), 2, 2, t)

    with pytest.raises(ValueError, match="normalization"):
        JointBoxSystem((1,), 2, 2, np.full((2, 2), 0.4))
    bad = np.array([[1.2, 0.5], [-0.2, 0.5]])
    with pytest.raises(ValueError, match="negative"):
        JointBoxSystem((1,), 2, 2, bad)
    with pytest.raises(ValueError, match="too large"):
        JointBoxSystem((13, 13), 2, 2, np.zeros(1))
    with pytest.raises(ValueError):
        JointBoxSystem((), 2, 2, np.zeros(1))


def test_use_indexing():
    system = iid_system((1, 2), Q_ZERO)
    assert system.use_index(0, 0) == 0
    assert system.use_index(1, 1) == 2
    assert system.device_uses(1) == [1, 2]
    with pytest.raises(IndexError):
        system.use_index(0, 1)


def test_product_gap_guards():
    system = iid_system((2,), Q_ZERO)
    nu = np.full((2, 2), 0.25)
    with pytest.raises(ValueError, match="suffix"):
        product_gap(system, [], [[1]], nu)  # would marginalize use 1 of 2
    with pytest.raises(ValueError, match="disjoint"):
        product_gap(system, [0], [[0], [1]], nu)
    with pytest.raises(ValueError, match="normalized"):
        product_gap(system, [], [[0], [1]], np.ones((2, 2)))
    with pytest.raises(ValueError):
        t_statistic(system, (3,), nu)
    with pytest.raises(ValueError):
        t_statistic(system, (1, 1), nu)


def test_definetti_check_report():
    system = exchangeable_mixture((1, 2), [Q_ZERO, Q_ONE], (0.5, 0.5))
    report = dense_check(
        system, GreedyTowardString((0,), 0.1), 0.1, (2.0,), pinsker=True
    )
    assert len(report.selections) == 2
    weights = [w for _, w, _, _ in report.selections]
    assert sum(weights) == pytest.approx(1.0)
    assert report.max_t == pytest.approx(1.0, abs=1e-12)
    assert report.pinsker_worst_slack <= 1e-9
    assert report.sigma_size == 2
    payload = report.to_json()
    assert payload["one_norm_convention"] == "unnormalized (max 2)"
    assert len(payload["selections"]) == 2
    assert payload["threshold"] == pytest.approx(report.threshold)


def per_conditional_slack(system, selection):
    """Loop-based reference for the Pinsker sweep: one pinsker_gap call per
    realized conditioning (x_cond, u_cond, u1, u2) of a two-device selection,
    later uses of each device marginalized with their inputs pinned to 0."""
    N = system.total_uses
    S, L = system.num_outputs, system.num_inputs
    g1 = system.use_index(0, selection[0] - 1)
    g2 = system.use_index(1, selection[1] - 1)
    cond = [g for j in range(2) for g in system.device_uses(j)[: selection[j] - 1]]
    rest = [g for g in range(N) if g not in set(cond + [g1, g2])]
    t = system.tensor
    if rest:
        t = t.sum(axis=tuple(rest), keepdims=True)
        for g in rest:
            t = np.take(t, [0], axis=N + g)
    worst = float("-inf")
    for assign in np.ndindex(*([S] * len(cond) + [L] * len(cond) + [L, L])):
        index = [0] * (2 * N)
        for g, x in zip(cond, assign[: len(cond)]):
            index[g] = x
        for g, u in zip(cond, assign[len(cond) : 2 * len(cond)]):
            index[N + g] = u
        index[N + g1], index[N + g2] = assign[-2], assign[-1]
        index[g1] = index[g2] = slice(None)
        joint = t[tuple(index)]
        mass = joint.sum()
        if mass <= 0:
            continue
        lhs, rhs = pinsker_gap(joint / mass)
        worst = max(worst, lhs - rhs)
    return worst


def all_selections(system):
    return itertools.product(*(range(1, n_j + 1) for n_j in system.n))


def test_pinsker_sweep_matches_per_conditional_oracle():
    rng = np.random.default_rng(21)
    for n in ((1, 3), (2, 2), (1, 4)):
        for _ in range(3):
            comps = [random_column_stochastic(rng) for _ in range(2)]
            w = float(rng.uniform(0.2, 0.8))
            system = exchangeable_mixture(n, comps, (w, 1.0 - w))
            for sel in all_selections(system):
                got = _pinsker_slack_over_conditionals(system, sel)
                want = per_conditional_slack(system, sel)
                assert math.isfinite(got)
                assert abs(got - want) <= 1e-13


def test_pinsker_sweep_skips_zero_mass_conditionals():
    # Q_ZERO never emits 1, and this box never emits 1 on input 0, so many
    # realized pasts carry no mass under either component
    partial = np.array([[1.0, 0.3], [0.0, 0.7]])
    for comps in ([Q_ZERO, Q_ONE], [Q_ZERO, partial]):
        system = exchangeable_mixture((2, 3), comps, (0.5, 0.5))
        for sel in all_selections(system):
            got = _pinsker_slack_over_conditionals(system, sel)
            assert got == pytest.approx(per_conditional_slack(system, sel), abs=1e-13)
    # a fully deterministic system leaves one live joint per input pair
    assert _pinsker_slack_over_conditionals(iid_system((1, 2), Q_ZERO), (1, 2)) <= 0.0


def test_pinsker_sweep_on_exact_product_system():
    # dyadic entries keep every conditional an exact product: lhs is 0
    system = iid_system((2, 3), np.array([[0.25, 0.5], [0.75, 0.5]]))
    for sel in all_selections(system):
        assert _pinsker_slack_over_conditionals(system, sel) <= 0.0
    report = dense_check(system, HonestBits(), 0.0, (2.0,), pinsker=True)
    assert report.pinsker_worst_slack <= 0.0
    assert report.max_t == 0.0


def test_pinsker_sweep_checks_every_conditional():
    t = np.full((2,) * 4, 0.25)
    t[0, 0, 1, 1], t[0, 1, 1, 1] = -0.5, 1.0  # sums to 1, one negative entry
    system = JointBoxSystem((1, 1), 2, 2, t, validate=False)
    with pytest.raises(ValueError, match="negative"):
        _pinsker_slack_over_conditionals(system, (1, 1))
    with pytest.raises(ValueError, match="two devices"):
        _pinsker_slack_over_conditionals(iid_system((1,), Q_ZERO), (1,))


def test_pinsker_gap_validation():
    with pytest.raises(ValueError, match="2-D"):
        pinsker_gap(np.full((2, 2, 2), 0.125))
    with pytest.raises(ValueError, match="2-D"):
        pinsker_gap(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="negative"):
        pinsker_gap(np.array([[0.6, -0.1], [0.3, 0.2]]))
    with pytest.raises(ValueError, match="sums to"):
        pinsker_gap(np.full((2, 2), 0.3))


# Device 1 owns uses 0-2 and device 2 uses 3-4; axes are x0..x4 then u0..u4.
N32 = 5


def hand_tensor(rule):
    """n = (3, 2) binary tensor with t[x, u] = rule(x, u) / 16: rule picks
    one output bit as a function of the inputs, the other four are fair."""
    t = np.zeros((2,) * (2 * N32))
    for idx in itertools.product(range(2), repeat=2 * N32):
        t[idx] = rule(idx[:N32], idx[N32:]) / 16.0
    return t


def echo(out_use, in_use):
    """Output bit out_use copies input bit in_use."""
    return hand_tensor(lambda x, u: float(x[out_use] == u[in_use]))


def test_incremental_validation_time_ordered_defects():
    JointBoxSystem((3, 2), 2, 2, echo(1, 0))  # an earlier input: allowed
    JointBoxSystem((3, 2), 2, 2, echo(4, 3))
    ordered = "time-ordered no-signaling violated at"
    cases = [
        (echo(3, 0), "cross-device signaling from device 1, use 1"),  # device 2 sees device 1's input
        (echo(0, 1), f"{ordered} device 1, use 2"),
        (echo(1, 2), f"{ordered} device 1, use 3"),
        (echo(0, 3), "cross-device signaling from device 2, use 1"),  # and the other way round
        (echo(3, 4), f"{ordered} device 2, use 2"),
    ]
    for tensor, message in cases:
        with pytest.raises(ValueError, match=f"{message}:"):
            JointBoxSystem((3, 2), 2, 2, tensor)
    # two defects on device 1: the earliest use is reported, as before
    both = hand_tensor(lambda x, u: float(x[0] == u[1]) * float(x[1] == u[2]) * 2.0)
    with pytest.raises(ValueError, match="device 1, use 2:"):
        JointBoxSystem((3, 2), 2, 2, both)


def test_incremental_validation_cross_device_defect():
    # Device 2's first output leans on device 1's second input by 0.75e-9 per
    # value of device 1's first output: each time-ordered marginal stays
    # within tol, the marginal over all of device 1's outputs does not.
    lean = 0.75e-9 / 4
    t = hand_tensor(lambda x, u: 1.0 / 2.0)
    for idx in itertools.product(range(2), repeat=2 * N32):
        if idx[N32 + 1] == 1:
            t[idx] += lean if idx[3] == 0 else -lean
    with pytest.raises(ValueError, match="cross-device signaling from device 1, use 2:"):
        JointBoxSystem((3, 2), 2, 2, t)


def test_incremental_validation_normalization_and_negativity():
    fair = hand_tensor(lambda x, u: 1.0 / 2.0)
    JointBoxSystem((3, 2), 2, 2, fair)
    with pytest.raises(ValueError, match="normalization"):
        JointBoxSystem((3, 2), 2, 2, 0.9 * fair)
    bad = fair.copy()
    bad[(0,) * N32 + (1,) * N32] -= 0.05
    bad[(1,) * N32 + (1,) * N32] += 0.05
    with pytest.raises(ValueError, match="negative"):
        JointBoxSystem((3, 2), 2, 2, bad)


def test_component_boxes_checked_once(tmp_path, capsys):
    """Builders skip dense validation, so each component table is checked up
    front: a bad one raises ValueError from iid_system, from
    exchangeable_mixture and from `randamp definetti` (exit code 1)."""
    good = np.array([[0.7, 0.4], [0.3, 0.6]])
    bad = {
        "negative": np.array([[1.1, 0.4], [-0.1, 0.6]]),
        "normalization": np.array([[0.7, 0.4], [0.3, 0.5]]),
        "2-D": np.array([0.5, 0.5]),
    }
    for match, q in bad.items():
        with pytest.raises(ValueError, match=match):
            iid_system((1, 2), q)
        with pytest.raises(ValueError, match=match):
            exchangeable_mixture((1, 2), [good, q], (0.5, 0.5))
        cfg = tmp_path / f"{match}.json"
        cfg.write_text(json.dumps({
            "epsilon": 0.1,
            "n": [1, 2],
            "t_levels": [2.0],
            "system": {"type": "exchangeable", "components": [good.tolist(), q.tolist()],
                       "weights": [0.5, 0.5]},
            "sv": {"strategy": "honest"},
        }))
        assert cli_main(["definetti", "--config", str(cfg)]) == 1
        assert match in capsys.readouterr().err
    with pytest.raises(ValueError, match="too large"):
        exchangeable_mixture((13, 13), [good, good], (0.5, 0.5))
    with pytest.raises(ValueError, match="same shape"):
        exchangeable_mixture((1, 2), [good, np.full((2, 3), 0.5)], (0.5, 0.5))
    # normalization is held to tol over the product of all uses, not per column
    drift = np.array([[0.7, 0.4], [0.3, 0.6 + 3e-10]])
    iid_system((1, 2), drift)
    with pytest.raises(ValueError, match="normalization"):
        iid_system((2, 2), drift)
    # builds that pass are valid systems, as dense validation confirms
    system = exchangeable_mixture((2, 2), [good, Q_ZERO], (0.3, 0.7))
    JointBoxSystem(system.n, 2, 2, system.tensor)


def type_oracle_instances():
    """(n, components, weights, source, epsilon, pinsker): every instance is
    small enough for the dense tensor, (2, 9) the largest."""
    rng = np.random.default_rng(53)

    def mixture(count, outputs=2, inputs=2):
        comps = [random_column_stochastic(rng, outputs, inputs) for _ in range(count)]
        w = rng.random(count)
        return comps, w / w.sum()

    partial = np.array([[1.0, 0.3], [0.0, 0.7]])
    greedy3 = GreedyTowardString((0, 1, 1), 0.1)
    steer = SettingSteering((0, 1, 1, 0), 0.1)
    return [
        ((1, 8), *mixture(3), greedy3, 0.1, True),
        ((2, 9), *mixture(2), steer, 0.1, True),
        ((2, 8), *mixture(2), ConstantBias(-0.1), 0.1, False),
        ((3, 4), *mixture(3), HonestBits(), 0.0, True),
        ((2, 3), *mixture(2, outputs=3), greedy3, 0.1, True),
        ((1, 4), *mixture(3, inputs=4), steer, 0.1, True),
        ((2, 2), *mixture(2, outputs=3, inputs=4), ConstantBias(0.05), 0.1, True),
        ((1, 2, 2), *mixture(3), greedy3, 0.1, False),
        ((2, 1, 3), *mixture(2, outputs=3), steer, 0.1, False),
        ((2, 3), [Q_ZERO, Q_ONE], np.array([0.5, 0.5]), GreedyTowardString((0,), 0.1), 0.1, True),
        ((2, 4), [Q_ZERO, Q_ONE, partial], np.array([0.2, 0.3, 0.5]), steer, 0.1, True),
        ((1, 2, 2), [Q_ZERO, partial], np.array([0.5, 0.5]), HonestBits(), 0.0, False),
    ]


@pytest.mark.parametrize("index", range(len(type_oracle_instances())))
def test_type_sums_match_dense_check(index):
    """definetti_check summed over type classes against the same selection
    loop on the dense tensor (dense_check): the same selections and weights,
    and T, every level, max T, the exceeding weight and the Pinsker slack to
    1e-12."""
    n, comps, w, source, epsilon, pinsker = type_oracle_instances()[index]
    # threshold inside the range of T, so the exceeding weight is not trivially 0
    t_levels = [0.05] * (len(n) - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        typed = definetti_check(ExchangeableMixture(n, comps, w), source, epsilon, t_levels, pinsker=pinsker)
    dense = dense_check(exchangeable_mixture(n, comps, w), source, epsilon, t_levels, pinsker=pinsker)
    assert len(typed.selections) == len(dense.selections)
    for (sel, w_t, t_t, lv_t), (sel_d, w_d, t_d, lv_d) in zip(typed.selections, dense.selections):
        assert sel == sel_d and w_t == w_d
        assert abs(t_t - t_d) <= 1e-12, sel
        assert len(lv_t) == len(lv_d) == len(n) - 1
        assert max((abs(a - b) for a, b in zip(lv_t, lv_d)), default=0.0) <= 1e-12, sel
    assert abs(typed.max_t - dense.max_t) <= 1e-12
    assert abs(typed.weighted_exceed_fraction - dense.weighted_exceed_fraction) <= 1e-12
    assert typed.threshold == dense.threshold
    if pinsker:
        assert math.isfinite(typed.pinsker_worst_slack)
        assert abs(typed.pinsker_worst_slack - dense.pinsker_worst_slack) <= 1e-12
    else:
        assert typed.pinsker_worst_slack == float("-inf")
    assert typed.to_json().keys() == dense.to_json().keys()


def test_type_sums_cover_nontrivial_instances():
    # the oracle instances are not all trivial: several selections are far
    # from product form, some exceed the threshold and some do not
    n, comps, w, source, epsilon, _ = type_oracle_instances()[1]
    report = definetti_check(ExchangeableMixture(n, comps, w), source, epsilon, [0.05])
    values = [t_val for _, _, t_val, _ in report.selections]
    assert max(values) > 1e-3
    assert 0.0 < report.weighted_exceed_fraction < 1.0


def test_type_sums_at_n_1_32():
    """Beyond the dense tensor (2^66 entries): a one-component mixture is a
    product at every selection, and tiny component entries leave every
    conditional live although their raw likelihoods underflow to 0."""
    box = np.array([[0.3, 0.8], [0.7, 0.2]])
    report = definetti_check(ExchangeableMixture((1, 32), [box], (1.0,)), GreedyTowardString((0, 1), 0.1),
                             0.1, [2.0], pinsker=True)
    assert len(report.selections) == 32
    assert report.max_t <= 1e-15
    assert all(abs(levels[0]) <= 1e-15 for _, _, _, levels in report.selections)
    assert report.pinsker_worst_slack <= 1e-15

    tiny = [np.array([[1e-12, 0.4], [1.0 - 1e-12, 0.6]]), np.array([[3e-12, 0.7], [1.0 - 3e-12, 0.3]])]
    mix = ExchangeableMixture((1, 32), tiny, (0.5, 0.5))
    sums = _TypeSums(mix, HonestBits(), 0.0)
    given = sums._given(31)
    log_lam = sums._types_of(31).log_lik + np.log(0.5)
    assert np.any(np.exp(log_lam).max(axis=1) == 0.0)  # raw products underflow
    assert given.live.all() and len(given.lam) == math.comb(34, 3)
    assert np.all(given.lam.max(axis=1) == 1.0)
    # the scaled posterior agrees with a log-sum-exp evaluation on every type
    posterior = given.lam / given.lam.sum(axis=1, keepdims=True)
    want = np.exp(log_lam - np.logaddexp(log_lam[:, 0], log_lam[:, 1])[:, np.newaxis])
    assert np.max(np.abs(posterior - want)) <= 1e-12
    report = definetti_check(mix, HonestBits(), 0.0, [2.0], pinsker=True)
    assert math.isfinite(report.pinsker_worst_slack) and report.pinsker_worst_slack <= 1e-12
    assert all(math.isfinite(t_val) for _, _, t_val, _ in report.selections)


# T at every selection of the mixture below at n = (1, 32), from the sum that
# enumerated, weighted and checked the types of each past size separately
T_AT_N_1_32 = [
    0.17318400000000003, 0.15348940025220686, 0.11838487310473678, 0.10912064639293603,
    0.08600294579095494, 0.08034325502145498, 0.06400508398685867, 0.06024487284404042,
    0.04832347414731476, 0.04570736403742761, 0.03684203890773592, 0.034968343563503555,
    0.028289745459481867, 0.026921655562076527, 0.021842117891819935, 0.020829576396197206,
    0.016937841536013642, 0.016180709912187816, 0.013181901201570645, 0.012611006103047728,
    0.010289687754599227, 0.009856183319472819, 0.008052596765128681, 0.00772146089744975,
    0.006315755949222587, 0.006061556254252513, 0.0049630258026281595, 0.004767073779904219,
    0.003906599438654885, 0.003755013566905484, 0.0030796380127300366, 0.0029620132436212485,
]


def test_type_sums_pinned_at_n_1_32():
    """Past the dense oracle: T, its level (equal to T, as device 1 has one
    use) and the Pinsker slack of a two-component mixture, against the values
    of the per-size sum, to 1e-12."""
    comps = [np.array([[0.3, 0.6], [0.7, 0.4]]), np.array([[0.8, 0.25], [0.2, 0.75]])]
    report = definetti_check(ExchangeableMixture((1, 32), comps, (0.4, 0.6)), GreedyTowardString((0, 1), 0.1),
                             0.1, [2.0], pinsker=True)
    assert [sel for sel, _, _, _ in report.selections] == [(1, a) for a in range(1, 33)]
    for (_, _, t_val, levels), want in zip(report.selections, T_AT_N_1_32):
        assert abs(t_val - want) <= 1e-12
        assert abs(levels[0] - want) <= 1e-12
    assert abs(report.pinsker_worst_slack - 1.0239489656175658e-16) <= 1e-12
    assert report.types == math.comb(35, 4)


def test_type_sums_in_several_chunks_match_one():
    """The sweep split into chunks of past sizes by a small entry budget
    gives every T, level and Pinsker slack of the one-chunk sweep to 1e-15.
    At (2, 9) the largest single size is the level array of 7 past uses:
    C(10, 3) types x C(5, 3) block types x 4 pairs = 4800 entries."""
    n, comps, w, source, epsilon, _ = type_oracle_instances()[1]
    mix = ExchangeableMixture(n, comps, w)
    whole = _TypeSums(mix, source, epsilon, pinsker=True)
    split = _TypeSums(mix, source, epsilon, pinsker=True, budget=4800)
    assert whole.chunks == [(0, 8)]
    assert split.chunks == [(0, 4), (5, 5), (6, 6), (7, 7), (8, 8)]
    assert whole.types == split.types == math.comb(12, 4)
    for sel in sv_selection_distribution(source, epsilon, n):
        assert abs(split.total(sel) - whole.total(sel)) <= 1e-15
        assert abs(split.level(sel[1:]) - whole.level(sel[1:])) <= 1e-15
        assert abs(split.pinsker_slack(sel) - whole.pinsker_slack(sel)) <= 1e-15
    with pytest.raises(ValueError, match="too large"):
        _TypeSums(mix, source, epsilon, budget=4799)


def test_type_table_lists_every_type_once():
    """Every type of 0..4 uses over 2 inputs x 3 outputs, once, grouped by
    input counts in rank order, and the rank of each input type is its row."""
    inputs = definetti._type_table(np.arange(5)[:, np.newaxis], 2)[0]
    assert np.array_equal(definetti._colex_rank(np.cumsum(inputs, axis=1)), np.arange(len(inputs)))
    counts, group = definetti._type_table(inputs, 3)
    want = sorted(c for m in range(5) for c in itertools.product(range(m + 1), repeat=6) if sum(c) == m)
    assert sorted(map(tuple, counts)) == want
    assert np.all(np.diff(group) >= 0)
    assert np.array_equal(counts.reshape(-1, 2, 3).sum(axis=2), inputs[group])


def test_type_sums_refuse_invalid_sources(tmp_path, capsys):
    mix = ExchangeableMixture((1, 4), [Q_ZERO, Q_ONE], (0.5, 0.5))
    with pytest.raises(StrategyViolationError):
        definetti_check(mix, ConstantBias(0.2), 0.1, [2.0])

    class Opaque:
        def bias(self, history):
            return 0.0

    with pytest.raises(ValueError, match="period"):
        definetti_check(mix, Opaque(), 0.0, [2.0])
    with pytest.raises(ValueError, match="power of two"):
        definetti_check(ExchangeableMixture((1, 2), [np.full((2, 3), 0.5)], (1.0,)), HonestBits(), 0.0, [2.0])
    cfg = tmp_path / "violation.json"
    cfg.write_text(json.dumps({
        "epsilon": 0.1, "n": [1, 4], "t_levels": [2.0],
        "system": {"type": "exchangeable", "components": [Q_ZERO.tolist(), Q_ONE.tolist()],
                   "weights": [0.5, 0.5]},
        "sv": {"strategy": "constant", "bias": 0.2},
    }))
    assert cli_main(["definetti", "--config", str(cfg)]) == 1
    assert "bias 0.2 exceeds epsilon 0.1" in capsys.readouterr().err


def test_type_sums_size_guard():
    # the guard is on the type sum's own arrays, not on S^N L^N: (1, 32) runs
    # above, while 255 conditioned binary uses (2.8M types x 16) do not fit
    with pytest.raises(ValueError, match="too large"):
        definetti_check(ExchangeableMixture((1, 256), [Q_ZERO, Q_ONE], (0.5, 0.5)), HonestBits(), 0.0, [2.0])
    big = [np.full((4, 4), 0.25), np.eye(4)]
    with pytest.raises(ValueError, match="too large"):
        definetti_check(ExchangeableMixture((1, 8), big, (0.5, 0.5)), HonestBits(), 0.0, [2.0])
    with pytest.raises(ValueError, match="too large"):
        exchangeable_mixture((1, 32), [Q_ZERO, Q_ONE], (0.5, 0.5))


def test_definetti_check_takes_only_exchangeable_mixtures():
    """A dense system or any other object is refused up front with a
    TypeError naming its type, not deep inside the type sum."""
    dense = iid_system((1, 2), Q_ZERO)
    with pytest.raises(TypeError, match="JointBoxSystem"):
        definetti_check(dense, HonestBits(), 0.0, [2.0])
    with pytest.raises(TypeError, match="dict"):
        definetti_check({"n": (1, 2)}, HonestBits(), 0.0, [2.0])


# the dense path, now only in the test oracle dense_definetti
DENSE_NAMES = ("JointBoxSystem", "_input_dependence", "_suffix_closed", "product_gap", "t_statistic",
               "_level_gap", "_check_selection", "_iid_power", "iid_system", "exchangeable_mixture",
               "sv_input_distribution", "_marginalize_rest", "_pinsker_slack_over_conditionals", "_DenseSums")


def test_cli_definetti_stays_off_the_dense_path(tmp_path):
    """The library has no dense path: neither randamp nor randamp.definetti
    defines any of its names, and randamp definetti at n = (2, 8) keeps its
    traced peak below 2 MB, against 8 MB for the dense tensor alone."""
    for module in (randamp, definetti):
        assert [name for name in DENSE_NAMES if hasattr(module, name)] == []
    cfg = tmp_path / "df.json"
    cfg.write_text(json.dumps({
        "epsilon": 0.1, "n": [2, 8], "t_levels": [4.0],
        "system": {"type": "exchangeable",
                   "components": [[[0.3, 0.6], [0.7, 0.4]], [[0.8, 0.25], [0.2, 0.75]]],
                   "weights": [0.4, 0.6]},
        "sv": {"strategy": "greedy", "target": [0, 1]},
        "pinsker": True,
    }))
    out = tmp_path / "out"
    assert cli_main(["definetti", "--config", str(cfg), "--out", str(out)]) == 0  # warm up
    tracemalloc.start()
    try:
        assert cli_main(["definetti", "--config", str(cfg), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    payload = json.loads((out / "definetti.json").read_text())
    assert len(payload["selections"]) == 16
