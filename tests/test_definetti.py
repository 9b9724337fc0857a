import itertools
import json
import math

import numpy as np
import pytest

from randamp.definetti import (
    DeFinettiRhs,
    JointBoxSystem,
    _pinsker_slack_over_conditionals,
    block_sizes,
    definetti_check,
    definetti_rhs,
    exchangeable_mixture,
    iid_system,
    log2_block_sizes,
    mutual_information,
    pinsker_gap,
    product_gap,
    sv_input_distribution,
    sv_selection_distribution,
    t_statistic,
    t_statistic_levels,
)
from randamp.cli import main as cli_main
from randamp.sv import ConstantBias, GreedyTowardString, HonestBits

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
    nu = sv_input_distribution(GreedyTowardString("0", 0.1), 0.1, 3, 2)

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
    assert rhs.presubstitution_threshold == pytest.approx(
        math.sqrt(8 * LN2 * 2.0 / 100.0), abs=1e-14
    )
    assert rhs.presubstitution_probability == pytest.approx(math.sqrt(0.5), abs=1e-14)

    shrink = 1.0 - math.log2(1.2)
    rhs = definetti_rhs((1, 100), (2.0,), 0.1, 16)
    assert rhs.threshold == pytest.approx(
        math.sqrt(8 * LN2 * 4.0 / 100.0**shrink), abs=1e-12
    )
    assert rhs.presubstitution_probability == pytest.approx(
        math.sqrt(100.0 ** math.log2(1.2) / 2.0), abs=1e-12
    )

    two = definetti_rhs((1, 4, 8), (2.0, 4.0), 0.0, 2)
    assert two.probability_bound == pytest.approx(0.75)
    assert len(two.per_level_threshold) == 2
    assert two.threshold == pytest.approx(sum(two.per_level_threshold))


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
    with pytest.raises(ValueError):
        block_sizes(0.5, 2, 1.0)
    with pytest.raises(ValueError):
        block_sizes(0.1, 0, 1.0)
    with pytest.raises(ValueError):
        block_sizes(0.1, 2, 1.0, k_exponent=4)


def test_sv_input_distribution():
    nu = sv_input_distribution(HonestBits(), 0.0, 2, 4)
    assert nu.shape == (4, 4)
    assert np.allclose(nu, 1 / 16.0)
    biased = sv_input_distribution(GreedyTowardString("0", 0.1), 0.1, 1, 2)
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
    with pytest.raises(ValueError, match="signaling"):
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
    report = definetti_check(
        system, GreedyTowardString("0", 0.1), 0.1, (2.0,), pinsker=True
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
    report = definetti_check(system, HonestBits(), 0.0, (2.0,), pinsker=True)
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
    cases = [
        (echo(3, 0), "device 1, use 1"),  # device 2 sees device 1's first input
        (echo(0, 1), "device 1, use 2"),
        (echo(1, 2), "device 1, use 3"),
        (echo(0, 3), "device 2, use 1"),
        (echo(3, 4), "device 2, use 2"),
    ]
    for tensor, where in cases:
        with pytest.raises(ValueError, match=f"time-ordered no-signaling violated at {where}:"):
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
