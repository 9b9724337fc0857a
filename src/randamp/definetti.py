"""Distance of sequential multi-device boxes from product form.

Small instances are enumerated exactly: a system of k devices, device j used
n_j times, is a dense conditional tensor over all uses.  The statistic T
measures, averaged over source-weighted inputs and realized pasts, how far the
conditional box of the selected uses is from the product of its per-device
marginals (unnormalized 1-norm, maximum 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sv import exact_bitstring_distribution

MAX_TABLE_ENTRIES = 1 << 24


def _pinsker_batch(joints: np.ndarray):
    """(lhs, rhs, I) arrays for a batch of joints of shape (batch, A, B):
    lhs = ||p_AB - p_A x p_B||_1, I = I(A:B) in bits clamped at 0, and
    rhs = sqrt(2 ln2 I).  Every joint must be a normalized distribution."""
    if joints.ndim != 3:
        raise ValueError("joint must be a 2-D table")
    if np.min(joints) < -1e-12:
        raise ValueError("joint has negative entries")
    totals = joints.sum(axis=(1, 2))
    off = np.abs(totals - 1.0)
    if np.max(off) > 1e-9:
        raise ValueError(f"joint sums to {totals[np.argmax(off)]}, not 1")
    prod = joints.sum(axis=2, keepdims=True) * joints.sum(axis=1, keepdims=True)
    lhs = np.abs(joints - prod).sum(axis=(1, 2))
    mask = joints > 0
    ratio = np.where(mask, joints, 1.0) / np.where(mask, prod, 1.0)
    # I(A:B) >= 0; the cancelling sum can round a near-product joint below 0
    mi = np.maximum(np.where(mask, joints * np.log2(ratio), 0.0).sum(axis=(1, 2)), 0.0)
    return lhs, np.sqrt(2.0 * math.log(2.0) * mi), mi


def mutual_information(joint: np.ndarray) -> float:
    """I(A:B) in bits for a normalized 2-D joint distribution, clamped at 0."""
    joint = np.asarray(joint, dtype=float)
    return float(_pinsker_batch(joint[np.newaxis])[2][0])


def pinsker_gap(joint: np.ndarray):
    """(lhs, rhs) of ||p_AB - p_A x p_B||_1 <= sqrt(2 ln2 I(A:B))."""
    joint = np.asarray(joint, dtype=float)
    lhs, rhs, _ = _pinsker_batch(joint[np.newaxis])
    return float(lhs[0]), float(rhs[0])


class JointBoxSystem:
    """Dense sequential box over k devices with per-device use counts n.

    The tensor has one output axis then one input axis per use, uses ordered
    device-major (all of device 1 first).  Construction checks normalization
    and time-ordered no-signaling: summing device j's outputs from use m on
    must erase all dependence on device j's inputs from use m on.
    """

    def __init__(self, n, num_inputs, num_outputs, tensor, tol=1e-9, validate=True):
        self.n = tuple(int(v) for v in n)
        if not self.n or any(v < 1 for v in self.n):
            raise ValueError("need at least one use per device")
        self.k = len(self.n)
        self.total_uses = sum(self.n)
        self.num_inputs = int(num_inputs)
        self.num_outputs = int(num_outputs)
        shape = (self.num_outputs,) * self.total_uses + (self.num_inputs,) * self.total_uses
        if np.prod([float(s) for s in shape]) > MAX_TABLE_ENTRIES:
            raise ValueError("system too large for exact enumeration; shrink n or alphabets")
        self.tensor = np.asarray(tensor, dtype=float).reshape(shape)
        self.offsets = tuple(int(v) for v in np.cumsum((0,) + self.n[:-1]))
        self.tol = tol
        if validate:
            self._validate()
        self.tensor.setflags(write=False)

    def use_index(self, device: int, use: int) -> int:
        """Global use index; device and use are zero-based here."""
        if not 0 <= device < self.k or not 0 <= use < self.n[device]:
            raise IndexError(f"device {device} use {use} out of range")
        return self.offsets[device] + use

    def device_uses(self, device: int):
        return list(range(self.offsets[device], self.offsets[device] + self.n[device]))

    def _validate(self):
        N = self.total_uses
        t = self.tensor
        norm = t.sum(axis=tuple(range(N)))
        if np.max(np.abs(norm - 1.0)) > self.tol:
            raise ValueError(f"normalization off by {np.max(np.abs(norm - 1.0)):.3e}")
        if np.min(t) < -self.tol:
            raise ValueError("negative probabilities")
        for j in range(self.k):
            uses = self.device_uses(j)
            # Walk the uses backward: the marginal over uses[m:] is one axis-sum
            # of the marginal over uses[m + 1:].  Report the earliest violation.
            devs = [0.0] * len(uses)
            marg = t
            for m in reversed(range(len(uses))):
                marg = marg.sum(axis=uses[m], keepdims=True)
                devs[m] = _input_dependence(marg, N + uses[m])
            for m, dev in enumerate(devs):
                if dev > self.tol:
                    raise ValueError(
                        f"time-ordered no-signaling violated at device {j + 1}, use {m + 1}: "
                        f"future input shifts past marginal by {dev:.3e}"
                    )
            # Other devices' joint marginal must ignore every input of device j.
            for m, g in enumerate(uses):
                dev = _input_dependence(marg, N + g)
                if dev > self.tol:
                    raise ValueError(
                        f"cross-device signaling from device {j + 1}, use {m + 1}: "
                        f"input shifts other devices by {dev:.3e}"
                    )


def _input_dependence(marg: np.ndarray, axis: int) -> float:
    """Largest change of marg along one input axis, against input 0."""
    diff = marg - np.take(marg, [0], axis=axis)
    return float(np.max(np.abs(diff, out=diff)))


def _suffix_closed(system: JointBoxSystem, rest) -> bool:
    """Uses we marginalize must be per-device suffixes, else pinning their
    inputs is not justified by time-ordered no-signaling."""
    rest = set(rest)
    for j in range(system.k):
        uses = system.device_uses(j)
        seen_rest = False
        for g in uses:
            if g in rest:
                seen_rest = True
            elif seen_rest:
                return False
    return True


def product_gap(system: JointBoxSystem, cond, groups, nu: np.ndarray) -> float:
    """Expected 1-norm gap between a conditional joint and its group product.

    cond: global use indices whose outputs are realized and conditioned on;
    groups: disjoint lists of use indices whose joint output distribution is
    compared against the product of the per-group marginals; remaining uses
    are marginalized.  nu weights full input assignments and must be a
    normalized tensor with one axis per use.
    """
    N = system.total_uses
    cond = sorted(cond)
    flat_groups = [g for grp in groups for g in grp]
    used = cond + flat_groups
    if len(set(used)) != len(used):
        raise ValueError("cond and groups must be disjoint")
    rest = [g for g in range(N) if g not in set(used)]
    if not _suffix_closed(system, rest):
        raise ValueError("marginalized uses must be a per-device suffix")
    nu = np.asarray(nu, dtype=float).reshape((system.num_inputs,) * N)
    if abs(nu.sum() - 1.0) > 1e-9:
        raise ValueError("nu must be normalized")

    t = _marginalize_rest(system, rest)
    if rest:
        nu = nu.sum(axis=tuple(rest), keepdims=True)

    # P(x_cond | u): sum over every group output.
    group_axes = tuple(flat_groups)
    r = t.sum(axis=group_axes, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = np.where(r > 0, t / np.where(r > 0, r, 1.0), 0.0)

    prod = np.ones_like(q)
    for grp in groups:
        other = tuple(g for g in flat_groups if g not in grp)
        prod = prod * q.sum(axis=other, keepdims=True)
    gap = np.abs(q - prod).sum(axis=group_axes, keepdims=True)

    # nu (N input axes) broadcasts against the trailing input axes of the
    # tensor-shaped factors; r carries P(x_cond | u).
    return float(np.sum(gap * r * nu))


def t_statistic(system: JointBoxSystem, selection, nu: np.ndarray) -> float:
    """T for one selection a (1-based per device): distance of the selected
    uses' conditional box from the product of its device marginals, averaged
    over source inputs and device pasts."""
    sel = _check_selection(system, selection)
    cond = []
    groups = []
    for j, a in enumerate(sel):
        uses = system.device_uses(j)
        cond.extend(uses[: a - 1])
        groups.append([uses[a - 1]])
    return product_gap(system, cond, groups, nu)


def t_statistic_levels(system: JointBoxSystem, selection, nu: np.ndarray):
    """(T, [T_2..T_k]) where level i compares devices below i as one block
    against device i's selected use, conditioning on pasts of devices >= i."""
    sel = _check_selection(system, selection)
    total = t_statistic(system, selection, nu)
    levels = []
    for i in range(1, system.k):
        block = []
        for j in range(i):
            block.extend(system.device_uses(j))
        cond = []
        for j in range(i, system.k):
            uses = system.device_uses(j)
            cond.extend(uses[: sel[j] - 1])
        groups = [block, [system.device_uses(i)[sel[i] - 1]]]
        levels.append(product_gap(system, cond, groups, nu))
    return total, levels


def _check_selection(system: JointBoxSystem, selection):
    sel = tuple(int(a) for a in selection)
    if len(sel) != system.k:
        raise ValueError("selection needs one entry per device")
    for j, a in enumerate(sel):
        if not 1 <= a <= system.n[j]:
            raise ValueError(f"selection {a} outside [1, {system.n[j]}] for device {j + 1}")
    return sel


def _component_table(box, total_uses: int, tol: float) -> np.ndarray:
    """A single-party box q[x, u], checked once: 2-D, non-negative, and every
    column summing to 1 so tightly that a product over total_uses uses stays
    within tol.  An i.i.d. product of such a box, and any convex mixture of
    such products, is then a valid system by construction."""
    q = np.asarray(box, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"component box must be a 2-D table, got shape {q.shape}")
    if float(q.size) ** total_uses > MAX_TABLE_ENTRIES:
        # checked here because the dense product is allocated before JointBoxSystem sees it
        raise ValueError("system too large for exact enumeration; shrink n or alphabets")
    if not np.all(q >= 0.0):
        raise ValueError("negative probabilities in component box")
    dev = float(np.max(np.abs(q.sum(axis=0) - 1.0)))
    if not (1.0 + dev) ** total_uses - 1.0 <= tol:
        raise ValueError(f"component box normalization off by {dev:.3e}")
    return q


def _iid_tensor(q: np.ndarray, total_uses: int) -> np.ndarray:
    """Every use an independent copy of q, axes (outputs..., inputs...)."""
    t = np.array(1.0)
    for _ in range(total_uses):
        t = np.multiply.outer(t, q)
    perm = [2 * g for g in range(total_uses)] + [2 * g + 1 for g in range(total_uses)]
    return t.transpose(perm)


def iid_system(n, box: np.ndarray, tol=1e-9) -> JointBoxSystem:
    """Every use an independent copy of a single-party box q[x, u]."""
    total = sum(int(v) for v in n)
    q = _component_table(box, total, tol)
    S, L = q.shape
    return JointBoxSystem(n, L, S, _iid_tensor(q, total), tol=tol, validate=False)


def exchangeable_mixture(n, components, weights, tol=1e-9) -> JointBoxSystem:
    """Mixture over component single-party boxes used i.i.d. on every use."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or len(weights) != len(components) or len(components) == 0:
        raise ValueError("need one weight per component")
    if np.min(weights) < 0 or abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be a distribution")
    total = sum(int(v) for v in n)
    tables = [_component_table(q, total, tol) for q in components]
    if any(q.shape != tables[0].shape for q in tables):
        raise ValueError("every component box must have the same shape")
    tensor = None
    for w, q in zip(weights, tables):
        part = w * _iid_tensor(q, total)
        if tensor is None:
            tensor = part
        else:
            tensor += part
    S, L = tables[0].shape
    return JointBoxSystem(n, L, S, tensor, tol=tol, validate=False)


def sv_input_distribution(strategy, epsilon: float, total_uses: int, num_inputs: int) -> np.ndarray:
    """Exact source distribution over full input assignments, one symbol of
    log2(num_inputs) bits per use, consumed use-major and big-endian."""
    bits = (num_inputs - 1).bit_length()
    if 2**bits != num_inputs:
        raise ValueError("input alphabet must be a power of two")
    flat = exact_bitstring_distribution(strategy, total_uses * bits, epsilon)
    return flat.reshape((num_inputs,) * total_uses)


def sv_selection_distribution(strategy, epsilon: float, n) -> dict:
    """Exact source distribution over selections; device j consumes log2 of
    the largest power of two <= n_j bits, big-endian, devices in order — the
    same truncated index draw the protocol uses, so positions beyond the
    addressable prefix carry zero weight.  Needs a strategy whose bias
    depends on position only, one that declares a `period`, since the
    selection bits follow the setting bits in a real transcript."""
    if getattr(strategy, "period", None) is None:
        raise ValueError("exact selection weights need a strategy with a position-only bias (a period)")
    widths = []
    for n_j in n:
        if n_j < 1:
            raise ValueError("use counts must be positive")
        widths.append(int(n_j).bit_length() - 1)
    total_bits = sum(widths)
    flat = exact_bitstring_distribution(strategy, total_bits, epsilon)
    out = {}
    for code in range(len(flat)):
        bits_left = total_bits
        rem = code
        sel = []
        for w in widths:
            bits_left -= w
            sel.append((rem >> bits_left) & ((1 << w) - 1))
            rem &= (1 << bits_left) - 1
        sel = tuple(a + 1 for a in sel)
        out[sel] = out.get(sel, 0.0) + float(flat[code])
    return out


def log2_block_sizes(epsilon: float, k: int, t: float, k_exponent: int = 2):
    """log2 of the recursion n_i^(1 - log2(1+2eps)) = 8 ln2 k^e t^3 n_{i-1}."""
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 1/2)")
    if k < 1 or t <= 0:
        raise ValueError("need k >= 1 and t > 0")
    if k_exponent not in (2, 3):
        raise ValueError("k_exponent must be 2 or 3")
    shrink = 1.0 - math.log2(1.0 + 2.0 * epsilon)
    factor = math.log2(8.0 * math.log(2.0) * (float(k) ** k_exponent) * float(t) ** 3)
    logs = [0.0]
    for _ in range(1, k):
        logs.append((factor + logs[-1]) / shrink)
    return logs


def block_sizes(epsilon: float, k: int, t: float, k_exponent: int = 2):
    """Integer block sizes from the recursion, each level ceiled before reuse.

    Raises OverflowError when a level exceeds 2^62; use log2_block_sizes to
    inspect such schedules.
    """
    shrink = 1.0 - math.log2(1.0 + 2.0 * epsilon)
    log2_block_sizes(epsilon, k, t, k_exponent)  # argument validation
    factor = 8.0 * math.log(2.0) * (float(k) ** k_exponent) * float(t) ** 3
    sizes = [1]
    for _ in range(1, k):
        raw = (factor * sizes[-1]) ** (1.0 / shrink)
        if raw > 2.0**62:
            raise OverflowError("block size exceeds 2^62; see log2_block_sizes")
        sizes.append(math.ceil(raw - 1e-9))
    return sizes


@dataclass
class DeFinettiRhs:
    threshold: float
    probability_bound: float
    per_level_threshold: list
    presubstitution_threshold: float
    presubstitution_probability: float


def definetti_rhs(n, t, epsilon: float, sigma_size: int) -> DeFinettiRhs:
    """Threshold and failure probability for the selection-averaged T bound.

    n: per-device use counts; t: one parameter per level 2..k.  The threshold
    follows the substituted form of the concentration bound; the raw
    (pre-substitution) pair, with t in place of t^2 n^log2(1+2eps), is also
    reported.  The alphabet enters through log2(sigma_size); the four-party
    box alphabet (16 outcomes) reproduces the classic 8 ln2 prefactor.
    """
    n = [int(v) for v in n]
    t = [float(v) for v in t]
    if len(t) != len(n) - 1:
        raise ValueError("need one t per level 2..k")
    if any(v < 1 for v in n) or any(v <= 0 for v in t):
        raise ValueError("n must be >= 1 and t > 0")
    if sigma_size < 2:
        raise ValueError("sigma_size must be at least 2")
    log_sigma = math.log2(sigma_size)
    shrink = 1.0 - math.log2(1.0 + 2.0 * epsilon)
    coeff = 2.0 * math.log(2.0) * log_sigma
    per_level = []
    presub = []
    presub_prob = 0.0
    for i, t_i in enumerate(t, start=2):
        n_i = n[i - 1]
        prev = sum(n[: i - 1])
        per_level.append(math.sqrt(coeff * t_i**2 * prev / n_i**shrink))
        presub.append(math.sqrt(coeff * t_i * prev / n_i))
        presub_prob += math.sqrt(n_i ** math.log2(1.0 + 2.0 * epsilon) / t_i)
    return DeFinettiRhs(
        threshold=float(sum(per_level)),
        probability_bound=float(sum(1.0 / v for v in t)),
        per_level_threshold=per_level,
        presubstitution_threshold=float(sum(presub)),
        presubstitution_probability=float(presub_prob),
    )


@dataclass
class DeFinettiReport:
    n: tuple
    epsilon: float
    sigma_size: int
    t_levels: tuple
    threshold: float
    probability_bound: float
    selections: list = field(default_factory=list)  # (selection, weight, T, levels)
    weighted_exceed_fraction: float = 0.0
    max_t: float = 0.0
    pinsker_worst_slack: float = float("-inf")
    one_norm_convention: str = "unnormalized (max 2)"

    def to_json(self) -> dict:
        return {
            "n": list(self.n),
            "epsilon": self.epsilon,
            "sigma_size": self.sigma_size,
            "t_levels": list(self.t_levels),
            "threshold": self.threshold,
            "probability_bound": self.probability_bound,
            "weighted_exceed_fraction": self.weighted_exceed_fraction,
            "max_t": self.max_t,
            "pinsker_worst_slack": self.pinsker_worst_slack,
            "one_norm_convention": self.one_norm_convention,
            "selections": [
                {"selection": list(sel), "weight": w, "t": t_val, "levels": list(levels)}
                for sel, w, t_val, levels in self.selections
            ],
        }


def _marginalize_rest(system: JointBoxSystem, rest):
    """The tensor with the outputs of the uses in rest summed out and their
    inputs pinned to 0, every axis kept."""
    t = system.tensor
    if rest:
        t = t.sum(axis=tuple(rest), keepdims=True)
        for g in rest:
            t = np.take(t, [0], axis=system.total_uses + g)
    return t


def _pinsker_slack_over_conditionals(system: JointBoxSystem, selection) -> float:
    """Worst lhs - rhs of the Pinsker pair over every realized conditioning of
    a two-device selection; negative means the inequality held everywhere."""
    if system.k != 2:
        raise ValueError("pairwise Pinsker sweep needs exactly two devices")
    sel = _check_selection(system, selection)
    N = system.total_uses
    g1 = system.use_index(0, sel[0] - 1)
    g2 = system.use_index(1, sel[1] - 1)
    cond = [g for j in range(2) for g in system.device_uses(j)[: sel[j] - 1]]
    rest = [g for g in range(N) if g not in set(cond + [g1, g2])]
    t = _marginalize_rest(system, rest)
    # One (S, S) joint of the selected outputs per (x_cond, u_cond, u1, u2).
    order = rest + [N + g for g in rest] + cond + [N + g for g in cond] + [N + g1, N + g2, g1, g2]
    S = system.num_outputs
    joints = t.transpose(order).reshape(-1, S, S)
    mass = joints.sum(axis=(1, 2))
    live = mass > 0
    if not np.any(live):
        return float("-inf")
    lhs, rhs, _ = _pinsker_batch(joints[live] / mass[live, np.newaxis, np.newaxis])
    return float(np.max(lhs - rhs))


def definetti_check(system: JointBoxSystem, strategy, epsilon: float, t_levels,
                    sigma_size: int | None = None, pinsker: bool = False) -> DeFinettiReport:
    """Sweep every selection, weight it by the source, and compare T against
    the concentration threshold."""
    sigma = system.num_outputs if sigma_size is None else int(sigma_size)
    rhs = definetti_rhs(system.n, t_levels, epsilon, sigma)
    nu = sv_input_distribution(strategy, epsilon, system.total_uses, system.num_inputs)
    weights = sv_selection_distribution(strategy, epsilon, system.n)
    report = DeFinettiReport(
        n=system.n,
        epsilon=epsilon,
        sigma_size=sigma,
        t_levels=tuple(float(v) for v in t_levels),
        threshold=rhs.threshold,
        probability_bound=rhs.probability_bound,
    )
    exceed = 0.0
    for sel, w in sorted(weights.items()):
        t_val, levels = t_statistic_levels(system, sel, nu)
        if t_val > sum(levels) + 1e-9:
            raise AssertionError(
                f"level decomposition broken at selection {sel}: T={t_val} > sum Ti={sum(levels)}"
            )
        report.selections.append((sel, w, t_val, levels))
        report.max_t = max(report.max_t, t_val)
        if t_val >= rhs.threshold:
            exceed += w
        if pinsker:
            slack = _pinsker_slack_over_conditionals(system, sel)
            report.pinsker_worst_slack = max(report.pinsker_worst_slack, slack)
    report.weighted_exceed_fraction = exceed
    return report
