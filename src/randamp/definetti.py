"""Distance of sequential multi-device boxes from product form.

A system of k devices, device j used n_j times, is enumerated exactly.  A
general one is a dense conditional tensor over all uses (JointBoxSystem); an
exchangeable mixture of i.i.d. components (ExchangeableMixture) is summed
over the type classes of its realized uses instead, without the tensor.  The
statistic T measures, averaged over source-weighted inputs and realized
pasts, how far the conditional box of the selected uses is from the product
of its per-device marginals (unnormalized 1-norm, maximum 2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .sv import bit_zero_probabilities, exact_bitstring_distribution

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
    # I ln 2 = sum q (r ln r - (r - 1)) over q = p_A p_B > 0, r = p/q: every
    # term is >= 0 (it is (1+d) log1p(d) - d with d = r - 1), unlike p ln r,
    # whose terms cancel near a product joint.  A cell with p = 0 < q
    # contributes q; a cell with q = 0 has p = 0 too.
    live = joints > 0
    ratio = np.divide(joints, prod, out=np.zeros_like(joints), where=live)
    terms = np.log(ratio, out=np.zeros_like(joints), where=live)
    terms *= ratio
    ratio -= 1.0
    terms -= ratio
    terms *= prod
    mi = np.maximum(terms.sum(axis=(1, 2)), 0.0) / math.log(2.0)
    return lhs, np.sqrt(2.0 * math.log(2.0) * mi), mi


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
            # Other devices' joint marginal must ignore every input of device j.
            # Checked first: such a dependence also shows in device j's
            # time-ordered marginals, and it is cross-device signaling.
            for m, g in enumerate(uses):
                dev = _input_dependence(marg, N + g)
                if dev > self.tol:
                    raise ValueError(
                        f"cross-device signaling from device {j + 1}, use {m + 1}: "
                        f"input shifts other devices by {dev:.3e}"
                    )
            for m, dev in enumerate(devs):
                if dev > self.tol:
                    raise ValueError(
                        f"time-ordered no-signaling violated at device {j + 1}, use {m + 1}: "
                        f"future input shifts past marginal by {dev:.3e}"
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
    are marginalized (inputs pinned to 0 first, see _marginalize_rest).  nu
    weights full input assignments and must be a normalized tensor with one
    axis per use.

    With t the marginalized tensor, r = P(x_cond | u) and m_g group g's
    unnormalized marginal of t, the r-weighted conditional gap is computed in
    the fused form r sum|t/r - prod_g m_g/r| = sum|t - prod_g m_g / r^(G-1)|,
    G the number of groups: no full-size division.  1/r is taken as 0 where
    r = 0; such slices hold no mass, so they add nothing.
    """
    N = system.total_uses
    cond = sorted(cond)
    if not groups:
        raise ValueError("need at least one group")
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

    marginals = []
    for grp in groups:
        other = tuple(g for g in flat_groups if g not in grp)
        marginals.append(t.sum(axis=other, keepdims=True))
    r = marginals[0].sum(axis=tuple(groups[0]), keepdims=True)
    inv = np.divide(1.0, r, out=np.zeros_like(r), where=r > 0)
    prod = marginals[0] * inv ** (len(groups) - 1)
    for m in marginals[1:]:
        prod = prod * m
    gap = np.abs(np.subtract(t, prod, out=prod), out=prod)

    # nu (N input axes) matches the trailing input axes of gap.
    return float(np.sum(gap.sum(axis=tuple(range(N))) * nu))


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


def _level_gap(system: JointBoxSystem, suffix, nu: np.ndarray) -> float:
    """Level i of T, i = k - len(suffix): device i's selected use against the
    devices below i as one block, conditioning on the pasts of devices >= i.
    It reads only the selection suffix sel[i:], so selections sharing that
    suffix share it."""
    i = system.k - len(suffix)
    block = [g for j in range(i) for g in system.device_uses(j)]
    cond = [g for j, a in enumerate(suffix, start=i) for g in system.device_uses(j)[: a - 1]]
    groups = [block, [system.device_uses(i)[suffix[0] - 1]]]
    return product_gap(system, cond, groups, nu)


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
    if not np.all(q >= 0.0):
        raise ValueError("negative probabilities in component box")
    dev = float(np.max(np.abs(q.sum(axis=0) - 1.0)))
    if not (1.0 + dev) ** total_uses - 1.0 <= tol:
        raise ValueError(f"component box normalization off by {dev:.3e}")
    return q


def _iid_power(q: np.ndarray, uses: int, scale: float) -> np.ndarray:
    """scale times every use an independent copy of q, as an (S^uses, L^uses)
    table whose row and column indices are the C-order output and input
    tuples; each step prepends one use."""
    S, L = q.shape
    t = np.full((1, 1), float(scale))
    for _ in range(uses):
        t = (q[:, None, :, None] * t[None, :, None, :]).reshape(S * t.shape[0], L * t.shape[1])
    return t


def iid_system(n, box: np.ndarray, tol=1e-9) -> JointBoxSystem:
    """Every use an independent copy of a single-party box q[x, u]."""
    return exchangeable_mixture(n, [box], (1.0,), tol=tol)


class ExchangeableMixture:
    """k devices, device j used n_j times, where one hidden label c, drawn
    once with weight w_c, makes every use an independent copy of the
    component box q_c[x, u]: the system sum_c w_c q_c^(x N) over all N uses.

    Each component is checked once (_component_table), so the system is valid
    by construction.  It is kept as its components: definetti_check sums it
    over type classes (_TypeSums), and exchangeable_mixture expands it into
    the dense JointBoxSystem.
    """

    def __init__(self, n, components, weights, tol=1e-9):
        self.n = tuple(int(v) for v in n)
        if not self.n or any(v < 1 for v in self.n):
            raise ValueError("need at least one use per device")
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(weights) != len(components) or len(components) == 0:
            raise ValueError("need one weight per component")
        if np.min(weights) < 0 or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a distribution")
        self.k = len(self.n)
        self.total_uses = sum(self.n)
        tables = [_component_table(q, self.total_uses, tol) for q in components]
        if any(q.shape != tables[0].shape for q in tables):
            raise ValueError("every component box must have the same shape")
        self.weights = weights
        self.tables = np.stack(tables)  # (components, S, L)
        self.num_outputs, self.num_inputs = tables[0].shape
        self.offsets = tuple(int(v) for v in np.cumsum((0,) + self.n[:-1]))


def exchangeable_mixture(n, components, weights, tol=1e-9) -> JointBoxSystem:
    """The dense JointBoxSystem of an ExchangeableMixture.

    The tensor is built C-contiguous in (outputs..., inputs...) order, the
    layout every later sum runs fastest on.  Each component's first use is
    added one (x, u) slice at a time, so besides the tensor only two tables
    of 1/(S L) its size are ever alive.
    """
    mix = ExchangeableMixture(n, components, weights, tol)
    S, L, total = mix.num_outputs, mix.num_inputs, mix.total_uses
    if float(S * L) ** total > MAX_TABLE_ENTRIES:
        raise ValueError("system too large for exact enumeration; shrink n or alphabets")
    tensor = np.zeros((S, S ** (total - 1), L, L ** (total - 1)))
    for w, q in zip(mix.weights, mix.tables):
        later = _iid_power(q, total - 1, w)
        for x, u in np.ndindex(S, L):
            tensor[x, :, u, :] += q[x, u] * later
    return JointBoxSystem(mix.n, L, S, tensor, tol=tol, validate=False)


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
    """The tensor with the inputs of the uses in rest pinned to 0 and their
    outputs summed out, every axis kept.  Pinning comes first and is a basic
    slice (a view), so the sum reads L^r times fewer entries than the whole
    tensor holds (L inputs per use, r uses in rest)."""
    t = system.tensor
    if rest:
        pin = [slice(None)] * t.ndim
        for g in rest:
            pin[system.total_uses + g] = slice(0, 1)
        t = t[tuple(pin)].sum(axis=tuple(rest), keepdims=True)
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


class _DenseSums:
    """T, its levels and the Pinsker slack of a JointBoxSystem, from its
    tensor and the source's law over all inputs."""

    def __init__(self, system: JointBoxSystem, strategy, epsilon: float):
        self.system = system
        self.nu = sv_input_distribution(strategy, epsilon, system.total_uses, system.num_inputs)

    def total(self, selection) -> float:
        return t_statistic(self.system, selection, self.nu)

    def level(self, suffix) -> float:
        return _level_gap(self.system, suffix, self.nu)

    def pinsker_slack(self, selection) -> float:
        return _pinsker_slack_over_conditionals(self.system, selection)


def _log(a):
    """Natural log with log 0 = -inf, silently."""
    with np.errstate(divide="ignore"):
        return np.log(a)


def _type_count(m: int, parts: int) -> int:
    return math.comb(m + parts - 1, parts - 1)


def _binomials(max_uses: int, parts: int) -> np.ndarray:
    """C(a, b) at [a, b] for b < parts and a - b <= max_uses + 1, the entries
    _ranked_types reads; the rest stay 0."""
    table = np.zeros((max_uses + parts + 1, parts), dtype=np.int64)
    for b in range(parts):
        table[b:b + max_uses + 2, b] = [math.comb(a, b) for a in range(b, b + max_uses + 2)]
    return table


def _ranked_types(m: int, parts: int, binomials: np.ndarray) -> tuple:
    """(counts, successors): every type of m uses over `parts` categories, one
    row of counts summing to m, ordered by the colex rank of its stars-and-bars
    bar positions b_i (rank sum_i C(b_i, i + 1)); and at [t, c] the rank of
    type t plus one use of category c among the types of m + 1 uses."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(m + parts - 1), parts - 1))
    bars = np.fromiter(flat, dtype=np.int64).reshape(_type_count(m, parts), parts - 1)
    j = np.arange(1, parts)
    stay = binomials[bars, j]
    order = np.argsort(stay.sum(axis=1))
    bars, stay = bars[order], stay[order]
    counts = np.diff(bars, axis=1, prepend=-1, append=m + parts - 1) - 1
    # one more use of category c moves every bar from c on up by one
    moved = binomials[bars + 1, j]
    successors = np.zeros_like(counts)
    successors[:, 1:] += np.cumsum(stay, axis=1)
    successors[:, :-1] += np.cumsum(moved[:, ::-1], axis=1)[:, ::-1]
    return counts, successors


def _outer_uses(laws: np.ndarray, k: int) -> np.ndarray:
    """Rows of laws[r, u, x] over k uses, each use independent: the product
    for every (u_1..u_k, x_1..x_k), flattened with u_1 most significant and
    the outputs last, so that a sum over outputs runs over contiguous
    entries."""
    rows, L, S = laws.shape
    out = laws
    for _ in range(1, k):
        out = out[:, :, np.newaxis, :, np.newaxis] * laws[:, np.newaxis, :, np.newaxis, :]
        out = out.reshape(rows, out.shape[1] * L, out.shape[3] * S)
    return out.reshape(rows, -1)


@dataclass
class _TypeClasses:
    """The types of m uses in rank order (_ranked_types)."""

    successors: np.ndarray  # (types, L S)
    log_lik: np.ndarray  # (types, components): log prod q_c[x, u]^N[x, u]


@dataclass
class _Conditionals:
    """The live types of m conditioned uses (those some label explains) with
    lambda_c = w_c prod q_c^N at lambda / max lambda, and the T gap of each
    (see _TypeSums.total)."""

    live: np.ndarray  # (types,) bool
    log_scale: np.ndarray  # (live,): log max_c lambda_c
    lam: np.ndarray  # (live, components)
    gaps: np.ndarray  # (live, L^k)


class _TypeSums:
    """T, its levels and the Pinsker slack of an ExchangeableMixture, summed
    over type classes instead of use sequences.

    The type of a set of uses counts its (output, input) pairs, N[x, u]
    (stored with the pair (u, x) at u S + x, inputs major).
    Given label c, the uses have likelihood prod q_c[x, u]^N[x, u], so the
    conditional box of every other use depends on them only through
    lambda_c(N) = w_c prod q_c^N.  Under a position-only source the inputs
    are independent with law p_g(u) at use g, and a type's source weight is
    W(N) = sum of prod_g p_g(u_g) over the (x, u) sequences of type N: one DP
    over the uses, each adding one (x, u) pair with weight p_g(u).  Each gap
    is homogeneous of degree 1 in lambda, so it is evaluated at
    lambda / max lambda and rescaled in log form: a conditional that some
    label explains is never lost to underflow.
    """

    def __init__(self, mix: ExchangeableMixture, strategy, epsilon: float):
        S, L, k, N = mix.num_outputs, mix.num_inputs, mix.k, mix.total_uses
        bits = (L - 1).bit_length()
        if 2**bits != L:
            raise ValueError("input alphabet must be a power of two")
        # Every past a selection conditions on, and every level's block, must
        # fit: the largest arrays are types x (S L)^k for T and the Pinsker
        # sweep, and past types x block types x max(S L, C) for a level.
        K, C = S * L, len(mix.weights)
        pasts = [2 ** (n_j.bit_length() - 1) - 1 for n_j in mix.n]
        blocks = [sum(mix.n[:i]) for i in range(1, k)]
        sizes = [_type_count(sum(pasts), K) * max(K**k, C)]
        sizes += [_type_count(sum(pasts[i:]), K) * _type_count(blocks[i - 1], K) * max(K, C)
                  for i in range(1, k)]
        if max(sizes) > MAX_TABLE_ENTRIES:
            raise ValueError("system too large for exact enumeration; shrink n or alphabets")
        self.mix = mix
        p0 = bit_zero_probabilities(strategy, N * bits, epsilon).reshape(N, bits)
        # bit i of input u, most significant first, is bit g bits + i of the source
        u_bits = (np.arange(L)[:, np.newaxis] >> np.arange(bits - 1, -1, -1)) & 1
        self.input_law = np.where(u_bits == 0, p0[:, np.newaxis], 1.0 - p0[:, np.newaxis]).prod(axis=2)
        laws = mix.tables.transpose(0, 2, 1)  # [c, u, x]
        self.q = laws.reshape(C, K)
        self.q_k = _outer_uses(laws, k)  # the k selected uses given c
        # log q, with 0 for log 0: a type that uses a pair of probability 0
        # under a component is marked impossible for it through zero_q
        self.log_q = np.log(np.where(self.q > 0.0, self.q, 1.0)).T
        self.zero_q = (self.q == 0.0).T
        self.log_w = _log(mix.weights)
        self._binomials = _binomials(max([sum(pasts)] + blocks), K)
        self._weights = {(0,) * k: np.ones(1)}
        self._classes = {}
        self._conditionals = {}
        self._slack = {}

    def _types_of(self, m: int) -> _TypeClasses:
        if m not in self._classes:
            counts, successors = _ranked_types(m, self.q.shape[1], self._binomials)
            log_lik = np.where(counts @ self.zero_q > 0, -np.inf, counts @ self.log_q)
            self._classes[m] = _TypeClasses(successors, log_lik)
        return self._classes[m]

    def _log_weights(self, key) -> np.ndarray:
        """log W per type of the uses sum_j uses_j[:key[j]].  The DP starts
        from the key with one use fewer on its last device, so the pasts of
        consecutive selections share every step but one."""
        chain = []
        while key not in self._weights:
            j = max(i for i, c in enumerate(key) if c)
            chain.append((key, self.mix.offsets[j] + key[j] - 1))
            key = key[:j] + (key[j] - 1,) + key[j + 1:]
        weights = self._weights[key]
        for key, use in reversed(chain):
            m = sum(key) - 1
            pair_law = np.repeat(self.input_law[use], self.mix.num_outputs)
            weights = self._weights[key] = np.bincount(
                self._types_of(m).successors.ravel(),
                weights=(weights[:, np.newaxis] * pair_law).ravel(),
                minlength=_type_count(m + 1, len(pair_law)),
            )
        return _log(weights)

    def _given(self, m: int) -> _Conditionals:
        if m not in self._conditionals:
            S, L, k = self.mix.num_outputs, self.mix.num_inputs, self.mix.k
            log_lam = self._types_of(m).log_lik + self.log_w
            log_scale = log_lam.max(axis=1)
            live = log_scale > -np.inf
            log_scale = log_scale[live]
            lam = np.exp(log_lam[live] - log_scale[:, np.newaxis])
            # sum_x |t - prod_j m_j / r^(k-1)| for every input tuple of the
            # selected uses: t their joint, m_j use j's marginal, r = sum lam
            prod = _outer_uses((lam @ self.q).reshape(-1, L, S), k)
            prod /= lam.sum(axis=1, keepdims=True) ** (k - 1)
            gaps = np.abs(lam @ self.q_k - prod).reshape(len(lam), L**k, S**k).sum(axis=2)
            self._conditionals[m] = _Conditionals(live, log_scale, lam, gaps)
        return self._conditionals[m]

    def total(self, selection) -> float:
        """T = sum over types of the pasts of W e^scale sum_u p(u) gap(u), p
        the product of the selected uses' input laws."""
        key = tuple(a - 1 for a in selection)
        given = self._given(sum(key))
        p = np.ones(1)
        for j, a in enumerate(selection):
            p = np.multiply.outer(p, self.input_law[self.mix.offsets[j] + a - 1]).ravel()
        weight = np.exp(self._log_weights(key)[given.live] + given.log_scale)
        return float(weight @ (given.gaps @ p))

    def level(self, suffix) -> float:
        """Level i = k - len(suffix), a sum over type pairs of the pasts of
        devices >= i (lambda) and the block of all uses of devices < i (mu):
        the block's joint with device i's selected use, at weights
        nu = lambda mu, against the block marginal times the use's marginal
        given the pasts alone."""
        mix = self.mix
        S, L = mix.num_outputs, mix.num_inputs
        i = mix.k - len(suffix)
        cond = (0,) * i + tuple(a - 1 for a in suffix)
        block = mix.n[:i] + (0,) * len(suffix)
        given = self._given(sum(cond))
        log_w_cond = self._log_weights(cond)[given.live] + given.log_scale
        log_w_block = self._log_weights(block)
        log_nu = _log(given.lam)[:, np.newaxis] + self._types_of(sum(block)).log_lik
        # a pair no label explains has log_nu = -inf throughout: nu = 0, gap 0
        log_scale = log_nu.max(axis=2)
        log_scale[log_scale == -np.inf] = 0.0
        nu = np.exp(log_nu - log_scale[:, :, np.newaxis])
        use_marg = (given.lam @ self.q) / given.lam.sum(axis=1, keepdims=True)
        gap = np.abs(nu @ self.q - nu.sum(axis=2, keepdims=True) * use_marg[:, np.newaxis])
        use_law = self.input_law[mix.offsets[i] + suffix[0] - 1]
        gap = gap.reshape(gap.shape[:2] + (L, S)).sum(axis=3) @ use_law
        weight = np.exp(log_w_cond[:, np.newaxis] + log_w_block + log_scale)
        return float(np.sum(weight * gap))

    def pinsker_slack(self, selection) -> float:
        """Worst lhs - rhs of the Pinsker pair over the normalized joints of
        the two selected outputs, per live type of the pasts and input pair."""
        if self.mix.k != 2:
            raise ValueError("pairwise Pinsker sweep needs exactly two devices")
        m = sum(selection) - 2
        if m not in self._slack:
            S = self.mix.num_outputs
            lam = self._given(m).lam
            if not len(lam):
                self._slack[m] = float("-inf")
            else:
                joints = (lam @ self.q_k).reshape(-1, S, S)
                lhs, rhs, _ = _pinsker_batch(joints / joints.sum(axis=(1, 2))[:, np.newaxis, np.newaxis])
                self._slack[m] = float(np.max(lhs - rhs))
        return self._slack[m]


def definetti_check(system: JointBoxSystem | ExchangeableMixture, strategy, epsilon: float, t_levels,
                    sigma_size: int | None = None, pinsker: bool = False) -> DeFinettiReport:
    """Sweep every selection, weight it by the source, and compare T against
    the concentration threshold.  A JointBoxSystem is summed as a tensor; an
    ExchangeableMixture over type classes (_TypeSums), which needs a source
    whose bias depends on position only."""
    sigma = system.num_outputs if sigma_size is None else int(sigma_size)
    rhs = definetti_rhs(system.n, t_levels, epsilon, sigma)
    if isinstance(system, ExchangeableMixture):
        sums = _TypeSums(system, strategy, epsilon)
    else:
        sums = _DenseSums(system, strategy, epsilon)
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
    level_by_suffix = {}
    for sel, w in sorted(weights.items()):
        t_val = sums.total(sel)
        levels = []
        for i in range(1, system.k):
            suffix = sel[i:]
            if suffix not in level_by_suffix:
                level_by_suffix[suffix] = sums.level(suffix)
            levels.append(level_by_suffix[suffix])
        if t_val > sum(levels) + 1e-9:
            raise AssertionError(
                f"level decomposition broken at selection {sel}: T={t_val} > sum Ti={sum(levels)}"
            )
        report.selections.append((sel, w, t_val, levels))
        report.max_t = max(report.max_t, t_val)
        if t_val >= rhs.threshold:
            exceed += w
        if pinsker:
            slack = sums.pinsker_slack(sel)
            report.pinsker_worst_slack = max(report.pinsker_worst_slack, slack)
    report.weighted_exceed_fraction = exceed
    return report
