"""The dense de Finetti path: the test oracle for randamp.definetti.

A system of k devices, device j used n_j times, held as one dense
conditional tensor over all uses (JointBoxSystem), at most 2^24 entries.  T,
its levels and the Pinsker sweep are computed on the tensor directly, and
dense_check runs the library's own selection loop (definetti._sweep) on
these sums, so the type-class sums of an ExchangeableMixture can be checked
against them selection by selection.  Any time-ordered no-signaling system
fits, not only exchangeable mixtures.
"""

import numpy as np

from randamp.definetti import (
    MAX_TABLE_ENTRIES,
    ExchangeableMixture,
    _pinsker_batch,
    _report,
    _sweep,
)

from helpers import exact_bitstring_distribution


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
    order = [g1, g2] + rest + [N + g for g in rest] + cond + [N + g for g in cond] + [N + g1, N + g2]
    S = system.num_outputs
    joints = t.transpose(order).reshape(S, S, -1)
    mass = joints.sum(axis=(0, 1))
    live = mass > 0
    if not np.any(live):
        return float("-inf")
    lhs, rhs, _ = _pinsker_batch(joints[:, :, live] / mass[live])
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


def dense_check(system: JointBoxSystem, strategy, epsilon: float, t_levels, sigma_size=None, pinsker=False):
    """definetti_check on the dense tensor: the same report and selection
    loop, with every T, level and Pinsker slack taken from _DenseSums."""
    report = _report(system, epsilon, t_levels, sigma_size)
    return _sweep(report, _DenseSums(system, strategy, epsilon), strategy, pinsker)


def t_statistic_levels(system, selection, nu: np.ndarray):
    """(T, [T_2..T_k]) of a dense system, where level i compares devices below
    i as one block against device i's selected use, conditioning on pasts of
    devices >= i."""
    sel = _check_selection(system, selection)
    total = t_statistic(system, sel, nu)
    return total, [_level_gap(system, sel[i:], nu) for i in range(1, system.k)]
