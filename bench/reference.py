"""Exact references the benchmark checks program outputs against.

Nothing here calls into randamp: the conventions (flat index packs party i
into bit i-1, tables are outcome-major, a source bit is 0 with probability
1/2 + bias) are restated from the README so that a defect in the package
cannot hide behind the same defect in its reference.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Two-sided normal tail of about 2e-9 per interval: a correct program trips
# a statistical check far less often than once in the life of the benchmark.
WILSON_Z = 6.0


def analytic_cap(delta: float) -> float:
    """The paper's certified cap on every LP optimum."""
    return min((11.0 + 7.0 * delta) / 32.0, 0.5)


def lp_value_function(delta: float) -> float:
    """Closed form of the guessing LP's optimum, tight at delta = 1/3."""
    return min(0.25 + 5.0 * delta / 8.0, 1.0 / 3.0 + delta / 4.0, 0.375 + delta / 8.0, 0.5)


def wilson(successes: int, count: int, z: float = WILSON_Z) -> tuple:
    """Wilson score interval for a binomial proportion; (0, 1) when count is 0."""
    if count <= 0:
        return 0.0, 1.0
    p = successes / count
    denom = 1.0 + z * z / count
    center = (p + z * z / (2.0 * count)) / denom
    half = z * math.sqrt(p * (1.0 - p) / count + z * z / (4.0 * count * count)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def in_wilson(value: float, successes: int, count: int, z: float = WILSON_Z) -> bool:
    lo, hi = wilson(successes, count, z)
    return lo - 1e-12 <= value <= hi + 1e-12


def rates_match(p_accept: float, p_zero: float, accepted: int, trials: int, zeros: int) -> bool:
    """Observed acceptance and P(output = 0 | accepted) agree with their
    exact values."""
    return in_wilson(p_accept, accepted, trials) and in_wilson(p_zero, zeros, accepted)


def greedy_bit_zero_probability(position: int, target, epsilon: float) -> float:
    """A greedy source pushes bit `position` toward target[position mod len]."""
    want = target[position % len(target)]
    return 0.5 + epsilon if want == 0 else 0.5 - epsilon


def _bits(index: int, width: int = 4):
    return tuple((index >> i) & 1 for i in range(width))


def bell_coefficient(x: int, u: int) -> int:
    """1 on even-parity outcomes at weight-1 settings and on odd-parity
    outcomes at weight-3 settings, else 0."""
    weight = sum(_bits(u))
    odd = sum(_bits(x)) % 2
    return int((weight == 1 and not odd) or (weight == 3 and odd))


def majority3(x: int) -> int:
    b = _bits(x)
    return int(b[0] + b[1] + b[2] >= 2)


def bell_value(table: np.ndarray) -> float:
    return float(sum(bell_coefficient(x, u) * table[x, u] for x in range(16) for u in range(16)))


def kept_setting_law(target, epsilon: float) -> np.ndarray:
    """Law of one kept setting for a position-only source whose pattern
    length divides 4: every four-bit draw sees the same biases, so kept
    settings are i.i.d. with the draw law restricted to weight 1 and 3."""
    if 4 % len(target):
        raise ValueError("pattern length must divide 4")
    law = np.zeros(16)
    for u in range(16):
        if sum(_bits(u)) in (1, 3):
            p = 1.0
            for party, bit in enumerate(_bits(u)):
                p0 = greedy_bit_zero_probability(party, target, epsilon)
                p *= p0 if bit == 0 else 1.0 - p0
            law[u] = p
    return law / law.sum()


def device_law(tables, weights, setting_law: np.ndarray) -> np.ndarray:
    """P[B, maj] of one device's selected use.  For a device that mixes
    i.i.d. components under one hidden label the selected use's marginal is
    the weighted average of the components' laws; the selection bits are
    independent of every box content."""
    law = np.zeros((2, 2))
    for w, table in zip(weights, tables):
        for u in range(16):
            if setting_law[u] == 0.0:
                continue
            for x in range(16):
                law[bell_coefficient(x, u), majority3(x)] += w * setting_law[u] * table[x, u]
    return law


def acceptance_threshold(epsilon: float, delta: float, mu: float) -> float:
    return (0.5 - epsilon) ** 4 * (delta / 2.0) * (1.0 - mu)


def protocol_exact(law: np.ndarray, k: int, threshold: float) -> tuple:
    """(P(accept), P(output = 0 | accept)) for k independent devices with
    per-device law P[B, maj]: accept iff mean(B) <= threshold, output is the
    XOR of the majorities."""
    dist = np.zeros((k + 1, 2))  # (number of B = 1, parity of majorities)
    dist[0, 0] = 1.0
    for _ in range(k):
        nxt = np.zeros_like(dist)
        for b in (0, 1):
            shifted = dist.copy()
            if b:
                shifted[1:], shifted[0] = dist[:-1], 0.0
            for m in (0, 1):
                nxt += law[b, m] * (shifted[:, ::-1] if m else shifted)
        dist = nxt
    accept = [c for c in range(k + 1) if c / k <= threshold]
    p_acc = float(dist[accept].sum())
    p_zero = float(dist[accept, 0].sum())
    return p_acc, (p_zero / p_acc if p_acc > 0 else float("nan"))


def _selection_weights(n, target, epsilon: float) -> dict:
    """Source law of the per-device selections (1-based): device j reads
    floor(log2 n_j) bits, big-endian, devices in order, from position 0."""
    widths = [int(v).bit_length() - 1 for v in n]
    total = sum(widths)
    out = {}
    for code in range(1 << total):
        bits = [(code >> (total - 1 - i)) & 1 for i in range(total)]
        p = 1.0
        for pos, bit in enumerate(bits):
            p0 = greedy_bit_zero_probability(pos, target, epsilon)
            p *= p0 if bit == 0 else 1.0 - p0
        sel, pos = [], 0
        for w in widths:
            idx = 0
            for bit in bits[pos : pos + w]:
                idx = (idx << 1) | bit
            sel.append(idx + 1)
            pos += w
        out[tuple(sel)] = out.get(tuple(sel), 0.0) + p
    return out


def _t_two_devices(n, components, weights, target, epsilon: float, selection) -> float:
    """T for a two-device exchangeable mixture, by enumerating the realized
    pasts.  Each use takes one source bit as its input, in use order."""
    n1 = n[0]
    a1, a2 = selection
    cond = list(range(a1 - 1)) + [n1 + i for i in range(a2 - 1)]
    g1, g2 = a1 - 1, n1 + a2 - 1
    qs = [np.asarray(c, dtype=float) for c in components]

    def nu(g):
        p0 = greedy_bit_zero_probability(g, target, epsilon)
        return np.array([p0, 1.0 - p0])

    # Per conditioned use, the four (x, u) pairs in order x-major.
    like = [np.ones(1) for _ in qs]
    weight_u = np.ones(1)
    for g in cond:
        for c, q in enumerate(qs):
            like[c] = np.multiply.outer(like[c], q.reshape(-1)).reshape(-1)
        weight_u = np.multiply.outer(weight_u, np.tile(nu(g), 2)).reshape(-1)
    joint_c = [w * l for w, l in zip(weights, like)]
    p_past = sum(joint_c)
    post = [jc / p_past for jc in joint_c]
    total = 0.0
    for u1, u2 in itertools.product((0, 1), repeat=2):
        gap = np.zeros_like(p_past)
        m1 = [sum(pc * q[x, u1] for pc, q in zip(post, qs)) for x in (0, 1)]
        m2 = [sum(pc * q[x, u2] for pc, q in zip(post, qs)) for x in (0, 1)]
        for x1, x2 in itertools.product((0, 1), repeat=2):
            j = sum(pc * q[x1, u1] * q[x2, u2] for pc, q in zip(post, qs))
            gap += np.abs(j - m1[x1] * m2[x2])
        total += nu(g1)[u1] * nu(g2)[u2] * float(np.sum(weight_u * p_past * gap))
    return total


def definetti_exact(n, components, weights, target, epsilon: float) -> dict:
    """selection -> (source weight, T) for every selection of a two-device
    exchangeable mixture of single-party 2 x 2 boxes under a greedy source."""
    if len(n) != 2:
        raise ValueError("reference covers two devices")
    return {
        sel: (w, _t_two_devices(n, components, weights, target, epsilon, sel))
        for sel, w in _selection_weights(n, target, epsilon).items()
    }
