"""Randomness-amplification protocol: run loop, theoretical bounds, bias audit.

Steps per device j: draw four source bits per use until n_j uses carry a
Bell-coefficient setting, then spend log2(n_j) more bits to pick one of the
kept uses.  The k picked (setting, outcome) pairs feed the estimation test
Z_k <= (1/2-eps)^4 (delta/2)(1-mu); on acceptance the output is the XOR of
the per-device majorities of the first three outcome bits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boxes import (
    BELL_FUNCTIONAL,
    INEQUALITY_INDICES,
    bell_value,
    in_inequality,
    majority,
    pack_bits,
    unpack_bits,
)
from .devices import IidDevice, MixtureDevice, sample_outcome
from .sv import (
    SvTranscript,
    bit_zero_probabilities,
    draw_index,
    draw_setting,
    exact_bitstring_distribution,
)

WILSON_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class ProtocolParams:
    """All knobs of one protocol run.

    n is the per-device count of kept uses to accumulate; the selection step
    only addresses the largest power of two that fits, surplus kept uses are
    dead weight at the tail.
    """

    epsilon: float
    delta: float
    mu: float
    k: int
    n: tuple = (1,)
    t: float = 1e6

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 0.5:
            raise ValueError(f"epsilon {self.epsilon} outside [0, 1/2)")
        if not 0.0 < self.delta <= 8.0:
            raise ValueError(f"delta {self.delta} outside (0, 8]")
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu {self.mu} outside (0, 1)")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        n = self.n
        if isinstance(n, int):
            n = (n,) * self.k
        else:
            n = tuple(int(v) for v in n)
            if len(n) == 1:
                n = n * self.k
        if len(n) != self.k or any(v < 1 for v in n):
            raise ValueError("n must give a positive count for each of the k devices")
        object.__setattr__(self, "n", n)
        if self.t <= 0:
            raise ValueError("t must be positive")
        thr = acceptance_threshold(self)
        if not 0.0 < thr < 1.0:
            raise ValueError(f"acceptance threshold {thr} outside (0, 1)")

    def selection_sizes(self) -> tuple:
        return tuple(1 << (v.bit_length() - 1) for v in self.n)


def acceptance_threshold(params: ProtocolParams) -> float:
    e = params.epsilon
    return (0.5 - e) ** 4 * (params.delta / 2.0) * (1.0 - params.mu)


def xor_bias_bound(eps_list) -> float:
    """Bias of an XOR of independent bits with per-bit biases eps_i."""
    eps = [float(e) for e in eps_list]
    if any(not 0.0 <= e <= 0.5 for e in eps):
        raise ValueError("per-bit biases must lie in [0, 1/2]")
    prod = math.prod(eps)
    return min(0.5, 2.0 ** (len(eps) - 1) * prod)


def azuma_rejection_bound(params: ProtocolParams) -> float:
    """Lower bound on rejection probability for devices that are not good."""
    e, d, m = params.epsilon, params.delta, params.mu
    return 1.0 - math.exp(-params.k * (0.5 - e) ** 8 * (1.0 - m) ** 2 * d * d / 8.0)


def f_epsilon(epsilon: float) -> float:
    """Largest source probability of any four-setting set, relative scale."""
    lo, hi = 0.5 - epsilon, 0.5 + epsilon
    return hi**4 + lo**4 + 4.0 * lo**3 * hi + 2.0 * lo * lo * hi * hi


def robustness_threshold(epsilon: float, mu: float, delta: float) -> float:
    """Largest honest-device Bell value that still passes the test whp."""
    lo, hi = 0.5 - epsilon, 0.5 + epsilon
    return (1.0 - mu) * delta * lo**4 * f_epsilon(epsilon) / (4.0 * hi**4)


def robustness_acceptance_bound(params: ProtocolParams) -> float:
    e, d, m = params.epsilon, params.delta, params.mu
    return 1.0 - math.exp(-params.k * (0.5 - e) ** 8 * (1.0 - m) ** 2 * d * d / 2048.0)


@dataclass(frozen=True)
class PropositionBound:
    """Composable distance bound and its three contributions."""

    estimation_term: float
    azuma_term: float
    definetti_term: float

    @property
    def total(self) -> float:
        return self.estimation_term + self.azuma_term + self.definetti_term


def proposition_bound(params: ProtocolParams) -> PropositionBound:
    """The three terms of the distance bound.

    The estimation term ((11 + 7 delta)/16)^(mu k) is capped at 1: for
    delta > 5/7 its base exceeds 1, so the term is vacuous there (and the
    power would overflow a float at large k)."""
    e, d, m, k = params.epsilon, params.delta, params.mu, params.k
    base = (11.0 + 7.0 * d) / 16.0
    return PropositionBound(
        estimation_term=1.0 if base >= 1.0 else base ** (m * k),
        azuma_term=2.0 * math.exp(-k * (0.5 - e) ** 8 * (1.0 - m) ** 2 * d * d / 8.0),
        definetti_term=4.0 / math.sqrt(params.t),
    )


@dataclass(slots=True)
class DistanceReport:
    """Distance from uniform of S given the eavesdropper (z) and setting (w).

    d takes the worst deviation over (s, w, z); d_c averages over z per s and
    maximizes over w, then sums over s.  Both carry the 1/2 prefactor, and
    d_c <= |S| d is asserted.
    """

    d: float
    d_c: float
    sigma_size: int

    def __post_init__(self):
        if self.d_c > self.sigma_size * self.d + 1e-12:
            raise AssertionError(
                f"composable distance {self.d_c} exceeds {self.sigma_size} x {self.d}"
            )
        if self.d > 0.5 + 1e-12:
            raise AssertionError(f"distance {self.d} above 1/2")


def distance_d(conditionals, z_weights=None) -> DistanceReport:
    """conditionals[w, z] is a distribution of S; z_weights[w] weights z."""
    p = np.asarray(conditionals, dtype=float)
    if p.ndim == 1:
        p = p.reshape(1, 1, -1)
    elif p.ndim == 2:
        p = p.reshape(1, *p.shape)
    n_w, n_z, sigma = p.shape
    if np.max(np.abs(p.sum(axis=2) - 1.0)) > 1e-9 or np.min(p) < -1e-12:
        raise ValueError("each conditional must be a distribution")
    if z_weights is None:
        w = np.full((n_w, n_z), 1.0 / n_z)
    else:
        w = np.asarray(z_weights, dtype=float).reshape(n_w, n_z)
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-9 or np.min(w) < 0:
            raise ValueError("z_weights rows must be distributions")
    dev = np.abs(p - 1.0 / sigma)
    d = 0.5 * float(np.max(dev))
    d_c = 0.5 * float(np.sum(np.max(np.einsum("wz,wzs->ws", w, dev), axis=0)))
    return DistanceReport(d=d, d_c=d_c, sigma_size=sigma)


@dataclass
class EstimationRecord:
    """Per-device test data plus the oracle-side supermartingale."""

    b_values: tuple  # Bell coefficient of each selected pair, in {0,1}
    zeta: tuple  # (1/2-eps)^4 x Bell value of the true conditional box
    x_values: tuple  # running sums of (zeta_l - B_l)

    def __post_init__(self):
        prev = 0.0
        for x in self.x_values:
            if abs(x - prev) > 1.0 + 1e-12:
                raise AssertionError(f"supermartingale increment {x - prev} exceeds 1")
            prev = x


@dataclass
class RunTranscript:
    params: ProtocolParams
    uses: list  # per device: list of (setting_idx, outcome_idx) over all draws
    kept: list  # per device: indices into uses with a Bell-coefficient setting
    selection: tuple  # per device: chosen position among the addressable kept uses
    m_realized: tuple  # per device: total settings drawn
    sv: SvTranscript

    def selected_use(self, j: int) -> int:
        return self.kept[j][self.selection[j]]

    def selected_pair(self, j: int):
        return self.uses[j][self.selected_use(j)]


@dataclass
class ProtocolResult:
    accepted: bool
    z_k: float
    output_bit: int | None
    majority_bits: tuple
    threshold: float
    theoretical_bound: float
    estimation: EstimationRecord

    def __post_init__(self):
        if self.accepted != (self.output_bit is not None):
            raise AssertionError("output bit must exist exactly when accepted")
        if not 0.0 <= self.z_k <= 1.0:
            raise AssertionError(f"Z_k {self.z_k} outside [0, 1]")


def run_protocol(params: ProtocolParams, devices, sv_strategy, rng) -> tuple:
    """One full protocol run against live devices and a source strategy."""
    if len(devices) != params.k:
        raise ValueError(f"need {params.k} devices, got {len(devices)}")
    transcript = SvTranscript(epsilon=params.epsilon, bits=[], biases=[])
    uses, kept, m_realized = [], [], []
    for j, device in enumerate(devices):
        history, kept_j = [], []
        while len(kept_j) < params.n[j]:
            u_bits = draw_setting(sv_strategy, transcript, rng)
            u = pack_bits(u_bits)
            x = sample_outcome(device, history, u, rng)
            if in_inequality(u_bits):
                kept_j.append(len(history))
            history.append((u, x))
        uses.append(history)
        kept.append(kept_j)
        m_realized.append(len(history))

    sizes = params.selection_sizes()
    selection = tuple(
        draw_index(sv_strategy, transcript, sizes[j], rng) for j in range(params.k)
    )
    run = RunTranscript(
        params=params,
        uses=uses,
        kept=kept,
        selection=selection,
        m_realized=tuple(m_realized),
        sv=transcript,
    )

    scale = (0.5 - params.epsilon) ** 4
    b_values, zeta, x_values = [], [], []
    x = 0.0
    for j, device in enumerate(devices):
        pos = run.selected_use(j)
        u, xout = run.uses[j][pos]
        b = float(BELL_FUNCTIONAL[xout, u])
        true_box = device.box_given(tuple(run.uses[j][:pos]))
        z = scale * bell_value(true_box, validate=False)
        x += z - b
        b_values.append(b)
        zeta.append(z)
        x_values.append(x)
    estimation = EstimationRecord(
        b_values=tuple(b_values), zeta=tuple(zeta), x_values=tuple(x_values)
    )

    z_k = float(np.mean(b_values))
    threshold = acceptance_threshold(params)
    accepted = z_k <= threshold
    maj_bits = tuple(
        majority(*unpack_bits(run.selected_pair(j)[1])[:3]) for j in range(params.k)
    )
    output = int(np.bitwise_xor.reduce(maj_bits)) if accepted else None
    result = ProtocolResult(
        accepted=accepted,
        z_k=z_k,
        output_bit=output,
        majority_bits=maj_bits,
        threshold=threshold,
        theoretical_bound=proposition_bound(params).total,
        estimation=estimation,
    )
    return result, run


# setting index of each four-bit string, first bit most significant
_SETTING_OF_CODE = np.array(
    [pack_bits(tuple((code >> (3 - i)) & 1 for i in range(4))) for code in range(16)]
)


def per_draw_setting_distribution(sv_strategy, epsilon: float) -> np.ndarray:
    """Distribution of one four-bit setting draw, indexed by setting.

    Exact when the strategy's bias depends on bit position modulo the draw
    length only, which holds for every built-in strategy whose pattern length
    divides four.
    """
    dist = np.empty(16)
    dist[_SETTING_OF_CODE] = exact_bitstring_distribution(sv_strategy, 4, epsilon)
    return dist


def _reduced_table(device):
    """The selected-pair table of a device whose uses are i.i.d. given one
    hidden label, or None.  An IidDevice reduces to its box; a MixtureDevice
    draws its label once and is then i.i.d., so under a position-only source
    its selected pair has the weight average of its components' laws (nested
    mixtures recursively).  Anything else, or a mixture with such a component,
    does not reduce."""
    if isinstance(device, IidDevice):
        return device.box.table
    if isinstance(device, MixtureDevice):
        tables = [_reduced_table(c) for c in device.components]
        if any(t is None for t in tables):
            return None
        return sum(w * t for w, t in zip(device.weights, tables))
    return None


def _shared_table(devices, sv_strategy):
    """The one selected-pair table every device reduces to, when the
    vectorized runner is exact for these devices and this source, else None.

    That needs every device to reduce to one shared table (an IidDevice, or a
    mixture of them sharing one hidden label: see _reduced_table) and each
    draw's four bits to see the same position-only bias pattern (period
    dividing 4).  Kept settings are then i.i.d. with the restricted,
    renormalized draw law, and neither they, the draw counts nor the
    selection step can correlate with a device's label or box contents.  Each
    device conditions only on its own history, so even k copies of one
    MixtureDevice act as k independent labels; such a device object is
    reduced once."""
    period = getattr(sv_strategy, "period", None)
    if period is None or 4 % period != 0 or not devices:
        return None
    distinct = list({id(device): device for device in devices}.values())
    table = _reduced_table(distinct[0])
    if table is None:
        return None
    for device in distinct[1:]:
        other = _reduced_table(device)
        if other is None or not np.array_equal(other, table):
            return None
    return table


def fast_path_applicable(params: ProtocolParams, devices, sv_strategy) -> bool:
    """Whether the vectorized runner is exact for these devices and this
    source (_shared_table)."""
    return _shared_table(devices, sv_strategy) is not None


# Cell 2b + g of each (outcome, kept setting) pair, indexed [x, s]: b is the
# pair's Bell coefficient, g the majority of the first three outcome bits.
_KEPT = np.array(INEQUALITY_INDICES)
_CELL = 2 * BELL_FUNCTIONAL[:, _KEPT].astype(np.int64) + np.array(
    [majority(*unpack_bits(x)[:3]) for x in range(16)]
)[:, None]
_CELL.setflags(write=False)


def _log_power(base: float, exponents: np.ndarray) -> np.ndarray:
    """exponents x log|base|, with 0^0 = 1: a zero base gives -inf where the
    exponent is positive and 0 where it is 0."""
    if base == 0.0:
        return np.where(exponents > 0, -np.inf, 0.0)
    return exponents * math.log(abs(base))


def trial_law(law, k: int) -> np.ndarray:
    """Law of one trial of k i.i.d. devices with nonnegative cell law
    law[2b + g]: entry 2B + par is the probability that B selected pairs carry
    a Bell coefficient and their majorities XOR to par.

    With q = law[2] + law[3] and a_b = law[2b] - law[2b + 1],
    P(B) = C(k, B) q^B (1 - q)^(k - B), and by the piling-up lemma (Matsui,
    EUROCRYPT '93) P(B, 0) - P(B, 1) = C(k, B) a_1^B a_0^(k - B).  Both are
    summed in log space, signs apart, and exponentiated last, so nothing
    overflows at large k; log C(k, B) is a cumulative sum of
    log((k - B + 1) / B) up to k/2, mirrored.  Entries are clipped at 0, so
    an impossible outcome has probability exactly 0, and normalized: the
    rounding of the log-space sums leaves a relative error of about 1e-9 at
    k = 10^6.
    """
    count = np.arange(k + 1)
    half = k // 2
    log_comb = np.zeros(k + 1)
    np.cumsum(np.log((k - count[1:half + 1] + 1) / count[1:half + 1]), out=log_comb[1:half + 1])
    log_comb[k - half:] = log_comb[half::-1]
    q, r = law[2] + law[3], law[0] + law[1]
    a0, a1 = law[0] - law[1], law[2] - law[3]
    total = np.exp(log_comb + _log_power(q, count) + _log_power(r, k - count))
    odd = ((a1 < 0) * count + (a0 < 0) * (k - count)) % 2 == 1
    diff = np.exp(log_comb + _log_power(a1, count) + _log_power(a0, k - count))
    diff[odd] *= -1.0
    pmf = np.clip(np.stack([total + diff, total - diff], axis=1).ravel(), 0.0, None)
    return pmf / pmf.sum()


class _IidSampler:
    """Exact per-trial law of k devices that reduce to one selected-pair table
    (i.i.d. devices sharing one box, or mixtures of them with one hidden label
    each) against a source whose bias depends on bit position only
    (_shared_table), given that shared table.

    Kept settings are then i.i.d. with the restricted, renormalized draw law,
    so the selected pairs of the k devices are i.i.d. with the reduced table's
    law, and independent of the draw counts and selection indices.  The test
    reads only the Bell coefficient b of each selected pair and the hash only
    the majority g of its first three outcome bits, so each pair falls in one
    of four cells 2b + g with the law `law`, and a trial is one draw of
    (B, parity): how many pairs score and the parity of their majorities
    (trial_law).  Outcomes of probability 0 are never drawn.
    """

    def __init__(self, params: ProtocolParams, table: np.ndarray, sv_strategy):
        draw = per_draw_setting_distribution(sv_strategy, params.epsilon)
        kept_p = draw[_KEPT]
        self.kept_mass = float(kept_p.sum())
        cols = table[:, _KEPT]
        # P(selected pair = (kept setting s, outcome x)), indexed [x, s]
        pair_p = cols / cols.sum(axis=0) * (kept_p / self.kept_mass)
        law = np.clip(np.bincount(_CELL.ravel(), weights=pair_p.ravel(), minlength=4), 0.0, None)
        self.law = law / law.sum()
        self.params = params
        self.strategy = sv_strategy
        self.n = np.array(params.n)
        k = params.k
        pmf = trial_law(self.law, k)
        # capped at 1, where rounding of the running sum can overshoot, so
        # every width is nonnegative (no uniform draw below 1 sees the cap);
        # and 1 from the last possible outcome on, so no impossible one is drawn
        self.cdf = np.minimum(np.cumsum(pmf), 1.0)
        self.cdf[np.flatnonzero(pmf)[-1]:] = 1.0
        # Z_k, the test's verdict and the output of each outcome 2B + parity
        self._z = np.repeat(np.arange(k + 1) / k, 2)
        self._accepted = self._z <= acceptance_threshold(params)
        self._output = np.where(self._accepted, np.tile([0, 1], k + 1), -1)

    @cached_property
    def _selection(self) -> tuple:
        return _selection_law(self.params, self.strategy)

    @cached_property
    def category_p(self) -> np.ndarray:
        """P(accepted with output 0), P(accepted with output 1), P(aborted):
        the CDF widths `sample` draws from, summed by outcome, so an
        impossible category gets exactly 0."""
        category = np.where(self._accepted, self._output, 2)
        return np.bincount(category, weights=np.diff(self.cdf, prepend=0.0), minlength=3)

    def sample(self, m: int, rng) -> tuple:
        """(Z_k, accepted, output bit or -1 where aborted) for m trials."""
        idx = np.searchsorted(self.cdf, rng.random(m), side="right")
        return self._z[idx], self._accepted[idx], self._output[idx]

    def counts(self, m: int, seed) -> tuple:
        """(accepted, accepted with output 0) over m trials: trials are i.i.d.
        draws of one law, so the three category counts are one multinomial
        draw, O(k) at any m.  Only possible categories enter it, as numpy
        gives the last category the remainder."""
        p = self.category_p
        drawn = np.zeros(3, dtype=np.int64)
        drawn[p > 0] = np.random.default_rng(seed).multinomial(m, p[p > 0])
        return int(drawn[0] + drawn[1]), int(drawn[0])

    def rows(self, m: int, rng) -> "TrialRows":
        """Every column of m protocol runs.  Device j draws settings until
        n_j are kept, a negative binomial count past n_j; after all settings
        come the selection bits, device-major and most significant first."""
        z, acc, output = self.sample(m, rng)
        m_realized = self.n + rng.negative_binomial(self.n, self.kept_mass, size=(m, len(self.n)))
        select_p0, select_weights = self._selection
        select_bits = (rng.random((m, len(select_p0))) >= select_p0).astype(np.int64)
        return TrialRows(
            z_k=z,
            accepted=acc,
            output=output,
            selection=select_bits @ select_weights,
            m_realized=m_realized,
        )


def _selection_law(params: ProtocolParams, sv_strategy) -> tuple:
    """(P(bit = 0) per selection bit, bit-to-index weights of shape (bits, k))
    for a source whose bias is position-only with a period dividing four.
    The selection bits start at 4 x (settings drawn), a multiple of the
    period, so their biases do not depend on the draw count."""
    widths = [size.bit_length() - 1 for size in params.selection_sizes()]
    weights = np.zeros((sum(widths), params.k), dtype=np.int64)
    p0 = bit_zero_probabilities(sv_strategy, sum(widths), params.epsilon)
    pos = 0
    for j, width in enumerate(widths):
        for i in range(width):
            weights[pos, j] = 1 << (width - 1 - i)
            pos += 1
    return p0, weights


@dataclass
class TrialRows:
    """One chunk of protocol runs, one entry (or row of k) per trial."""

    z_k: np.ndarray
    accepted: np.ndarray
    output: np.ndarray  # -1 where the run aborted
    selection: np.ndarray  # (trials, k)
    m_realized: np.ndarray  # (trials, k)


class _ProtocolSampler:
    """run_protocol once per trial against the given devices."""

    def __init__(self, params: ProtocolParams, devices, sv_strategy):
        self.params = params
        self.devices = devices
        self.strategy = sv_strategy

    def rows(self, m: int, rng) -> TrialRows:
        runs = [run_protocol(self.params, self.devices, self.strategy, rng) for _ in range(m)]
        return TrialRows(
            z_k=np.array([r.z_k for r, _ in runs]),
            accepted=np.array([r.accepted for r, _ in runs]),
            output=np.array([-1 if r.output_bit is None else r.output_bit for r, _ in runs]),
            selection=np.array([t.selection for _, t in runs]).reshape(m, -1),
            m_realized=np.array([t.m_realized for _, t in runs]).reshape(m, -1),
        )

    def sample(self, m: int, rng) -> tuple:
        rows = self.rows(m, rng)
        return rows.z_k, rows.accepted, rows.output

    def counts(self, m: int, seed) -> tuple:
        """(accepted, accepted with output 0) over m trials, chunked and
        seeded like simulate_trials."""
        n_acc = zeros = 0
        for size, chunk_seed in zip(*_chunks(m, seed)):
            _, accepted, output = self.sample(size, np.random.default_rng(chunk_seed))
            n_acc += int(accepted.sum())
            zeros += int(np.sum(output == 0))
        return n_acc, zeros


def _sampler(params: ProtocolParams, devices, sv_strategy):
    """The protocol engine for these k devices: the vectorized sampler where
    fast_path_applicable makes it distribution-exact, run_protocol per trial
    otherwise."""
    if len(devices) != params.k:
        raise ValueError(f"need {params.k} devices, got {len(devices)}")
    table = _shared_table(devices, sv_strategy)
    if table is not None:
        return _IidSampler(params, table, sv_strategy)
    return _ProtocolSampler(params, devices, sv_strategy)


SIMULATE_CHUNK = 256


def _chunks(trials: int, seed) -> tuple:
    """(sizes, seeds): chunks of SIMULATE_CHUNK trials, the last possibly
    shorter, and one child of the seed's SeedSequence per chunk.  seed is an
    int, None or a SeedSequence."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    sizes = [min(SIMULATE_CHUNK, trials - lo) for lo in range(0, trials, SIMULATE_CHUNK)]
    return sizes, seed.spawn(len(sizes))


def _chunk_rows(sampler, size: int, seed_seq) -> TrialRows:
    return sampler.rows(size, np.random.default_rng(seed_seq))


def simulate_trials(params: ProtocolParams, devices, sv_strategy, trials: int, seed=None,
                    mapper=map):
    """Protocol runs of the k devices: an iterator of TrialRows, one per
    chunk of SIMULATE_CHUNK trials (the last may be shorter), in trial order.

    Chunk c draws only from child c of the seed's SeedSequence, so the rows
    depend on the seed alone; mapper may be an executor's map to spread
    chunks over processes.  The devices are shared by every trial, so each
    device's box must be a function of the history alone.  A device may
    memoize, as MixtureDevice does, as long as its answers do not depend on
    earlier runs.
    """
    sampler = _sampler(params, devices, sv_strategy)
    sizes, seeds = _chunks(trials, seed)
    return mapper(_chunk_rows, [sampler] * len(sizes), sizes, seeds)


@dataclass(slots=True)
class WilsonInterval:
    successes: int
    count: int
    low: float
    high: float


def wilson_interval(successes: int, count: int, z: float = WILSON_Z99) -> WilsonInterval:
    if count <= 0:
        return WilsonInterval(successes, count, 0.0, 1.0)
    p = successes / count
    denom = 1.0 + z * z / count
    center = (p + z * z / (2 * count)) / denom
    half = z * math.sqrt(p * (1.0 - p) / count + z * z / (4.0 * count * count)) / denom
    return WilsonInterval(successes, count, max(0.0, center - half), min(1.0, center + half))


# The report dataclasses are slotted and hold no arrays: callers that keep
# one report per audit call, as the bench harness does, hold ~0.7 KB each.
@dataclass(slots=True)
class EmpiricalBiasReport:
    params: ProtocolParams
    trials_per_symbol: int
    acceptance_rate: float
    per_symbol: list  # (weight, n_accepted, p0_hat, WilsonInterval)
    distances: DistanceReport | None
    d_std_error: float

    @property
    def d(self) -> float:
        return self.distances.d if self.distances else float("nan")

    @property
    def d_c(self) -> float:
        return self.distances.d_c if self.distances else float("nan")


def estimate_output_bias(params: ProtocolParams, adversary, trials: int,
                         seed: int | None = None) -> EmpiricalBiasReport:
    """Monte Carlo audit of the output bit against an explicit adversary.

    adversary: list of (weight, device_factory, sv_strategy) triples, one per
    eavesdropper symbol z; device_factory() is called once per symbol and
    yields the k devices every trial of that symbol runs against.  Each
    symbol is run `trials` times (stratified) on the engine simulate_trials
    uses, symbol i seeded by child i of SeedSequence(seed); the exact weights
    enter the distance averages.  The general engine runs chunks of
    SIMULATE_CHUNK trials like simulate_trials, so its counts equal those of
    simulate_trials rows at that child.  The vectorized engine draws the
    counts as one multinomial from child i, O(k) at any trial count: it
    shares the per-trial law with simulate_trials, not the random stream.

    trials is an integer in [1, 2**53] (bools rejected): numpy's binomial
    sampler computes in doubles, so larger counts would not be exact.
    """
    if isinstance(trials, (bool, np.bool_)):
        raise TypeError("trials must be an integer, not a bool")
    trials = operator.index(trials)
    if not 1 <= trials <= 2**53:
        raise ValueError(f"trials {trials} outside [1, 2**53]")
    weights = np.array([w for w, _, _ in adversary], dtype=float)
    if len(weights) == 0 or np.min(weights) < 0 or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("adversary weights must form a distribution")

    rows, accept_total = [], 0
    master = np.random.SeedSequence(seed)
    for (weight, factory, strategy), child in zip(adversary, master.spawn(len(adversary))):
        n_acc, zeros = _sampler(params, factory(), strategy).counts(trials, child)
        p0 = zeros / n_acc if n_acc else float("nan")
        rows.append((weight, n_acc, p0, wilson_interval(zeros, n_acc)))
        accept_total += n_acc

    estimable = [r for r in rows if r[1] > 0]
    if not estimable:
        distances, sigma = None, float("nan")
    else:
        conds = np.array([[p0, 1.0 - p0] for _, _, p0, _ in estimable])
        w = np.array([w for w, _, _, _ in estimable])
        distances = distance_d(conds.reshape(1, -1, 2), (w / w.sum()).reshape(1, -1))
        sigma = 0.5 * max(
            math.sqrt(max(p0 * (1 - p0), 1.0 / n) / n) for _, n, p0, _ in estimable
        )
    return EmpiricalBiasReport(
        params=params,
        trials_per_symbol=trials,
        acceptance_rate=accept_total / (trials * len(adversary)),
        per_symbol=rows,
        distances=distances,
        d_std_error=sigma,
    )
