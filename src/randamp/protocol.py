"""Randomness-amplification protocol: its engines, theoretical bounds, bias audit.

Steps per device j: draw four source bits per use until n_j uses carry a
Bell-coefficient setting, then spend log2(n_j) more bits to pick one of the
kept uses.  The k picked (setting, outcome) pairs feed the estimation test
Z_k <= (1/2-eps)^4 (delta/2)(1-mu); on acceptance the output is the XOR of
the per-device majorities of the first three outcome bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boxes import BELL_FUNCTIONAL, INEQUALITY_INDICES, majority, unpack_bits
from .devices import IidDevice, MixtureDevice
from .sv import as_integer, bit_probabilities, code_law

WILSON_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class ProtocolParams:
    """All knobs of one protocol run.

    n is the per-device count of kept uses to accumulate; the selection step
    only addresses the largest power of two that fits, surplus kept uses are
    dead weight at the tail.  One count is every device's.  n = None leaves
    the counts unset, for callers that read only the bound formulas, which
    do not depend on n: no k-entry tuple is built then.
    """

    epsilon: float
    delta: float
    mu: float
    k: int
    n: tuple | None = (1,)
    t: float = 1e6

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 0.5:
            raise ValueError(f"epsilon {self.epsilon} outside [0, 1/2)")
        if not 0.0 < self.delta <= 8.0:
            raise ValueError(f"delta {self.delta} outside (0, 8]")
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu {self.mu} outside (0, 1)")
        object.__setattr__(self, "k", as_integer(self.k, "k"))
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.n is not None:
            n = tuple(as_integer(v, "n") for v in ((self.n,) if np.ndim(self.n) == 0 else self.n))
            if len(n) == 1:
                n = n * self.k
            if len(n) != self.k or any(v < 1 for v in n):
                raise ValueError("n must give a positive count for each of the k devices")
            object.__setattr__(self, "n", n)
        if not self.t > 0:  # false for NaN too
            raise ValueError(f"t {self.t} must be positive")
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
    # 1/2 prod(2 eps_i), not 2^(n-1) prod(eps_i): the power overflows past
    # 1024 biases, and doubling is exact, so the two agree bit for bit
    return min(0.5, 0.5 * math.prod(2.0 * e for e in eps))


def _azuma_exponent(params: ProtocolParams) -> float:
    """k (1/2 - eps)^8 (1 - mu)^2 delta^2, which each Azuma bound divides by
    its own constant."""
    e, d, m = params.epsilon, params.delta, params.mu
    return params.k * (0.5 - e) ** 8 * (1.0 - m) ** 2 * d * d


def azuma_rejection_bound(params: ProtocolParams) -> float:
    """Lower bound on rejection probability for devices that are not good."""
    return 1.0 - math.exp(-_azuma_exponent(params) / 8.0)


def f_epsilon(epsilon: float) -> float:
    """Largest source probability of any four-setting set, relative scale."""
    lo, hi = 0.5 - epsilon, 0.5 + epsilon
    return hi**4 + lo**4 + 4.0 * lo**3 * hi + 2.0 * lo * lo * hi * hi


def robustness_threshold(epsilon: float, mu: float, delta: float) -> float:
    """Largest honest-device Bell value that still passes the test whp."""
    lo, hi = 0.5 - epsilon, 0.5 + epsilon
    return (1.0 - mu) * delta * lo**4 * f_epsilon(epsilon) / (4.0 * hi**4)


def robustness_acceptance_bound(params: ProtocolParams) -> float:
    return 1.0 - math.exp(-_azuma_exponent(params) / 2048.0)


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
    base = (11.0 + 7.0 * params.delta) / 16.0
    return PropositionBound(
        estimation_term=1.0 if base >= 1.0 else base ** (params.mu * params.k),
        azuma_term=2.0 * math.exp(-_azuma_exponent(params) / 8.0),
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


def _distances(p: np.ndarray, w: np.ndarray) -> DistanceReport:
    """The distances of conditionals p[w, z, s] (a distribution of S per
    setting w and eavesdropper symbol z) under weights w[w, z] (a
    distribution of z per w).  Neither is checked: callers pass
    distributions by construction."""
    sigma = p.shape[2]
    dev = np.abs(p - 1.0 / sigma)
    d = 0.5 * float(np.max(dev))
    d_c = 0.5 * float(np.sum(np.max(np.einsum("wz,wzs->ws", w, dev), axis=0)))
    return DistanceReport(d=d, d_c=d_c, sigma_size=sigma)


def per_draw_setting_distribution(sv_strategy, epsilon: float) -> np.ndarray:
    """Distribution of one four-bit setting draw, indexed by setting (u^1 on
    the low bit, pack_bits), for a strategy whose bias depends on position
    only.  It is the law of the first draw; later draws share it when the
    period divides four.
    """
    # code axes are u^1 .. u^4, most significant first; setting order reverses them
    return code_law(bit_probabilities(sv_strategy, 4, epsilon)).reshape((2,) * 4).transpose().ravel()


def _reduced_table(device):
    """The selected-pair table of a device whose _law_key is not None.  An
    IidDevice reduces to its box; a MixtureDevice draws its label once and
    is then i.i.d., so under a position-only source its selected pair has
    the weight average of its components' laws (nested mixtures
    recursively).  The table is a function of _law_key(device) alone, so
    _reduced_tables calls this once per distinct key."""
    if isinstance(device, IidDevice):
        return device.box.table
    return sum(w * _reduced_table(c) for w, c in zip(device.weights, device.components))


def _law_key(device):
    """A hashable key that fixes _reduced_table(device), or None where that
    is None: an IidDevice's is the identity of its box's table, a
    MixtureDevice's its components' keys with the bytes of the weights
    _reduced_table multiplies by.  Identities are compared only while the
    devices hold their tables, so keys live for one _reduced_tables call."""
    if isinstance(device, IidDevice):
        return id(device.box.table)
    if isinstance(device, MixtureDevice):
        keys = tuple([_law_key(c) for c in device.components])
        if None in keys:
            return None
        return keys, device.weights.tobytes()
    return None


def _reduced_tables(devices):
    """(the distinct selected-pair tables of the devices, each device's index
    into them), or None where some device does not reduce: anything but an
    IidDevice, or a MixtureDevice over such devices (_law_key).

    Set-up is paid once per distinct law, not per device: each distinct
    device object gets a structural key (_law_key), and only the first
    device of each key is reduced, so k fresh mixtures over the same boxes
    and weights cost one reduction and k key lookups."""
    by_key, by_id, tables, owner = {}, {}, [], []
    for device in devices:
        index = by_id.get(id(device))
        if index is None:
            key = _law_key(device)
            if key is None:
                return None
            index = by_id[id(device)] = by_key.setdefault(key, len(tables))
            if index == len(tables):
                tables.append(_reduced_table(device))
        owner.append(index)
    return tables, owner


def _one_table(tables):
    """The table when all of them are one table by content, else None: tables
    of distinct keys are compared by content, so mixtures over distinct but
    equal boxes still share a table."""
    if not tables or any(not np.array_equal(t, tables[0]) for t in tables[1:]):
        return None
    return tables[0]


def _shared_table(devices, sv_strategy):
    """The one selected-pair table every device reduces to, when the
    vectorized runner is exact for these devices and this source, else None.

    That needs every device to reduce to one shared table (an IidDevice, or a
    mixture of them sharing one hidden label: see _reduced_table) and each
    draw's four bits to see the same position-only bias pattern (period
    dividing 4).  Kept settings are then i.i.d. with the restricted,
    renormalized draw law, and neither they, the draw counts nor the
    selection step can correlate with a device's label or box contents.  Each
    device has its own label, so even k copies of one MixtureDevice act as k
    independent labels."""
    period = getattr(sv_strategy, "period", None)
    if period is None or 4 % period != 0 or (reduced := _reduced_tables(devices)) is None:
        return None
    return _one_table(reduced[0])


def fast_path_applicable(params: ProtocolParams, devices, sv_strategy) -> bool:
    """Whether the vectorized runner is exact for these devices and this
    source (_shared_table)."""
    return _shared_table(devices, sv_strategy) is not None


# Cell 2b + g of each (outcome, kept setting) pair, indexed [x, s]: b is the
# pair's Bell coefficient, g the majority of the first three outcome bits.
_KEPT = np.array(INEQUALITY_INDICES)
_MAJORITY = np.array([majority(*unpack_bits(x)[:3]) for x in range(16)])
_CELL = 2 * BELL_FUNCTIONAL[:, _KEPT].astype(np.int64) + _MAJORITY[:, None]
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
        # one scalar count when every device has the same n: numpy then draws
        # the same negative binomial stream without broadcasting an array
        self.n = params.n[0] if len(set(params.n)) == 1 else np.array(params.n)
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
        k = self.params.k
        m_realized = self.n + rng.negative_binomial(self.n, self.kept_mass, size=(m, k))
        select_p0, weights, first_bits, devices = self._selection
        weighted = np.where(rng.random((m, len(select_p0))) >= select_p0, weights, 0)
        # each device's index is the sum of its weighted bits, in int64
        selection = np.zeros((m, k), dtype=np.int64)
        if devices.size:
            selection[:, devices] = np.add.reduceat(weighted, first_bits, axis=1)
        return TrialRows(
            z_k=z,
            accepted=acc,
            output=output,
            selection=selection,
            m_realized=m_realized,
        )


def _selection_law(params: ProtocolParams, sv_strategy) -> tuple:
    """(P(bit = 0) per selection bit, each bit's weight in its device's index,
    the first bit of each device that has selection bits, those devices) for
    a source whose bias is position-only.  P(0) is that of selection bits
    starting at a multiple of the period, as they do at 4 x (settings drawn)
    when the period divides four; the walk reads only the other three.  A
    device with n_j = 1 has no selection bits and always selects use 0."""
    widths = np.array([size.bit_length() - 1 for size in params.selection_sizes()], dtype=np.int64)
    ends = np.cumsum(widths)
    p0 = bit_probabilities(sv_strategy, int(ends[-1]), params.epsilon)[:, 0]
    # device-major, most significant bit first
    owner = np.repeat(np.arange(len(widths)), widths)
    weights = np.left_shift(np.int64(1), ends[owner] - 1 - np.arange(len(owner)))
    devices = np.flatnonzero(widths)
    return p0, weights, (ends - widths)[devices], devices


@dataclass
class TrialRows:
    """One chunk of protocol runs, one entry (or row of k) per trial."""

    z_k: np.ndarray
    accepted: np.ndarray
    output: np.ndarray  # -1 where the run aborted
    selection: np.ndarray  # (trials, k)
    m_realized: np.ndarray  # (trials, k)


# the setting index of four drawn bits, u^1 on the low bit (pack_bits), and
# whether a setting carries a Bell coefficient
_SETTING_OF_BITS = np.array([1, 2, 4, 8])
_IS_KEPT = np.isin(np.arange(16), _KEPT)


class _WalkSampler:
    """The per-trial protocol walked on the generator's own uniforms, for
    devices that reduce (_reduced_tables) against a source with a period.

    Each use takes four uniforms, bit i being 1 where its uniform is not
    below that source position's P(0), then one outcome uniform; device j
    takes uses until n_j of them carry a Bell coefficient, and after every
    device's uses come the selection bits, device-major and most significant
    first.  Each trial's source starts at position 0.  The test and the
    output read only each device's selected pair, so only the selected use
    maps its outcome uniform to an outcome, through the column cumsum of the
    device's reduced table, as an outcome is drawn from a box (where the
    cumsum is nondecreasing, counting entries <= the scaled uniform is
    searchsorted).  For an IidDevice that table is its box, so the rows are
    those of one protocol run per trial on the same generator; for a mixture
    it is the weight average of its components, the law of its selected
    outcome.
    """

    def __init__(self, params: ProtocolParams, tables, owner, sv_strategy):
        period = sv_strategy.period
        self.p0 = bit_probabilities(sv_strategy, period, params.epsilon)[:, 0]
        # P(0) of a use's four setting bits, by the use's index mod the period
        self.setting_p0 = self.p0[(4 * np.arange(period)[:, None] + np.arange(4)) % period]
        self.params = params
        self.cdf = np.cumsum(np.array(tables), axis=1)
        self.owner = np.array(owner)
        n = np.array(params.n)
        self.ends = np.cumsum(n)  # each device's kept uses end here, in the trial's kept order
        self.starts = self.ends - n
        _, self.weights, self.first_bits, self.devices = _selection_law(params, sv_strategy)
        # P(0) of the selection bits, by their first bit's source position mod the period
        self.select_p0 = self.p0[(np.arange(period)[:, None] + np.arange(len(self.weights))) % period]

    def rows(self, m: int, rng) -> "TrialRows":
        k, period, width = self.params.k, len(self.p0), len(self.weights)
        total = int(self.ends[-1])
        stream, pos, use_p0 = np.empty(0), 0, np.empty((0, 4))

        def uniforms(count: int) -> np.ndarray:
            """The next count uniforms of the generator's stream, from pos."""
            nonlocal stream, pos
            if len(stream) - pos < count:
                stream = np.concatenate([stream[pos:], rng.random(max(count - len(stream) + pos, 1 << 16))])
                pos = 0
            return stream[pos:pos + count]

        selection, m_realized = np.zeros((m, k), dtype=np.int64), np.empty((m, k), dtype=np.int64)
        setting, scaled = np.empty((m, k), dtype=np.intp), np.empty((m, k))
        for trial in range(m):
            uses = 2 * total + 16
            while True:
                if len(use_p0) < uses:
                    use_p0 = self.setting_p0[np.arange(uses) % period]
                u = uniforms(5 * uses).reshape(uses, 5)
                codes = (u[:, :4] >= use_p0[:uses]) @ _SETTING_OF_BITS
                kept = np.flatnonzero(_IS_KEPT[codes])
                if len(kept) >= total:
                    break
                uses *= 2
            last = kept[self.ends - 1]
            m_realized[trial] = np.diff(last, prepend=-1)
            drawn = 5 * (last[-1] + 1)
            if width:
                ones = uniforms(drawn + width)[drawn:] >= self.select_p0[4 * (last[-1] + 1) % period]
                selection[trial, self.devices] = np.add.reduceat(np.where(ones, self.weights, 0), self.first_bits)
            pos += drawn + width
            chosen = kept[self.starts + selection[trial]]
            setting[trial] = codes[chosen]
            scaled[trial] = u[chosen, 4]
        # the outcome uniform times the column's sum, against its cumsum entry by entry
        scaled *= self.cdf[self.owner, -1, setting]
        outcome = np.minimum(sum(self.cdf[self.owner, x, setting] <= scaled for x in range(16)), 15)
        z = BELL_FUNCTIONAL[outcome, setting].sum(axis=1) / k
        accepted = z <= acceptance_threshold(self.params)
        output = np.where(accepted, _MAJORITY[outcome].sum(axis=1) % 2, -1)
        return TrialRows(z_k=z, accepted=accepted, output=output, selection=selection, m_realized=m_realized)

    def counts(self, m: int, seed) -> tuple:
        """(accepted, accepted with output 0) over m trials, chunked and
        seeded like simulate_trials."""
        n_acc = zeros = 0
        for rows in _chunk_rows(self, m, seed):
            n_acc += int(rows.accepted.sum())
            zeros += int(np.sum(rows.output == 0))
        return n_acc, zeros


def _sampler(params: ProtocolParams, devices, sv_strategy):
    """The protocol engine for these k devices: the vectorized sampler where
    fast_path_applicable makes it distribution-exact, the walk otherwise.
    Both need every device to reduce and the source to have a period; a
    ValueError names what is missing."""
    if len(devices) != params.k:
        raise ValueError(f"need {params.k} devices, got {len(devices)}")
    period = getattr(sv_strategy, "period", None)
    if period is None:
        raise ValueError("the protocol engines need a source whose bias depends on bit position "
                         "only: a strategy with a period")
    reduced = _reduced_tables(devices)
    if reduced is None:
        raise ValueError("the protocol engines need devices whose uses are i.i.d. given one hidden "
                         "label: IidDevices, or MixtureDevices over such devices")
    table = _one_table(reduced[0]) if 4 % period == 0 else None
    if table is not None:
        return _IidSampler(params, table, sv_strategy)
    return _WalkSampler(params, *reduced, sv_strategy)


SIMULATE_CHUNK = 256


def _chunks(trials: int, seed):
    """(size, seed) of each chunk of SIMULATE_CHUNK trials, the last possibly
    shorter, as an iterator: each seed is the next child of the seed's
    SeedSequence (an int, None or a SeedSequence), spawned as its chunk is
    reached, which gives the children of one spawn(n).  trials is checked now."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return ((min(SIMULATE_CHUNK, trials - lo), seed.spawn(1)[0]) for lo in range(0, trials, SIMULATE_CHUNK))


def _chunk_rows(sampler, trials: int, seed):
    """sampler.rows of each of _chunks(trials, seed), in trial order, one
    chunk at a time; trials is checked now."""
    return (sampler.rows(size, np.random.default_rng(child)) for size, child in _chunks(trials, seed))


def simulate_trials(params: ProtocolParams, devices, sv_strategy, trials: int, seed=None):
    """Protocol runs of the k devices: an iterator of TrialRows, one per
    chunk of SIMULATE_CHUNK trials (the last may be shorter), in trial order.

    Chunk c draws only from child c of the seed's SeedSequence, so the rows
    depend on the seed alone.  The devices must be IidDevices or mixtures of
    them, and the source must have a period; anything else is a ValueError
    that names what is missing (_sampler).  Each device draws its own label
    in every trial.
    """
    return _chunk_rows(_sampler(params, devices, sv_strategy), trials, seed)


@dataclass(slots=True)
class WilsonInterval:
    successes: int
    count: int
    low: float
    high: float


def wilson_interval(successes: int, count: int) -> WilsonInterval:
    """The 99% Wilson score interval of successes / count."""
    z = WILSON_Z99
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
    enter the distance averages.  Devices and sources that simulate_trials
    refuses are refused here too, with the same ValueError.  The general
    engine (the walk) runs chunks of SIMULATE_CHUNK trials like
    simulate_trials, so its counts equal those of simulate_trials rows at
    that child.  The vectorized engine draws the
    counts as one multinomial from child i, O(k) at any trial count: it
    shares the per-trial law with simulate_trials, not the random stream.

    trials is an integer in [1, 2**53] (bools rejected): numpy's binomial
    sampler computes in doubles, so larger counts would not be exact.
    """
    trials = as_integer(trials, "trials")
    if not 1 <= trials <= 2**53:
        raise ValueError(f"trials {trials} outside [1, 2**53]")
    weights = np.array([w for w, _, _ in adversary], dtype=float)
    # written so that NaN weights fail the comparisons
    if len(weights) == 0 or not (np.min(weights) >= 0 and abs(weights.sum() - 1.0) <= 1e-9):
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
        # rows [p0, 1 - p0] and renormalized weights: distributions by
        # construction, so the unchecked core computes the report
        conds = np.array([[p0, 1.0 - p0] for _, _, p0, _ in estimable])
        w = np.array([w for w, _, _, _ in estimable])
        distances = _distances(conds.reshape(1, -1, 2), (w / w.sum()).reshape(1, -1))
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
