"""Distance of sequential multi-device boxes from product form.

A system of k devices, device j used n_j times, is an exchangeable mixture
of i.i.d. components (ExchangeableMixture), checked exactly by summing over
the type classes of its realized uses; the tensor over all uses is never
built.  The statistic T measures, averaged over source-weighted inputs and
realized pasts, how far the conditional box of the selected uses is from the
product of its per-device marginals (unnormalized 1-norm, maximum 2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .sv import as_integer, bit_probabilities, code_law

MAX_TABLE_ENTRIES = 1 << 24
CHUNK_ENTRIES = 1 << 18


def _pinsker_batch(joints: np.ndarray):
    """(lhs, rhs, I) arrays for a batch of joints of shape (A, B, batch),
    one joint per last index: lhs = ||p_AB - p_A x p_B||_1, I = I(A:B) in
    bits clamped at 0, and rhs = sqrt(2 ln2 I).  Every joint must be a
    normalized distribution.  With the batch last, every sum below runs
    along it, not over the joint's few entries per batch index."""
    if joints.ndim != 3:
        raise ValueError("joint must be a 2-D table")
    if np.min(joints) < -1e-12:
        raise ValueError("joint has negative entries")
    p_a = joints.sum(axis=1)
    totals = p_a.sum(axis=0)
    off = np.abs(totals - 1.0)
    if np.max(off) > 1e-9:
        raise ValueError(f"joint sums to {totals[np.argmax(off)]}, not 1")
    prod = p_a[:, np.newaxis] * joints.sum(axis=0)
    lhs = np.abs(joints - prod).sum(axis=(0, 1))
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
    mi = np.maximum(terms.sum(axis=(0, 1)), 0.0) / math.log(2.0)
    return lhs, np.sqrt(2.0 * math.log(2.0) * mi), mi


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


class ExchangeableMixture:
    """k devices, device j used n_j times, where one hidden label c, drawn
    once with weight w_c, makes every use an independent copy of the
    component box q_c[x, u]: the system sum_c w_c q_c^(x N) over all N uses.

    Each component is checked once (_component_table), so the system is valid
    by construction.  It is kept as its components, and definetti_check
    sums it over type classes (_TypeSums).
    """

    def __init__(self, n, components, weights, tol=1e-9):
        self.n = tuple(as_integer(v, "n") for v in n)
        if not self.n or any(v < 1 for v in self.n):
            raise ValueError("need at least one use per device")
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(weights) != len(components) or len(components) == 0:
            raise ValueError("need one weight per component")
        # written so that NaN weights fail the comparisons
        if not (np.min(weights) >= 0 and abs(weights.sum() - 1.0) <= 1e-12):
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


def sv_selection_distribution(strategy, epsilon: float, n) -> dict:
    """Exact source distribution over selections; device j consumes log2 of
    the largest power of two <= n_j bits, big-endian, devices in order — the
    same truncated index draw the protocol uses, so positions beyond the
    addressable prefix carry zero weight.  Needs a strategy whose bias
    depends on position only, one that declares a `period`, since the
    selection bits follow the setting bits in a real transcript."""
    n = [as_integer(n_j, "n") for n_j in n]
    if any(n_j < 1 for n_j in n):
        raise ValueError("use counts must be positive")
    widths = [n_j.bit_length() - 1 for n_j in n]
    law = code_law(bit_probabilities(strategy, sum(widths), epsilon)).reshape([1 << w for w in widths])
    return {tuple(a + 1 for a in sel): p for sel, p in zip(np.ndindex(law.shape), law.ravel().tolist())}


def _check_schedule(epsilon: float, k: int, t: float, k_exponent: int) -> None:
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 1/2)")
    if k < 1 or not t > 0:  # false for NaN too
        raise ValueError("need k >= 1 and t > 0")
    if k_exponent not in (2, 3):
        raise ValueError("k_exponent must be 2 or 3")


def _shrink(epsilon: float) -> float:
    """1 - log2(1 + 2 eps), the exponent of n_i in the block recursion."""
    return 1.0 - math.log2(1.0 + 2.0 * epsilon)


def log2_block_sizes(epsilon: float, k: int, t: float, k_exponent: int = 2):
    """log2 of the recursion n_i^(1 - log2(1+2eps)) = 8 ln2 k^e t^3 n_{i-1}.

    Every level is at least 0, one use, as in block_sizes.  A level depends
    only on the one before it, so the list stops at its first infinite level
    or its first level equal to the one before it: every later level is that
    level too.  It has k entries unless it stopped early."""
    _check_schedule(epsilon, k, t, k_exponent)
    shrink = _shrink(epsilon)
    product = 8.0 * math.log(2.0) * (float(k) ** k_exponent) * float(t) ** 3
    factor = math.log2(product) if product > 0.0 else -math.inf  # t^3 may underflow
    logs = [0.0]
    while len(logs) < k and not math.isinf(logs[-1]):
        logs.append(max(0.0, (factor + logs[-1]) / shrink))
        if logs[-1] == logs[-2]:
            break
    return logs


def block_sizes(epsilon: float, k: int, t: float, k_exponent: int = 2):
    """Integer block sizes from the recursion, each level ceiled before reuse
    and at least 1, as n_1 is: a tiny t puts the recursion's level near 0
    uses, which would ceil to 0.  A level depends only on the one before it,
    so the list stops at its first level equal to the one before it: every
    later level is that level too.  It has k entries unless it stopped early.

    Raises OverflowError when a level exceeds 2^62; use log2_block_sizes to
    inspect such schedules.
    """
    _check_schedule(epsilon, k, t, k_exponent)
    shrink = _shrink(epsilon)
    factor = 8.0 * math.log(2.0) * (float(k) ** k_exponent) * float(t) ** 3
    sizes = [1]
    while len(sizes) < k:
        raw = (factor * sizes[-1]) ** (1.0 / shrink)
        if raw > 2.0**62:
            raise OverflowError("block size exceeds 2^62; see log2_block_sizes")
        sizes.append(max(1, math.ceil(raw - 1e-9)))
        if sizes[-1] == sizes[-2]:
            break
    return sizes


@dataclass
class DeFinettiRhs:
    threshold: float
    probability_bound: float


def definetti_rhs(n, t, epsilon: float, sigma_size: int) -> DeFinettiRhs:
    """Threshold and failure probability for the selection-averaged T bound.

    n: per-device use counts; t: one parameter per level 2..k.  The threshold
    follows the substituted form of the concentration bound, summed over the
    levels.  The alphabet enters through log2(sigma_size); the four-party
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
    shrink = _shrink(epsilon)
    coeff = 2.0 * math.log(2.0) * log_sigma
    per_level = [
        math.sqrt(coeff * t_i**2 * sum(n[: i - 1]) / n[i - 1] ** shrink) for i, t_i in enumerate(t, start=2)
    ]
    return DeFinettiRhs(
        threshold=float(sum(per_level)),
        probability_bound=float(sum(1.0 / v for v in t)),
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
    # the past types the type sum visited, and in how many chunks.  Not
    # part of to_json.
    types: int = 0
    chunks: int = 0

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


def _type_count(m: int, parts: int) -> int:
    return math.comb(m + parts - 1, parts - 1)


def _grow(table: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """table with each row repeated once for every value 0..upper[row] of a
    new last column, in increasing order."""
    reps = upper + 1
    ends = np.cumsum(reps)
    value = np.arange(ends[-1]) - np.repeat(ends - reps, reps)
    return np.column_stack((np.repeat(table, reps, axis=0), value))


def _colex_rank(prefix: np.ndarray) -> np.ndarray:
    """Rank of each type among the types of every size, by size and then in
    colex order of its stars-and-bars bar positions (the order _type_table
    splits in), from its partial sums Q_j = n_0 + .. + n_j: sum_j
    C(Q_j + j, j + 1).  The last term counts the types of fewer uses, so
    without the last partial sum this is the rank within the type's size."""
    rank = np.zeros(prefix.shape[:-1], dtype=np.int64)
    for j in range(prefix.shape[-1]):
        binom = 1
        for i in range(j + 1):
            binom = binom * (prefix[..., j] + j - i) // (i + 1)
        rank = rank + binom
    return rank


def _type_table(inputs: np.ndarray, S: int) -> tuple:
    """(counts, group): every type of (output, input) pairs whose input counts
    are a row of inputs, grouped by that row (group is its index) and within
    a group in colex order of each input's split into S output counts, input
    0 most significant.  counts[:, u S + x] is N[x, u].  With one input, the
    splits of each size into S parts: the types of every size in rank order
    (_colex_rank)."""
    I, L = inputs.shape
    # columns: group, n_0..n_{L-1}, 0, then the partial output sums as grown
    table = np.column_stack((np.arange(I), inputs, np.zeros(I, dtype=inputs.dtype)))
    bounds = []
    for u in range(L):
        cols = [1 + u]
        for _ in range(S - 1):
            table = _grow(table, table[:, cols[-1]])
            cols.append(table.shape[1] - 1)
        bounds.append([L + 1] + cols[::-1])
    counts = np.diff(table[:, bounds], axis=2).reshape(len(table), L * S)
    return counts, table[:, 0]


def _outer_uses(laws: np.ndarray, k: int) -> np.ndarray:
    """Every product of k rows of laws[c, u, x], one per use, each use
    independent: row (c_1..c_k), c_1 most significant, holds the product for
    every (u_1..u_k, x_1..x_k), flattened with u_1 most significant and the
    outputs last, so that a sum over outputs runs over contiguous entries."""
    C, L, S = laws.shape
    out = laws
    for _ in range(1, k):
        out = out[:, np.newaxis, :, np.newaxis, :, np.newaxis] * laws[np.newaxis, :, np.newaxis, :, np.newaxis, :]
        out = out.reshape(len(out) * C, out.shape[2] * L, out.shape[4] * S)
    return out.reshape(len(out), -1)


@dataclass
class _TypeClasses:
    """The types of m0..m1 uses, grouped by input counts (_type_table): one
    group per input type, the groups in rank order (_colex_rank)."""

    starts: np.ndarray  # (input types,): first row of each group
    log_lik: np.ndarray  # (types, components): log prod q_c[x, u]^N[x, u]
    log_mult: np.ndarray  # (types,): log prod_u n_u! / prod_x N[x, u]!


@dataclass
class _Conditionals:
    """lambda_c = w_c prod q_c^N of every type at lambda / max lambda.  A
    type no label explains is not live: its scale is -inf and its lam a row
    of ones, so every sum gives it weight 0 without a 0/0."""

    types: _TypeClasses
    live: np.ndarray  # (types,) bool
    log_scale: np.ndarray  # (types,): log max_c lambda_c
    lam: np.ndarray  # (types, components)


class _TypeSums:
    """T, its levels and the Pinsker slack of an ExchangeableMixture, summed
    over type classes instead of use sequences.

    The type of a set of uses counts its (output, input) pairs, N[x, u]
    (stored with the pair (u, x) at u S + x, inputs major).
    Given label c, the uses have likelihood prod q_c[x, u]^N[x, u], so the
    conditional box of every other use depends on them only through
    lambda_c(N) = w_c prod q_c^N.  Under a position-only source the inputs
    are independent with law p_g(u) at use g, and a type's source weight
    W(N), the sum of prod_g p_g(u_g) over the (x, u) sequences of type N, is
    V(n) prod_u n_u! / prod_x N[x, u]!: V(n) the law of the input counts n,
    one DP over the uses on input types only, and the multinomial counts the
    ways to place the outputs.  Each gap is homogeneous of degree 1 in
    lambda, so it is evaluated at lambda / max lambda and rescaled in log
    form: a conditional that some label explains is never lost to underflow.

    The types of every past size 0..M are swept once, in chunks of
    consecutive sizes (_chunks); a size whose arrays alone exceed `budget`
    entries is refused.  Each chunk's weighted gaps are summed per input
    type, so T and each level are then a dot product of V with one segment
    of those sums.
    """

    def __init__(self, mix: ExchangeableMixture, strategy, epsilon: float, pinsker: bool = False,
                 budget: int = MAX_TABLE_ENTRIES):
        S, L, k, N = mix.num_outputs, mix.num_inputs, mix.k, mix.total_uses
        bits = (L - 1).bit_length()
        if 2**bits != L:
            raise ValueError("input alphabet must be a power of two")
        if pinsker and k != 2:
            raise ValueError("pairwise Pinsker sweep needs exactly two devices")
        K, C = S * L, len(mix.weights)
        pasts = [2 ** (n_j.bit_length() - 1) - 1 for n_j in mix.n]
        blocks = [sum(mix.n[:i]) for i in range(1, k)]
        # level i sums the pasts of devices >= i against the types of its block
        self._level_tops = [sum(pasts[i:]) for i in range(1, k)]
        level_rows = [_type_count(b, K) * max(K, C) for b in blocks]
        self.chunks = _chunks(sum(pasts), K, max(K, C) ** k, list(zip(self._level_tops, level_rows)), budget)
        self.mix = mix
        # the input of use g is the big-endian code of source bits g bits .. (g + 1) bits - 1
        self.input_law = code_law(bit_probabilities(strategy, N * bits, epsilon).reshape(N, bits, 2))
        laws = mix.tables.transpose(0, 2, 1)  # [c, u, x]
        self.q = laws.reshape(C, K)
        tuples = _outer_uses(laws, k)
        q_k = tuples[[c * sum(C**j for j in range(k)) for c in range(C)]]  # the k selected uses given c
        if pinsker:  # q_k as (x_1, x_2, u_1, u_2) rows by components
            self._pairs = q_k.reshape(C, L, L, S, S).transpose(3, 4, 1, 2, 0).reshape(-1, C)
        # t - prod_j m_j / r^(k-1), in the notation of _sum_chunk, is the sum
        # over label tuples of lam_c1 post_c2..post_ck (q_c1^k - q_c1 x .. x q_ck)
        self.d_k = np.repeat(q_k, C ** (k - 1), axis=0) - tuples
        # log q, with 0 for log 0: a type that uses a pair of probability 0
        # under a component is marked impossible for it through zero_q
        self.log_q = np.log(np.where(self.q > 0.0, self.q, 1.0)).T
        self.zero_q = (self.q == 0.0).T.astype(float)
        with np.errstate(divide="ignore"):
            self.log_w = np.log(mix.weights)
        top = max([sum(pasts)] + blocks)
        self._log_fact = np.array([math.lgamma(v + 1.0) for v in range(top + 1)])
        self.inputs = _type_table(np.arange(top + 1)[:, np.newaxis], L)[0]
        self._input_start = [math.comb(m + L - 1, L) for m in range(top + 2)]
        grid = list(itertools.product(*(range(p + 1) for p in pasts)))
        block_keys = [mix.n[:i] + (0,) * (k - i) for i in range(1, k)]
        self._weights = self._input_weights(grid + block_keys)

        # per input type of the pasts: the weighted T gap at every input tuple
        # of the selected uses, each level's weighted gap at the selected
        # use's input, and per size the worst Pinsker slack
        self._t_sums = np.zeros((L**k, self._input_start[sum(pasts) + 1]))
        self._level_sums = [np.zeros((L, self._input_start[top_i + 1])) for top_i in self._level_tops]
        self._slack = {}
        self.types = 0
        blocks = [self._block_factors(key) for key in block_keys]
        for m0, m1 in self.chunks:
            self._sum_chunk(m0, m1, blocks, pinsker)

    def _input_weights(self, keys) -> dict:
        """V for each key and every key on its way from no uses: a key's uses
        are its parent's plus the last use of its last device with any.  One
        bincount adds that use to every key of the size below."""
        layers = {}
        seen = set()
        for key in keys:
            while any(key) and key not in seen:
                seen.add(key)
                j = max(i for i, c in enumerate(key) if c)
                parent = key[:j] + (key[j] - 1,) + key[j + 1:]
                layers.setdefault(sum(key), []).append((key, parent, self.mix.offsets[j] + key[j] - 1))
                key = parent
        L, start = self.mix.num_inputs, self._input_start
        # [t, u]: the rank of input type t plus one use of input u among the
        # input types of one more use
        prefix = np.cumsum(self.inputs, axis=1)[:, np.newaxis, :] + (np.arange(L) >= np.arange(L)[:, np.newaxis])
        successors = _colex_rank(prefix[:, :, :-1])
        weights = {(0,) * self.mix.k: np.ones(1)}
        rows_of, added = {(0,) * self.mix.k: 0}, np.ones((1, 1))
        for m in sorted(layers):
            entries = layers[m]
            rows, width = len(entries), start[m + 1] - start[m]
            target = successors[start[m - 1]:start[m]] + np.arange(0, rows * width, width)[:, np.newaxis, np.newaxis]
            parents = added[[rows_of[parent] for _, parent, _ in entries]]
            laws = self.input_law[[use for _, _, use in entries]]
            added = np.bincount(target.ravel(), (parents[:, :, np.newaxis] * laws[:, np.newaxis, :]).ravel(),
                                rows * width).reshape(rows, width)
            rows_of = {}
            for row, (key, _, _) in enumerate(entries):
                weights[key], rows_of[key] = added[row], row
        return weights

    def _types_of(self, m0: int, m1: int | None = None) -> _TypeClasses:
        m1 = m0 if m1 is None else m1
        inputs = self.inputs[self._input_start[m0]:self._input_start[m1 + 1]]
        counts, group = _type_table(inputs, self.mix.num_outputs)
        n = counts.astype(float)
        log_lik = np.where(n @ self.zero_q > 0, -np.inf, n @ self.log_q)
        log_mult = (self._log_fact[inputs] @ np.ones(inputs.shape[1]))[group]
        log_mult -= self._log_fact[counts] @ np.ones(counts.shape[1])
        return _TypeClasses(np.searchsorted(group, np.arange(len(inputs))), log_lik, log_mult)

    def _given(self, m0: int, m1: int | None = None) -> _Conditionals:
        types = self._types_of(m0, m1)
        log_lam = types.log_lik + self.log_w
        # max over components one column at a time: a reduction over an axis
        # of a few entries runs a short inner loop per type
        log_scale = log_lam[:, 0].copy()
        for c in range(1, log_lam.shape[1]):
            np.maximum(log_scale, log_lam[:, c], out=log_scale)
        live = log_scale > -np.inf
        lam = np.exp(log_lam - np.where(live, log_scale, 0.0)[:, np.newaxis])
        if not live.all():
            lam[~live] = 1.0
        return _Conditionals(types, live, log_scale, lam)

    def _block_factors(self, key) -> np.ndarray:
        """(block types, components): the block's source weight W times
        prod q_c^N of each type of the block's uses."""
        types = self._types_of(sum(key))
        sizes = np.diff(np.append(types.starts, len(types.log_mult)))
        weight = np.repeat(self._weights[key], sizes)
        return weight[:, np.newaxis] * np.exp(types.log_lik + types.log_mult[:, np.newaxis])

    def _sum_chunk(self, m0: int, m1: int, blocks, pinsker: bool):
        """Adds the types of m0..m1 uses to the per-input-type sums.  Arrays
        run types last, so every elementwise op and sum runs along them."""
        mix = self.mix
        S, L, k = mix.num_outputs, mix.num_inputs, mix.k
        given = self._given(m0, m1)
        types, lam = given.types, np.ascontiguousarray(given.lam.T)
        rows = lam.shape[1]
        self.types += rows
        base = self._input_start[m0]
        # first input type and first row of every size m0..m1 + 1
        firsts = [self._input_start[m] - base for m in range(m0, m1 + 2)]
        first_rows = np.append(types.starts, rows)[firsts]
        # the type's share of the pasts' source weight, up to V: W e^scale / V
        weight = np.exp(types.log_mult + given.log_scale)
        # sum_x |t - prod_j m_j / r^(k-1)| for every input tuple of the
        # selected uses: t their joint, m_j use j's marginal, r = sum lam,
        # from the monomials lam_c1 post_c2..post_ck, post = lam / r
        post = lam / lam.sum(axis=0)
        mono = lam
        for _ in range(1, k):
            mono = (mono[:, np.newaxis] * post).reshape(-1, rows)
        gaps = self.d_k.T @ mono
        gaps = np.abs(gaps, out=gaps).reshape(L**k, S**k, rows).sum(axis=1)
        gaps *= weight
        self._t_sums[:, base:base + len(types.starts)] = np.add.reduceat(gaps, types.starts, axis=1)
        if pinsker:
            # one joint of the selected outputs per input pair and type
            cells = (self._pairs @ lam).reshape(S, S, -1)
            cells /= cells.sum(axis=(0, 1))
            lhs, rhs, _ = _pinsker_batch(cells)
            worst = np.where(given.live, (lhs - rhs).reshape(L * L, rows).max(axis=0), -np.inf)
            for m, value in zip(range(m0, m1 + 1), np.maximum.reduceat(worst, first_rows[:-1])):
                self._slack[m] = float(value)
        # level i: the joint of device i's selected use with the block of
        # devices < i, at nu = lam prod q^N_block over block types, against
        # the block marginal times the use's marginal given the pasts alone:
        # nu q - (sum nu) post q = sum_c F_c lam_c (q_c - post q), F the
        # block factors (_block_factors)
        if self._level_tops and m0 <= self._level_tops[0]:
            spread = lam[:, np.newaxis] * (self.q[:, :, np.newaxis] - self.q.T @ post)
        for top_i, factors, sums in zip(self._level_tops, blocks, self._level_sums):
            if m0 > top_i:
                continue
            groups = firsts[min(m1, top_i) + 1 - m0]
            r = first_rows[min(m1, top_i) + 1 - m0]
            gap = factors @ spread[:, :, :r].reshape(len(spread), -1)
            gap = (np.ones(len(factors)) @ np.abs(gap, out=gap)).reshape(L, S, r).sum(axis=1)
            gap *= weight[:r]
            sums[:, base:base + groups] = np.add.reduceat(gap, types.starts[:groups], axis=1)

    def total(self, selection) -> float:
        """T = sum over the pasts' types of W e^scale sum_u p(u) gap(u), p
        the product of the selected uses' input laws."""
        key = tuple(a - 1 for a in selection)
        m = sum(key)
        p = np.ones(1)
        for j, a in enumerate(selection):
            p = np.multiply.outer(p, self.input_law[self.mix.offsets[j] + a - 1]).ravel()
        segment = self._t_sums[:, self._input_start[m]:self._input_start[m + 1]]
        return float(p @ segment @ self._weights[key])

    def level(self, suffix) -> float:
        """Level i = k - len(suffix), a sum over type pairs of the pasts of
        devices >= i (lambda) and the block of all uses of devices < i."""
        mix = self.mix
        i = mix.k - len(suffix)
        cond = (0,) * i + tuple(a - 1 for a in suffix)
        m = sum(cond)
        segment = self._level_sums[i - 1][:, self._input_start[m]:self._input_start[m + 1]]
        return float(self.input_law[mix.offsets[i] + suffix[0] - 1] @ segment @ self._weights[cond])

    def pinsker_slack(self, selection) -> float:
        """Worst lhs - rhs of the Pinsker pair over the normalized joints of
        the two selected outputs, per live type of the pasts and input pair."""
        return self._slack[sum(selection) - 2]


def _chunks(max_past: int, K: int, t_row: int, level_rows, budget: int) -> list:
    """(m0, m1) ranges of consecutive past sizes 0..max_past, each holding
    about CHUNK_ENTRIES entries per array (a few MB, so that the sweep's
    working set stays small) and never more than budget.  A type of m uses
    spans t_row = max(K, C)^k entries for T and the Pinsker sweep, and block
    types x max(K, C) for each level whose pasts reach m.  A size whose
    arrays exceed budget alone is refused."""
    chunks = []
    target = min(budget, CHUNK_ENTRIES)
    used = target
    for m in range(max_past + 1):
        size = _type_count(m, K) * max([t_row] + [row for top, row in level_rows if m <= top])
        if size > budget:
            raise ValueError("system too large for exact enumeration; shrink n or alphabets")
        if used + size > target:
            chunks.append([m, m])
            used = 0
        chunks[-1][1] = m
        used += size
    return [tuple(c) for c in chunks]


def _report(system, epsilon: float, t_levels, sigma_size: int | None) -> DeFinettiReport:
    """A report with no selections yet; t_levels and sigma_size are checked
    here, before anything is summed."""
    sigma = system.num_outputs if sigma_size is None else int(sigma_size)
    rhs = definetti_rhs(system.n, t_levels, epsilon, sigma)
    return DeFinettiReport(
        n=system.n,
        epsilon=epsilon,
        sigma_size=sigma,
        t_levels=tuple(float(v) for v in t_levels),
        threshold=rhs.threshold,
        probability_bound=rhs.probability_bound,
    )


def _sweep(report: DeFinettiReport, sums, strategy, pinsker: bool) -> DeFinettiReport:
    """Sweep every selection, weight it by the source, and compare T against
    the threshold.  sums gives T (total), each level by selection suffix
    (level) and the Pinsker slack (pinsker_slack) of one selection."""
    weights = sv_selection_distribution(strategy, report.epsilon, report.n)
    exceed = 0.0
    level_by_suffix = {}
    for sel, w in sorted(weights.items()):
        t_val = sums.total(sel)
        levels = []
        for i in range(1, len(report.n)):
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
        if t_val >= report.threshold:
            exceed += w
        if pinsker:
            slack = sums.pinsker_slack(sel)
            report.pinsker_worst_slack = max(report.pinsker_worst_slack, slack)
    report.weighted_exceed_fraction = exceed
    return report


def definetti_check(system: ExchangeableMixture, strategy, epsilon: float, t_levels,
                    sigma_size: int | None = None, pinsker: bool = False) -> DeFinettiReport:
    """Sweep every selection of an exchangeable mixture, weight it by the
    source, and compare T against the concentration threshold.  T, its
    levels and the Pinsker slack are summed over type classes (_TypeSums),
    which needs a source whose bias depends on position only."""
    if not isinstance(system, ExchangeableMixture):
        raise TypeError(f"definetti_check needs an ExchangeableMixture, not {type(system).__name__}")
    report = _report(system, epsilon, t_levels, sigma_size)
    sums = _TypeSums(system, strategy, epsilon, pinsker)
    report.types, report.chunks = sums.types, len(sums.chunks)
    return _sweep(report, sums, strategy, pinsker)
