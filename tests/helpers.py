"""Reference helpers that only the tests use: a parameter check for
Santha-Vazirani sources, the source drawn one bit at a time into a
transcript, the exact law of any source strategy by a walk over
its history tree (with a source of every built-in strategy class and a
position shift, to check the library's position-only laws against it), a
kept-setting sampler, a transcript replay audit, a no-signaling checker for
tables of any number of binary parties, the joint table of independent
boxes, the exhaustive XOR oracle of criterion 4, the mutual information of
a 2-D joint and the Pinsker pair of one, the all-inequality form of the
guessing LP, its equality system built row by row, the dense check of a
symmetry map and the four-party no-signaling check one party at a time (the
oracles of lp.equality_constraints, lp.check_symmetry_map and
boxes.no_signaling_violations), the goodness oracle and supermartingale over
a run's selected conditional boxes, the checked distance from uniform (the
reference for the audit's unchecked protocol._distances), the
density-matrix Born rule over product measurement vectors (and those vectors
as one einsum), trials.csv written row by row, the per-trial protocol run
(run_protocol, one source bit and one outcome at a time against devices
that answer a box per history, with MixtureDevice posteriors: the oracle of
the library's engines), a device that plays a fixed schedule of boxes, and
a device's likelihood of a history and the device conditioned on it.  The
dense de Finetti oracle is in dense_definetti."""

from __future__ import annotations

import csv
import io
import math
import weakref
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from randamp.boxes import (
    BELL_FUNCTIONAL,
    DEFAULT_TOL,
    N_OUTCOMES,
    N_SETTINGS,
    NsBox,
    as_table,
    bell_value,
    bits_str,
    box_tensor,
    in_inequality,
    majority,
    pack_bits,
    unpack_bits,
)
from randamp.definetti import _pinsker_batch
from randamp.devices import IidDevice, MixtureDevice
from randamp.lp import (
    N_VARS,
    CertificationError,
    LpInstance,
    _inequality_rhs,
    bell_row,
    equality_constraints,
    var_index,
)
from randamp.protocol import DistanceReport, ProtocolParams, TrialRows, _distances, acceptance_threshold
from randamp.quantum import NoiseSpec, rotate_bases, validate_bases, validate_state
from randamp.sv import (
    ConstantBias,
    GreedyTowardString,
    HonestBits,
    SettingSteering,
    StrategyViolationError,
)


@dataclass
class SvParams:
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in [0, 1/2), got {self.epsilon}")


@dataclass
class SvTranscript:
    """Record of emitted bits and the biases in force when each was drawn."""

    epsilon: float
    bits: list = field(default_factory=list)
    biases: list = field(default_factory=list)

    def __len__(self):
        return len(self.bits)


def next_bit(strategy, transcript: SvTranscript, rng: np.random.Generator) -> int:
    b = float(strategy.bias(transcript.bits))
    if not abs(b) <= transcript.epsilon:  # false for NaN too
        raise StrategyViolationError(
            f"bias {b} exceeds epsilon {transcript.epsilon} at position {len(transcript.bits)}"
        )
    bit = 0 if rng.random() < 0.5 + b else 1
    transcript.bits.append(bit)
    transcript.biases.append(b)
    return bit


def draw_bits(strategy, transcript: SvTranscript, n: int, rng: np.random.Generator):
    return tuple(next_bit(strategy, transcript, rng) for _ in range(n))


def draw_setting(strategy, transcript: SvTranscript, rng: np.random.Generator):
    """Four source bits in order become (u^1, u^2, u^3, u^4)."""
    return draw_bits(strategy, transcript, 4, rng)


def draw_index(strategy, transcript: SvTranscript, n: int, rng: np.random.Generator) -> int:
    """Choose an index in [0, n) from log2(n) source bits, first bit most significant."""
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"index range must be a power of two, got {n}")
    width = n.bit_length() - 1
    index = 0
    for _ in range(width):
        index = (index << 1) | next_bit(strategy, transcript, rng)
    return index


def exact_bitstring_distribution(strategy, length: int, epsilon: float) -> np.ndarray:
    """Probability of every length-bit string under the strategy, exactly.

    Walks the full history tree, so the rule may depend on the past in any way.
    Index packs the first bit as most significant, matching draw_index.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    probs = np.zeros(2**length)

    def walk(history, p):
        if len(history) == length:
            idx = 0
            for b in history:
                idx = (idx << 1) | b
            probs[idx] = p
            return
        b = float(strategy.bias(history))
        if abs(b) > epsilon:
            raise StrategyViolationError(f"bias {b} outside interval at {history}")
        walk(history + [0], p * (0.5 + b))
        walk(history + [1], p * (0.5 - b))

    walk([], 1.0)
    return probs


def builtin_strategies(epsilon: float) -> list:
    """One source of every built-in strategy class at epsilon, with periods
    1, 2, 3 and 4 among them."""
    return [HonestBits(), ConstantBias(epsilon), ConstantBias(-epsilon),
            GreedyTowardString((1, 0), epsilon), GreedyTowardString((0, 1, 1), epsilon),
            SettingSteering((0, 1, 1, 0), epsilon)]


class Shifted:
    """A strategy as seen from bit position `offset` on: the walk of its next
    bits is their exact marginal when its bias depends on position only."""

    def __init__(self, strategy, offset: int):
        self.strategy, self.offset = strategy, offset

    def bias(self, history) -> float:
        return self.strategy.bias([0] * self.offset + list(history))


def draw_kept_setting(strategy, transcript: SvTranscript, rng: np.random.Generator, max_draws: int = 10**6):
    """Draw settings until one carries a Bell coefficient; returns (setting, draws used)."""
    for attempt in range(1, max_draws + 1):
        u = draw_setting(strategy, transcript, rng)
        if in_inequality(u):
            return u, attempt
    raise RuntimeError(f"no inequality setting after {max_draws} draws")


def replay_transcript(strategy, transcript: SvTranscript) -> None:
    """Recompute every recorded bias from the recorded history; raises on mismatch
    or on any bias outside the source interval."""
    for i, (bit, recorded) in enumerate(zip(transcript.bits, transcript.biases)):
        b = float(strategy.bias(transcript.bits[:i]))
        if abs(b) > transcript.epsilon:
            raise StrategyViolationError(f"bias {b} outside interval at position {i}")
        if abs(b - recorded) > 1e-12:
            raise StrategyViolationError(
                f"recorded bias {recorded} at position {i} does not replay ({b})"
            )
        if bit not in (0, 1):
            raise StrategyViolationError(f"non-bit {bit} at position {i}")


def ns_max_violation(table: np.ndarray, n_parties: int, tol_norm: float = DEFAULT_TOL) -> float:
    """Largest no-signaling defect of a 2^n x 2^n binary-party table.

    Bit b of either index is party b+1's bit.  Returns the max over parties of
    the marginal shift when one party flips its input; normalization and
    positivity failures beyond tol_norm count as infinite.
    """
    table = np.asarray(table, dtype=float)
    d = 2**n_parties
    if table.shape != (d, d):
        raise ValueError(f"expected shape {(d, d)}")
    if np.min(table) < -tol_norm or np.max(np.abs(table.sum(axis=0) - 1.0)) > tol_norm:
        return np.inf
    t = table.reshape((2,) * (2 * n_parties))
    # Axis p is party (n_parties - p)'s outcome bit; mirror for settings.
    worst = 0.0
    for party in range(n_parties):
        out_axis = n_parties - 1 - party
        set_axis = 2 * n_parties - 1 - party
        marg = t.sum(axis=out_axis)
        shift = np.take(marg, 0, axis=set_axis - 1) - np.take(marg, 1, axis=set_axis - 1)
        worst = max(worst, float(np.max(np.abs(shift))))
    return worst


def is_no_signaling_parties(table: np.ndarray, n_parties: int, tol: float = DEFAULT_TOL) -> bool:
    return ns_max_violation(table, n_parties, tol) <= tol


def product_box(boxes) -> np.ndarray:
    """Joint table of independent boxes; device 1 takes the most significant
    index digits.  The result is a (16^k, 16^k) conditional table."""
    tables = [as_table(b) for b in boxes]
    if not tables:
        raise ValueError("product_box needs at least one box")
    for t in tables:
        if t.shape != (16, 16):
            raise ValueError("every factor must be a (16, 16) table")
    return reduce(np.kron, tables)


def xor_distribution_exact(biases, signs=None) -> float:
    """P(XOR = 0) by exhaustive enumeration; bit i is 0 w.p. 1/2 + s_i b_i."""
    b = [float(v) for v in biases]
    s = [1.0] * len(b) if signs is None else [float(v) for v in signs]
    if len(s) != len(b):
        raise ValueError("one sign per bias")
    p0 = 0.0
    for code in range(1 << len(b)):
        p = 1.0
        parity = 0
        for i, (bi, si) in enumerate(zip(b, s)):
            bit = (code >> i) & 1
            p *= 0.5 + si * bi if bit == 0 else 0.5 - si * bi
            parity ^= bit
        if parity == 0:
            p0 += p
    return p0


def mutual_information(joint: np.ndarray) -> float:
    """I(A:B) in bits for a normalized 2-D joint distribution, clamped at 0."""
    joint = np.asarray(joint, dtype=float)
    return float(_pinsker_batch(joint[..., np.newaxis])[2][0])


def pinsker_gap(joint: np.ndarray):
    """(lhs, rhs) of ||p_AB - p_A x p_B||_1 <= sqrt(2 ln2 I(A:B)) for one
    normalized 2-D joint: the per-joint reference for the batched sweep."""
    joint = np.asarray(joint, dtype=float)
    lhs, rhs, _ = _pinsker_batch(joint[..., np.newaxis])
    return float(lhs[0]), float(rhs[0])


def inequality_constraints(delta: float):
    """All-inequality form A x <= c of the guessing LP: the equalities in both
    directions, positivity and the Bell cap; the dual certificates live over
    these rows."""
    A_eq, _ = equality_constraints()
    A = np.vstack([A_eq, -A_eq, -np.eye(N_VARS), bell_row()[None, :]])
    return A, _inequality_rhs(delta)


def loop_equality_constraints():
    """The equality system of the guessing LP built one row at a time: the
    oracle for lp.equality_constraints."""
    rows = []
    b = []
    for u in range(N_SETTINGS):
        row = np.zeros(N_VARS)
        for x in range(N_OUTCOMES):
            row[var_index(x, u)] = 1.0
        rows.append(row)
        b.append(1.0)
    for party in range(4):
        others = [i for i in range(4) if i != party]
        for other_setting in range(8):
            for other_outcome in range(8):
                row = np.zeros(N_VARS)
                u_bits = [0] * 4
                x_bits = [0] * 4
                for pos, i in enumerate(others):
                    u_bits[i] = (other_setting >> pos) & 1
                    x_bits[i] = (other_outcome >> pos) & 1
                for xi in (0, 1):
                    x_bits[party] = xi
                    x = pack_bits(x_bits)
                    u_bits[party] = 0
                    row[var_index(x, pack_bits(u_bits))] += 1.0
                    u_bits[party] = 1
                    row[var_index(x, pack_bits(u_bits))] -= 1.0
                rows.append(row)
                b.append(0.0)
    return np.array(rows), np.array(b)


def clear_lp_caches():
    """Clear every lru_cache that randamp.lp defines, found by introspection."""
    import randamp.lp as lp

    for value in vars(lp).values():
        if callable(getattr(value, "cache_clear", None)) and getattr(value, "__module__", None) == lp.__name__:
            value.cache_clear()


@lru_cache(maxsize=1)
def _dense_integer_rows():
    A_eq, b_eq = loop_equality_constraints()
    A_int, b_int = A_eq.astype(np.int8), b_eq.astype(np.int8)
    A = np.vstack([A_int, -A_int, -np.eye(N_VARS, dtype=np.int8), bell_row().astype(np.int8)[None, :]])
    c = np.concatenate([b_int, -b_int, np.zeros(N_VARS + 1, dtype=np.int8)])
    return A, c


def dense_check_symmetry_map(smap, source, target):
    """lp.check_symmetry_map with the row map checked on the whole integer
    matrix, A[R][:, P] == A, over the loop-built system: its oracle.
    Returns (P, R) or raises CertificationError with the same messages."""
    A, c = _dense_integer_rows()
    P, R = smap.var_perm(), smap.row_perm()

    def objective(key):
        return LpInstance(key[0], 0.0, key[1]).objective_m().astype(np.int8)

    on = f"on {source} -> {target}"
    if not (np.array_equal(np.sort(P), np.arange(N_VARS)) and np.array_equal(np.sort(R), np.arange(len(A)))):
        raise CertificationError(f"{smap} is not a bijection {on}")
    if R[-1] != len(A) - 1:
        raise CertificationError(f"{smap} moves the Bell row {on}")
    if not np.array_equal(A[R][:, P], A):
        raise CertificationError(f"{smap} does not map the inequality rows onto themselves {on}")
    if not np.array_equal(c[R], c):
        raise CertificationError(f"{smap} changes the right-hand side {on}")
    if not np.array_equal(objective(target)[P], objective(source)):
        raise CertificationError(f"{smap} does not carry the objective {on}")
    return P, R


def tensor_marginal_shifts(table) -> list:
    """Per party, |marginal at own input 0 - marginal at own input 1| over
    the other parties' (outcomes, settings), each marginal summed from the
    (x1..x4, u1..u4) tensor."""
    t = box_tensor(np.asarray(table, dtype=float))
    shifts = []
    for party in range(4):
        marg = t.sum(axis=party)
        shifts.append(np.abs(np.take(marg, 0, axis=3 + party) - np.take(marg, 1, axis=3 + party)))
    return shifts


def tensor_no_signaling_violations(table, tol: float = DEFAULT_TOL):
    """boxes.no_signaling_violations with each party's marginal taken from
    the (x1..x4, u1..u4) tensor one party at a time: its oracle."""
    table = np.asarray(table, dtype=float)
    if table.shape != (N_OUTCOMES, N_SETTINGS):
        return [f"table shape {table.shape} != (16, 16)"]
    violations = []
    if np.min(table) < -tol:
        for x, u in zip(*np.where(table < -tol)):
            violations.append(f"negative entry p({bits_str(x)}|{bits_str(u)}) = {table[x, u]:.3e}")
    col_sums = table.sum(axis=0)
    for u in np.where(np.abs(col_sums - 1.0) > tol)[0]:
        violations.append(f"setting {bits_str(u)} sums to {col_sums[u]:.12f}")
    for party, diff in enumerate(tensor_marginal_shifts(table)):
        for idx in zip(*np.where(diff > tol)):
            violations.append(
                f"party {party + 1} marginal shifts by {diff[idx]:.3e} "
                f"(other outcomes {''.join(map(str, idx[:3]))}, "
                f"other settings {''.join(map(str, idx[3:]))})"
            )
    return violations


@dataclass
class GoodnessReport:
    verdict: bool
    delta_values: tuple
    good_count: int
    required: float
    zeta: tuple  # (1/2 - eps)^4 x Bell value of each selected conditional box
    x_values: tuple  # running sums of zeta_l - B_l, B_l the selected pair's coefficient


def goodness_oracle(devices, transcript: RunTranscript,
                    delta: float | None = None, mu: float | None = None) -> GoodnessReport:
    """Simulation-side check: do >= mu k of the selected conditional boxes sit
    below delta?  Also the proof's supermartingale X_l = sum (zeta_l - B_l),
    whose increments are asserted to stay within 1.  Never consulted by the
    protocol itself."""
    params = transcript.params
    delta = params.delta if delta is None else delta
    mu = params.mu if mu is None else mu
    scale = (0.5 - params.epsilon) ** 4
    values, zeta, x_values = [], [], []
    x = 0.0
    for j, device in enumerate(devices):
        pos = transcript.selected_use(j)
        box = box_given(device, tuple(transcript.uses[j][:pos]))
        values.append(bell_value(box, validate=False))
        zeta.append(scale * values[-1])
        u, out = transcript.selected_pair(j)
        step = zeta[-1] - float(BELL_FUNCTIONAL[out, u])
        if abs(step) > 1.0 + 1e-12:
            raise AssertionError(f"supermartingale increment {step} exceeds 1")
        x += step
        x_values.append(x)
    good = sum(1 for v in values if v < delta)
    return GoodnessReport(
        verdict=good >= mu * params.k,
        delta_values=tuple(values),
        good_count=good,
        required=mu * params.k,
        zeta=tuple(zeta),
        x_values=tuple(x_values),
    )


def distance_d(conditionals, z_weights=None) -> DistanceReport:
    """conditionals[w, z] is a distribution of S; z_weights[w] weights z.
    Both are checked (within 1e-9 of summing to 1, entries nonnegative; NaN
    fails) before protocol._distances computes the report."""
    p = np.asarray(conditionals, dtype=float)
    if p.ndim == 1:
        p = p.reshape(1, 1, -1)
    elif p.ndim == 2:
        p = p.reshape(1, *p.shape)
    n_w, n_z, sigma = p.shape
    # written so that NaN entries fail the comparisons
    if not (np.max(np.abs(p.sum(axis=2) - 1.0)) <= 1e-9 and np.min(p) >= -1e-12):
        raise ValueError("each conditional must be a distribution")
    if z_weights is None:
        w = np.full((n_w, n_z), 1.0 / n_z)
    else:
        w = np.asarray(z_weights, dtype=float).reshape(n_w, n_z)
        if not (np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-9 and np.min(w) >= 0):
            raise ValueError("z_weights rows must be distributions")
    return _distances(p, w)


def product_vectors(bases: np.ndarray) -> np.ndarray:
    """vecs[a, b, c, d, i, j, k, l] = the product of party 1's basis vector
    for outcome a at input i, ..., party 4's for outcome d at input l, as a
    flat length-16 vector.  Party p's (outcome, input, component) axes sit at
    positions p, 4 + p and 8 + p of a 12-axis broadcast."""
    factors = []
    for party in range(4):
        shape = [1] * 12
        shape[party] = shape[4 + party] = shape[8 + party] = 2
        factors.append(bases[party].reshape(shape))
    vecs = factors[0] * factors[1] * factors[2] * factors[3]
    return vecs.reshape(2, 2, 2, 2, 2, 2, 2, 2, 16)


def born_box_mixed(rho: np.ndarray, bases: np.ndarray, tol: float = 1e-9) -> NsBox:
    """Measurement box for a density operator (16 x 16, same index order as
    states): p(x|u) = <v|rho|v> over the product basis vectors v, the oracle
    for quantum.noisy_box."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (16, 16):
        raise ValueError("rho must be 16 x 16")
    if not np.allclose(rho, rho.conj().T, atol=1e-10):
        raise ValueError("rho must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("rho must have unit trace")
    validate_bases(bases)
    vecs = product_vectors(np.asarray(bases, dtype=complex))
    prob = np.einsum("...w,wv,...v->...", vecs.conj(), rho, vecs).real
    table = prob.transpose(7, 6, 5, 4, 3, 2, 1, 0).reshape(16, 16)
    return NsBox(table, tol=tol)


def apply_noise(state: np.ndarray, bases: np.ndarray, noise: NoiseSpec):
    """Return (rho, bases) for the noisy preparation and tilted measurements."""
    state = validate_state(state)
    m = noise.state_mixing
    rho = (1.0 - m) * np.outer(state, state.conj()) + m * np.eye(16) / 16.0
    return rho, rotate_bases(bases, noise.basis_rotation)


def product_vectors_einsum(bases: np.ndarray) -> np.ndarray:
    """The four parties' product measurement vectors as one 12-index einsum,
    indexed [a, b, c, d, i, j, k, l, component] like product_vectors."""
    b = np.asarray(bases, dtype=complex)
    vecs = np.einsum("aiw,bjx,cky,dlz->abcdijklwxyz", b[0], b[1], b[2], b[3])
    return vecs.reshape(2, 2, 2, 2, 2, 2, 2, 2, 16)


def reference_trials_csv(chunks) -> bytes:
    """trials.csv of the given TrialRows chunks, one csv.writer row per trial:
    the oracle for the CLI's row template."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "accepted", "z_k", "output_bit", "selection", "m_realized"])
    index = 0
    for rows in chunks:
        for z_k, acc, bit, sel, m in zip(
            rows.z_k.tolist(), rows.accepted.tolist(), rows.output.tolist(),
            rows.selection.tolist(), rows.m_realized.tolist(),
        ):
            writer.writerow(
                [index, int(acc), f"{z_k:.12g}", bit, "|".join(map(str, sel)), "|".join(map(str, m))]
            )
            index += 1
    return buf.getvalue().encode()


class DeviceError(RuntimeError):
    """A device returned something that is not a valid box."""


class ZeroProbabilityHistoryError(ValueError):
    """Conditioning on a history every component assigns probability zero."""


class TimeOrderedDevice:
    """A device queried once per use with the full history of (setting,
    outcome) pairs it has produced so far; it answers with a no-signaling
    box, a function of the past only."""

    def box_given(self, history) -> NsBox:
        raise NotImplementedError


# each MixtureDevice's last (history, likelihoods) pair, kept by _likelihoods
_LAST = weakref.WeakKeyDictionary()


def box_given(device, history) -> NsBox:
    """The box a device answers with after the given history: an
    IidDevice's one box; a MixtureDevice's posterior-weighted sum of its
    components' boxes; any other device's own box_given.  Each component
    must answer with an NsBox; a convex combination of boxes valid within
    tol is valid within tol, so the sum is not validated again."""
    if isinstance(device, IidDevice):
        return device.box
    if not isinstance(device, MixtureDevice):
        return device.box_given(history)
    post = posterior(device, history)
    table = np.zeros((16, 16))
    for w, comp in zip(post, device.components):
        if w > 0:
            box = box_given(comp, history)
            if not isinstance(box, NsBox):
                raise DeviceError(f"component returned {type(box).__name__}, not a box")
            table += w * box.table
    return NsBox(table, validate=False)


def _likelihoods(device, history) -> list:
    """The likelihood of the history under each component of a
    MixtureDevice (_scaled_likelihood), so a long history cannot underflow
    it.  The last (history, likelihoods) pair is kept: a history one use
    longer than it costs one factor per component, the same float product
    in the same order up to exact powers of two; any other history is
    recomputed from the start."""
    history = tuple(history)
    prev, like = _LAST.get(device, ((), [(0.5, 1)] * len(device.components)))
    if len(history) == len(prev) + 1 and history[:-1] == prev:
        u, x = history[-1]
        like = [
            _scaled(m * float(as_table(box_given(c, prev))[x, u]), e) if m != 0.0 else (m, e)
            for (m, e), c in zip(like, device.components)
        ]
    elif history != prev:
        like = [_scaled_likelihood(c, history) for c in device.components]
    _LAST[device] = (history, like)
    return like


def posterior(device, history) -> np.ndarray:
    """A MixtureDevice's prior times likelihood, normalized.  Every
    likelihood is scaled by the same power of two first, so the result is
    the plain weights * likelihoods / total whenever those do not
    underflow."""
    like = _likelihoods(device, history)
    prior = device.weights.tolist()
    supported = [e for w, (m, e) in zip(prior, like) if w > 0.0 and m != 0.0]
    if not supported:
        raise ZeroProbabilityHistoryError(
            f"history of length {len(history)} has zero probability under every component"
        )
    top = max(supported)
    joint = np.array([w * math.ldexp(m, e - top) for w, (m, e) in zip(prior, like)])
    return joint / joint.sum()


def _scaled(value: float, exponent: int) -> tuple:
    """value * 2**exponent as a (mantissa, exponent) pair; exact."""
    m, e = math.frexp(value)
    return m, e + exponent


def _scaled_likelihood(device, history) -> tuple:
    """The probability the device assigns to an observed (setting, outcome)
    list, conditional on those settings, as a (mantissa, exponent) pair from
    math.frexp; (0.0, e) once a factor is 0, after which the device is not
    queried again."""
    m, e = 0.5, 1
    for l, (u, x) in enumerate(history):
        if m == 0.0:
            break
        m, e = _scaled(m * float(as_table(box_given(device, history[:l]))[x, u]), e)
    return m, e


def sample_outcome(device, history, setting: int, rng) -> int:
    """Draw an outcome for the given setting.  The device must return an
    NsBox (DeviceError otherwise); the box is not validated again."""
    box = box_given(device, tuple(history))
    if not isinstance(box, NsBox):
        raise DeviceError(f"device returned {type(box).__name__}, not a box")
    col = box.table[:, setting]
    cdf = np.cumsum(col)
    r = rng.random() * cdf[-1]
    return int(min(np.searchsorted(cdf, r, side="right"), 15))


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

    def __post_init__(self):
        if self.accepted != (self.output_bit is not None):
            raise AssertionError("output bit must exist exactly when accepted")
        if not 0.0 <= self.z_k <= 1.0:
            raise AssertionError(f"Z_k {self.z_k} outside [0, 1]")


def run_protocol(params: ProtocolParams, devices, sv_strategy, rng) -> tuple:
    """One full protocol run against live devices and a source strategy,
    one source bit and one outcome at a time: the oracle of the library's
    engines."""
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

    pairs = [run.selected_pair(j) for j in range(params.k)]
    z_k = float(np.mean([float(BELL_FUNCTIONAL[x, u]) for u, x in pairs]))
    threshold = acceptance_threshold(params)
    accepted = z_k <= threshold
    maj_bits = tuple(majority(*unpack_bits(x)[:3]) for _, x in pairs)
    output = int(np.bitwise_xor.reduce(maj_bits)) if accepted else None
    result = ProtocolResult(
        accepted=accepted,
        z_k=z_k,
        output_bit=output,
        majority_bits=maj_bits,
        threshold=threshold,
    )
    return result, run


def oracle_rows(params: ProtocolParams, devices, sv_strategy, m: int, rng) -> TrialRows:
    """run_protocol once per trial, m times on one generator, as the
    columns the library's engines return."""
    runs = [run_protocol(params, devices, sv_strategy, rng) for _ in range(m)]
    return TrialRows(
        z_k=np.array([r.z_k for r, _ in runs]),
        accepted=np.array([r.accepted for r, _ in runs]),
        output=np.array([-1 if r.output_bit is None else r.output_bit for r, _ in runs]),
        selection=np.array([t.selection for _, t in runs]).reshape(m, -1),
        m_realized=np.array([t.m_realized for _, t in runs]).reshape(m, -1),
    )


class SequenceDevice(TimeOrderedDevice):
    """A fixed schedule of boxes, one per use: a device that is neither
    i.i.d. nor a mixture, so the general engine runs it."""

    def __init__(self, boxes):
        self.boxes = [b if isinstance(b, NsBox) else NsBox(b) for b in boxes]
        if not self.boxes:
            raise ValueError("need at least one box")

    def box_given(self, history) -> NsBox:
        if len(history) >= len(self.boxes):
            raise DeviceError(
                f"schedule exhausted: use {len(history) + 1} of {len(self.boxes)}"
            )
        return self.boxes[len(history)]


class ConditionedDevice(TimeOrderedDevice):
    """A device with a fixed prefix of uses already spent."""

    def __init__(self, device: TimeOrderedDevice, prefix):
        self.device = device
        self.prefix = tuple(prefix)

    def box_given(self, history) -> NsBox:
        return box_given(self.device, self.prefix + tuple(history))


def history_likelihood(device, history) -> float:
    """Probability the device assigns to an observed (setting, outcome) list,
    conditional on those settings (0.0 where it is below the float range)."""
    return math.ldexp(*_scaled_likelihood(device, history))


def condition_device(device, history) -> ConditionedDevice:
    """Pin a history prefix; raises if the device gives it probability zero."""
    history = tuple(history)
    if isinstance(device, MixtureDevice):
        posterior(device, history)  # surfaces ZeroProbabilityHistoryError
    elif _scaled_likelihood(device, history)[0] == 0.0:
        raise ZeroProbabilityHistoryError(f"history of length {len(history)} has zero probability")
    return ConditionedDevice(device, history)
