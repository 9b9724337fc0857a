"""Command-line front end: strict JSON configs in, JSON/CSV artifacts out.

Every run writes its outputs plus a manifest of SHA-256 hashes; the manifest
lands atomically after the files it describes.  All randomness descends from
one master seed, one child stream per fixed-size chunk of trials, so reruns
are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import hashlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .boxes import NsBox, algebraic_violation_box, bell_value, mixed_with_uniform, uniform_box
from .definetti import ExchangeableMixture, block_sizes, definetti_check, log2_block_sizes
from .devices import IidDevice
from .lp import INSTANCE_KEYS, analytic_bound, certify_grid
from .protocol import (
    ProtocolParams, acceptance_threshold, azuma_rejection_bound, fast_path_applicable,
    proposition_bound, robustness_acceptance_bound, robustness_threshold, simulate_trials,
)
from .quantum import NoiseSpec, born_box, build_state, noisy_box, xz_bases
from .sv import ConstantBias, GreedyTowardString, HonestBits, SettingSteering


class ConfigError(ValueError):
    pass


REQUIRED = object()  # the default of a field a config must give
_INT64_MAX = 2**63 - 1


class Field:
    """One config field: its kind, its default and the inclusive range of
    its value (of each entry, for a list of integers).

    An "object" lists its fields; a "choice" maps each value it takes to
    the fields that value adds beside it.  A field with `instead` may be
    left out when that sibling is given, and the two exclude each other."""

    __slots__ = ("kind", "default", "low", "high", "fields", "nonempty", "instead", "check")

    def __init__(self, kind: str, default=REQUIRED, *, low=-math.inf, high=math.inf,
                 fields: dict | None = None, nonempty: bool = False, instead: str | None = None):
        self.kind, self.default, self.low, self.high = kind, default, low, high
        self.fields, self.nonempty, self.instead = fields, nonempty, instead
        self.check = _CHECKS[kind]  # (value, field, path, noun) -> checked value


def _refused(path: str, noun: str, expected: str, value, field: Field | None = None) -> ConfigError:
    if field is not None and field.high != math.inf:
        expected += f" <= {field.high}" if field.low == -math.inf else f" in [{field.low}, {field.high}]"
    elif field is not None and field.low != -math.inf:
        expected += f" >= {field.low}"
    return ConfigError(f"{noun} '{path}' must be {expected}, got {value!r}")


def _number(value, field: Field, path: str, noun: str) -> float:
    """A finite JSON number in range, as a float: a string, null or
    true/false is refused, not converted."""
    if type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{noun} '{path}' is too large for a float")
    elif type(value) is not float:
        raise _refused(path, noun, "a number", value)
    if not (math.isfinite(value) and field.low <= value <= field.high):
        raise _refused(path, noun, "a finite number", value, field)
    return value


# "uses": one integer for every device, or a list, as ProtocolParams takes n
_INTEGER_KINDS = {"integer": "an integer", "integers": "a list of integers", "uses": "an integer or a list of integers"}


def _integers(value, field: Field, path: str, noun: str):
    """A JSON integer in range, or a list of them as a tuple, as the kind
    allows: a float, a string or true/false (a bool is an int in Python) is
    refused, not truncated."""
    scalar = field.kind != "integers" and type(value) is int
    if scalar or field.kind != "integer" and type(value) is list:
        for v in (value,) if scalar else value:
            if type(v) is not int or not field.low <= v <= field.high:
                break
        else:
            return value if scalar else tuple(value)
    raise _refused(path, noun, _INTEGER_KINDS[field.kind], value, field)


def _numbers(value, field: Field, path: str, noun: str) -> list:
    """A list of numbers, each checked by _number; in a "table" an entry
    may itself be such a list, to any depth (the shape is the caller's)."""
    if type(value) is not list:
        raise _refused(path, noun, "a list", value)
    if field.nonempty and not value:
        raise ConfigError(f"{noun} '{path}' must list at least one value")
    checked = []
    for i, v in enumerate(value):
        if type(v) is float and math.isfinite(v) and field.low <= v <= field.high:
            checked.append(v)  # the common case, without building v's path
        elif field.kind == "table" and type(v) is list:
            checked.append(_numbers(v, field, f"{path}[{i}]", noun))
        else:
            checked.append(_number(v, field, f"{path}[{i}]", noun))
    return checked


def _flag(value, field: Field, path: str, noun: str) -> bool:
    if type(value) is not bool:
        raise _refused(path, noun, "true or false", value)
    return value


def _choice(value, field: Field, path: str, noun: str) -> str:
    if type(value) is not str or value not in field.fields:
        raise ConfigError(f"unknown value {value!r} for {noun} '{path}'")
    return value


def _object(value, field: Field, path: str, noun: str = "field") -> dict:
    """The checked fields of a JSON object, defaults filled in: a missing
    required field, an unknown one or a malformed value is a ConfigError
    naming it.  A choice adds the fields of its value to those checked."""
    if type(value) is not dict:
        raise _refused(path or "<root>", noun, "an object", value)
    prefix = f"{path}." if path else ""
    checked, given = {}, 0
    fields = list(field.fields.items())
    for name, spec in fields:  # grows as choices add their fields
        if name in value:
            given += 1
            if spec.instead is not None and spec.instead in value:
                raise ConfigError(f"fields '{prefix}{name}' and '{prefix}{spec.instead}' exclude each other")
            checked[name] = item = spec.check(value[name], spec, prefix + name, noun)
            if spec.kind == "choice":
                fields.extend(spec.fields[item].items())
        elif spec.default is not REQUIRED or spec.instead in value:
            checked[name] = None if spec.default is REQUIRED else spec.default
        else:
            also = f" (or '{prefix}{spec.instead}')" if spec.instead else ""
            raise ConfigError(f"missing field '{prefix}{name}'{also}")
    if given < len(value):
        unknown = next(name for name in value if name not in checked)
        raise ConfigError(f"unknown field '{prefix}{unknown}'")
    return checked


_CHECKS = {"number": _number, "integer": _integers, "integers": _integers, "uses": _integers,
           "numbers": _numbers, "table": _numbers, "flag": _flag, "choice": _choice, "object": _object}

_NUMBER, _COUNT = Field("number"), Field("integer", high=_INT64_MAX)
_SV = Field("object", fields={"strategy": Field("choice", fields={
    "honest": {},
    "greedy": {"target": Field("integers", (0,), low=0, high=1)},
    "constant": {"bias": Field("number", None)},  # None: epsilon
    "steer": {"setting": Field("integers", low=0, high=1)},
})})
_PARAMS = {"epsilon": _NUMBER, "delta": _NUMBER, "mu": _NUMBER, "k": _COUNT, "t": Field("number", 1e6)}
_NOISE = {"state_mixing": Field("number", 0.0), "basis_rotation": Field("number", 0.0)}

# Every command's config, field by field: the CLI reads nothing else.
CONFIG_FIELDS = {
    "certify": Field("object", fields={
        "deltas": Field("numbers", nonempty=True, low=0, high=8),
        "method": Field("choice", "highs", fields={"highs": {}, "simplex": {}}),
        "tolerance": Field("number", 1e-8, low=0),
    }),
    "simulate": Field("object", fields={
        **_PARAMS,
        "n": Field("uses", (1,), high=_INT64_MAX),
        "trials": Field("integer", 100, low=1, high=_INT64_MAX),
        "seed": Field("integer", 0, low=0),  # SeedSequence takes any such integer
        "device": Field("object", fields={"model": Field("choice", fields={
            "quantum": _NOISE, "uniform": {}, "algebraic": {},
            "mixed_algebraic": {"weight": Field("number", 0.0)},
            "table": {"table": Field("table")},
        })}),
        "sv": _SV,
    }),
    "definetti": Field("object", fields={
        "epsilon": _NUMBER,
        "n": Field("integers", high=_INT64_MAX, instead="schedule"),
        "schedule": Field("object", None, fields={
            "k": _COUNT, "t": _NUMBER, "k_exponent": Field("integer", 2, high=_INT64_MAX),
        }),
        "t_levels": Field("numbers"),
        "system": Field("object", fields={
            "type": Field("choice", fields={"exchangeable": {}}),
            "components": Field("table"),
            "weights": Field("numbers"),
        }),
        "sv": _SV,
        "pinsker": Field("flag", False),
        "sigma_size": Field("integer", None, low=2, high=_INT64_MAX),  # None: the system's
    }),
    "quantum-check": Field("object", fields=_NOISE),
    "bounds": Field("object", fields={**_PARAMS, "k_exponent": Field("integer", 2, high=_INT64_MAX)}),
}

# simulate's options: --seed and --trials are checked as the fields they replace
SIMULATE_OPTIONS = {"seed": CONFIG_FIELDS["simulate"].fields["seed"],
                    "trials": CONFIG_FIELDS["simulate"].fields["trials"]}


def load_config(path: str) -> tuple:
    """(config, SHA-256 of the bytes parsed): the manifest records the file
    as it was read, whatever happens to it during the run."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except ValueError as exc:  # also bytes that are not text, or an integer past str's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}")


def _config(args, command: str) -> tuple:
    """(args.config checked against CONFIG_FIELDS[command], defaults filled
    in; SHA-256 of its bytes).  No file is the empty config."""
    cfg, cfg_sha256 = load_config(args.config) if args.config else ({}, None)
    return _object(cfg, CONFIG_FIELDS[command], ""), cfg_sha256


def build_strategy(spec: dict, epsilon: float):
    """The source strategy of a checked `sv` object."""
    name = spec["strategy"]
    if name == "greedy":
        return GreedyTowardString(spec["target"], epsilon)
    if name == "constant":
        return ConstantBias(epsilon if spec["bias"] is None else spec["bias"])
    if name == "steer":
        return SettingSteering(spec["setting"], epsilon)
    return HonestBits()


def build_box(spec: dict) -> NsBox:
    """The box of a checked `device` object."""
    model = spec["model"]
    if model == "quantum":
        return noisy_box(NoiseSpec(state_mixing=spec["state_mixing"], basis_rotation=spec["basis_rotation"]))
    if model == "mixed_algebraic":
        return mixed_with_uniform(algebraic_violation_box(), spec["weight"])
    if model == "table":
        return NsBox(spec["table"])
    return uniform_box() if model == "uniform" else algebraic_violation_box()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def _atomic_output(out_dir: str, name: str, digests: dict):
    """Yields write(bytes) for the file out_dir/name.  The bytes go to a temp
    file and into a running SHA-256; the file is renamed into place, and its
    digest stored in digests[name], only when the block completes.  If the
    block raises, the temp file is removed and any earlier file of that name
    is left as it was."""
    tmp = os.path.join(out_dir, f".{name}.tmp")
    h = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            def write(data: bytes) -> None:
                fh.write(data)
                h.update(data)

            yield write
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    digests[name] = h.hexdigest()


def write_outputs(out_dir: str, command: str, config_sha256: str | None, files: dict,
                  metrics: dict | None = None, written: dict | None = None):
    """files: name -> bytes.  Writes data files, then the manifest, each via
    _atomic_output so a crash never leaves a half-written artifact.  written
    maps files already put in place by _atomic_output to their digests; the
    manifest lists them too.  metrics, facts about the run that are not
    results (so the data files stay byte-stable), go into the manifest only."""
    os.makedirs(out_dir, exist_ok=True)
    digests = dict(written or {})
    for name, payload in files.items():
        with _atomic_output(out_dir, name, digests) as write:
            write(payload)
    manifest = {
        "command": command,
        "version": __version__,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config_sha256": config_sha256,
        "outputs": digests,
    }
    if metrics is not None:
        manifest["metrics"] = metrics
    with _atomic_output(out_dir, "manifest.json", {}) as write:
        write(_json_bytes(manifest))


def verify_manifest(out_dir: str) -> bool:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    return all(
        sha256_file(os.path.join(out_dir, name)) == digest
        for name, digest in manifest["outputs"].items()
    )


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _certificate_facts(report) -> dict:
    """A certified delta's solver facts for the manifest; on HiGHS with each
    orbit solve's simplex iteration count."""
    facts = {"delta": report.delta, "solved": report.solved, "dual_residual": report.dual_residual,
             "duality_gap": report.duality_gap}
    if report.highs_nit is not None:
        facts["highs_nit"] = list(report.highs_nit)
    return facts


def cmd_certify(args) -> int:
    """Certify the LP guessing bound at every delta of the config's grid.

    `certify_grid` does the work and picks the threads: on the HiGHS route
    with more than one delta, one per orbit representative (up to the CPU
    count), each re-solving every delta after the first from its previous
    optimal basis.  Entries, prints, certify.json and the manifest follow
    grid order, so they are the same whatever the number of threads."""
    raw, cfg_sha256 = load_config(args.config)
    cfg = _object(raw, CONFIG_FIELDS["certify"], "")
    method = cfg["method"]
    # every entry is a report that passed on all 16 instances, or the error
    outcomes = certify_grid(cfg["deltas"], method=method, tol=cfg["tolerance"])
    grid, passed, reports = [], True, []
    for delta, outcome in zip(raw["deltas"], outcomes):  # an error shows delta as the config wrote it
        if isinstance(outcome, Exception):
            grid.append({"delta": delta, "error": str(outcome), "error_type": type(outcome).__name__})
            passed = False
        else:
            grid.append(outcome.to_json())
            reports.append(outcome)
    summary = {"passed": passed, "method": method, "bound_formula": "min((11 + 7 delta)/32, 1/2)", "grid": grid}
    if args.out:
        metrics = {"certificates": [_certificate_facts(r) for r in reports]}
        write_outputs(args.out, "certify", cfg_sha256, {"certify.json": _json_bytes(summary)}, metrics)
    for entry in grid:
        if "error" in entry:
            print(f"delta={entry['delta']}: ERROR {entry['error']}")
        else:
            print(f"delta={entry['delta']}: max_optimum={entry['max_optimum']:.9f} "
                  f"bound={entry['bound']:.9f} {'ok' if entry['passed'] else 'VIOLATED'}")
    if reports:
        print(f"solved {reports[-1].solved} of {len(INSTANCE_KEYS)} instances per delta (symmetry orbits)")
        print(f"dual certificates: worst residual {max(r.dual_residual for r in reports):.3e}, "
              f"worst |dual/2 - primal| {max(r.duality_gap for r in reports):.3e}")
    print("certification:", "pass" if passed else "FAIL")
    return 0 if passed else 1


# Chunks formatted per _trial_rows call.  Two amortize its fixed cost; the
# batch's columns, byte matrix and bytes take several times what it writes,
# so memory grows with the batch.
_WRITE_BATCH = 2


def _put_digits(values, out) -> None:
    """Writes the nonnegative integers values as right-aligned ASCII digits
    along the last axis of out, with NUL bytes for their leading zeros (a
    value of 0 keeps its last digit).  The values are first narrowed to the
    least unsigned type that holds width digits, so the temporaries are
    small; each step divides by the scalar 10, which numpy does without a
    hardware division."""
    width = out.shape[-1]
    values = values.astype(np.min_scalar_type(10**width - 1))
    for d in range(width - 1, -1, -1):
        quotient = values // 10
        digit = values - 10 * quotient + ord("0")
        if d < width - 1:
            digit *= values > 0
        out[..., d] = digit
        values = quotient


def _trial_rows(start: int, z_k, accepted, output, selection, m_realized) -> bytes:
    """The trials.csv rows of trials start, start + 1, ...: every field is
    written into a fixed-width column of one byte matrix, wide enough for
    the batch's largest value and padded with NUL bytes, which are then
    dropped.  The distinct values of z_k (at most k + 1) are formatted once
    with .12g; output is -1, 0 or 1."""
    m, k = selection.shape
    z_values = sorted(set(z_k.tolist()))
    z_text = [f"{z:.12g}".encode() for z in z_values]
    dt, zw = len(str(start + m - 1)), max(map(len, z_text))
    ds, dm = len(str(selection.max())), len(str(m_realized.max()))
    # trial,accepted,z_k,output_bit,selection,m_realized with separators
    width = dt + zw + 7 + k * (ds + dm + 2)
    buf = np.full((m, width), ord(","), dtype=np.uint8)
    _put_digits(np.arange(start, start + m), buf[:, :dt])
    c = dt + 1
    buf[:, c] = accepted + ord("0")
    c += 2
    # one row per distinct value, gathered by each row's value
    z_buf = np.frombuffer(b"".join(text.ljust(zw, b"\0") for text in z_text), dtype=np.uint8)
    buf[:, c:c + zw] = z_buf.reshape(len(z_text), zw)[np.searchsorted(z_values, z_k)]
    c += zw + 1
    buf[:, c] = (output < 0) * ord("-")
    buf[:, c + 1] = np.abs(output) + ord("0")
    c += 3
    for values, digits, last in ((selection, ds, ","), (m_realized, dm, "\n")):
        # one (digits + 1)-byte cell per device: the value, then "|"
        cells = buf[:, c:c + k * (digits + 1)].reshape(m, k, digits + 1)
        _put_digits(values, cells[..., :digits])
        cells[:, :, digits] = ord("|")
        cells[:, -1, digits] = ord(last)
        c += k * (digits + 1)
    return buf.tobytes().translate(None, b"\0")


def _stream_trials(chunks, write) -> tuple:
    """Writes trials.csv, the header and then one row per trial, through
    write, _WRITE_BATCH chunks of TrialRows at a time (_trial_rows);
    returns (accepted, accepted with output 0, chunks)."""
    write(b"trial,accepted,z_k,output_bit,selection,m_realized\n")
    start = n_acc = zeros = n_chunks = 0
    chunks = iter(chunks)
    while batch := list(itertools.islice(chunks, _WRITE_BATCH)):
        n_chunks += len(batch)
        z_k, accepted, output, selection, m_realized = [
            np.concatenate(column) for column in zip(*(
                (rows.z_k, rows.accepted, rows.output, rows.selection, rows.m_realized) for rows in batch
            ))
        ]
        del batch  # the columns hold copies: drop the chunks before formatting
        write(_trial_rows(start, z_k, accepted, output, selection, m_realized))
        start += len(z_k)
        n_acc += np.count_nonzero(accepted)
        zeros += np.count_nonzero(output == 0)
    return n_acc, zeros, n_chunks


def cmd_simulate(args) -> int:
    cfg, cfg_sha256 = _config(args, "simulate")
    for name, field in SIMULATE_OPTIONS.items():
        if (value := getattr(args, name)) is not None:
            cfg[name] = field.check(value, field, f"--{name}", "option")
    params = ProtocolParams(n=cfg["n"], **{name: cfg[name] for name in _PARAMS})
    box = build_box(cfg["device"])
    strategy = build_strategy(cfg["sv"], params.epsilon)
    trials, seed = cfg["trials"], cfg["seed"]

    devices = [IidDevice(box)] * params.k
    engine = "vectorized" if fast_path_applicable(params, devices, strategy) else "general"
    chunks = simulate_trials(params, devices, strategy, trials, seed)
    written = {}
    os.makedirs(args.out, exist_ok=True)
    with _atomic_output(args.out, "trials.csv", written) as write:
        n_acc, zeros, n_chunks = _stream_trials(chunks, write)

    summary = {
        "params": {"n": list(params.n), **{name: getattr(params, name) for name in _PARAMS}},
        "seed": seed,
        "trials": trials,
        "acceptance_rate": n_acc / trials,
        "output_zero_fraction": zeros / n_acc if n_acc else None,
        "threshold": acceptance_threshold(params),
        "bounds": {
            "azuma_rejection": azuma_rejection_bound(params),
            "robustness_acceptance": robustness_acceptance_bound(params),
            "proposition_total": proposition_bound(params).total,
        },
    }
    write_outputs(args.out, "simulate", cfg_sha256, {"summary.json": _json_bytes(summary)},
                  metrics={"engine": engine, "chunks": n_chunks}, written=written)
    print(f"simulate: {trials} trials, engine={engine}, "
          f"acceptance {summary['acceptance_rate']:.4f}, outputs in {args.out}")
    return 0


def cmd_definetti(args) -> int:
    cfg, cfg_sha256 = _config(args, "definetti")
    epsilon, sched, spec = cfg["epsilon"], cfg["schedule"], cfg["system"]
    if sched is None:
        n = list(cfg["n"])
    else:  # a schedule that stops early repeats its last level up to k
        n = block_sizes(epsilon, sched["k"], sched["t"], sched["k_exponent"])
        n += n[-1:] * (sched["k"] - len(n))
    components = [np.asarray(c, dtype=float) for c in spec["components"]]
    system = ExchangeableMixture(n, components, spec["weights"])
    strategy = build_strategy(cfg["sv"], epsilon)
    report = definetti_check(
        system, strategy, epsilon, cfg["t_levels"], sigma_size=cfg["sigma_size"], pinsker=cfg["pinsker"]
    )
    payload = report.to_json()
    if args.out:
        metrics = {"selections": len(report.selections), "types": report.types, "chunks": report.chunks}
        write_outputs(args.out, "definetti", cfg_sha256, {"definetti.json": _json_bytes(payload)}, metrics)
    print(f"definetti: n={n} max T={report.max_t:.6f} threshold={report.threshold:.6f} "
          f"exceed fraction={report.weighted_exceed_fraction:.6f} <= bound {report.probability_bound:.6f}")
    return 0


def cmd_quantum_check(args) -> int:
    cfg, cfg_sha256 = _config(args, "quantum-check")
    noise = NoiseSpec(state_mixing=cfg["state_mixing"], basis_rotation=cfg["basis_rotation"])
    state = build_state()
    clean = born_box(state, xz_bases())
    box = noisy_box(noise)
    payload = {
        "state_norm": float(np.linalg.norm(state)),
        "amplitudes_pm_quarter": bool(np.allclose(np.abs(state), 0.25, atol=1e-12)),
        "noise": {"state_mixing": noise.state_mixing, "basis_rotation": noise.basis_rotation},
        "bell_value_clean": bell_value(clean),
        "bell_value_noisy": bell_value(box),
        "no_signaling": True,  # NsBox construction already enforced it
    }
    if args.out:
        write_outputs(args.out, "quantum-check", cfg_sha256, {"quantum_check.json": _json_bytes(payload)})
    print(f"quantum-check: norm={payload['state_norm']:.12f} bell_clean={payload['bell_value_clean']:.3e} "
          f"bell_noisy={payload['bell_value_noisy']:.6f}")
    return 0


# A float log10 near 1e10 is exact to half an ulp, 2^-20, which moves the
# mantissa 10^frac by a relative ln(10) * 2^-20 ~ 2e-6: inside half a unit of
# its fourth decimal.  Near 1e11 the ulp is 2^-16 and the error reaches that
# digit.  Past this cut the four mantissa digits would be float noise, so the
# log2 is printed instead.
_MAX_SCI_LOG10 = 1e10


def _sci_from_log2(log2_value: float) -> str:
    if log2_value < 62:
        return f"{2.0 ** log2_value:.6g}"
    log10 = log2_value * math.log10(2.0)
    if log10 > _MAX_SCI_LOG10:
        return f"2^{log2_value:.6g}"
    exponent = int(log10)
    mantissa = 10.0 ** (log10 - exponent)
    return f"{mantissa:.4f}e+{exponent}"


def cmd_bounds(args) -> int:
    cfg, cfg_sha256 = _config(args, "bounds")
    # n=None: the bounds do not read the use counts, so no k-entry tuple is built
    params = ProtocolParams(n=None, **{name: cfg[name] for name in _PARAMS})
    k_exp = cfg["k_exponent"]
    prop = proposition_bound(params)
    lines = [
        f"epsilon={params.epsilon} delta={params.delta} mu={params.mu} "
        f"k={params.k} t={params.t:g}",
        f"acceptance threshold        {acceptance_threshold(params):.9g}",
        f"rejection bound (not good)  {azuma_rejection_bound(params):.9g}",
        f"robustness threshold        {robustness_threshold(params.epsilon, params.mu, params.delta):.9g}",
        f"robust acceptance bound     {robustness_acceptance_bound(params):.9g}",
        f"distance bound total        {prop.total:.9g}",
        f"  estimation term           {prop.estimation_term:.9g}",
        f"  concentration term        {prop.azuma_term:.9g}",
        f"  product-form term         {prop.definetti_term:.9g}",
        f"LP guessing bound at delta  {analytic_bound(params.delta):.9g}",
        "block schedule:",
    ]
    k = params.k
    try:
        levels = [f"= {size}" for size in block_sizes(params.epsilon, k, params.t, k_exp)]
    except OverflowError:
        # log2 itself may leave the float range; so does every later level
        levels = [f"exceed 2^{sys.float_info.max:.4g}" if math.isinf(lg) else f"~ {_sci_from_log2(lg)}"
                  for lg in log2_block_sizes(params.epsilon, k, params.t, k_exp)]
    # a schedule that stops early, at an infinite or repeated level, stands for the rest
    for i, level in enumerate(levels, start=1):
        ranged = i == len(levels) and (i < k or level.startswith("exceed"))
        lines.append(f"  n_{i}..n_{k} {level}" if ranged else f"  n_{i} {level}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        write_outputs(args.out, "bounds", cfg_sha256, {"bounds.txt": text.encode()})
    return 0


_COMMANDS = {
    "certify": (cmd_certify, "LP guessing-probability certification over a delta grid"),
    "simulate": (cmd_simulate, "Monte Carlo protocol runs to JSON + CSV"),
    "definetti": (cmd_definetti, "exact product-closeness checks on exchangeable mixtures"),
    "quantum-check": (cmd_quantum_check, "state and measurement-box validation"),
    "bounds": (cmd_bounds, "print every theoretical bound for given parameters"),
}


def _add_command_options(parser: argparse.ArgumentParser, name: str) -> None:
    """Declare command `name`'s options and handler (`func`) on `parser`.
    The one place a command's options are declared: `make_parser` calls it
    for each sub-parser and `command_parser` for its single parser, so the
    two parse a command's arguments alike."""
    parser.add_argument("--config", required=(name != "quantum-check"), help="JSON config path")
    parser.add_argument("--out", required=(name == "simulate"), help="output directory")
    if name == "simulate":
        parser.add_argument("--seed", type=int, help="master seed override")
        parser.add_argument("--trials", type=int, help="trial count override")
    parser.set_defaults(func=_COMMANDS[name][0])


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The full argument parser, built once per process: parse_args does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="randamp",
        description="Bell-inequality randomness amplification: certification and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        _add_command_options(sub.add_parser(name, help=help_text), name)
    return parser


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """A parser for command `name` alone, built once per process.  It is
    the sub-parser `make_parser` builds for `name` (same prog, options and
    handler, so the same help and errors), plus `command` set to `name`,
    at a fraction of the full parser's cost."""
    parser = argparse.ArgumentParser(prog=f"randamp {name}")
    _add_command_options(parser, name)
    parser.set_defaults(command=name)
    return parser


def _parse_args(argv=None) -> argparse.Namespace:
    """make_parser().parse_args(argv), building only the invoked command's
    parser when argv starts with a command.  Anything else (no command,
    options before it, arguments it leaves unrecognized) goes to the full
    parser, so top-level help, usage and every error read as before."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args, extras = command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return make_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError) as exc:  # OverflowError: a block size past 2^62
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # a count inside the caps whose list or tuple no memory holds
        print("error: out of memory: a count in the config is too large", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
