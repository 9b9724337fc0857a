"""Command-line front end: strict JSON configs in, JSON/CSV artifacts out.

Every run writes its outputs plus a manifest of SHA-256 hashes; the manifest
lands atomically after the files it describes.  All randomness descends from
one master seed, one child stream per fixed-size chunk of trials, so reruns
are byte-identical whatever the number of worker processes.
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
from .lp import INSTANCE_KEYS, analytic_bound, certify_bound, prepare_highs
from .protocol import (
    SIMULATE_CHUNK,
    ProtocolParams,
    acceptance_threshold,
    azuma_rejection_bound,
    fast_path_applicable,
    proposition_bound,
    robustness_acceptance_bound,
    robustness_threshold,
    simulate_trials,
)
from .quantum import (
    NoiseSpec,
    born_box,
    build_state,
    noisy_box,
    xz_bases,
)
from .sv import ConstantBias, GreedyTowardString, HonestBits, SettingSteering


class ConfigError(ValueError):
    pass


def _require(cfg: dict, field: str, path: str):
    if field not in cfg:
        raise ConfigError(f"missing field '{path}{field}'")
    return cfg[field]


def _check_keys(cfg: dict, allowed, path: str = ""):
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected an object at '{path or '<root>'}'")
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown field '{path}{key}'")


def load_config(path: str) -> tuple:
    """(config, SHA-256 of the bytes parsed): the manifest records the file
    as it was read, whatever happens to it during the run."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def build_strategy(spec: dict, epsilon: float, path: str = "sv."):
    if not isinstance(spec, dict):
        raise ConfigError(f"expected an object at '{path[:-1]}'")
    name = _require(spec, "strategy", path)
    if name == "honest":
        _check_keys(spec, {"strategy"}, path)
        return HonestBits()
    if name == "greedy":
        _check_keys(spec, {"strategy", "target"}, path)
        return GreedyTowardString(_bits(spec.get("target", [0]), f"{path}target"), epsilon)
    if name == "constant":
        _check_keys(spec, {"strategy", "bias"}, path)
        return ConstantBias(_number(spec.get("bias", epsilon), f"{path}bias"))
    if name == "steer":
        _check_keys(spec, {"strategy", "setting"}, path)
        return SettingSteering(_bits(_require(spec, "setting", path), f"{path}setting"), epsilon)
    raise ConfigError(f"unknown strategy '{name}' at '{path}strategy'")


def build_box(spec: dict, path: str = "device.") -> NsBox:
    _check_keys(
        spec, {"model", "state_mixing", "basis_rotation", "weight", "table"}, path
    )
    model = _require(spec, "model", path)
    if model == "quantum":
        return noisy_box(
            NoiseSpec(
                state_mixing=_number(spec.get("state_mixing", 0.0), f"{path}state_mixing"),
                basis_rotation=_number(spec.get("basis_rotation", 0.0), f"{path}basis_rotation"),
            )
        )
    if model == "uniform":
        return uniform_box()
    if model == "algebraic":
        return algebraic_violation_box()
    if model == "mixed_algebraic":
        return mixed_with_uniform(algebraic_violation_box(), _number(spec.get("weight", 0.0), f"{path}weight"))
    if model == "table":
        return NsBox(_numbers(_require(spec, "table", path), f"{path}table", nested=True))
    raise ConfigError(f"unknown device model '{model}' at '{path}model'")


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


def cmd_certify(args) -> int:
    """Certify the LP guessing bound at every delta of the config's grid.

    On the HiGHS route the deltas are certified on up to min(#deltas, CPUs)
    threads; the simplex route runs on the calling thread.  Entries, prints,
    certify.json and the manifest are built afterwards in grid order, so
    they are the same whatever the number of threads."""
    cfg, cfg_sha256 = load_config(args.config)
    _check_keys(cfg, {"deltas", "method", "tolerance"})
    deltas = _require(cfg, "deltas", "")
    values = _numbers(deltas, "deltas")
    if not values:
        raise ConfigError("field 'deltas' must list at least one value")
    method = cfg.get("method", "highs")
    if method not in ("highs", "simplex"):
        raise ConfigError(f"unknown value {method!r} for field 'method'")
    tol = _number(cfg.get("tolerance", 1e-8), "tolerance")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"field 'tolerance' must be a finite number >= 0, got {tol!r}")

    def certify(value):
        """certify_bound's report for one delta, or the exception it raised."""
        try:
            # certify_bound raises unless the bound holds on all 16 instances
            return certify_bound(value, method=method, tol=tol)
        except Exception as exc:  # solver failure is a reportable outcome
            return exc

    # HiGHS releases the GIL while it solves, so threads overlap one delta's
    # solves with another's checks; the simplex route holds the GIL in its
    # per-pivot Python and gains nothing from threads.
    workers = min(len(values), os.cpu_count() or 1) if method == "highs" else 1
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            # imported here: only a pool needs it, and it slows every command's start
            from concurrent.futures import ThreadPoolExecutor

            prepare_highs()  # no worker then imports a module or builds a cache
            mapper = stack.enter_context(ThreadPoolExecutor(max_workers=workers)).map
        outcomes = list(mapper(certify, values))
    grid, passed, reports = [], True, []
    for delta, outcome in zip(deltas, outcomes):
        if isinstance(outcome, Exception):
            grid.append({"delta": delta, "error": str(outcome), "error_type": type(outcome).__name__})
            passed = False
        else:
            grid.append(outcome.to_json())
            reports.append(outcome)
    summary = {
        "passed": passed,
        "method": method,
        "bound_formula": "min((11 + 7 delta)/32, 1/2)",
        "grid": grid,
    }
    if args.out:
        metrics = {"certificates": [
            {"delta": r.delta, "solved": r.solved, "dual_residual": r.dual_residual,
             "duality_gap": r.duality_gap}
            for r in reports
        ]}
        write_outputs(args.out, "certify", cfg_sha256, {"certify.json": _json_bytes(summary)}, metrics)
    for entry in grid:
        if "error" in entry:
            print(f"delta={entry['delta']}: ERROR {entry['error']}")
        else:
            print(
                f"delta={entry['delta']}: max_optimum={entry['max_optimum']:.9f} "
                f"bound={entry['bound']:.9f} {'ok' if entry['passed'] else 'VIOLATED'}"
            )
    if reports:
        print(f"solved {reports[-1].solved} of {len(INSTANCE_KEYS)} instances per delta (symmetry orbits)")
        print(
            f"dual certificates: worst residual {max(r.dual_residual for r in reports):.3e}, "
            f"worst |dual/2 - primal| {max(r.duality_gap for r in reports):.3e}"
        )
    print("certification:", "pass" if passed else "FAIL")
    return 0 if passed else 1


def _integer(value, field: str) -> int:
    """A config field that must be a JSON integer: a float, a string or
    true/false (a bool is an int in Python) is refused, not truncated."""
    if type(value) is not int:
        raise ConfigError(f"field '{field}' must be an integer, got {value!r}")
    return value


def _bits(value, field: str) -> tuple:
    """A config field that must be a JSON list of the integers 0 and 1: a
    string, true/false, a float or any other integer is refused, not
    converted."""
    if not isinstance(value, list) or any(type(b) is not int or b not in (0, 1) for b in value):
        raise ConfigError(f"field '{field}' must be a list of the integers 0 and 1, got {value!r}")
    return tuple(value)


def _number(value, field: str) -> float:
    """A config field that must be a JSON number, as a float: a string, null
    or true/false is refused, not converted."""
    if type(value) not in (int, float):
        raise ConfigError(f"field '{field}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"field '{field}' is too large for a float")


def _numbers(value, field: str, nested: bool = False) -> list:
    """A JSON list of numbers, each checked by _number.  With nested, an
    entry may itself be such a list, to any depth; the shape is left to the
    caller."""
    if not isinstance(value, list):
        raise ConfigError(f"field '{field}' must be a list, got {value!r}")
    return [_numbers(v, f"{field}[{i}]", nested) if nested and isinstance(v, list) else _number(v, f"{field}[{i}]")
            for i, v in enumerate(value)]


def _use_counts(value, scalar: bool):
    """The field 'n': a list of integers, or with scalar one integer for
    every device, as ProtocolParams takes it."""
    if scalar and type(value) is int:
        return value
    if isinstance(value, list) and all(type(v) is int for v in value):
        return tuple(value)
    kind = "an integer or a list of integers" if scalar else "a list of integers"
    raise ConfigError(f"field 'n' must be {kind}, got {value!r}")


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
    cfg, cfg_sha256 = load_config(args.config)
    _check_keys(
        cfg,
        {"epsilon", "delta", "mu", "k", "n", "t", "trials", "seed", "device", "sv"},
    )
    params = ProtocolParams(
        epsilon=_number(_require(cfg, "epsilon", ""), "epsilon"),
        delta=_number(_require(cfg, "delta", ""), "delta"),
        mu=_number(_require(cfg, "mu", ""), "mu"),
        k=_integer(_require(cfg, "k", ""), "k"),
        n=_use_counts(cfg["n"], scalar=True) if "n" in cfg else (1,),
        t=_number(cfg.get("t", 1e6), "t"),
    )
    box = build_box(_require(cfg, "device", ""))
    strategy = build_strategy(_require(cfg, "sv", ""), params.epsilon)
    trials = args.trials if args.trials is not None else _integer(cfg.get("trials", 100), "trials")
    if trials < 1:
        raise ConfigError("field 'trials' must be positive")
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError("option '--jobs' must be positive")
    seed = args.seed if args.seed is not None else _integer(cfg.get("seed", 0), "seed")

    devices = [IidDevice(box)] * params.k
    engine = "vectorized" if fast_path_applicable(params, devices, strategy) else "general"
    # Worker start-up (each imports numpy and randamp) costs more than
    # a whole vectorized run, and a worker beyond the chunk count has no work.
    workers = 1 if engine == "vectorized" else min(args.jobs or 1, -(-trials // SIMULATE_CHUNK))
    written = {}
    os.makedirs(args.out, exist_ok=True)
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            # imported here: only a pool needs them, and they slow every command's start
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            spawn = multiprocessing.get_context("spawn")  # fork is unsafe with BLAS threads
            mapper = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers, mp_context=spawn)
            ).map
        chunks = simulate_trials(params, devices, strategy, trials, seed, mapper=mapper)
        with _atomic_output(args.out, "trials.csv", written) as write:
            n_acc, zeros, n_chunks = _stream_trials(chunks, write)

    summary = {
        "params": {
            "epsilon": params.epsilon,
            "delta": params.delta,
            "mu": params.mu,
            "k": params.k,
            "n": list(params.n),
            "t": params.t,
        },
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
    write_outputs(
        args.out,
        "simulate",
        cfg_sha256,
        {"summary.json": _json_bytes(summary)},
        metrics={"engine": engine, "workers": workers, "chunks": n_chunks},
        written=written,
    )
    print(
        f"simulate: {trials} trials, engine={engine}, workers={workers}, "
        f"acceptance {summary['acceptance_rate']:.4f}, "
        f"outputs in {args.out}"
    )
    return 0


def cmd_definetti(args) -> int:
    cfg, cfg_sha256 = load_config(args.config)
    _check_keys(
        cfg, {"epsilon", "n", "schedule", "t_levels", "system", "sv", "pinsker", "sigma_size"}
    )
    pinsker = cfg.get("pinsker", False)
    if not isinstance(pinsker, bool):
        raise ConfigError(f"field 'pinsker' must be true or false, got {pinsker!r}")
    sigma_size = cfg.get("sigma_size")
    # JSON true/false load as bool, a subclass of int: not a size
    if "sigma_size" in cfg and not (type(sigma_size) is int and sigma_size >= 2):
        raise ConfigError(f"field 'sigma_size' must be an integer >= 2, got {sigma_size!r}")
    epsilon = _number(_require(cfg, "epsilon", ""), "epsilon")
    if "n" in cfg:
        n = list(_use_counts(cfg["n"], scalar=False))
    elif "schedule" in cfg:
        sched = cfg["schedule"]
        _check_keys(sched, {"k", "t", "k_exponent"}, "schedule.")
        n = block_sizes(
            epsilon,
            _integer(_require(sched, "k", "schedule."), "schedule.k"),
            _number(_require(sched, "t", "schedule."), "schedule.t"),
            _integer(sched.get("k_exponent", 2), "schedule.k_exponent"),
        )
    else:
        raise ConfigError("missing field 'n' (or 'schedule')")
    t_levels = _numbers(_require(cfg, "t_levels", ""), "t_levels")
    system_spec = _require(cfg, "system", "")
    _check_keys(system_spec, {"type", "components", "weights"}, "system.")
    if _require(system_spec, "type", "system.") != "exchangeable":
        raise ConfigError("only system.type 'exchangeable' is supported")
    components = _numbers(_require(system_spec, "components", "system."), "system.components", nested=True)
    components = [np.asarray(c, dtype=float) for c in components]
    weights = _numbers(_require(system_spec, "weights", "system."), "system.weights")
    system = ExchangeableMixture(n, components, weights)
    strategy = build_strategy(_require(cfg, "sv", ""), epsilon)
    report = definetti_check(
        system, strategy, epsilon, t_levels, sigma_size=sigma_size, pinsker=pinsker
    )
    payload = report.to_json()
    if args.out:
        metrics = {"selections": len(report.selections), "types": report.types, "chunks": report.chunks}
        write_outputs(args.out, "definetti", cfg_sha256, {"definetti.json": _json_bytes(payload)}, metrics)
    print(
        f"definetti: n={n} max T={report.max_t:.6f} threshold={report.threshold:.6f} "
        f"exceed fraction={report.weighted_exceed_fraction:.6f} "
        f"<= bound {report.probability_bound:.6f}"
    )
    return 0


def cmd_quantum_check(args) -> int:
    cfg, cfg_sha256 = load_config(args.config) if args.config else ({}, None)
    _check_keys(cfg, {"state_mixing", "basis_rotation"})
    noise = NoiseSpec(
        state_mixing=_number(cfg.get("state_mixing", 0.0), "state_mixing"),
        basis_rotation=_number(cfg.get("basis_rotation", 0.0), "basis_rotation"),
    )
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
        write_outputs(
            args.out, "quantum-check", cfg_sha256, {"quantum_check.json": _json_bytes(payload)}
        )
    print(
        f"quantum-check: norm={payload['state_norm']:.12f} "
        f"bell_clean={payload['bell_value_clean']:.3e} "
        f"bell_noisy={payload['bell_value_noisy']:.6f}"
    )
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
    cfg, cfg_sha256 = load_config(args.config)
    _check_keys(cfg, {"epsilon", "delta", "mu", "k", "t", "k_exponent"})
    params = ProtocolParams(
        epsilon=_number(_require(cfg, "epsilon", ""), "epsilon"),
        delta=_number(_require(cfg, "delta", ""), "delta"),
        mu=_number(_require(cfg, "mu", ""), "mu"),
        k=_integer(_require(cfg, "k", ""), "k"),
        t=_number(cfg.get("t", 1e6), "t"),
    )
    k_exp = _integer(cfg.get("k_exponent", 2), "k_exponent")
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
    logs = log2_block_sizes(params.epsilon, params.k, params.t, k_exp)
    try:
        sizes = block_sizes(params.epsilon, params.k, params.t, k_exp)
        for i, (size, lg) in enumerate(zip(sizes, logs), start=1):
            lines.append(f"  n_{i} = {size}")
    except OverflowError:
        for i, lg in enumerate(logs, start=1):
            if math.isinf(lg):
                # log2 itself left the float range; so does every later level
                lines.append(f"  n_{i}..n_{len(logs)} exceed 2^{sys.float_info.max:.4g}")
                break
            lines.append(f"  n_{i} ~ {_sci_from_log2(lg)}")
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
        parser.add_argument("--jobs", type=int, help="worker processes over trial chunks")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
