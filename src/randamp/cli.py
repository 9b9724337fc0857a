"""Command-line front end: strict JSON configs in, JSON/CSV artifacts out.

Every run writes its outputs plus a manifest of SHA-256 hashes; the manifest
lands atomically after the files it describes.  All randomness descends from
one master seed, one child stream per fixed-size chunk of trials, so reruns
are byte-identical whatever the number of worker processes.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import io
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .boxes import NsBox, algebraic_violation_box, bell_value, mixed_with_uniform, uniform_box
from .definetti import ExchangeableMixture, block_sizes, definetti_check, log2_block_sizes
from .devices import IidDevice
from .lp import INSTANCE_KEYS, analytic_bound, certify_bound
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
    validate_state,
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


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
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
        return GreedyTowardString(spec.get("target", [0]), epsilon)
    if name == "constant":
        _check_keys(spec, {"strategy", "bias"}, path)
        return ConstantBias(spec.get("bias", epsilon))
    if name == "steer":
        _check_keys(spec, {"strategy", "setting"}, path)
        return SettingSteering(_require(spec, "setting", path), epsilon)
    raise ConfigError(f"unknown strategy '{name}' at '{path}strategy'")


def build_box(spec: dict, path: str = "device.") -> NsBox:
    _check_keys(
        spec, {"model", "state_mixing", "basis_rotation", "weight", "table"}, path
    )
    model = _require(spec, "model", path)
    if model == "quantum":
        return noisy_box(
            NoiseSpec(
                state_mixing=float(spec.get("state_mixing", 0.0)),
                basis_rotation=float(spec.get("basis_rotation", 0.0)),
            )
        )
    if model == "uniform":
        return uniform_box()
    if model == "algebraic":
        return algebraic_violation_box()
    if model == "mixed_algebraic":
        return mixed_with_uniform(algebraic_violation_box(), float(spec.get("weight", 0.0)))
    if model == "table":
        return NsBox(_require(spec, "table", path))
    raise ConfigError(f"unknown device model '{model}' at '{path}model'")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_outputs(out_dir: str, command: str, config_path: str | None, files: dict,
                  metrics: dict | None = None):
    """files: name -> bytes.  Writes data files, then the manifest, each via
    temp-file rename so a crash never leaves a half-written artifact.
    metrics, facts about the run that are not results (so the data files stay
    byte-stable), go into the manifest only."""
    os.makedirs(out_dir, exist_ok=True)
    for name, payload in files.items():
        tmp = os.path.join(out_dir, f".{name}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, os.path.join(out_dir, name))
    manifest = {
        "command": command,
        "version": __version__,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config_sha256": sha256_file(config_path) if config_path else None,
        "outputs": {
            name: sha256_file(os.path.join(out_dir, name)) for name in sorted(files)
        },
    }
    if metrics is not None:
        manifest["metrics"] = metrics
    tmp = os.path.join(out_dir, ".manifest.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))


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
    cfg = load_config(args.config)
    _check_keys(cfg, {"deltas", "method", "tolerance"})
    deltas = _require(cfg, "deltas", "")
    if not deltas:
        raise ConfigError("field 'deltas' must list at least one value")
    method = cfg.get("method", "highs")
    if method not in ("highs", "simplex"):
        raise ConfigError(f"unknown value {method!r} for field 'method'")
    tol = float(cfg.get("tolerance", 1e-8))
    grid, passed, reports = [], True, []
    for delta in deltas:
        try:
            # certify_bound raises unless the bound holds on all 16 instances
            report = certify_bound(float(delta), method=method, tol=tol)
            grid.append(report.to_json())
            reports.append(report)
        except Exception as exc:  # solver failure is a reportable outcome
            grid.append({"delta": delta, "error": str(exc), "error_type": type(exc).__name__})
            passed = False
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
        write_outputs(args.out, "certify", args.config, {"certify.json": _json_bytes(summary)}, metrics)
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


def _use_counts(value):
    """The simulate field 'n' as ProtocolParams takes it: one integer for
    every device, or a list of integers."""
    # JSON true/false load as bool, a subclass of int: not a count
    if type(value) is int:
        return value
    if isinstance(value, list) and all(type(v) is int for v in value):
        return tuple(value)
    raise ConfigError(f"field 'n' must be an integer or a list of integers, got {value!r}")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    _check_keys(
        cfg,
        {"epsilon", "delta", "mu", "k", "n", "t", "trials", "seed", "device", "sv"},
    )
    params = ProtocolParams(
        epsilon=float(_require(cfg, "epsilon", "")),
        delta=float(_require(cfg, "delta", "")),
        mu=float(_require(cfg, "mu", "")),
        k=int(_require(cfg, "k", "")),
        n=_use_counts(cfg["n"]) if "n" in cfg else (1,),
        t=float(cfg.get("t", 1e6)),
    )
    box = build_box(_require(cfg, "device", ""))
    strategy = build_strategy(_require(cfg, "sv", ""), params.epsilon)
    trials = args.trials if args.trials is not None else int(cfg.get("trials", 100))
    if trials < 1:
        raise ConfigError("field 'trials' must be positive")
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError("option '--jobs' must be positive")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)

    devices = [IidDevice(box)] * params.k
    engine = "vectorized" if fast_path_applicable(params, devices, strategy) else "general"
    # Worker start-up (each imports numpy and randamp) costs more than
    # a whole vectorized run, and a worker beyond the chunk count has no work.
    workers = 1 if engine == "vectorized" else min(args.jobs or 1, -(-trials // SIMULATE_CHUNK))
    if workers > 1:
        spawn = multiprocessing.get_context("spawn")  # fork is unsafe with BLAS threads
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            chunks = list(simulate_trials(params, devices, strategy, trials, seed, mapper=pool.map))
    else:
        chunks = list(simulate_trials(params, devices, strategy, trials, seed))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "accepted", "z_k", "output_bit", "selection", "m_realized"])
    index = n_acc = zeros = 0
    for rows in chunks:
        for z_k, acc, bit, sel, m in zip(
            rows.z_k.tolist(), rows.accepted.tolist(), rows.output.tolist(),
            rows.selection.tolist(), rows.m_realized.tolist(),
        ):
            writer.writerow(
                [index, int(acc), f"{z_k:.12g}", bit, "|".join(map(str, sel)), "|".join(map(str, m))]
            )
            index += 1
        n_acc += int(rows.accepted.sum())
        zeros += int(np.sum(rows.output == 0))

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
        args.config,
        {"summary.json": _json_bytes(summary), "trials.csv": buf.getvalue().encode()},
    )
    print(
        f"simulate: {trials} trials, engine={engine}, workers={workers}, "
        f"acceptance {summary['acceptance_rate']:.4f}, "
        f"outputs in {args.out}"
    )
    return 0


def cmd_definetti(args) -> int:
    cfg = load_config(args.config)
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
    epsilon = float(_require(cfg, "epsilon", ""))
    if "n" in cfg:
        n = [int(v) for v in cfg["n"]]
    elif "schedule" in cfg:
        sched = cfg["schedule"]
        _check_keys(sched, {"k", "t", "k_exponent"}, "schedule.")
        n = block_sizes(
            epsilon,
            int(_require(sched, "k", "schedule.")),
            float(_require(sched, "t", "schedule.")),
            int(sched.get("k_exponent", 2)),
        )
    else:
        raise ConfigError("missing field 'n' (or 'schedule')")
    t_levels = [float(v) for v in _require(cfg, "t_levels", "")]
    system_spec = _require(cfg, "system", "")
    _check_keys(system_spec, {"type", "components", "weights"}, "system.")
    if _require(system_spec, "type", "system.") != "exchangeable":
        raise ConfigError("only system.type 'exchangeable' is supported")
    components = [np.asarray(c, dtype=float) for c in _require(system_spec, "components", "system.")]
    weights = _require(system_spec, "weights", "system.")
    system = ExchangeableMixture(n, components, weights)
    strategy = build_strategy(_require(cfg, "sv", ""), epsilon)
    report = definetti_check(
        system, strategy, epsilon, t_levels, sigma_size=sigma_size, pinsker=pinsker
    )
    payload = report.to_json()
    if args.out:
        write_outputs(args.out, "definetti", args.config, {"definetti.json": _json_bytes(payload)})
    print(
        f"definetti: n={n} max T={report.max_t:.6f} threshold={report.threshold:.6f} "
        f"exceed fraction={report.weighted_exceed_fraction:.6f} "
        f"<= bound {report.probability_bound:.6f}"
    )
    return 0


def cmd_quantum_check(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    _check_keys(cfg, {"state_mixing", "basis_rotation"})
    noise = NoiseSpec(
        state_mixing=float(cfg.get("state_mixing", 0.0)),
        basis_rotation=float(cfg.get("basis_rotation", 0.0)),
    )
    state = build_state()
    validate_state(state)
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
            args.out, "quantum-check", args.config, {"quantum_check.json": _json_bytes(payload)}
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
    cfg = load_config(args.config)
    _check_keys(cfg, {"epsilon", "delta", "mu", "k", "t", "k_exponent"})
    params = ProtocolParams(
        epsilon=float(_require(cfg, "epsilon", "")),
        delta=float(_require(cfg, "delta", "")),
        mu=float(_require(cfg, "mu", "")),
        k=int(_require(cfg, "k", "")),
        t=float(cfg.get("t", 1e6)),
    )
    k_exp = int(cfg.get("k_exponent", 2))
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
        write_outputs(args.out, "bounds", args.config, {"bounds.txt": text.encode()})
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="randamp",
        description="Bell-inequality randomness amplification: certification and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "certify": (cmd_certify, "LP guessing-probability certification over a delta grid"),
        "simulate": (cmd_simulate, "Monte Carlo protocol runs to JSON + CSV"),
        "definetti": (cmd_definetti, "exact product-closeness checks on exchangeable mixtures"),
        "quantum-check": (cmd_quantum_check, "state and measurement-box validation"),
        "bounds": (cmd_bounds, "print every theoretical bound for given parameters"),
    }
    for name, (func, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=(name != "quantum-check"), help="JSON config path")
        p.add_argument("--out", required=(name == "simulate"), help="output directory")
        if name == "simulate":
            p.add_argument("--seed", type=int, help="master seed override")
            p.add_argument("--trials", type=int, help="trial count override")
            p.add_argument("--jobs", type=int, help="worker processes over trial chunks")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
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
