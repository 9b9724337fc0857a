"""The four workloads: inputs from the workload seed, one timed pass, and
the output checks that decide which ops failed.

A pass is a fixed list of ops built once per run; every pass of a run
repeats the same inputs and seeds, so per-pass counts repeat exactly and
each pass can be checked on its own.  Checks run between passes, outside
the timed region and with tracing off.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

EPSILON = 0.1
SOURCE_TARGET = (0, 1)


@dataclass
class Part:
    count: int = 0  # in the unit of the part's rate: LP instances, trials, instances
    ops: int = 0  # in the unit of ops_per_s; differs from count only on audit, whose op is a call
    seconds: float = 0.0  # at the nominal machine speed when calibrated, else raw
    raw_seconds: float = 0.0
    good: int = 0  # count that passed the checks


@dataclass
class PassRecord:
    """One pass.  A workload's check returns the failed count per part."""

    parts: dict = field(default_factory=lambda: {"a": Part(), "b": Part()})
    outputs: list = field(default_factory=list)
    failed_ops: int = 0

    def add(self, part: str, count: int, timing: tuple, ops: int | None = None) -> None:
        entry = self.parts[part]
        entry.count += count
        entry.ops += count if ops is None else ops
        entry.seconds += timing[0]
        entry.raw_seconds += timing[1]

    @property
    def ops(self) -> int:
        return sum(p.ops for p in self.parts.values())

    @property
    def seconds(self) -> float:
        return sum(p.seconds for p in self.parts.values())


@dataclass
class Clock:
    """Times ops: inside tracer spans on traced passes, scaled to the
    nominal machine speed by a calibrate.SpeedSampler on untraced ones."""

    tracer: object = None
    sampler: object = None

    def op(self, name: str, fn):
        """(result, (seconds, raw seconds), raised).  An op that raises is
        reported on stderr and left for its workload's check to count."""
        outcome = {"result": None, "raised": False}

        def call():
            try:
                outcome["result"] = fn()
            except Exception:
                outcome["raised"] = True
                traceback.print_exc()

        scope = self.tracer.op(name) if self.tracer is not None else contextlib.nullcontext()
        with scope:
            if self.sampler is not None:
                _, raw, seconds = self.sampler.timed(call)
            else:
                start = time.perf_counter()
                call()
                raw = seconds = time.perf_counter() - start
        return outcome["result"], (seconds, raw), outcome["raised"]


def _cli(argv):
    """randamp's CLI in-process; its messages are kept off stdout, and shown
    on stderr when it exits non-zero."""
    from randamp.cli import main

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        print(f"randamp {argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def _manifest_holds(out_dir: Path) -> bool:
    """Recompute every digest the manifest lists, independently of the CLI."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return bool(manifest["outputs"]) and all(
        hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest
        for name, digest in manifest["outputs"].items()
    )


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


class Certify:
    """randamp certify over a delta grid that hits every linear piece of the
    LP value function, on the HiGHS route (part a) and the simplex route (b)."""

    name = "certify"
    CAP_TOL = 1e-8  # the CLI's own default tolerance
    AGREE_TOL = 1e-7  # route agreement, as in acceptance criterion 3

    def make_inputs(self, seed: int, size: str, workdir: Path) -> dict:
        rng = _rng(seed, 1)
        if size == "tiny":
            deltas = [1.0 / 3.0]
        else:
            deltas = [
                round(float(rng.uniform(0.02, 0.2)), 6),  # piece 1/4 + 5d/8
                round(float(rng.uniform(0.24, 0.32)), 6),  # piece 1/3 + d/4
                1.0 / 3.0,  # tight point: optimum = cap = 5/12
                round(float(rng.uniform(0.4, 0.95)), 6),  # piece 3/8 + d/8
                round(float(rng.uniform(1.05, 3.0)), 6),  # cap 1/2
            ]
        routes = {}
        for part, method in (("a", "highs"), ("b", "simplex")):
            cfg = _write_json(workdir / f"certify_{method}.json", {"deltas": deltas, "method": method})
            routes[part] = (method, cfg, workdir / f"out_certify_{method}")
        return {"deltas": deltas, "routes": routes}

    def run_pass(self, inputs: dict, clock: Clock) -> PassRecord:
        rec = PassRecord()
        per_route = 16 * len(inputs["deltas"])
        for part, (method, cfg, out) in inputs["routes"].items():
            rc, dt, err = clock.op(f"certify[{method}]",
                                   lambda: _cli(["certify", "--config", cfg, "--out", str(out)]))
            rec.add(part, per_route, dt)
            rec.outputs.append((part, rc, err, out))
        return rec

    def check(self, inputs: dict, rec: PassRecord) -> tuple:
        results = {}
        for part, rc, err, out in rec.outputs:
            summary = None
            if not err and rc == 0 and _manifest_holds(out):
                summary = json.loads((out / "certify.json").read_text())
            results[part] = summary
        return self.failed_instances(inputs["deltas"], results.get("a"), results.get("b")), []

    def failed_instances(self, deltas, highs, simplex) -> dict:
        """LP instances per route whose certificate fails a check; a missing
        or erroring grid entry fails all 16 of its instances."""
        failed = {"a": 0, "b": 0}
        for i, delta in enumerate(deltas):
            entries = []
            for summary, method in ((highs, "highs"), (simplex, "simplex")):
                entry = None
                if summary is not None and summary.get("method") == method and summary.get("passed") is True:
                    grid = summary.get("grid", [])
                    if i < len(grid) and "error" not in grid[i] and grid[i].get("delta") == delta:
                        entry = grid[i]
                entries.append(entry)
            failed["a"] += self._entry_failures(delta, entries[0], entries[1])
            failed["b"] += self._entry_failures(delta, entries[1], entries[0])
        return failed

    def _entry_failures(self, delta, entry, other) -> int:
        if entry is None or len(entry.get("optima", {})) != 16:
            return 16
        cap = ref.analytic_cap(delta)
        optima = entry["optima"]
        whole_entry_ok = (
            abs(entry["bound"] - cap) <= 1e-15
            and entry["max_optimum"] == max(optima.values())
            and abs(entry["max_optimum"] - ref.lp_value_function(delta)) <= self.AGREE_TOL
        )
        if not whole_entry_ok:
            return 16
        failed = 0
        for key, value in optima.items():
            agree = other is not None and key in other["optima"] and (
                abs(value - other["optima"][key]) <= self.AGREE_TOL
            )
            if value > cap + self.CAP_TOL or not agree:
                failed += 1
        return failed


class Simulate:
    """randamp simulate, serial, on the configuration ROADMAP item 3 targets:
    one bulk call (part a) and several small calls (part b)."""

    name = "simulate"
    BASE = {
        "epsilon": EPSILON, "delta": 0.8, "mu": 0.9, "k": 20, "n": [4],
        "device": {"model": "quantum", "state_mixing": 0.05},
        "sv": {"strategy": "greedy", "target": list(SOURCE_TARGET)},
    }
    HEADER = "trial,accepted,z_k,output_bit,selection,m_realized"
    DET_TRIALS = 16

    def make_inputs(self, seed: int, size: str, workdir: Path) -> dict:
        rng = _rng(seed, 2)
        bulk, small, small_trials = (24, 2, 4) if size == "tiny" else (300, 8, 8)
        calls = [("a", bulk)] + [("b", small_trials)] * small
        plan = []
        for i, (part, trials) in enumerate(calls):
            cfg = dict(self.BASE, trials=trials, seed=int(rng.integers(2**31)))
            plan.append((part, trials, _write_json(workdir / f"simulate_{i}.json", cfg), workdir / f"out_sim_{i}"))
        det = _write_json(workdir / "simulate_det.json", dict(self.BASE, trials=self.DET_TRIALS, seed=int(rng.integers(2**31))))
        return {"plan": plan, "det": det, "workdir": workdir}

    def run_pass(self, inputs: dict, clock: Clock) -> PassRecord:
        rec = PassRecord()
        for part, trials, cfg, out in inputs["plan"]:
            rc, dt, err = clock.op(f"simulate[{part}]",
                                   lambda: _cli(["simulate", "--config", cfg, "--out", str(out)]))
            rec.add(part, trials, dt)
            rec.outputs.append((part, trials, rc, err, out))
        return rec

    def exact(self, inputs: dict) -> tuple:
        """(P(accept), P(0 | accept), Bell value check) for the configured device."""
        if "exact" not in inputs:
            from randamp.quantum import NoiseSpec, noisy_box

            mixing = self.BASE["device"]["state_mixing"]
            table = noisy_box(NoiseSpec(state_mixing=mixing)).table
            law = ref.device_law([table], [1.0], ref.kept_setting_law(SOURCE_TARGET, EPSILON))
            b = self.BASE
            thr = ref.acceptance_threshold(b["epsilon"], b["delta"], b["mu"])
            box_ok = abs(ref.bell_value(table) - 4.0 * mixing) <= 1e-9
            inputs["exact"] = ref.protocol_exact(law, b["k"], thr) + (box_ok, thr)
        return inputs["exact"]

    def _rows_ok(self, text: str, trials: int, thr: float):
        """Structural check of trials.csv; (bad rows, accepted, zeros)."""
        lines = text.splitlines()
        if not lines or lines[0] != self.HEADER:
            return trials, 0, 0
        k, n = self.BASE["k"], self.BASE["n"][0]
        addressable = 1 << (n.bit_length() - 1)
        bad = max(0, trials - (len(lines) - 1))
        n_acc = zeros = 0
        for row in csv.reader(lines[1:]):
            try:
                index, acc, z_k, bit = int(row[0]), int(row[1]), float(row[2]), int(row[3])
                sel = [int(v) for v in row[4].split("|")]
                m = [int(v) for v in row[5].split("|")]
                ok = (
                    acc in (0, 1)
                    and (bit in (0, 1)) == bool(acc) and (acc or bit == -1)
                    and 0.0 <= z_k <= 1.0 and (z_k <= thr) == bool(acc)
                    and len(sel) == k and all(0 <= s < addressable for s in sel)
                    and len(m) == k and all(v >= n for v in m)
                    and 0 <= index < trials
                )
            except (ValueError, IndexError):
                ok = False
            if not ok:
                bad += 1
                continue
            n_acc += acc
            zeros += acc and bit == 0
        return bad, n_acc, zeros

    def check(self, inputs: dict, rec: PassRecord) -> tuple:
        p_acc, p_zero, box_ok, thr = self.exact(inputs)
        failed, total, n_acc, zeros = {"a": 0, "b": 0}, 0, 0, 0
        for part, trials, rc, err, out in rec.outputs:
            total += trials
            if err or rc != 0 or not _manifest_holds(out):
                failed[part] += trials
                continue
            bad, acc, zero = self._rows_ok((out / "trials.csv").read_text(), trials, thr)
            summary = json.loads((out / "summary.json").read_text())
            if summary["trials"] != trials or summary["acceptance_rate"] != acc / trials:
                bad = trials
            failed[part] += bad
            n_acc += acc
            zeros += zero
        stats = (n_acc, total, zeros)
        if not (box_ok and ref.rates_match(p_acc, p_zero, *stats)):
            failed = {part: entry.count for part, entry in rec.parts.items()}
        return failed, [stats]

    def extra_check(self, inputs: dict) -> tuple:
        """Same-commit determinism: two runs of one config and seed.  (ops, failed)"""
        outs = [inputs["workdir"] / name for name in ("det_a", "det_b")]
        codes = [_cli(["simulate", "--config", inputs["det"], "--out", str(out)]) for out in outs]
        ok = codes == [0, 0] and self.same_outputs(*outs)
        return 2 * self.DET_TRIALS, 0 if ok else 2 * self.DET_TRIALS

    @staticmethod
    def same_outputs(out_a: Path, out_b: Path) -> bool:
        """Both manifests hold and the data files are byte-identical."""
        from randamp.cli import verify_manifest

        return all(verify_manifest(str(out)) and _manifest_holds(out) for out in (out_a, out_b)) and all(
            (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in ("trials.csv", "summary.json")
        )


def _component_pair(rng) -> list:
    """Two single-party 2-output x 2-input boxes.  P(output 0 | input) lies in
    [0.25, 0.75] and differs between the two boxes by at least 0.2 on each
    input, so no conditional of the Pinsker sweep is within about 1e-10 bits
    of a product: pinsker_gap computes I(A:B) by a cancelling sum, and it
    raises on the sqrt of a negative rounding residue near 0 bits (see
    Definetti.defect_probe)."""
    first = rng.uniform(0.25, 0.75, size=2)
    second = []
    for p in first:
        q = rng.uniform(0.25, 0.75)
        while abs(q - p) < 0.2:
            q = rng.uniform(0.25, 0.75)
        second.append(q)
    return [[[float(p[0]), float(p[1])], [float(1 - p[0]), float(1 - p[1])]] for p in (first, second)]


class Definetti:
    """randamp definetti on two exchangeable two-component mixtures: instance
    A (part a) runs the Pinsker sweep, instance B (part b) is the largest
    dense tensor without it."""

    name = "definetti"
    SLACK_TOL = 1e-12
    T_TOL = 1e-9

    def make_inputs(self, seed: int, size: str, workdir: Path) -> dict:
        rng = _rng(seed, 3)
        shapes = {"a": ([1, 2] if size == "tiny" else [1, 8], True),
                  "b": ([2, 2] if size == "tiny" else [2, 8], False)}
        instances = {}
        for part, (n, pinsker) in shapes.items():
            w = round(float(rng.uniform(0.2, 0.8)), 6)
            cfg = {
                "epsilon": EPSILON, "n": n, "t_levels": [4.0],
                "system": {"type": "exchangeable", "components": _component_pair(rng),
                           "weights": [w, round(1.0 - w, 6)]},
                "sv": {"strategy": "greedy", "target": list(SOURCE_TARGET)},
                "pinsker": pinsker,
            }
            path = _write_json(workdir / f"definetti_{part}.json", cfg)
            instances[part] = (cfg, path, workdir / f"out_definetti_{part}")
        return {"instances": instances}

    def run_pass(self, inputs: dict, clock: Clock) -> PassRecord:
        rec = PassRecord()
        for part, (cfg, path, out) in inputs["instances"].items():
            rc, dt, err = clock.op(f"definetti[{part}]",
                                   lambda: _cli(["definetti", "--config", path, "--out", str(out)]))
            rec.add(part, 1, dt)
            rec.outputs.append((part, rc, err, out))
        return rec

    def exact(self, inputs: dict, part: str) -> dict:
        key = f"exact_{part}"
        if key not in inputs:
            cfg = inputs["instances"][part][0]
            system = cfg["system"]
            inputs[key] = ref.definetti_exact(cfg["n"], [np.array(c) for c in system["components"]],
                                              system["weights"], SOURCE_TARGET, EPSILON)
        return inputs[key]

    def check(self, inputs: dict, rec: PassRecord) -> tuple:
        failed = {"a": 0, "b": 0}
        for part, rc, err, out in rec.outputs:
            ok = not err and rc == 0 and _manifest_holds(out)
            if ok:
                report = json.loads((out / "definetti.json").read_text())
                ok = self.report_ok(report, self.exact(inputs, part), inputs["instances"][part][0]["pinsker"])
            failed[part] += not ok
        return failed, []

    @staticmethod
    def defect_probe() -> list:
        """Known defects of the program that the generated inputs steer clear
        of, re-tested on every run so that they stay visible until fixed."""
        try:
            from randamp.definetti import pinsker_gap
        except ImportError:  # reworked away
            return []
        try:
            pinsker_gap(np.outer([0.2, 0.8], [0.2, 0.8]))
        except ValueError as exc:
            return [f"definetti.pinsker_gap raises {exc!r} on an exact product joint: "
                    "its I(A:B) rounds below 0 bits and is not clamped"]
        return []

    def report_ok(self, report: dict, exact: dict, pinsker: bool) -> bool:
        got = {tuple(s["selection"]): (s["weight"], s["t"]) for s in report["selections"]}
        if set(got) != set(exact):
            return False
        for sel, (w, t_val) in exact.items():
            if abs(got[sel][0] - w) > 1e-12 or abs(got[sel][1] - t_val) > self.T_TOL:
                return False
        max_ref = max(t for _, t in exact.values())
        if abs(report["max_t"] - max_ref) > self.T_TOL:
            return False
        slack = report["pinsker_worst_slack"]
        if pinsker:
            return math.isfinite(slack) and slack <= self.SLACK_TOL
        return slack == float("-inf")


class Audit:
    """protocol.estimate_output_bias, called from the library: (a) i.i.d.
    noisy-quantum devices at about 1e6 trials on the vectorized path, (b) a
    history-dependent MixtureDevice adversary on the general path."""

    name = "audit"

    def make_inputs(self, seed: int, size: str, workdir: Path) -> dict:
        from randamp.boxes import uniform_box
        from randamp.devices import IidDevice, MixtureDevice
        from randamp.protocol import ProtocolParams
        from randamp.quantum import NoiseSpec, noisy_box
        from randamp.sv import GreedyTowardString

        rng = _rng(seed, 4)
        k = 20
        mixing = round(float(rng.uniform(0.03, 0.07)), 6)
        uniform_weight = round(float(rng.uniform(0.05, 0.15)), 6)
        noisy = noisy_box(NoiseSpec(state_mixing=mixing))
        clean = noisy_box(NoiseSpec())
        flat = uniform_box()
        source = GreedyTowardString((0,), EPSILON)
        mix_weights = [1.0 - uniform_weight, uniform_weight]
        calls = {
            "a": dict(
                params=ProtocolParams(epsilon=EPSILON, delta=0.8, mu=0.9, k=k),
                adversary=[(1.0, lambda: [IidDevice(noisy)] * k, source)],
                trials=20_000 if size == "tiny" else 1_000_000,
                seed=int(rng.integers(2**31)),
                tables=([noisy.table], [1.0]),
            ),
            "b": dict(
                params=ProtocolParams(epsilon=EPSILON, delta=0.8, mu=0.9, k=k, n=(16,)),
                adversary=[(1.0, lambda: [MixtureDevice([IidDevice(clean), IidDevice(flat)], mix_weights)
                                          for _ in range(k)], source)],
                trials=2 if size == "tiny" else 32,
                seed=int(rng.integers(2**31)),
                tables=([clean.table, flat.table], mix_weights),
            ),
        }
        return {"calls": calls, "k": k}

    def run_pass(self, inputs: dict, clock: Clock) -> PassRecord:
        from randamp.protocol import estimate_output_bias

        rec = PassRecord()
        for part, call in inputs["calls"].items():
            report, dt, err = clock.op(f"audit[{part}]", lambda: estimate_output_bias(
                call["params"], call["adversary"], call["trials"], seed=call["seed"]))
            rec.add(part, call["trials"], dt, ops=1)
            rec.outputs.append((part, report))
        return rec

    def exact(self, inputs: dict, part: str) -> tuple:
        call = inputs["calls"][part]
        tables, weights = call["tables"]
        law = ref.device_law(tables, weights, ref.kept_setting_law((0,), EPSILON))
        p = call["params"]
        return ref.protocol_exact(law, inputs["k"], ref.acceptance_threshold(p.epsilon, p.delta, p.mu))

    def check(self, inputs: dict, rec: PassRecord) -> tuple:
        failed, stats = {"a": 0, "b": 0}, []
        for part, report in rec.outputs:
            ok = report is not None
            if ok:
                trials = inputs["calls"][part]["trials"]
                _, n_acc, p0, _ = report.per_symbol[0]
                zeros = round(p0 * n_acc) if n_acc else 0
                p_acc, p_zero = self.exact(inputs, part)
                ok = (
                    report.acceptance_rate == n_acc / trials
                    and ref.rates_match(p_acc, p_zero, n_acc, trials, zeros)
                )
                stats.append((part, n_acc, trials, zeros))
            if not ok:
                failed[part] += inputs["calls"][part]["trials"]
        return failed, stats


WORKLOADS = {w.name: w for w in (Certify(), Simulate(), Definetti(), Audit())}
