"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/selftest.py

Checks that BENCHMARK.json and bench/metrics.py agree, that every workload
emits every metric with its unit in both modes, that traced counts repeat
for a seed, that each output check trips on a corrupted result, and that
the benchmark fails without printing a result when the package is absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import reference as ref  # noqa: E402
from workloads import WORKLOADS, Certify, Definetti, Simulate  # noqa: E402

SCRATCH = ROOT / ".bench_out" / "selftest"


def bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_metrics_module(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["bench"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
            [(n, u, b, bd) for n, u, b, bd, _ in metrics.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(n, u, b) for n, u, b, _ in metrics.PER_LAYER])


class EveryMetric(unittest.TestCase):
    def check_run(self, workload: str, trace: int):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = last_json(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = metrics.PER_LAYER if trace else metrics.END_TO_END
        self.assertEqual(list(result["metrics"]), [m[0] for m in declared])
        for name, entry in result["metrics"].items():
            self.assertEqual(entry["unit"], metrics.UNITS[name], name)
            self.assertTrue(math.isfinite(entry["value"]), name)
            if not trace:
                self.assertGreater(entry["value"], 0.0, name)
        return result

    def test_all_workloads_both_modes(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_traced_counts_repeat(self):
        first, second = (self.check_run("simulate", 1)["metrics"] for _ in range(2))
        counts = [n for n, u, *_ in metrics.PER_LAYER if u in ("count", "ratio") and n != "trace.spans"]
        for name in counts:
            self.assertEqual(first[name]["value"], second[name]["value"], name)
        self.assertGreater(first["sv.bits_drawn"]["value"], 0)

    def test_fails_without_the_package(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = bench("certify", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


def certify_summary(method: str, delta: float) -> dict:
    """A correct one-delta certify.json: one instance at the LP value, the
    rest below it."""
    top = ref.lp_value_function(delta)
    optima = {f"s{i}|guess={i % 2}": top - 0.01 * (i % 3) for i in range(16)}
    return {"passed": True, "method": method, "grid": [{
        "delta": delta, "bound": ref.analytic_cap(delta), "max_optimum": top,
        "passed": True, "method": method, "optima": optima}]}


class OutputChecksTrip(unittest.TestCase):
    delta = 1.0 / 3.0

    def failures(self, highs, simplex):
        return sum(Certify().failed_instances([self.delta], highs, simplex).values())

    def test_certify_clean(self):
        self.assertEqual(self.failures(certify_summary("highs", self.delta), certify_summary("simplex", self.delta)), 0)

    def test_certify_optimum_above_cap(self):
        bad = certify_summary("highs", self.delta)
        entry = bad["grid"][0]
        entry["optima"]["s1|guess=1"] = entry["bound"] + 1e-6
        entry["max_optimum"] = entry["bound"] + 1e-6
        self.assertGreater(self.failures(bad, certify_summary("simplex", self.delta)), 0)

    def test_certify_value_function_mismatch(self):
        bad = certify_summary("simplex", self.delta)
        entry = bad["grid"][0]
        for key in entry["optima"]:
            entry["optima"][key] -= 1e-3
        entry["max_optimum"] -= 1e-3
        self.assertGreaterEqual(self.failures(certify_summary("highs", self.delta), bad), 16)

    def test_certify_routes_disagree(self):
        bad = certify_summary("simplex", self.delta)
        bad["grid"][0]["optima"]["s2|guess=0"] -= 1e-4
        self.assertEqual(self.failures(certify_summary("highs", self.delta), bad), 2)

    def test_certify_error_entry(self):
        bad = certify_summary("highs", self.delta)
        bad["grid"][0] = {"delta": self.delta, "error": "solver failed"}
        self.assertGreaterEqual(self.failures(bad, certify_summary("simplex", self.delta)), 16)

    def test_failed_ops_leave_the_rates(self):
        from run import count_failures
        from workloads import PassRecord

        rec = PassRecord()
        rec.add("a", 10, (1.0, 1.0))
        rec.add("b", 5, (1.0, 1.0), ops=1)
        self.assertEqual(count_failures(rec, {"a": 3, "b": 5}), 4)
        self.assertEqual((rec.parts["a"].good, rec.parts["b"].good), (7, 0))

    def test_sampler_takes_its_own_time_out(self):
        import time

        from calibrate import INTERVAL_S, SpeedSampler

        with SpeedSampler() as sampler:
            _, raw, scaled = sampler.timed(lambda: time.sleep(3 * INTERVAL_S + 0.05))
        self.assertGreaterEqual(len(sampler.samples), 5)  # before, 3 during, after
        self.assertGreater(raw, 3 * INTERVAL_S)
        self.assertLess(raw, 3 * INTERVAL_S + 0.05 + 0.01)
        self.assertGreater(scaled, 0.0)

    def test_acceptance_outside_reference_interval(self):
        p_acc, p_zero = 0.6027, 0.5
        self.assertTrue(ref.rates_match(p_acc, p_zero, 6027, 10000, 3010))
        self.assertFalse(ref.rates_match(p_acc, p_zero, 5000, 10000, 2500))
        self.assertFalse(ref.rates_match(p_acc, p_zero, 6027, 10000, 4000))

    def test_simulate_rows(self):
        sim = Simulate()
        thr = ref.acceptance_threshold(0.1, 0.8, 0.9)
        sel, m = "|".join(["1"] * 20), "|".join(["9"] * 20)
        good = f"{sim.HEADER}\n0,1,0,0,{sel},{m}\n1,0,0.05,-1,{sel},{m}\n"
        self.assertEqual(sim._rows_ok(good, 2, thr), (0, 1, 1))
        rejected_with_output = f"{sim.HEADER}\n0,0,0.05,1,{sel},{m}\n1,0,0.05,-1,{sel},{m}\n"
        self.assertEqual(sim._rows_ok(rejected_with_output, 2, thr)[0], 1)
        missing_row = f"{sim.HEADER}\n0,1,0,0,{sel},{m}\n"
        self.assertEqual(sim._rows_ok(missing_row, 2, thr)[0], 1)

    def definetti_report(self, pinsker: bool):
        n, comps, weights = (1, 2), [[[0.9, 0.7], [0.1, 0.3]], [[0.2, 0.6], [0.8, 0.4]]], [0.3, 0.7]
        exact = ref.definetti_exact(n, [np.array(c) for c in comps], weights, (0, 1), 0.1)
        report = {
            "selections": [{"selection": list(s), "weight": w, "t": t} for s, (w, t) in exact.items()],
            "max_t": max(t for _, t in exact.values()),
            "pinsker_worst_slack": -0.01 if pinsker else float("-inf"),
        }
        return report, exact

    def test_definetti_clean(self):
        for pinsker in (True, False):
            report, exact = self.definetti_report(pinsker)
            self.assertTrue(Definetti().report_ok(report, exact, pinsker))

    def test_definetti_positive_pinsker_slack(self):
        report, exact = self.definetti_report(True)
        report["pinsker_worst_slack"] = 1e-6
        self.assertFalse(Definetti().report_ok(report, exact, True))

    def test_definetti_max_t_off(self):
        report, exact = self.definetti_report(False)
        report["max_t"] += 1e-6
        self.assertFalse(Definetti().report_ok(report, exact, False))
        report, exact = self.definetti_report(False)
        report["selections"][0]["t"] += 1e-6
        self.assertFalse(Definetti().report_ok(report, exact, False))

    def test_determinism_and_manifest(self):
        from workloads import _cli

        SCRATCH.mkdir(parents=True, exist_ok=True)
        cfg = SCRATCH / "sim.json"
        cfg.write_text(json.dumps(dict(Simulate.BASE, trials=4, seed=1)))
        outs = [SCRATCH / f"sim_{i}" for i in range(3)]
        for out, seed in zip(outs, ("1", "1", "2")):
            self.assertEqual(_cli(["simulate", "--config", str(cfg), "--out", str(out), "--seed", seed]), 0)
        self.assertTrue(Simulate.same_outputs(outs[0], outs[1]))
        self.assertFalse(Simulate.same_outputs(outs[0], outs[2]))
        with open(outs[1] / "trials.csv", "a") as fh:
            fh.write("\n")
        self.assertFalse(Simulate.same_outputs(outs[0], outs[1]))


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
