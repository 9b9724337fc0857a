import csv
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from randamp.boxes import INEQUALITY_INDICES, algebraic_violation_box, mixed_with_uniform
from randamp.cli import main, verify_manifest, write_outputs
from randamp.devices import IidDevice
from randamp.protocol import ProtocolParams, per_draw_setting_distribution, run_protocol
from randamp.sv import GreedyTowardString

SIM_CONFIG = {
    "epsilon": 0.1,
    "delta": 0.8,
    "mu": 0.9,
    "k": 3,
    "n": [2],
    "trials": 25,
    "seed": 5,
    "device": {"model": "mixed_algebraic", "weight": 0.1},
    "sv": {"strategy": "greedy", "target": [0, 1]},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_main(argv):
    return main(argv)


def test_simulate_deterministic_and_manifest(tmp_path):
    cfg = write_config(tmp_path, SIM_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert run_main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    csv_a = (out_a / "trials.csv").read_bytes()
    assert csv_a == (out_b / "trials.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert verify_manifest(str(out_a))
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert set(manifest["outputs"]) == {"summary.json", "trials.csv"}
    (out_a / "trials.csv").write_bytes(csv_a + b"tampered\n")
    assert not verify_manifest(str(out_a))


def test_simulate_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path, SIM_CONFIG)
    out_serial, out_par = tmp_path / "serial", tmp_path / "par"
    assert run_main(["simulate", "--config", cfg, "--out", str(out_serial)]) == 0
    assert run_main(
        ["simulate", "--config", cfg, "--out", str(out_par), "--jobs", "2"]
    ) == 0
    assert (out_serial / "trials.csv").read_bytes() == (out_par / "trials.csv").read_bytes()


def test_simulate_csv_columns(tmp_path):
    cfg = write_config(tmp_path, SIM_CONFIG)
    out = tmp_path / "out"
    assert run_main(
        ["simulate", "--config", cfg, "--out", str(out), "--trials", "10"]
    ) == 0
    with open(out / "trials.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for i, row in enumerate(rows):
        assert int(row["trial"]) == i
        assert row["accepted"] in ("0", "1")
        assert 0.0 <= float(row["z_k"]) <= 1.0
        assert (row["output_bit"] == "-1") == (row["accepted"] == "0")
        assert len(row["selection"].split("|")) == SIM_CONFIG["k"]
        assert all(int(m) >= 2 for m in row["m_realized"].split("|"))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 10
    assert summary["params"]["n"] == [2, 2, 2]
    assert 0.0 <= summary["threshold"] <= 1.0


def read_rows(out):
    with open(out / "trials.csv") as fh:
        return list(csv.DictReader(fh))


def test_simulate_vectorized_rows_match_run_protocol(tmp_path, capsys):
    # n = 4, 2, 4: the one-bit selection of device 2 shifts device 3's
    # selection bits to odd source positions, where the greedy [0, 1]
    # source leans the other way
    cfg = dict(SIM_CONFIG, n=[4, 2, 4], trials=20_000, seed=21,
               device={"model": "mixed_algebraic", "weight": 0.3})
    out = tmp_path / "vec"
    assert run_main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert "engine=vectorized" in capsys.readouterr().out
    rows = read_rows(out)
    vec = {
        "accepted": np.array([int(r["accepted"]) for r in rows]),
        "output": np.array([int(r["output_bit"]) for r in rows]),
        "selection": np.array([[int(v) for v in r["selection"].split("|")] for r in rows]),
        "m": np.array([[int(v) for v in r["m_realized"].split("|")] for r in rows]),
    }

    params = ProtocolParams(0.1, 0.8, 0.9, 3, n=(4, 2, 4))
    source = GreedyTowardString((0, 1), 0.1)
    devices = [IidDevice(mixed_with_uniform(algebraic_violation_box(), 0.3))] * 3
    rng = np.random.default_rng(22)
    runs = [run_protocol(params, devices, source, rng) for _ in range(2000)]
    gen = {
        "accepted": np.array([int(r.accepted) for r, _ in runs]),
        "output": np.array([-1 if r.output_bit is None else r.output_bit for r, _ in runs]),
        "selection": np.array([t.selection for _, t in runs]),
        "m": np.array([t.m_realized for _, t in runs]),
    }

    def agree(a, b, exact=None):
        """Two-sample z <= 4; given the exact mean of an indicator, each
        sample also lies within z = 4 of it."""
        var = max(a.var(), b.var(), 1e-12)
        assert abs(a.mean() - b.mean()) <= 4 * math.sqrt(var / len(a) + var / len(b))
        if exact is not None:
            for sample in (a, b):
                assert abs(sample.mean() - exact) <= 4 * math.sqrt(exact * (1 - exact) / len(sample))

    agree(vec["accepted"], gen["accepted"])
    agree(vec["output"][vec["accepted"] == 1] == 0, gen["output"][gen["accepted"] == 1] == 0)
    # selection bit i of the run is 0 w.p. 0.6 at even positions, 0.4 at odd
    exact_selection = [(0.24, 0.36, 0.16, 0.24), (0.6, 0.4), (0.24, 0.16, 0.36, 0.24)]
    for j, law in enumerate(exact_selection):
        for value, p in enumerate(law):
            agree(vec["selection"][:, j] == value, gen["selection"][:, j] == value, p)
    # draws per device: n_j plus a negative binomial count of unkept draws
    kept = per_draw_setting_distribution(source, 0.1)[list(INEQUALITY_INDICES)].sum()
    for j, n_j in enumerate((4, 2, 4)):
        assert vec["m"][:, j].min() >= n_j and gen["m"][:, j].min() >= n_j
        agree(vec["m"][:, j], gen["m"][:, j])
        sd = math.sqrt(n_j * (1 - kept) / kept**2 / len(rows))
        assert abs(vec["m"][:, j].mean() - n_j / kept) <= 4 * sd


def test_simulate_general_engine_rows(tmp_path, capsys):
    # a period-3 source is not position-periodic within a setting draw, so
    # the vectorized sampler would be inexact: run_protocol per trial instead
    cfg = write_config(tmp_path, dict(SIM_CONFIG, trials=300, sv={"strategy": "greedy", "target": [0, 1, 1]}))
    outs = [tmp_path / name for name in ("a", "b", "par")]
    assert run_main(["simulate", "--config", cfg, "--out", str(outs[0])]) == 0
    assert "engine=general" in capsys.readouterr().out
    assert run_main(["simulate", "--config", cfg, "--out", str(outs[1])]) == 0
    assert run_main(["simulate", "--config", cfg, "--out", str(outs[2]), "--jobs", "2"]) == 0
    for name in ("trials.csv", "summary.json"):
        blobs = {(out / name).read_bytes() for out in outs}
        assert len(blobs) == 1
    rows = read_rows(outs[0])
    assert [int(r["trial"]) for r in rows] == list(range(300))
    for row in rows:
        assert (row["output_bit"] == "-1") == (row["accepted"] == "0")
        assert all(int(s) in (0, 1) for s in row["selection"].split("|"))
        assert all(int(m) >= 2 for m in row["m_realized"].split("|"))
    assert 0 < sum(int(r["accepted"]) for r in rows) < 300


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("no worker pool expected")


class InlinePool:
    """Records max_workers and maps in-process instead of spawning."""

    created = []

    def __init__(self, max_workers=None, mp_context=None):
        self.created.append(max_workers)
        self.map = map

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_simulate_jobs_skip_pool_on_vectorized_engine(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, dict(SIM_CONFIG, trials=600))
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
    serial = capsys.readouterr().out
    assert "engine=vectorized, workers=1," in serial
    monkeypatch.setattr("randamp.cli.ProcessPoolExecutor", NoPool)
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "par"), "--jobs", "2"]) == 0
    assert "engine=vectorized, workers=1," in capsys.readouterr().out
    for name in ("trials.csv", "summary.json"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()


def test_simulate_jobs_capped_at_chunk_count(tmp_path, capsys, monkeypatch):
    general = {"strategy": "greedy", "target": [0, 1, 1]}
    monkeypatch.setattr("randamp.cli.ProcessPoolExecutor", InlinePool)
    InlinePool.created.clear()
    # 300 trials are two chunks of at most 256
    cfg = write_config(tmp_path, dict(SIM_CONFIG, trials=300, sv=general))
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "a"), "--jobs", "8"]) == 0
    assert "engine=general, workers=2," in capsys.readouterr().out
    assert InlinePool.created == [2]
    # one chunk: nothing to spread, so no pool
    cfg = write_config(tmp_path, dict(SIM_CONFIG, trials=40, sv=general), name="one.json")
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"), "--jobs", "8"]) == 0
    assert "engine=general, workers=1," in capsys.readouterr().out
    assert InlinePool.created == [2]


def test_certify_records_error_type(tmp_path, capsys, monkeypatch):
    def failing(delta, method="highs", tol=1e-8):
        if delta > 0.1:
            raise ArithmeticError("solver gave up")
        return real(delta, method=method, tol=tol)

    import randamp.cli

    real = randamp.cli.certify_bound
    monkeypatch.setattr(randamp.cli, "certify_bound", failing)
    cfg = write_config(tmp_path, {"deltas": [0.0, 0.2]})
    out = tmp_path / "cert"
    assert run_main(["certify", "--config", cfg, "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "delta=0.2: ERROR solver gave up" in printed
    assert "certification: FAIL" in printed
    payload = json.loads((out / "certify.json").read_text())
    assert payload["passed"] is False
    ok, failed = payload["grid"]
    assert "error" not in ok and ok["passed"] is True
    assert failed == {"delta": 0.2, "error": "solver gave up", "error_type": "ArithmeticError"}
    facts = json.loads((out / "manifest.json").read_text())["metrics"]["certificates"]
    assert [f["delta"] for f in facts] == [0.0]  # only the certified deltas


def test_run_flags_only_on_simulate(tmp_path):
    cfg = write_config(tmp_path, {"deltas": [0.0]})
    for argv in (
        ["certify", "--config", cfg, "--jobs", "2"],
        ["certify", "--config", cfg, "--seed", "1"],
        ["bounds", "--config", cfg, "--trials", "5"],
        ["definetti", "--config", cfg, "--seed", "1"],
        ["quantum-check", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_main(argv)
        assert exc.value.code == 2


def test_simulate_rejects_nonpositive_jobs(tmp_path, capsys):
    cfg = write_config(tmp_path, SIM_CONFIG)
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "x"), "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_certify_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {"deltas": [0.0, 0.2]})
    out = tmp_path / "cert"
    assert run_main(["certify", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "certification: pass" in printed
    assert "delta=0.0: max_optimum=0.250000000" in printed
    assert "solved 2 of 16 instances per delta (symmetry orbits)" in printed
    line = re.search(r"^dual certificates: worst residual (\S+), worst \|dual/2 - primal\| (\S+)$",
                     printed, re.MULTILINE)
    assert line is not None
    assert 0.0 <= float(line.group(1)) <= 1e-9
    assert 0.0 <= float(line.group(2)) <= 1e-9
    payload = json.loads((out / "certify.json").read_text())
    assert payload["passed"] is True
    grid = payload["grid"]
    assert [g["delta"] for g in grid] == [0.0, 0.2]
    assert grid[0]["max_optimum"] <= grid[1]["max_optimum"]
    assert verify_manifest(str(out))
    # The certificate facts go to the manifest, not to certify.json.
    assert not {"solved", "dual_residual", "duality_gap"} & set(grid[0])
    manifest = json.loads((out / "manifest.json").read_text())
    facts = manifest["metrics"]["certificates"]
    assert [f["delta"] for f in facts] == [0.0, 0.2]
    assert all(f["solved"] == 2 for f in facts)
    assert all(0.0 <= f[key] <= 1e-9 for f in facts for key in ("dual_residual", "duality_gap"))
    assert f"{max(f['dual_residual'] for f in facts):.3e}" == line.group(1)


def test_certify_rejects_empty_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, {"deltas": []})
    assert run_main(["certify", "--config", cfg]) == 2
    assert "deltas" in capsys.readouterr().err


def test_certify_rejects_unknown_method(tmp_path, capsys):
    cfg = write_config(tmp_path, {"deltas": [0.0], "method": "both"})
    assert run_main(["certify", "--config", cfg]) == 2
    assert "method" in capsys.readouterr().err


def test_unknown_field_named(tmp_path, capsys):
    bad = dict(SIM_CONFIG)
    bad["epsilonn"] = 0.2
    cfg = write_config(tmp_path, bad)
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "epsilonn" in capsys.readouterr().err


def test_missing_field_named(tmp_path, capsys):
    partial = {k: v for k, v in SIM_CONFIG.items() if k != "mu"}
    cfg = write_config(tmp_path, partial)
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "missing field 'mu'" in capsys.readouterr().err


def test_invalid_parameter_exits_one(tmp_path, capsys):
    bad = dict(SIM_CONFIG)
    bad["mu"] = 1.0
    cfg = write_config(tmp_path, bad)
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert "mu" in capsys.readouterr().err


def test_bad_strategy_and_device_specs(tmp_path, capsys):
    bad = dict(SIM_CONFIG)
    bad["sv"] = {"strategy": "sneaky"}
    cfg = write_config(tmp_path, bad)
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "sneaky" in capsys.readouterr().err

    bad["sv"] = {"strategy": "greedy", "setting": [0, 0, 0, 1]}
    cfg = write_config(tmp_path, bad, "config2.json")
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "sv.setting" in capsys.readouterr().err

    bad["sv"] = {"strategy": "honest"}
    bad["device"] = {"model": "psychic"}
    cfg = write_config(tmp_path, bad, "config3.json")
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "psychic" in capsys.readouterr().err


def test_simulate_use_counts_field(tmp_path, capsys):
    """An integer n counts for every device, as ProtocolParams takes it; any
    other scalar or a nested list is a config error naming the field."""
    outs = {}
    for name, n in (("int", 4), ("list", [4]), ("per_device", [4, 4, 4])):
        cfg = write_config(tmp_path, {**SIM_CONFIG, "n": n}, f"{name}.json")
        assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        assert summary["params"]["n"] == [4, 4, 4]
        outs[name] = (tmp_path / name / "trials.csv").read_bytes()
    assert outs["int"] == outs["list"] == outs["per_device"]
    capsys.readouterr()
    for value in (True, 4.0, "4", [[4]], [2, True], [2.0], None, {"n": 4}):
        cfg = write_config(tmp_path, {**SIM_CONFIG, "n": value}, "bad.json")
        assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2, value
        assert "field 'n'" in capsys.readouterr().err


def test_config_file_errors(tmp_path, capsys):
    assert run_main(["certify", "--config", str(tmp_path / "nope.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_main(["certify", "--config", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_quantum_check_command(tmp_path, capsys):
    assert run_main(["quantum-check"]) == 0
    assert "bell_clean" in capsys.readouterr().out

    cfg = write_config(tmp_path, {"state_mixing": 0.25})
    out = tmp_path / "qc"
    assert run_main(["quantum-check", "--config", cfg, "--out", str(out)]) == 0
    assert "bell_noisy=1.000000" in capsys.readouterr().out
    payload = json.loads((out / "quantum_check.json").read_text())
    assert payload["amplitudes_pm_quarter"] is True
    assert abs(payload["bell_value_clean"]) <= 1e-12
    assert payload["bell_value_noisy"] == pytest.approx(1.0, abs=1e-9)


def test_definetti_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "epsilon": 0.1,
            "n": [1, 2],
            "t_levels": [2.0],
            "system": {
                "type": "exchangeable",
                "components": [[[1, 1], [0, 0]], [[0, 0], [1, 1]]],
                "weights": [0.5, 0.5],
            },
            "sv": {"strategy": "greedy", "target": [0]},
            "pinsker": True,
        },
    )
    out = tmp_path / "df"
    assert run_main(["definetti", "--config", cfg, "--out", str(out)]) == 0
    assert "max T=1.000000" in capsys.readouterr().out
    payload = json.loads((out / "definetti.json").read_text())
    assert payload["max_t"] == pytest.approx(1.0, abs=1e-12)
    assert payload["pinsker_worst_slack"] <= 1e-9
    assert 0.0 <= payload["weighted_exceed_fraction"] <= 1.0


def test_definetti_schedule_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "epsilon": 0.0,
            "schedule": {"k": 2, "t": 0.5},
            "t_levels": [2.0],
            "system": {
                "type": "exchangeable",
                "components": [[[0.9, 0.9], [0.1, 0.1]], [[0.1, 0.1], [0.9, 0.9]]],
                "weights": [0.5, 0.5],
            },
            "sv": {"strategy": "honest"},
        },
    )
    assert run_main(["definetti", "--config", cfg]) == 0
    assert "n=[1, 3]" in capsys.readouterr().out


def test_definetti_rejects_malformed_flags(tmp_path, capsys):
    base = {
        "epsilon": 0.1,
        "n": [1, 2],
        "t_levels": [2.0],
        "system": {
            "type": "exchangeable",
            "components": [[[0.9, 0.9], [0.1, 0.1]], [[0.1, 0.1], [0.9, 0.9]]],
            "weights": [0.5, 0.5],
        },
        "sv": {"strategy": "honest"},
    }
    bad = [("pinsker", "false"), ("pinsker", 1), ("pinsker", None),
           ("sigma_size", 2.7), ("sigma_size", 2.0), ("sigma_size", 1), ("sigma_size", 0),
           ("sigma_size", True), ("sigma_size", "4"), ("sigma_size", None)]
    for field, value in bad:
        cfg = write_config(tmp_path, {**base, field: value})
        assert run_main(["definetti", "--config", cfg]) == 2, (field, value)
        assert f"'{field}'" in capsys.readouterr().err
    # well-formed flags are honoured
    for pinsker, sigma_size in ((False, 4), (True, 2)):
        cfg = write_config(tmp_path, {**base, "pinsker": pinsker, "sigma_size": sigma_size})
        out = tmp_path / f"df_{pinsker}"
        assert run_main(["definetti", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "definetti.json").read_text())
        assert payload["sigma_size"] == sigma_size
        assert math.isfinite(payload["pinsker_worst_slack"]) == pinsker


def test_bounds_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"epsilon": 0.0, "delta": 0.8, "mu": 0.9, "k": 2, "t": 1.0}
    )
    assert run_main(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "acceptance threshold        0.0025" in out
    assert "n_2 = 23" in out

    cfg = write_config(
        tmp_path,
        {"epsilon": 0.49, "delta": 0.8, "mu": 0.9, "k": 3, "t": 2.0},
        "extreme.json",
    )
    assert run_main(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "n_2 ~" in out and "e+" in out  # astronomically deep recursion


def test_bounds_command_at_large_k(tmp_path, capsys):
    cfg = write_config(tmp_path, {"epsilon": 0.1, "delta": 0.8, "mu": 0.9, "k": 100_000})
    assert run_main(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "  estimation term           1\n" in out
    total = float(out.split("distance bound total")[1].split()[0])
    assert math.isfinite(total)
    # Levels whose log2 leaves the float range are summarized on one line.
    assert "..n_100000 exceed 2^" in out and "inf" not in out
    # A float carries ~16 significant digits; no printed figure may claim more.
    schedule = out.split("block schedule:\n")[1].splitlines()
    assert len(schedule) > 1000
    for line in schedule:
        for digits in re.findall(r"\d+(?:\.\d+)?", line):
            assert len(digits.replace(".", "").lstrip("0")) <= 17, line


def test_write_outputs_helper(tmp_path):
    out = tmp_path / "w"
    write_outputs(str(out), "demo", None, {"blob.txt": b"hello\n"})
    assert (out / "blob.txt").read_bytes() == b"hello\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] is None
    assert manifest["command"] == "demo"
    assert verify_manifest(str(out))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "randamp.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for sub in ("certify", "simulate", "definetti", "quantum-check", "bounds"):
        assert sub in proc.stdout


def test_scipy_imported_only_by_lp_solves(tmp_path):
    """Importing the package and running simulate leave scipy unloaded: only
    the LP routes need it, and they import it on first use."""
    cfg = write_config(tmp_path, SIM_CONFIG)
    script = (
        "import sys, randamp, randamp.cli\n"
        "assert 'scipy' not in sys.modules, 'on import'\n"
        f"assert randamp.cli.main(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "assert 'scipy' not in sys.modules, 'after simulate'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
