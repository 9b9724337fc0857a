import csv
import hashlib
import json
import math
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from helpers import clear_lp_caches, reference_trials_csv, run_protocol

import randamp.cli
from randamp.boxes import INEQUALITY_INDICES, algebraic_violation_box, mixed_with_uniform
from randamp.cli import main, verify_manifest, write_outputs
from randamp.devices import IidDevice
from randamp.protocol import ProtocolParams, TrialRows, per_draw_setting_distribution
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
    outs = [tmp_path / name for name in ("a", "b")]
    assert run_main(["simulate", "--config", cfg, "--out", str(outs[0])]) == 0
    assert "engine=general" in capsys.readouterr().out
    assert run_main(["simulate", "--config", cfg, "--out", str(outs[1])]) == 0
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


def read_metrics(out):
    return json.loads((out / "manifest.json").read_text())["metrics"]


def record_chunks(monkeypatch) -> list:
    """Patches the CLI's simulate_trials to keep every chunk it hands out."""
    seen = []

    def recording(*args, **kwargs):
        for rows in real(*args, **kwargs):
            seen.append(rows)
            yield rows

    real = randamp.cli.simulate_trials
    monkeypatch.setattr(randamp.cli, "simulate_trials", recording)
    return seen


GENERAL_SV = {"strategy": "greedy", "target": [0, 1, 1]}


@pytest.mark.parametrize(
    "overrides, extra, engine",
    [
        ({"trials": 600}, [], "vectorized"),
        ({"trials": 300, "sv": GENERAL_SV}, [], "general"),
        ({"trials": 300, "sv": GENERAL_SV}, ["--seed", "6"], "general"),
        ({"k": 1, "trials": 300}, [], "vectorized"),
        ({"k": 1, "trials": 40, "sv": GENERAL_SV}, [], "general"),
        ({"n": [4, 2, 4], "trials": 300}, [], "vectorized"),
        ({"trials": 1}, [], "vectorized"),
        ({"trials": 256}, [], "vectorized"),
        ({"trials": 257}, [], "vectorized"),
        ({"trials": 257, "sv": GENERAL_SV}, [], "general"),
        # the writer formats two chunks per batch: batches of 2 and 1 chunks
        ({"k": 1, "trials": 600}, [], "vectorized"),
        ({"n": [1], "trials": 300}, [], "vectorized"),  # every selection is 0
        ({"n": [1000], "trials": 300}, [], "vectorized"),  # selections up to 511
        # trial indices cross 999 -> 1000 and 9999 -> 10000 inside one batch
        ({"trials": 10_100}, [], "vectorized"),
        ({"trials": 600, "sv": GENERAL_SV}, ["--seed", "0"], "general"),
    ],
)
def test_simulate_rows_match_csv_writer_oracle(tmp_path, capsys, monkeypatch, overrides, extra, engine):
    seen = record_chunks(monkeypatch)
    cfg = write_config(tmp_path, dict(SIM_CONFIG, **overrides))
    out = tmp_path / "out"
    assert run_main(["simulate", "--config", cfg, "--out", str(out)] + extra) == 0
    assert f"engine={engine}," in capsys.readouterr().out
    trials = overrides["trials"]
    assert [len(rows.z_k) for rows in seen] == [min(256, trials - lo) for lo in range(0, trials, 256)]
    assert (out / "trials.csv").read_bytes() == reference_trials_csv(seen)
    assert read_metrics(out)["chunks"] == len(seen)


def test_stream_trials_matches_csv_writer_on_any_widths():
    """The digit writer on synthetic chunks: integers from 0 to 2^63 - 1,
    zero and multi-digit columns side by side, z_k values whose .12g form
    has up to 12 significant digits or an exponent, aborted and accepted
    rows, batches of one and two chunks of unequal sizes."""
    rng = np.random.default_rng(11)
    z_pool = np.array([0.0, 1.0, 1 / 3, 2 / 3, 0.05, 1e-7, 123456.789, 1 / 7])
    for k, sizes, top in ((1, [3], 10), (4, [256, 17, 256], 10**6), (3, [1, 2, 5], 2**63 - 1), (2, [40, 40], 1)):
        chunks = []
        for m in sizes:
            output = rng.integers(-1, 2, m)
            chunks.append(TrialRows(
                z_k=rng.choice(z_pool, m), accepted=output >= 0, output=output,
                selection=rng.integers(0, top, (m, k), endpoint=True),
                m_realized=np.minimum(rng.integers(0, 2**62, (m, k)) >> rng.integers(0, 62, (m, k)), top),
            ))
        pieces = []
        n_acc, zeros, n_chunks = randamp.cli._stream_trials(chunks, pieces.append)
        assert b"".join(pieces) == reference_trials_csv(chunks), (k, sizes, top)
        accepted = np.concatenate([c.accepted for c in chunks])
        output = np.concatenate([c.output for c in chunks])
        assert (n_acc, zeros, n_chunks) == (accepted.sum(), np.sum(output == 0), len(sizes))


def test_simulate_data_files_pinned_and_metrics_in_manifest_only(tmp_path, capsys):
    """The data files' digests, taken from the csv.writer implementation
    before the manifest carried metrics: neither the row template nor the
    metrics change a byte."""
    pinned = {
        "vectorized": (SIM_CONFIG, 1, "487c17da61bc3b5e8a0efea4e23dab0226dee1a3d40af1c588c66f01adf11b1e",
                       "d8cc5de4a05ca4e2490b18c07e97a83bb9b374b815fec01d5289040e51301a3d"),
        "general": (dict(SIM_CONFIG, trials=300, sv=GENERAL_SV), 2,
                    "724e5ccbbbe0e636e42232fad9e23a79006e201ae1fb9830e8b372a722d1578d",
                    "4aca6106aad74bab6f0abae7aac81a6b0735bfd253b854be3ef3096fd48430b0"),
    }
    for engine, (config, chunks, csv_sha, summary_sha) in pinned.items():
        out = tmp_path / engine
        cfg = write_config(tmp_path, config, name=f"{engine}.json")
        assert run_main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "trials.csv").read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == summary_sha
        assert read_metrics(out) == {"engine": engine, "chunks": chunks}
        summary = json.loads((out / "summary.json").read_text())
        assert "metrics" not in summary and "engine" not in summary
    capsys.readouterr()


def test_simulate_unequal_counts_pinned(tmp_path, capsys):
    """Unequal use counts draw m_realized with an array of negative-binomial
    counts: trials.csv keeps the digest it had when every draw did."""
    cfg = write_config(tmp_path, dict(SIM_CONFIG, k=2, n=[3, 5], trials=600))
    out = tmp_path / "out"
    assert run_main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "engine=vectorized," in capsys.readouterr().out
    assert hashlib.sha256((out / "trials.csv").read_bytes()).hexdigest() == (
        "d12d6a90f3f2c483f61d370a25ff26960ae2e397bee56775cca4631789ef24d4"
    )


def test_simulate_failure_mid_stream_leaves_outputs_untouched(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, dict(SIM_CONFIG, trials=600))
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert run_main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(before) == {"trials.csv", "summary.json", "manifest.json"}

    def one_chunk_then_fail(*args, **kwargs):
        yield next(iter(real(*args, **kwargs)))
        raise OSError("No space left on device")

    real = randamp.cli.simulate_trials
    monkeypatch.setattr(randamp.cli, "simulate_trials", one_chunk_then_fail)
    capsys.readouterr()
    assert run_main(["simulate", "--config", cfg, "--out", str(out), "--seed", "9"]) == 1
    assert "No space left on device" in capsys.readouterr().err
    # no temp file, and the previous run's files byte for byte
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert run_main(["simulate", "--config", cfg, "--out", str(fresh)]) == 1
    assert not fresh.exists() or not any(fresh.iterdir())


def test_manifest_records_the_config_bytes_parsed(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, SIM_CONFIG)
    with open(cfg, "rb") as fh:
        parsed = fh.read()

    def edit_config_then_build(*args, **kwargs):
        with open(cfg, "w") as fh:
            json.dump(dict(SIM_CONFIG, seed=6), fh)
        return real(*args, **kwargs)

    real = randamp.cli.build_strategy
    monkeypatch.setattr(randamp.cli, "build_strategy", edit_config_then_build)
    out = tmp_path / "out"
    assert run_main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    with open(cfg, "rb") as fh:
        assert fh.read() != parsed  # edited between parse and write
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(parsed).hexdigest()
    assert json.loads((out / "summary.json").read_text())["seed"] == 5
    capsys.readouterr()


def test_simulate_memory_is_one_chunk_not_the_whole_file(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "epsilon": 0.1, "delta": 0.8, "mu": 0.9, "k": 20, "n": [4], "trials": 20_000, "seed": 3,
        "device": {"model": "quantum", "state_mixing": 0.05},
        "sv": {"strategy": "greedy", "target": [0, 1]},
    })
    out = tmp_path / "out"
    # a first call pays for numpy's lazy imports, which are not the run's
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "warm"), "--trials", "1"]) == 0
    tracemalloc.start()
    try:
        assert run_main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    size = (out / "trials.csv").stat().st_size
    assert size > 1_500_000
    assert peak < size / 2, (peak, size)


def test_certify_records_error_type(tmp_path, capsys, monkeypatch):
    import randamp.lp as lp

    def failing(solver, delta):
        if delta > 0.1:
            raise ArithmeticError("solver gave up")
        return real(solver, delta)

    real = lp._highs_resolve  # re-solves every delta after the first
    monkeypatch.setattr(lp, "_highs_resolve", failing)
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


def test_run_flags_only_on_simulate(tmp_path, capsys):
    cfg = write_config(tmp_path, {"deltas": [0.0]})
    for argv in (
        ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "2"],
        ["certify", "--config", cfg, "--jobs", "2"],
        ["certify", "--config", cfg, "--seed", "1"],
        ["bounds", "--config", cfg, "--trials", "5"],
        ["definetti", "--config", cfg, "--seed", "1"],
        ["quantum-check", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


PARSE_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["simulate", "-h"],
    ["definetti", "--help"],
    ["simulate", "--out", "o"],
    ["simulate", "--config", "c"],
    ["simulate", "--config", "c", "--out", "o", "--seed", "abc"],
    ["simulate", "--config", "c", "--out", "o", "--bogus"],
    ["certify", "--conf", "c"],
    ["simulate", "--conf", "c", "--out", "o", "--tri", "7"],
    ["definetti", "--config=x", "extra"],
    ["sim", "--config", "c"],
    ["--config", "c", "simulate", "--out", "o"],
    ["simulate", "--", "--config", "c", "--out", "o"],
    ["bounds", "--config", "c", "--", "x"],
    ["simulate", "--config", "a", "--config", "b", "--out", "o"],
    ["simulate", "--config", "c", "--out", "o", "--seed", "1", "--seed", "2"],
    ["simulate", "--config", "c", "--out", "o", "--seed", "1", "--trials", "8", "--jobs", "2"],
    ["quantum-check"],
    ["quantum-check", "--out", "o"],
    ["quantum-check", "--config", "q", "--out", "o"],
    ["certify", "--config", "c", "--seed", "3"],
    ["certify", "--config", "c", "-h", "--bogus"],
    ["definetti", "--config", "c", "--out"],
    ["bounds"],
    ["bounds", "--config", "c"],
]


def parse_outcome(parse, argv, capsys):
    """(Namespace or SystemExit code, stdout, stderr) of one parse."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    out, err = capsys.readouterr()
    return result, out, err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "empty")
def test_command_parser_parses_as_the_full_parser(argv, capsys):
    expected = parse_outcome(randamp.cli.make_parser().parse_args, argv, capsys)
    assert parse_outcome(randamp.cli._parse_args, argv, capsys) == expected


def test_well_formed_call_builds_only_its_command_parser(tmp_path, monkeypatch):
    built = []
    add_options = randamp.cli._add_command_options

    def recording(parser, name):
        built.append(name)
        add_options(parser, name)

    def full_parser():
        raise AssertionError("make_parser called")

    monkeypatch.setattr(randamp.cli, "_add_command_options", recording)
    monkeypatch.setattr(randamp.cli, "make_parser", full_parser)
    randamp.cli.command_parser.cache_clear()
    cfg = write_config(tmp_path, SIM_CONFIG)
    for out in ("a", "b"):
        assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / out)]) == 0
    assert built == ["simulate"]


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


# sha256 of certify.json and of the manifest's metrics, and the HiGHS
# iteration count of every orbit solve in serial order (delta by delta, the
# orbit representatives in turn), on a grid with every linear piece of the
# LP value function, the tight delta = 1/3 and both ends of [0, 8].  The
# simplex figures were recorded before the equality system was built by
# index arithmetic and handed to HiGHS as sparse matrices, and before HiGHS
# was called without linprog; each left every byte alone.  The HiGHS figures
# were re-pinned when each delta after the first came to be re-solved from
# the previous optimal basis: every optimum moved by at most 4.6e-15.  The
# figures are those of scipy 1.17.1's HiGHS and numpy 2.4.6; another HiGHS
# may take other pivots.
PINNED_CERTIFY_DELTAS = [0.0, 0.1, 2 / 9, 1 / 3, 0.7, 1.0, 2.0, 8.0]
PINNED_CERTIFY = {
    "highs": ("03ea1e76dff944c09fc8f02046ff7e5def63c5910735d7fbba9322c23b2e83c5",
              "7c06daa01c1987de4627bdec3a7de579b527680f882d4ce17ed94372c4cd74a3"),
    "simplex": ("c7ad8af187c68b1f086f10202b4a8ddea20f8cb5370b8ea891a43a08a7f5354a",
                "17a2a5bcd63b8025e7032f6aa754878f9e5220bd3bd72e27df7213d5dbb5fb32"),
}
PINNED_HIGHS_NIT = [153, 151, 12, 18, 0, 0, 18, 6, 12, 28, 0, 0, 17, 15, 27, 18]


def test_certify_outputs_pinned(tmp_path):
    for method, (certify_sha, metrics_sha) in PINNED_CERTIFY.items():
        cfg = write_config(tmp_path, {"deltas": PINNED_CERTIFY_DELTAS, "method": method}, f"{method}.json")
        out = tmp_path / method
        assert run_main(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert hashlib.sha256((out / "certify.json").read_bytes()).hexdigest() == certify_sha, method
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        digest = hashlib.sha256(json.dumps(metrics, sort_keys=True).encode()).hexdigest()
        assert digest == metrics_sha, method
        nit = [n for facts in metrics["certificates"] for n in facts.get("highs_nit", ())]
        assert nit == (PINNED_HIGHS_NIT if method == "highs" else [])


def test_one_delta_certify_is_solved_cold(tmp_path):
    """A grid of one delta starts every solver afresh, so its certify.json
    keeps the bytes of one cold solve per orbit.  At delta = 8 a warm solve
    along the pinned grid lands 4.6e-15 away."""
    cfg = write_config(tmp_path, {"deltas": [8.0]})
    out = tmp_path / "one"
    assert run_main(["certify", "--config", cfg, "--out", str(out)]) == 0
    assert (hashlib.sha256((out / "certify.json").read_bytes()).hexdigest()
            == "a0982b3e6d32eaf91e0f33e9ff69ae2e5d8b4f3c3badf3e6982f3642696bde38")


def _serial_certify(deltas, method="highs"):
    """certify.json's bytes and the manifest's metrics of a grid certified by
    certify_grid on the calling thread, as with one CPU."""
    import randamp.lp as lp
    from randamp.cli import _json_bytes

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp.os, "cpu_count", lambda: 1)
        threads = _record_threads(patch)
        reports = lp.certify_grid(deltas, method=method)
    assert set(threads) == {threading.get_ident()}
    summary = {"passed": True, "method": method, "bound_formula": "min((11 + 7 delta)/32, 1/2)",
               "grid": [r.to_json() for r in reports]}
    metrics = {"certificates": [
        {"delta": r.delta, "solved": r.solved, "dual_residual": r.dual_residual, "duality_gap": r.duality_gap,
         **({"highs_nit": list(r.highs_nit)} if method == "highs" else {})}
        for r in reports
    ]}
    return _json_bytes(summary), metrics


def _record_threads(monkeypatch):
    """Wrap lp._solve_raw to record the thread of every call: on HiGHS one
    call per orbit representative, which walks the whole grid."""
    import randamp.lp as lp

    threads = []
    real = lp._solve_raw

    def recording(instances, method):
        threads.append(threading.get_ident())
        return real(instances, method)

    monkeypatch.setattr(lp, "_solve_raw", recording)
    return threads


def test_threaded_certify_matches_a_serial_loop(tmp_path, monkeypatch):
    """More deltas than threads, every linear piece and both ends of [0, 8]:
    the threaded grid writes the bytes certify_grid gives on the calling
    thread, run after run."""
    import randamp.lp as lp

    deltas = [0.0, 0.05, 2 / 9, 0.3, 1 / 3, 0.5, 0.9, 1.0, 3.0, 8.0]
    want_certify, want_metrics = _serial_certify(deltas)
    monkeypatch.setattr(randamp.cli.os, "cpu_count", lambda: 4)
    threads = _record_threads(monkeypatch)
    cfg = write_config(tmp_path, {"deltas": deltas})
    for run in range(3):
        out = tmp_path / f"run{run}"
        assert run_main(["certify", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "certify.json").read_bytes() == want_certify
        assert json.loads((out / "manifest.json").read_text())["metrics"] == want_metrics
    assert len(threads) == 3 * len(lp.symmetry_orbits())
    assert threading.get_ident() not in threads  # every chain ran on a worker


def test_threaded_certify_keeps_order_around_a_failing_delta(tmp_path, capsys, monkeypatch):
    import randamp.lp as lp

    deltas = [0.1, 0.2, 1.5]
    # 0.1 opens each chain; after the failure at 0.2, 1.5 starts a fresh solver.
    want = [json.loads(_serial_certify([delta])[0])["grid"][0] for delta in deltas[::2]]
    real = lp._highs_resolve
    failed_on = []

    def failing(solver, delta):
        if delta == 0.2:
            failed_on.append(threading.get_ident())
            raise ArithmeticError("solver gave up")
        return real(solver, delta)

    monkeypatch.setattr(randamp.cli.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(lp, "_highs_resolve", failing)
    cfg = write_config(tmp_path, {"deltas": deltas})
    out = tmp_path / "cert"
    assert run_main(["certify", "--config", cfg, "--out", str(out)]) == 1
    assert failed_on and threading.get_ident() not in failed_on
    printed = capsys.readouterr().out
    assert printed.index("delta=0.1:") < printed.index("delta=0.2: ERROR") < printed.index("delta=1.5:")
    payload = json.loads((out / "certify.json").read_text())
    first, failed, last = payload["grid"]
    assert [first, last] == want
    assert failed == {"delta": 0.2, "error": "solver gave up", "error_type": "ArithmeticError"}
    facts = json.loads((out / "manifest.json").read_text())["metrics"]["certificates"]
    assert [f["delta"] for f in facts] == [0.1, 1.5]


@pytest.mark.parametrize("config", [{"deltas": [0.1, 1.0], "method": "simplex"}, {"deltas": [1 / 3]}])
def test_serial_certify_starts_no_thread(tmp_path, capsys, monkeypatch, config):
    """The simplex route holds the GIL and a single delta has nothing to
    overlap, so neither starts a thread."""
    def no_thread(self):
        raise AssertionError("no thread expected")

    monkeypatch.setattr(randamp.cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert run_main(["certify", "--config", write_config(tmp_path, config)]) == 0
    assert "certification: pass" in capsys.readouterr().out


def test_threaded_certify_builds_each_cache_once(tmp_path, monkeypatch):
    """Cold caches are built on the calling thread before the workers start,
    so no two workers build one at the same time."""
    import randamp.lp as lp

    clear_lp_caches()
    monkeypatch.setattr(randamp.cli.os, "cpu_count", lambda: 2)
    threads = _record_threads(monkeypatch)
    cfg = write_config(tmp_path, {"deltas": [0.05, 0.3, 1 / 3, 0.6, 2.0]})
    assert run_main(["certify", "--config", cfg]) == 0
    assert threading.get_ident() not in threads
    assert lp.equality_constraints.cache_info().misses == 1
    assert lp.symmetry_orbits.cache_info().misses == 1
    assert lp._highs_model.cache_info().misses == 1


@pytest.mark.parametrize("tolerance", ["NaN", "Infinity", "-Infinity", "-1e-9"])
def test_certify_rejects_a_tolerance_that_checks_nothing(tmp_path, capsys, tolerance):
    """A NaN tolerance makes every cap comparison false, so it would pass
    any optimum; an infinite or negative one is no tolerance either."""
    cfg = tmp_path / "config.json"
    cfg.write_text(f'{{"deltas": [0.3, 3.0], "tolerance": {tolerance}}}')
    out = tmp_path / "cert"
    assert run_main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "'tolerance'" in captured.err and "certification" not in captured.out
    assert not out.exists()


def test_certify_accepts_a_zero_tolerance(tmp_path, capsys):
    # Deltas where the cap is not tight, so no rounding can reach it.
    cfg = write_config(tmp_path, {"deltas": [0.0, 0.5], "tolerance": 0})
    assert run_main(["certify", "--config", cfg]) == 0
    assert "certification: pass" in capsys.readouterr().out


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
    """The library's errors exit 1 with an error line.  The two counts
    inside the caps that no memory holds (k devices' use counts at k = 2^62,
    and a definetti schedule padded to 2^62 levels) fail at once, before any
    allocation: they ended in a MemoryError traceback."""
    schedule = {k: v for k, v in DEFINETTI_CONFIG.items() if k != "n"}
    cases = [
        ("simulate", {**SIM_CONFIG, "mu": 1.0}, "mu"),
        ("simulate", {**SIM_CONFIG, "k": 2**62}, "error: out of memory"),
        ("definetti", {**schedule, "schedule": {"k": 2**62, "t": 1e-120}}, "error: out of memory"),
    ]
    for command, config, named in cases:
        cfg = write_config(tmp_path, config)
        out = tmp_path / "x"
        assert run_main([command, "--config", cfg, "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_simulate_refuses_a_nan_device_table(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SIM_CONFIG, device={"model": "table", "table": [[math.nan] * 16] * 16}))
    out = tmp_path / "x"
    assert run_main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "field 'device.table[0][0]' must be a finite number, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "bounds"])
def test_nan_t_is_refused(tmp_path, capsys, command):
    """A NaN t is a config error: simulate wrote a NaN proposition_total,
    and bounds failed converting NaN to an integer without naming t."""
    base = SIM_CONFIG if command == "simulate" else {"epsilon": 0.1, "delta": 0.8, "mu": 0.9, "k": 2}
    cfg = write_config(tmp_path, {**base, "t": math.nan})
    out = tmp_path / "x"
    assert run_main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "field 't' must be a finite number, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_definetti_refuses_nan_weights(tmp_path, capsys):
    cfg = write_config(tmp_path, {**DEFINETTI_CONFIG, "system": {**DEFINETTI_CONFIG["system"],
                                                                   "weights": [math.nan, math.nan]}})
    out = tmp_path / "x"
    assert run_main(["definetti", "--config", cfg, "--out", str(out)]) == 2
    assert "field 'system.weights[0]' must be a finite number, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "definetti"])
def test_nan_source_bias_is_refused(tmp_path, capsys, command):
    """A NaN constant bias is a config error: definetti wrote NaN levels
    and exited 0, simulate failed inside numpy."""
    base = SIM_CONFIG if command == "simulate" else DEFINETTI_CONFIG
    cfg = write_config(tmp_path, {**base, "sv": {"strategy": "constant", "bias": math.nan}})
    out = tmp_path / "x"
    assert run_main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "field 'sv.bias' must be a finite number, got nan" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


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
    assert payload["bell_value_clean"] == 0.0  # the ideal box has no rounding dust
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
    # a schedule that stops at a repeated level is padded back to k levels
    cfg = write_config(tmp_path, {**json.loads(open(cfg).read()), "schedule": {"k": 3, "t": 1e-3},
                                  "t_levels": [2.0, 2.0]}, "ones.json")
    assert run_main(["definetti", "--config", cfg]) == 0
    assert "n=[1, 1, 1]" in capsys.readouterr().out


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


DEFINETTI_CONFIG = {
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
}


def test_definetti_refuses_n_and_schedule_together(tmp_path, capsys):
    """schedule was ignored, unchecked, whenever n was given."""
    for schedule in ({"k": 2, "t": 0.5}, "garbage"):
        cfg = write_config(tmp_path, {**DEFINETTI_CONFIG, "schedule": schedule})
        out = tmp_path / "x"
        assert run_main(["definetti", "--config", cfg, "--out", str(out)]) == 2
        assert "fields 'n' and 'schedule' exclude each other" in capsys.readouterr().err
        assert not out.exists()


def test_definetti_schedule_past_the_size_limit_exits_one(tmp_path, capsys):
    """block_sizes raises OverflowError past 2^62: a runtime failure with
    its message, where it was a traceback."""
    schedule = {k: v for k, v in DEFINETTI_CONFIG.items() if k != "n"}
    cfg = write_config(tmp_path, {**schedule, "t_levels": [2.0, 2.0], "schedule": {"k": 3, "t": 1e6}})
    out = tmp_path / "x"
    assert run_main(["definetti", "--config", cfg, "--out", str(out)]) == 1
    assert "block size exceeds 2^62" in capsys.readouterr().err
    assert not out.exists()


BOUNDS_CONFIG = {"epsilon": 0.1, "delta": 0.8, "mu": 0.9, "k": 2}


@pytest.mark.parametrize(("command", "base", "change", "options", "named"), [
    ("simulate", SIM_CONFIG, {"t": math.inf}, [], "field 't'"),  # wrote "t": Infinity
    ("definetti", DEFINETTI_CONFIG, {"t_levels": [math.inf]}, [], "field 't_levels[0]'"),  # "threshold": Infinity
    ("simulate", SIM_CONFIG, {"k": 10**30}, [], "field 'k'"),  # OverflowError traceback
    ("bounds", BOUNDS_CONFIG, {"k": 10**30}, [], "field 'k'"),  # OverflowError traceback
    ("simulate", SIM_CONFIG, {"seed": -1}, [], "field 'seed'"),  # numpy's message, exit 1
    ("simulate", SIM_CONFIG, {}, ["--seed", "-1"], "option '--seed'"),  # numpy's message, exit 1
], ids=["t", "t_levels", "simulate-k", "bounds-k", "seed", "seed-option"])
def test_fields_out_of_range_are_config_errors(tmp_path, capsys, command, base, change, options, named):
    cfg = write_config(tmp_path, {**base, **change})
    out = tmp_path / "x"
    assert run_main([command, "--config", cfg, "--out", str(out), *options]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_seed_has_no_upper_bound(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SIM_CONFIG, "seed": 10**30})
    assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 0
    assert json.loads((tmp_path / "x" / "summary.json").read_text())["seed"] == 10**30
    capsys.readouterr()


def test_integer_fields_are_not_truncated(tmp_path, capsys):
    """A float, a string or a bool where a config wants an integer is a
    config error naming the field, not truncated: "k": 20.7 ran with k = 20
    and "seed": 7.5 ended in a traceback."""
    simulate = [("k", v) for v in (20.7, 3.0, True, "3")] + [("trials", v) for v in (8.9, "8", True)]
    simulate += [("seed", v) for v in (7.5, "5", False, None)]
    for field, value in simulate:
        cfg = write_config(tmp_path, {**SIM_CONFIG, field: value})
        assert run_main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2, (field, value)
        assert f"field '{field}'" in capsys.readouterr().err
    definetti = [("n", v) for v in ([1, 8.7], [True, 4], ["2", 4], [1.0, 2], 2, None)]
    definetti += [("schedule", {"k": 2.5, "t": 0.5}), ("schedule", {"k": 2, "t": 0.5, "k_exponent": 2.0})]
    for field, value in definetti:
        cfg = {k: v for k, v in DEFINETTI_CONFIG.items() if k != "n"}
        cfg = write_config(tmp_path, {**cfg, field: value})
        assert run_main(["definetti", "--config", cfg]) == 2, (field, value)
        assert f"field '{field}" in capsys.readouterr().err
    assert not list(tmp_path.glob("x/*"))


def test_bounds_integer_fields_are_not_truncated(tmp_path, capsys):
    """bounds reads k and k_exponent as simulate reads k: "k": 2.7 ran with
    k = 2 and "k_exponent": "3" was accepted."""
    base = {"epsilon": 0.0, "delta": 0.8, "mu": 0.9, "k": 2, "t": 1.0}
    cases = [("k", 2.7), ("k", "2"), ("k", True), ("k_exponent", "3"), ("k_exponent", 2.0), ("k_exponent", None)]
    for field, value in cases:
        out = tmp_path / "x"
        cfg = write_config(tmp_path, {**base, field: value})
        assert run_main(["bounds", "--config", cfg, "--out", str(out)]) == 2, (field, value)
        assert f"field '{field}'" in capsys.readouterr().err, (field, value)
        assert not list(out.glob("*"))


def test_strategy_bits_are_json_bits(tmp_path, capsys):
    """greedy's target and steer's setting must list the JSON integers 0 and
    1: ["0", true] was accepted as (0, 1)."""
    bad_bits = (["0", 1], [0, True], [0.0, 1], [0, 2], [-1, 0], [None], "01", 1)
    schedule = {k: v for k, v in DEFINETTI_CONFIG.items() if k != "sv"}
    for command, base in (("simulate", SIM_CONFIG), ("definetti", schedule)):
        for strategy, field, good in (("greedy", "target", [0, 1, 1]), ("steer", "setting", [0, 1, 1, 0])):
            out = tmp_path / f"{command}_{strategy}"
            cfg = write_config(tmp_path, {**base, "sv": {"strategy": strategy, field: good}})
            assert run_main([command, "--config", cfg, "--out", str(out)]) == 0, (command, strategy)
            for value in bad_bits:
                out = tmp_path / "x"
                cfg = write_config(tmp_path, {**base, "sv": {"strategy": strategy, field: value}})
                assert run_main([command, "--config", cfg, "--out", str(out)]) == 2, (command, field, value)
                assert f"field 'sv.{field}'" in capsys.readouterr().err, (command, field, value)
                assert not list(out.glob("*"))


def test_float_fields_are_numbers(tmp_path, capsys):
    """A string, a bool or null where a config wants a number, alone or as
    a list entry, is a config error naming the field, not converted:
    "epsilon": "0.1" and "t_levels": ["2.0"] ran, "delta": true ran with
    delta = 1.0, and an integer past the float range ended in a traceback."""
    quantum = {"model": "quantum", "state_mixing": 0.01}
    simulate = [("epsilon", "0.1"), ("epsilon", None), ("delta", True), ("mu", "0.1"), ("t", "1e6"), ("t", 10**400),
                ("device", {**quantum, "state_mixing": "0.01"}, "device.state_mixing"),
                ("device", {**quantum, "basis_rotation": False}, "device.basis_rotation"),
                ("device", {"model": "mixed_algebraic", "weight": "0.1"}, "device.weight"),
                ("device", {"model": "table", "table": [["0.0625"] * 16] * 16}, "device.table[0][0]"),
                ("sv", {"strategy": "constant", "bias": "0.05"}, "sv.bias")]
    components = DEFINETTI_CONFIG["system"]["components"]
    definetti = [("epsilon", "0.1"), ("t_levels", ["2.0"], "t_levels[0]"), ("t_levels", [None], "t_levels[0]"),
                 ("t_levels", 2.0),
                 ("system", {**DEFINETTI_CONFIG["system"], "weights": ["0.5", 0.5]}, "system.weights[0]"),
                 ("system", {**DEFINETTI_CONFIG["system"], "weights": [0.5, True]}, "system.weights[1]"),
                 ("system", {**DEFINETTI_CONFIG["system"], "components": [components[0], [[0, 0], ["1", 1]]]},
                  "system.components[1][1][0]"),
                 ("sv", {"strategy": "constant", "bias": None}, "sv.bias")]
    certify = [("deltas", ["0.3"], "deltas[0]"), ("deltas", [0.0, True], "deltas[1]"),
               ("deltas", [0.2, 9], "deltas[1]"), ("deltas", "0.3"),
               ("tolerance", "1e-8")]
    quantum_check = [("state_mixing", "0.25"), ("basis_rotation", True)]
    bounds = [("epsilon", "0.1"), ("delta", True), ("mu", None), ("t", "1.0")]
    runs = [("simulate", SIM_CONFIG, simulate), ("definetti", DEFINETTI_CONFIG, definetti),
            ("certify", {"deltas": [0.0]}, certify), ("quantum-check", {}, quantum_check),
            ("bounds", {"epsilon": 0.0, "delta": 0.8, "mu": 0.9, "k": 2, "t": 1.0}, bounds)]
    for command, base, cases in runs:
        for field, value, *name in cases:
            cfg = write_config(tmp_path, {**base, field: value})
            out = tmp_path / "x"
            assert run_main([command, "--config", cfg, "--out", str(out)]) == 2, (command, field, value)
            assert f"field '{name[0] if name else field}'" in capsys.readouterr().err, (command, field, value)
            assert not list(out.glob("*"))
    # schedule.t is read only without n
    schedule = {k: v for k, v in DEFINETTI_CONFIG.items() if k != "n"}
    cfg = write_config(tmp_path, {**schedule, "schedule": {"k": 2, "t": "0.5"}})
    assert run_main(["definetti", "--config", cfg]) == 2
    assert "field 'schedule.t'" in capsys.readouterr().err


# (config, sha256 of definetti.json): the one-use pair of deterministic
# boxes; a two-component mixture at n = (1, 8) with the Pinsker sweep; and
# three devices at n = (1, 2, 4) under a steering source
DEFINETTI_PINNED = [
    (DEFINETTI_CONFIG, "21c226a18a9a2a42ee033170c69514130d556849314e69776e9f6b940c41f55e"),
    ({"epsilon": 0.1, "n": [1, 8], "t_levels": [2.0],
      "system": {"type": "exchangeable", "components": [[[0.9, 0.7], [0.1, 0.3]], [[0.1, 0.3], [0.9, 0.7]]],
                 "weights": [0.5, 0.5]},
      "sv": {"strategy": "greedy", "target": [0, 1]}, "pinsker": True},
     "24d176929701c414bae6519a6ae88ee4b0651677350028f8cb44aade199978a3"),
    ({"epsilon": 0.1, "n": [1, 2, 4], "t_levels": [2.0, 4.0],
      "system": {"type": "exchangeable",
                 "components": [[[0.3, 0.6], [0.7, 0.4]], [[0.8, 0.25], [0.2, 0.75]], [[0.5, 0.1], [0.5, 0.9]]],
                 "weights": [0.2, 0.3, 0.5]},
      "sv": {"strategy": "steer", "setting": [0, 1, 1, 0]}},
     "bb9edced13e841bda1fbb37b7088c0b40cf7042dbcd7b842335797321eea4b62"),
]


def test_definetti_metrics_in_manifest_only(tmp_path, capsys):
    """The manifest records how many selections, past types and chunks the
    check summed; definetti.json keeps the bytes it had before the manifest
    carried metrics, and before the dense path left the library."""
    metrics = [
        # n = (1, 2): past sizes 0 and 1, 1 + 4 types of binary (output, input) pairs
        {"selections": 2, "types": 5, "chunks": 1},
        # past sizes 0..7: C(11, 4) types
        {"selections": 8, "types": 330, "chunks": 1},
        # past sizes 0..4 of devices 2 and 3: C(8, 4) types
        {"selections": 8, "types": 70, "chunks": 1},
    ]
    for i, ((config, want), facts) in enumerate(zip(DEFINETTI_PINNED, metrics)):
        out = tmp_path / f"df{i}"
        assert run_main(["definetti", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "definetti.json").read_bytes()).hexdigest() == want, i
        assert read_metrics(out) == facts
        assert verify_manifest(str(out))
    # an integer where a number is wanted is read as that float: same bytes
    out = tmp_path / "ints"
    assert run_main(["definetti", "--config", write_config(tmp_path, {**DEFINETTI_CONFIG, "t_levels": [2]}),
                     "--out", str(out)]) == 0
    assert hashlib.sha256((out / "definetti.json").read_bytes()).hexdigest() == DEFINETTI_PINNED[0][1]
    capsys.readouterr()


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

    # a tiny t puts every level near 0 uses: each still gets one, as n_1
    # does, and the levels from the first repeat on share one line
    cfg = write_config(tmp_path, {"epsilon": 0.1, "delta": 0.6, "mu": 0.5, "k": 4, "t": 1e-120}, "tiny.json")
    assert run_main(["bounds", "--config", cfg]) == 0
    schedule = capsys.readouterr().out.split("block schedule:\n")[1].splitlines()
    assert schedule == ["  n_1 = 1", "  n_2..n_4 = 1"]


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


def test_bounds_command_at_the_largest_k(tmp_path, capsys):
    """bounds reads no use counts, so the config's largest k builds no
    k-entry schedule of them (a MemoryError traceback before)."""
    k = 2**63 - 1
    cfg = write_config(tmp_path, {"epsilon": 0.1, "delta": 0.8, "mu": 0.1, "k": k})
    assert run_main(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert f"k={k} " in out
    assert out.split("block schedule:\n")[1].splitlines()[-1].startswith(f"  n_2305..n_{k} exceed 2^")


def test_bounds_command_ends_on_a_schedule_of_ones(tmp_path):
    """t^3 underflows, so every level is one use: the schedule stops at its
    first repeat instead of walking k - 1 levels.  A fresh process with a
    timeout, so a schedule that never ends fails the test instead of
    hanging it."""
    k = 2**63 - 1
    cfg = write_config(tmp_path, {"epsilon": 0.1, "delta": 0.6, "mu": 0.5, "k": k, "t": 1e-120})
    proc = subprocess.run([sys.executable, "-m", "randamp.cli", "bounds", "--config", cfg],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("block schedule:\n")[1].splitlines() == ["  n_1 = 1", f"  n_2..n_{k} = 1"]


def test_write_outputs_helper(tmp_path):
    out = tmp_path / "w"
    write_outputs(str(out), "demo", None, {"blob.txt": b"hello\n"}, metrics={"b": 1, "a": [2]})
    assert (out / "blob.txt").read_bytes() == b"hello\n"
    text = (out / "manifest.json").read_text()
    manifest = json.loads(text)
    assert manifest["config_sha256"] is None
    assert manifest["command"] == "demo"
    assert manifest["outputs"] == {"blob.txt": hashlib.sha256(b"hello\n").hexdigest()}
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert verify_manifest(str(out))
    assert sorted(path.name for path in out.iterdir()) == ["blob.txt", "manifest.json"]


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
    the LP routes need it, and they load it on first use.  Neither certify
    route loads scipy.optimize or scipy.linalg: the HiGHS route loads the
    bindings' extension module from its file, and the simplex route's
    independent equality rows are stored.  Each run is a fresh process."""
    runs = [("simulate", SIM_CONFIG, ("scipy",))] + [
        ("certify", {"deltas": [0.0, 1 / 3], "method": method}, ("scipy.optimize", "scipy.linalg"))
        for method in ("highs", "simplex")
    ]
    for i, (command, config, unloaded) in enumerate(runs):
        cfg = write_config(tmp_path, config, f"config{i}.json")
        script = (
            "import sys, randamp, randamp.cli\n"
            "assert 'scipy' not in sys.modules, 'on import'\n"
            f"assert randamp.cli.main([{command!r}, '--config', {cfg!r}, '--out', {str(tmp_path / f'out{i}')!r}]) == 0\n"
            f"loaded = [name for name in {unloaded!r} if name in sys.modules]\n"
            f"assert not loaded, f'after {command}: {{loaded}}'\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, (config, proc.stderr)


def test_process_pool_imported_only_for_jobs(tmp_path):
    """multiprocessing and concurrent.futures load only where simulate builds
    a worker pool: importing the CLI and a serial simulate leave them out."""
    cfg = write_config(tmp_path, SIM_CONFIG)
    script = (
        "import sys, randamp.cli\n"
        "pool = ('multiprocessing', 'concurrent.futures')\n"
        "assert not any(m in sys.modules for m in pool), 'on import'\n"
        f"assert randamp.cli.main(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "assert not any(m in sys.modules for m in pool), 'after simulate'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
