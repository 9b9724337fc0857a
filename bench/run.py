"""randamp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from its src/.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it is the environment
record.  Full results, and with --trace 1 the spans, go to .bench_out/.

Load is one process; numpy/BLAS keep their default thread counts, which the
environment record lists.  The CLI's --jobs process pool is not exercised:
on a 2-core shared machine it would measure the scheduler, so --jobs scaling
and wall-clock parallel numbers are omitted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

from calibrate import SpeedSampler
from metrics import END_TO_END, PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "simulate", "definetti", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("normal", "tiny"), default="normal",
                        help="tiny shrinks every input, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import, build inputs, print the ready time and exit")
    return parser.parse_args(argv)


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "randamp").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except Exception:  # the layout of numpy's build record is not a stable API
        blas = None
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in thread_vars},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
        "omitted": "--jobs scaling and wall-clock parallel numbers: 2 shared cores, "
                   "a process pool would measure the scheduler",
    }


def setup_probe(args, workload, workdir: Path) -> None:
    """Everything a user pays before the first op: import the CLI, then parse
    and build this workload's inputs."""
    import randamp.cli  # noqa: F401

    workload.make_inputs(args.seed, args.size, workdir)
    print(f"READY {time.perf_counter()!r}", flush=True)


def measure_setup(args, sampler) -> list:
    """(raw, scaled) launch-to-ready seconds of fresh interpreters.
    perf_counter is the system-wide monotonic clock on Linux, so the child's
    reading and the parent's launch time compare directly."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size]

    def probe():
        launched = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        lines = [line for line in proc.stdout.splitlines() if line.startswith("READY ")]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return float(lines[-1].split()[1]) - launched

    times = []
    for _ in range(SETUP_PROBES):
        raw, scale = sampler.scale_around(probe)
        times.append((raw, raw * scale))
    return times


def program_caches() -> list:
    """functools caches inside the package; cleared before every pass so each
    pass starts as cold as a fresh CLI call."""
    caches = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("randamp"):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and getattr(value, "__module__", None) == name:
                caches.append(value)
    return caches


def run_passes(args, workload, inputs, sampler):
    """Repeat identical passes until --seconds have elapsed; returns
    (passes, failed) with passes as (tracer or None, record, stats).

    Without a sampler the run is traced: pass 0 is traced and cold, as a
    fresh CLI call is, and the per-layer metrics come from it alone.  Later
    passes alternate untraced and traced, both timed raw, and the warm pairs
    give the tracing overhead."""
    from tracing import Tracer
    from workloads import Clock

    tracing = sampler is None
    caches = program_caches()
    passes, failed = [], 0
    start = time.perf_counter()
    while True:
        tracer = Tracer() if tracing and len(passes) % 2 == 0 else None
        for cache in caches:
            cache.cache_clear()
        if tracer is not None:
            tracer.install()
        try:
            record = workload.run_pass(inputs, Clock(tracer=tracer, sampler=sampler))
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            bad, stats = workload.check(inputs, record)
        except Exception:
            traceback.print_exc()
            bad, stats = {part: entry.count for part, entry in record.parts.items()}, []
        failed += count_failures(record, bad)
        passes.append((tracer, record, stats))
        enough = len(passes) >= (3 if tracing else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            return passes, failed


def count_failures(record, bad: dict) -> int:
    """Record on each part the count that did not fail, and return the
    failed ops of the pass."""
    record.failed_ops = 0
    for name, part in record.parts.items():
        lost = min(bad.get(name, 0), part.count)
        part.good = part.count - lost
        record.failed_ops += math.ceil(part.ops * lost / part.count) if part.count else 0
    return record.failed_ops


def end_to_end(passes, setup_times) -> dict:
    """Medians over passes of rates at the nominal machine speed (see
    calibrate.py), counting only ops that did not fail."""

    def median_rate(pairs):
        return statistics.median(done / seconds if seconds > 0 else 0.0 for done, seconds in pairs)

    records = [record for _, record, _ in passes]
    values = {
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "ops_per_s": median_rate((r.ops - r.failed_ops, r.seconds) for r in records),
        "a_ops_per_s": median_rate((r.parts["a"].good, r.parts["a"].seconds) for r in records),
        "b_ops_per_s": median_rate((r.parts["b"].good, r.parts["b"].seconds) for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return _named(values, END_TO_END)


def per_layer(passes) -> dict:
    first = passes[0][0]
    warm_traced = [r.seconds for t, r, _ in passes[1:] if t is not None]
    untraced = [r.seconds for t, r, _ in passes if t is None]
    values = first.layer_metrics()
    values["trace.overhead_ms"] = 1000.0 * (statistics.median(warm_traced) - statistics.median(untraced))
    values["trace.spans"] = len(first.spans)
    return _named(values, PER_LAYER)


def _named(values: dict, declared) -> dict:
    """Metrics in declaration order, each with its unit."""
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "randamp" / "__init__.py").is_file():
        print(f"error: no randamp package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup_probe(args, workload, workdir)
            return 0
        import randamp
        import randamp.cli  # noqa: F401  (loads every module before any tracing)

        if not Path(randamp.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: randamp imported from {randamp.__file__}, not {SRC}", file=sys.stderr)
            return 2
        inputs = workload.make_inputs(args.seed, args.size, workdir)
        if args.trace:
            setup_times, samples = [], []
            passes, failed = run_passes(args, workload, inputs, None)
        else:
            with SpeedSampler() as sampler:
                setup_times = measure_setup(args, sampler)
                passes, failed = run_passes(args, workload, inputs, sampler)
            samples = sampler.samples
        attempted = sum(r.ops for _, r, _ in passes)
        if hasattr(workload, "extra_check"):
            ops, bad = workload.extra_check(inputs)
            attempted += ops
            failed += bad
        metrics = per_layer(passes) if args.trace else end_to_end(passes, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    defects = workload.defect_probe() if hasattr(workload, "defect_probe") else []
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, size=args.size,
                  environment=env, known_defects=defects, setup_times_s=setup_times, kernel_samples_s=samples,
                  passes=[{"traced": t is not None, "parts": {n: asdict(p) for n, p in r.parts.items()},
                           "stats": s} for t, r, s in passes])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1, default=str))
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(passes[0][0].dump()))
    for defect in defects:
        print("known defect: " + defect)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
