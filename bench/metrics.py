"""The benchmark's metrics: name, unit, direction, and for each per-layer
metric the end-to-end metric and workload it is expected to move.

BENCHMARK.json repeats the names, units, directions and bounds; the smoke
test (bench/selftest.py) fails when the two disagree.
"""

from __future__ import annotations

# name, unit, better, bound, meaning.  Times are scaled to the nominal
# machine speed of calibrate.py; rates count only ops that passed the checks.
# Over ten seeds on a shared 2-core VM the rates spread 0.02-0.07
# (IQR / median), which is under a third of their bound.  setup_s spreads
# 0.1-0.25, because process start-up is not scaled as well as Python.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "fresh interpreter to first op: import randamp.cli, parse, build inputs (median of 5)"),
    ("ops_per_s", "1/s", "higher", 0.25, "ops per second, median over passes"),
    ("a_ops_per_s", "1/s", "higher", 0.25, "ops per second of part a, median over passes (see README)"),
    ("b_ops_per_s", "1/s", "higher", 0.25, "ops per second of part b, median over passes (see README)"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory of the measuring process"),
)

# name, unit, better, what it should move.  Values are per traced pass.
PER_LAYER = (
    ("cli.build_box_calls", "count", "lower", "ops_per_s and a/b on simulate (1 + trials per call today)"),
    ("cli.write_outputs_ms", "ms", "lower", "ops_per_s and b_ops_per_s on simulate"),
    ("cli.self_ms", "ms", "lower", "ops_per_s on simulate"),
    ("lp.setup_ms", "ms", "lower", "b_ops_per_s (simplex) on certify; its cold first call shows only here"),
    ("lp.highs_primal_calls", "count", "lower", "a_ops_per_s (HiGHS) on certify"),
    ("lp.highs_primal_ms", "ms", "lower", "a_ops_per_s (HiGHS) on certify"),
    ("lp.highs_dual_calls", "count", "lower", "a_ops_per_s and b_ops_per_s on certify (both routes)"),
    ("lp.highs_dual_ms", "ms", "lower", "a_ops_per_s and b_ops_per_s on certify (both routes)"),
    ("lp.highs_nit", "count", "lower", "a_ops_per_s and b_ops_per_s on certify"),
    ("lp.self_ms", "ms", "lower", "ops_per_s on certify"),
    ("simplex.calls", "count", "lower", "b_ops_per_s (simplex) on certify"),
    ("simplex.solve_ms", "ms", "lower", "b_ops_per_s (simplex) on certify"),
    ("simplex.self_ms", "ms", "lower", "b_ops_per_s (simplex) on certify"),
    ("boxes.validations", "count", "lower", "ops_per_s on simulate, b_ops_per_s on audit; flat on definetti"),
    ("boxes.validate_ms", "ms", "lower", "ops_per_s on simulate, b_ops_per_s on audit; flat on definetti"),
    ("boxes.self_ms", "ms", "lower", "ops_per_s on simulate, b_ops_per_s on audit"),
    ("quantum.noisy_box_calls", "count", "lower", "ops_per_s on simulate"),
    ("quantum.noisy_box_ms", "ms", "lower", "ops_per_s on simulate"),
    ("quantum.self_ms", "ms", "lower", "ops_per_s on simulate"),
    ("sv.bits_drawn", "count", "lower", "ops_per_s on simulate, b_ops_per_s on audit"),
    ("sv.bits_per_trial", "count", "lower", "ops_per_s on simulate, b_ops_per_s on audit"),
    ("sv.exact_dist_ms", "ms", "lower", "ops_per_s on definetti"),
    ("sv.self_ms", "ms", "lower", "ops_per_s on simulate, b_ops_per_s on audit"),
    ("devices.sample_outcome_calls", "count", "lower", "ops_per_s on simulate, b_ops_per_s on audit"),
    ("devices.sample_outcome_ms", "ms", "lower", "ops_per_s on simulate, b_ops_per_s on audit"),
    ("devices.posterior_calls", "count", "lower", "b_ops_per_s on audit; flat on simulate"),
    ("devices.posterior_ms", "ms", "lower", "b_ops_per_s on audit; flat on simulate"),
    ("devices.self_ms", "ms", "lower", "b_ops_per_s on audit"),
    ("protocol.run_protocol_calls", "count", "lower", "ops_per_s on simulate, b_ops_per_s on audit"),
    ("protocol.run_protocol_ms", "ms", "lower", "ops_per_s on simulate, b_ops_per_s on audit"),
    ("protocol.run_trials_iid_ms", "ms", "lower", "a_ops_per_s on audit"),
    ("protocol.fast_path_share", "ratio", "higher", "ops_per_s on simulate (0 today)"),
    ("protocol.kept_ratio", "ratio", "higher", "ops_per_s on simulate, b_ops_per_s on audit"),
    ("protocol.self_ms", "ms", "lower", "ops_per_s on simulate and audit"),
    ("definetti.build_ms", "ms", "lower", "b_ops_per_s and peak_rss_mb on definetti (instance B)"),
    ("definetti.tensor_entries", "count", "lower", "b_ops_per_s and peak_rss_mb on definetti (instance B)"),
    ("definetti.t_levels_calls", "count", "lower", "ops_per_s on definetti"),
    ("definetti.t_levels_ms", "ms", "lower", "ops_per_s on definetti"),
    ("definetti.product_gap_calls", "count", "lower", "ops_per_s on definetti"),
    ("definetti.pinsker_gap_calls", "count", "lower", "a_ops_per_s on definetti (instance A)"),
    ("definetti.pinsker_ms", "ms", "lower", "a_ops_per_s on definetti (instance A)"),
    ("definetti.self_ms", "ms", "lower", "ops_per_s on definetti"),
    ("trace.overhead_ms", "ms", "lower", "none: traced minus untraced time per pass"),
    ("trace.spans", "count", "lower", "none: spans recorded per traced pass"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
