"""In-memory tracing of randamp's public layer calls, installed from outside.

The tracer replaces module attributes with wrappers for the duration of one
traced pass and puts the originals back afterwards; the package itself is
never edited.  A function is found by identity in every loaded randamp
module, so a name imported with `from .x import f` is wrapped too.

Three kinds of wrapper keep the cost proportionate to the call rate:
"span" times the call and records (id, name, start, end, parent);
"timed" adds to per-name and per-layer totals without a span record, for
functions called thousands of times per pass; "count" only counts, for the
hottest functions, and leaves their time in the caller's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "lp", "simplex", "boxes", "quantum", "sv", "devices", "protocol", "definetti")


@dataclass(frozen=True)
class Target:
    module: str  # defining module, e.g. "randamp.lp"
    attr: str  # attribute path, e.g. "linprog" or "MixtureDevice.posterior"
    key: str  # metric key the time and calls accrue to
    kind: str  # "span", "timed" or "count"
    hook: str | None = None  # name of a Tracer method that reads the call


TARGETS = (
    Target("randamp.cli", "main", "cli.main", "span"),
    Target("randamp.cli", "build_box", "cli.build_box", "timed"),
    Target("randamp.cli", "write_outputs", "cli.write_outputs", "span"),
    Target("randamp.lp", "certify_bound", "lp.certify_bound", "span"),
    Target("randamp.lp", "equality_constraints", "lp.setup", "span"),
    Target("randamp.lp", "independent_equality_rows", "lp.setup", "span"),
    Target("randamp.lp", "linprog", "lp.highs", "span", "_on_linprog"),
    Target("randamp.simplex", "simplex_solve", "simplex.solve", "span"),
    Target("randamp.boxes", "is_no_signaling", "boxes.validate", "timed"),
    Target("randamp.quantum", "noisy_box", "quantum.noisy_box", "timed"),
    Target("randamp.sv", "next_bit", "sv.next_bit", "count"),
    Target("randamp.sv", "draw_setting", "sv.draw_setting", "timed"),
    Target("randamp.sv", "draw_index", "sv.draw_index", "timed"),
    Target("randamp.sv", "exact_bitstring_distribution", "sv.exact_dist", "span"),
    Target("randamp.devices", "sample_outcome", "devices.sample_outcome", "timed"),
    Target("randamp.devices", "MixtureDevice.posterior", "devices.posterior", "timed"),
    Target("randamp.protocol", "run_protocol", "protocol.run_protocol", "span", "_on_run_protocol"),
    Target("randamp.protocol", "run_trials_iid", "protocol.run_trials_iid", "span", "_on_run_trials_iid"),
    Target("randamp.protocol", "estimate_output_bias", "protocol.estimate_output_bias", "span"),
    Target("randamp.definetti", "exchangeable_mixture", "definetti.build", "span", "_on_build"),
    Target("randamp.definetti", "definetti_check", "definetti.check", "span"),
    Target("randamp.definetti", "t_statistic_levels", "definetti.t_levels", "span"),
    Target("randamp.definetti", "product_gap", "definetti.product_gap", "span"),
    Target("randamp.definetti", "pinsker_gap", "definetti.pinsker_gap", "count"),
)


def _resolve(module, attr: str):
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans, counters and self time for the calls made while installed."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or None)
        self.calls = defaultdict(int)  # key -> calls
        self.inclusive = defaultdict(float)  # key -> seconds, outermost calls only
        self.self_by_key = defaultdict(float)  # key -> seconds not covered by child calls
        self.self_by_layer = defaultdict(float)
        self.counters = defaultdict(float)  # values read from arguments and results
        self.missing = []  # targets a later package version no longer has
        self._stack = []  # frames: [start, child seconds, span id or None, enclosing span id]
        self._depth = defaultdict(int)
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------
    def install(self):
        # Import every target module first: a module imported while the
        # wrappers are in place would bind them by name and keep them.
        for target in TARGETS:
            try:
                importlib.import_module(target.module)
            except ImportError:
                pass
        for target in TARGETS:
            module = sys.modules.get(target.module)
            try:
                owner, name = _resolve(module, target.attr)
                original = getattr(owner, name)
            except AttributeError:
                if target not in self.missing:
                    self.missing.append(target)
                continue
            wrapper = self._wrap(target, original)
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapper)
            if "." in target.attr:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("randamp") or mod is module:
                    continue
                if getattr(mod, name, None) is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- frames -------------------------------------------------------
    def _enter(self, record: bool):
        enclosing = None
        if self._stack:
            top = self._stack[-1]
            enclosing = top[2] if top[2] is not None else top[3]
        span_id = None
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [time.perf_counter(), 0.0, span_id, enclosing]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name: str, layer: str):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        own = duration - frame[1]
        self.self_by_key[name] += own
        self.self_by_layer[layer] += own
        if self._stack:
            self._stack[-1][1] += duration
        if frame[2] is not None:
            self.spans.append((frame[2], name, frame[0], end, frame[3]))
        return duration

    @contextlib.contextmanager
    def op(self, name: str):
        """One benchmark operation, the root of its spans."""
        frame = self._enter(True)
        try:
            yield
        finally:
            self._exit(frame, name, "bench")

    def _wrap(self, target: Target, fn):
        tracer = self
        key, layer = target.key, target.key.split(".")[0]
        hook = getattr(self, target.hook) if target.hook else None
        signature = inspect.signature(fn) if hook else None

        if target.kind == "count":
            def counted(*args, **kwargs):
                tracer.calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        record = target.kind == "span"

        def timed(*args, **kwargs):
            name = key if hook is None else hook(signature, args, kwargs, None)
            tracer.calls[name] += 1
            tracer._depth[name] += 1
            frame = tracer._enter(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame, name, layer)
                tracer._depth[name] -= 1
                if tracer._depth[name] == 0:
                    tracer.inclusive[name] += duration
            if hook is not None:
                hook(signature, args, kwargs, result)
            return result

        return timed

    # -- hooks: called once before a call (result None) and once after --
    def _on_linprog(self, signature, args, kwargs, result):
        bound = signature.bind_partial(*args, **kwargs).arguments
        name = "lp.highs_primal" if bound.get("A_ub") is not None else "lp.highs_dual"
        if result is not None:
            self.counters["lp.highs_nit"] += int(getattr(result, "nit", 0))
        return name

    def _on_run_protocol(self, signature, args, kwargs, result):
        if result is not None:
            _, transcript = result
            self.counters["protocol.general_trials"] += 1
            self.counters["protocol.kept_uses"] += sum(len(k) for k in transcript.kept)
            self.counters["protocol.settings_drawn"] += sum(transcript.m_realized)
        return "protocol.run_protocol"

    def _on_run_trials_iid(self, signature, args, kwargs, result):
        if result is not None:
            self.counters["protocol.fast_trials"] += int(signature.bind(*args, **kwargs).arguments["trials"])
        return "protocol.run_trials_iid"

    def _on_build(self, signature, args, kwargs, result):
        if result is not None:
            self.counters["definetti.tensor_entries"] += int(result.tensor.size)
        return "definetti.build"

    # -- output -------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer metrics of the traced pass; counts repeat exactly for a
        seed, since a pass is a fixed list of ops with fixed seeds."""
        ms = lambda key: 1000.0 * self.inclusive.get(key, 0.0)
        per = float
        c = self.counters
        general = c["protocol.general_trials"]
        fast = c["protocol.fast_trials"]
        out = {
            "cli.build_box_calls": per(self.calls["cli.build_box"]),
            "cli.write_outputs_ms": ms("cli.write_outputs"),
            "lp.setup_ms": ms("lp.setup"),
            "lp.highs_primal_calls": per(self.calls["lp.highs_primal"]),
            "lp.highs_primal_ms": ms("lp.highs_primal"),
            "lp.highs_dual_calls": per(self.calls["lp.highs_dual"]),
            "lp.highs_dual_ms": ms("lp.highs_dual"),
            "lp.highs_nit": per(c["lp.highs_nit"]),
            "simplex.calls": per(self.calls["simplex.solve"]),
            "simplex.solve_ms": ms("simplex.solve"),
            "boxes.validations": per(self.calls["boxes.validate"]),
            "boxes.validate_ms": ms("boxes.validate"),
            "quantum.noisy_box_calls": per(self.calls["quantum.noisy_box"]),
            "quantum.noisy_box_ms": ms("quantum.noisy_box"),
            "sv.bits_drawn": per(self.calls["sv.next_bit"]),
            "sv.bits_per_trial": self.calls["sv.next_bit"] / general if general else 0.0,
            "sv.exact_dist_ms": ms("sv.exact_dist"),
            "devices.sample_outcome_calls": per(self.calls["devices.sample_outcome"]),
            "devices.sample_outcome_ms": ms("devices.sample_outcome"),
            "devices.posterior_calls": per(self.calls["devices.posterior"]),
            "devices.posterior_ms": ms("devices.posterior"),
            "protocol.run_protocol_calls": per(self.calls["protocol.run_protocol"]),
            "protocol.run_protocol_ms": ms("protocol.run_protocol"),
            "protocol.run_trials_iid_ms": ms("protocol.run_trials_iid"),
            "protocol.fast_path_share": fast / (fast + general) if fast + general else 0.0,
            "protocol.kept_ratio": (
                c["protocol.kept_uses"] / c["protocol.settings_drawn"] if c["protocol.settings_drawn"] else 0.0
            ),
            "definetti.build_ms": ms("definetti.build"),
            "definetti.tensor_entries": per(c["definetti.tensor_entries"]),
            "definetti.t_levels_calls": per(self.calls["definetti.t_levels"]),
            "definetti.t_levels_ms": ms("definetti.t_levels"),
            "definetti.product_gap_calls": per(self.calls["definetti.product_gap"]),
            "definetti.pinsker_gap_calls": per(self.calls["definetti.pinsker_gap"]),
            "definetti.pinsker_ms": 1000.0 * self.self_by_key.get("definetti.check", 0.0),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1000.0 * self.self_by_layer.get(layer, 0.0)
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p} for i, n, s, e, p in self.spans
            ],
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "missing_targets": [f"{t.module}.{t.attr}" for t in self.missing],
        }
