"""In-memory span tracer that wraps loadtrack's public functions from outside.

``Tracer.wrap`` replaces a module attribute or class method with a wrapper
that records one span (name, start, end, parent) per call and optionally
feeds the return value to a counter hook. Spans live in ``array`` buffers
until the run ends; ``restore`` puts every original back.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter

import numpy as np

# Tracker class name -> feedback regime, for the per-regime round cost.
TRACKERS = {
    "FullInformationTracker": "full",
    "BanditTracker": "bandit",
    "PartialBanditTracker": "partial",
    "BernoulliFeedbackTracker": "bernoulli",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str | None = None, on_return=None) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = vars(owner)[attr]
        name = name or f"{getattr(owner, '__name__', owner)}.{attr}"
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if on_return is not None:
                on_return(result, args)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> bool:
        """Put back every wrapped original, last wrapped first; True if all are back."""
        restored = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            restored.append((owner, attr, original))
        return all(vars(owner)[attr] is original for owner, attr, original in restored)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int16).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        """Write the spans: names, start and end in ns, parent index (-1 = root)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def trial_latencies_ms(tracer: Tracer) -> list[float]:
    """Per-trial latency: each run_trial span plus the regret solve that follows it."""
    spans = tracer.arrays()
    trial_id = tracer._ids.get("harness.run_trial")
    regret_id = tracer._ids.get("harness.empirical_regret")
    dur = spans["end"] - spans["start"]
    out: list[float] = []
    for nid, d in zip(spans["name_id"].tolist(), dur.tolist()):
        if nid == trial_id:
            out.append(d / 1e6)
        elif nid == regret_id and out:
            out[-1] += d / 1e6
    return out


def install_trial_clock(tracer: Tracer, harness) -> None:
    """The two spans the untraced run keeps: enough for per-trial latency."""
    tracer.wrap(harness, "run_trial", "harness.run_trial")
    tracer.wrap(harness, "empirical_regret", "harness.empirical_regret")


def install_layers(tracer: Tracer, cli, harness, algorithms, loads) -> None:
    """Wrap the layer boundaries whose spans and counts make the per-layer metrics."""

    def count(key, value_of):
        def hook(result, args):
            tracer.counters[key] += value_of(result, args)
        return hook

    def on_write_csv(result, args):
        tracer.counters["emit_rows"] += len(args[2])
        tracer.counters["emit_bytes"] += os.path.getsize(args[0])

    tracer.wrap(cli, "resolve_settings", "cli.resolve_settings")
    tracer.wrap(cli, "run_experiment", "cli.run_experiment")
    tracer.wrap(cli, "emit_outputs", "cli.emit_outputs")
    tracer.wrap(cli, "write_csv", "cli.write_csv", on_write_csv)

    tracer.wrap(harness, "run_trial", "harness.run_trial",
                count("ev_saturations", lambda r, a: int(r.saturation_events)))
    tracer.wrap(harness, "empirical_regret", "harness.empirical_regret")
    tracer.wrap(harness, "hindsight_optimum", "harness.hindsight_optimum",
                count("hindsight_iters", lambda r, a: int(r.iterations)))
    tracer.wrap(harness, "feedback_channel", "harness.feedback_channel")
    tracer.wrap(harness, "tcl_fleet_init", "harness.tcl_fleet_init")

    for fn in ("prox_step", "sample_unit_sphere", "gradient_estimate",
               "full_gradient", "project_shrunk_box"):
        tracer.wrap(algorithms, fn, f"algorithms.{fn}")
    for cls_name in TRACKERS:
        cls = getattr(algorithms, cls_name)
        tracer.wrap(cls, "begin_round", f"{cls_name}.begin_round")
        hook = None
        if cls_name == "BernoulliFeedbackTracker":
            hook = count("bernoulli_bandit_rounds", lambda r, a: int(bool(r["bandit_round"])))
        tracer.wrap(cls, "update", f"{cls_name}.update", hook)

    tracer.wrap(loads.TclFleet, "step", "TclFleet.step")
    tracer.wrap(loads.EvFleet, "step", "EvFleet.step")
    tracer.wrap(loads.NoiseSpec, "sample", "NoiseSpec.sample")
    tracer.wrap(loads.WeightedChargeObjective, "value_and_gradient",
                "WeightedChargeObjective.value_and_gradient")


def span_table(tracer: Tracer) -> dict:
    """Per span name: calls, total and self time in ns, and every duration.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because the program is single-threaded.
    """
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = dur - child_ns
    table = {}
    for nid, name in enumerate(tracer.names):
        mask = spans["name_id"] == nid
        table[name] = {
            "calls": int(mask.sum()),
            "total_ns": float(dur[mask].sum()),
            "self_ns": float(self_ns[mask].sum()),
            "durations_ns": dur[mask],
        }
    # Time under run_trial that is per-trial set-up, not a round.
    trial_ids = np.flatnonzero(spans["name_id"] == tracer._ids["harness.run_trial"])
    setup_names = [tracer._ids[n] for n in ("harness.tcl_fleet_init", "NoiseSpec.sample")]
    setup_mask = np.isin(spans["name_id"], setup_names) & np.isin(parent, trial_ids)
    table["harness.run_trial"]["setup_ns"] = float(dur[setup_mask].sum())
    return table


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced CLI run, as {name: (value, samples)}."""
    t = span_table(tracer)
    c = tracer.counters

    def mean_us(name):
        row = t[name]
        return (row["total_ns"] / row["calls"] / 1e3 if row["calls"] else 0.0, row["calls"])

    def mean_ms(name):
        value, n = mean_us(name)
        return value / 1e3, n

    def total_s(name):
        return t[name]["total_ns"] / 1e9, t[name]["calls"]

    rounds_by_regime = {fb: t[f"{cls}.update"]["calls"] for cls, fb in TRACKERS.items()}
    rounds = sum(rounds_by_regime.values())
    trial = t["harness.run_trial"]
    hindsight = t["harness.hindsight_optimum"]
    bern_rounds = rounds_by_regime["bernoulli"]

    m = {
        "cli.resolve_ms": (t["cli.resolve_settings"]["total_ns"] / 1e6, t["cli.resolve_settings"]["calls"]),
        "cli.emit_s": total_s("cli.emit_outputs"),
        "cli.emit_rows": (c["emit_rows"], t["cli.write_csv"]["calls"]),
        "cli.emit_mb": (c["emit_bytes"] / 1e6, t["cli.write_csv"]["calls"]),
        "harness.round_us": ((trial["total_ns"] - trial["setup_ns"]) / max(rounds, 1) / 1e3, rounds),
        "harness.loop_self_us": (trial["self_ns"] / max(rounds, 1) / 1e3, rounds),
        "harness.feedback_channel_us": mean_us("harness.feedback_channel"),
        "harness.hindsight_ms_p50": (
            float(np.median(hindsight["durations_ns"])) / 1e6 if hindsight["calls"] else 0.0,
            hindsight["calls"],
        ),
        "harness.hindsight_s": total_s("harness.hindsight_optimum"),
        "harness.hindsight_iters": (c["hindsight_iters"], hindsight["calls"]),
        "harness.hindsight_solves": (hindsight["calls"], hindsight["calls"]),
        "harness.experiment_self_ms": (t["cli.run_experiment"]["self_ns"] / 1e6, t["cli.run_experiment"]["calls"]),
        "algorithms.rounds": (rounds, rounds),
        "algorithms.bernoulli.bandit_frac": (
            c["bernoulli_bandit_rounds"] / bern_rounds if bern_rounds else 0.0, bern_rounds,
        ),
        "core.prox_step_us": mean_us("algorithms.prox_step"),
        "core.prox_step_calls": (t["algorithms.prox_step"]["calls"],) * 2,
        "core.sphere_us": mean_us("algorithms.sample_unit_sphere"),
        "core.sphere_calls": (t["algorithms.sample_unit_sphere"]["calls"],) * 2,
        "core.gradient_estimate_us": mean_us("algorithms.gradient_estimate"),
        "core.full_gradient_us": mean_us("algorithms.full_gradient"),
        "core.project_shrunk_box_us": mean_us("algorithms.project_shrunk_box"),
        "loads.tcl_step_us": mean_us("TclFleet.step"),
        "loads.ev_step_us": mean_us("EvFleet.step"),
        "loads.ev_value_and_gradient_us": mean_us("WeightedChargeObjective.value_and_gradient"),
        "loads.ev_saturations": (c["ev_saturations"], trial["calls"]),
        "loads.fleet_init_ms": mean_ms("harness.tcl_fleet_init"),
        "loads.noise_sample_ms": mean_ms("NoiseSpec.sample"),
    }
    for cls, fb in TRACKERS.items():
        n = rounds_by_regime[fb]
        busy = t[f"{cls}.begin_round"]["total_ns"] + t[f"{cls}.update"]["total_ns"]
        m[f"algorithms.{fb}.round_us"] = (busy / n / 1e3 if n else 0.0, n)
    return m
