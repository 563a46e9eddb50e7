"""Per-layer tracing from outside the program.

The tracer replaces each layer's public functions, in the benchmark
process only, at the point where the calling module looks them up, with
a wrapper that records one span per call: name, start, end and parent.
Spans stay in memory until the run writes them out. A function that is
missing or renamed is reported and its metrics are left out; it never
stops the run.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from statistics import median
from time import perf_counter

import numpy as np

from workloads import chain_config

# (span name, module that looks the function up, attribute name there)
LAYERS = (
    ("network.build_propagator", "dynamics", "build_propagator"),
    ("linalg.expm_hermitian", "network", "expm_hermitian"),
    ("dynamics.run_protocol", "runner", "run_protocol"),
    ("dynamics.collision_step", "dynamics", "collision_step"),
    ("linalg.partial_trace", "dynamics", "partial_trace"),
    ("linalg.partial_trace", "metrics", "partial_trace"),
    ("metrics.pair_concurrences", "runner", "pair_concurrences"),
    ("metrics.concurrence", "metrics", "concurrence"),
    ("metrics.reduced_pair", "metrics", "reduced_pair"),
    ("metrics.reduced_pair", "runner", "reduced_pair"),
    ("metrics.find_peaks", "runner", "find_peaks"),
    ("metrics.characterize_peak", "runner", "characterize_peak"),
    ("runner.build_protocol", "runner", "build_protocol"),
    ("runner.run_experiment", "runner", "run_experiment"),
    ("runner.sweep", "runner", "sweep"),
    ("runner.reproduce", "runner", "reproduce"),
    ("runner.main", "runner", "main"),
    ("runner.emit_csv", "runner", "emit_csv"),
    ("runner.emit_report", "runner", "emit_report"),
)

# Per-layer metric -> (span, statistic, unit). Statistics: "ms"/"us" are
# mean time per call, "self_ms" mean self time per call, "calls" calls
# per workload op. A layer the workload never calls reads 0.
SPAN_METRICS = {
    "network.build_propagator.ms": ("network.build_propagator", "ms", "ms"),
    "network.build_propagator.calls": ("network.build_propagator", "calls", "count/op"),
    "linalg.expm_hermitian.ms": ("linalg.expm_hermitian", "ms", "ms"),
    "dynamics.run_protocol.ms": ("dynamics.run_protocol", "ms", "ms"),
    "dynamics.step_us": ("dynamics.collision_step", "us", "us"),
    "dynamics.collision_step.calls": ("dynamics.collision_step", "calls", "count/op"),
    "linalg.partial_trace.calls": ("linalg.partial_trace", "calls", "count/op"),
    "linalg.partial_trace.us": ("linalg.partial_trace", "us", "us"),
    "metrics.pair_concurrences.ms": ("metrics.pair_concurrences", "ms", "ms"),
    "metrics.concurrence.us": ("metrics.concurrence", "us", "us"),
    "metrics.reduced_pair.us": ("metrics.reduced_pair", "us", "us"),
    "metrics.find_peaks.us": ("metrics.find_peaks", "us", "us"),
    "metrics.characterize_peak.us": ("metrics.characterize_peak", "us", "us"),
    "metrics.peaks": ("metrics.characterize_peak", "calls", "count/op"),
    "runner.build_protocol.ms": ("runner.build_protocol", "ms", "ms"),
    "runner.run_experiment.self_ms": ("runner.run_experiment", "self_ms", "ms"),
    "runner.sweep.self_ms": ("runner.sweep", "self_ms", "ms"),
    "runner.reproduce.self_ms": ("runner.reproduce", "self_ms", "ms"),
    "runner.main.self_ms": ("runner.main", "self_ms", "ms"),
    "runner.emit_csv.ms": ("runner.emit_csv", "ms", "ms"),
    "runner.emit_report.ms": ("runner.emit_report", "ms", "ms"),
}
_SCALE = {"ms": 1e3, "us": 1e6, "self_ms": 1e3}

# Network size -> steps; keeps each scaling run under about half a second.
SCALING_STEPS = {3: 50, 4: 50, 5: 50, 6: 40, 7: 20, 8: 10}
SCALING_RUNS = 3


class Tracer:
    """Span recorder for the functions listed in `layers`."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.names = sorted({name for name, _, _ in layers})
        self._index = {name: i for i, name in enumerate(self.names)}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.csv_bytes = {}
        self.missing = []
        self.present = set()
        self._stack = [-1]
        self._patches = []

    def __len__(self):
        return len(self.start)

    def install(self):
        self.missing = []
        for name, module_name, attr in self.layers:
            try:
                module = importlib.import_module(f"collisim.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"collisim.{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, original))
            self._patches.append((module, attr, original))
            self.present.add(name)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        index = self._index[name]
        count_bytes = name == "runner.emit_csv"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name.append(index)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = perf_counter()
                self._stack.pop()
                if count_bytes:
                    path = args[1] if len(args) > 1 else kwargs.get("path")
                    if path is not None and os.path.exists(path):
                        self.csv_bytes[span] = os.path.getsize(path)

        return traced

    def arrays(self):
        """(name index, duration, self time) for every span."""
        name = np.array(self.name, dtype=np.int_)
        parent = np.array(self.parent, dtype=np.int_)
        duration = np.array(self.end) - np.array(self.start)
        children = np.zeros(len(self))
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return name, duration, duration - children

    def durations(self, name, lo, hi):
        """Durations in seconds of the spans called `name` among spans lo..hi-1."""
        index = self._index[name]
        codes = np.array(self.name[lo:hi])
        return (np.array(self.end[lo:hi]) - np.array(self.start[lo:hi]))[codes == index]

    def save(self, path, phases):
        """Write every span and the span index where each phase starts."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            phase_names=np.array(list(phases)),
            phase_starts=np.array(list(phases.values()), dtype=int),
        )


def layer_metrics(tracer, lo, hi, ops, qubits):
    """Per-layer metrics over spans lo..hi-1 of a phase that ran `ops` ops."""
    name, duration, self_time = tracer.arrays()
    name, duration, self_time = name[lo:hi], duration[lo:hi], self_time[lo:hi]
    out = {}
    for metric, (span, stat, unit) in SPAN_METRICS.items():
        if span not in tracer.present:
            continue
        hits = name == tracer.names.index(span)
        calls = int(hits.sum())
        if stat == "calls":
            value = calls / ops
        elif calls == 0:
            value = 0.0
        else:
            times = self_time if stat == "self_ms" else duration
            value = float(times[hits].sum()) / calls * _SCALE[stat]
        out[metric] = (value, unit)
    if "dynamics.collision_step" in tracer.present:
        step_us = out["dynamics.step_us"][0]
        # Two dense d x d complex products per step, 8 d^3 flop each.
        d = 2 ** (qubits + 1)
        out["dynamics.nominal_gflops"] = (16 * d**3 / step_us * 1e-3 if step_us else 0.0, "GFLOP/s")
    if "runner.emit_csv" in tracer.present:
        sizes = [size for span, size in tracer.csv_bytes.items() if lo <= span < hi]
        out["runner.emit_csv.bytes"] = (sum(sizes) / len(sizes) if sizes else 0.0, "B")
    return out


def scaling_curve(runner, tracer):
    """Step, concurrence-row and propagator-build times for n = 3..8.

    Each size runs SCALING_RUNS times; every figure is a median.
    """
    out = {}
    for n, steps in SCALING_STEPS.items():
        cfg = runner.config_from_dict(chain_config(n, steps))
        lo = len(tracer)
        for _ in range(SCALING_RUNS):
            runner.run_experiment(cfg)
        hi = len(tracer)
        if "dynamics.collision_step" in tracer.present:
            steps_s = tracer.durations("dynamics.collision_step", lo, hi)
            out[f"scaling.step_us.n{n}"] = (float(np.median(steps_s)) * 1e6, "us")
        if "metrics.pair_concurrences" in tracer.present:
            rows_s = tracer.durations("metrics.pair_concurrences", lo, hi) / (steps + 1)
            out[f"scaling.concurrence_row_ms.n{n}"] = (float(np.median(rows_s)) * 1e3, "ms")
        if "network.build_propagator" in tracer.present:
            builds_s = tracer.durations("network.build_propagator", lo, hi)
            out[f"scaling.build_propagator_ms.n{n}"] = (float(np.median(builds_s)) * 1e3, "ms")
    return out


def overhead_pct(runner, tracer, configs, seconds, min_pairs=3):
    """Traced minus untraced run_experiment time, as a % of untraced.

    Alternates which side runs first; each sample runs every config once.
    """
    samples = {False: [], True: []}
    deadline = perf_counter() + seconds
    pairs = 0
    while pairs < min_pairs or perf_counter() < deadline:
        for traced in (pairs % 2 == 0, pairs % 2 == 1):
            if traced:
                tracer.install()
            start = perf_counter()
            try:
                for cfg in configs:
                    runner.run_experiment(cfg)
            finally:
                samples[traced].append(perf_counter() - start)
                if traced:
                    tracer.uninstall()
        pairs += 1
    untraced = median(samples[False])
    return (median(samples[True]) - untraced) / untraced * 100.0, pairs
