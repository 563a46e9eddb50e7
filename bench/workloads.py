"""The benchmark's workloads: seeded inputs, one pass of ops, output checks.

A pass is the unit a workload repeats: the six presets in a seeded order,
one chain7_carry run, or one sweep call over every seeded point. Each op
of a pass yields (latency in seconds, error text or None); an op whose
output differs from the stored reference counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import traceback
from time import perf_counter

import numpy as np

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")
TOL = 1e-9
PRESET_NAMES = ("fig2", "fig3a", "fig3b", "fig2_cm", "fig5", "fig6")
DUAL_MODE = ("fig5", "fig6")
SWEEP_POINTS = 200
SWEEP_INVALID = 2


def chain_config(n, steps=200):
    """chain7_carry's settings on an open chain of n qubits, as a config document."""
    return dict(
        topology=[[1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)],
        system_coupling="Exchange",
        ancilla_coupling="Exchange",
        omega=5.0,
        target="A",
        mode="repeated",
        dt=0.4,
        steps=steps,
        ancilla_init="1",
        peak_min_height=0.1,
    )


def _load_json(name):
    with open(os.path.join(REF_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _crash(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _close(got, want):
    return abs(got - want) <= TOL


def compare_text(got, want, what):
    """Compare two output files line by line and token by token.

    Tokens that parse as numbers must agree within TOL; every other token
    (labels, targets, headers) must match exactly. Returns None or the
    first difference.
    """
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{what}: {len(got_lines)} lines, reference has {len(want_lines)}"
    for number, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        g_tokens, w_tokens = re.split(r"[,= ]", g), re.split(r"[,= ]", w)
        if len(g_tokens) != len(w_tokens):
            return f"{what} line {number}: {g!r} != {w!r}"
        for gt, wt in zip(g_tokens, w_tokens):
            try:
                if _close(float(gt), float(wt)):
                    continue
            except ValueError:
                if gt == wt:
                    continue
            return f"{what} line {number}: {gt!r} != {wt!r}"
    return None


def compare_peaks(peaks, want, pair_label):
    """Peak reports against reference rows [pair, n, concurrence, target, fidelity]."""
    got = [[pair_label(p.pair), p.n, p.concurrence, p.best_target, p.fidelity] for p in peaks]
    if len(got) != len(want):
        return f"{len(got)} peaks, reference has {len(want)}"
    for g, w in zip(got, want):
        if g[0] != w[0] or g[1] != w[1] or g[3] != w[3]:
            return f"peak {g[:2] + g[3:4]} != reference {w[:2] + w[3:4]}"
        if not (_close(g[2], w[2]) and _close(g[4], w[4])):
            return f"peak {g} differs from reference {w} beyond {TOL}"
    return None


class Presets:
    """`collisim reproduce <name> --out <fresh dir>` through runner.main."""

    name = "presets"
    qubits = 3
    setup_presets = PRESET_NAMES
    setup_docs = ()

    def __init__(self, runner, rng, workdir):
        self.runner = runner
        self.rng = rng
        self.workdir = workdir
        self.ops = 0
        self.refs = {
            name: (
                _read(os.path.join(REF_DIR, "presets", f"{name}.csv")),
                _read(os.path.join(REF_DIR, "presets", f"{name}_peaks.txt")),
            )
            for name in PRESET_NAMES
        }

    def overhead_configs(self):
        return [self.runner.preset(name) for name in PRESET_NAMES]

    def run_pass(self):
        order = list(PRESET_NAMES)
        self.rng.shuffle(order)
        return [self._op(name) for name in order]

    def _op(self, name):
        # A fresh directory per op: rewriting existing files makes ext4
        # flush on truncate, which would time the disk, not the program.
        out = os.path.join(self.workdir, f"op{self.ops}")
        self.ops += 1
        os.mkdir(out)
        printed = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                code = self.runner.main(["reproduce", name, "--out", out])
        except Exception as exc:
            return perf_counter() - start, f"{name}: {_crash(exc)}"
        latency = perf_counter() - start
        if code != 0:
            return latency, f"{name}: exit code {code}"
        return latency, self._check(name, out, printed.getvalue())

    def _check(self, name, out, printed):
        ref_csv, ref_report = self.refs[name]
        try:
            csv, report = (
                _read(os.path.join(out, f"{name}.csv")),
                _read(os.path.join(out, f"{name}_peaks.txt")),
            )
        except OSError as exc:
            return f"{name}: {exc}"
        problem = compare_text(csv, ref_csv, f"{name}.csv") or compare_text(
            report, ref_report, f"{name}_peaks.txt"
        )
        if problem or name not in DUAL_MODE:
            return problem
        found = re.search(r"max concurrence difference (\S+),", printed)
        if found is None:
            return f"{name}: no mode comparison printed"
        if not float(found.group(1)) <= TOL:
            return f"{name}: mode_delta {found.group(1)} above {TOL}"
        return None


class Chain7Carry:
    """run_experiment on a 7-qubit exchange chain with the ancilla carried."""

    name = "chain7_carry"
    qubits = 7
    setup_presets = ()
    setup_docs = (chain_config(7),)

    def __init__(self, runner, rng, workdir):
        self.runner = runner
        self.config = runner.config_from_dict(chain_config(7))
        self.ref = _load_json("chain7_carry.json")

    def overhead_configs(self):
        return [self.config]

    def run_pass(self):
        start = perf_counter()
        try:
            result = self.runner.run_experiment(self.config)
        except Exception as exc:
            return [(perf_counter() - start, _crash(exc))]
        latency = perf_counter() - start
        return [(latency, self._check(result))]

    def _check(self, result):
        from collisim.network import pair_label

        labels = [pair_label(p) for p in result.pairs]
        if labels != self.ref["pairs"]:
            return f"tracked pairs {labels} != reference {self.ref['pairs']}"
        table, want = np.asarray(result.table), np.asarray(self.ref["table"])
        if table.shape != want.shape:
            return f"table shape {table.shape} != reference {want.shape}"
        delta = float(np.max(np.abs(table - want)))
        if not delta <= TOL:
            return f"concurrence table differs from reference by {delta}"
        problem = compare_peaks(result.peaks, self.ref["peaks"], pair_label)
        if problem:
            return problem
        final = np.asarray(result.trajectory.network_states()[-1])
        hermiticity = float(np.max(np.abs(final - final.conj().T)))
        trace = complex(np.trace(final))
        if not (hermiticity <= 1e-10 and abs(trace - 1.0) <= 1e-10):
            return f"final network state: hermiticity defect {hermiticity}, trace {trace}"
        return None


class Sweep:
    """sweep(preset("fig2_cm"), "omega", values) over seeded points.

    The valid omegas are drawn from the reference grid, so every point has
    a stored top peak; the negative ones must come back as ValueError rows.
    """

    name = "sweep"
    qubits = 3
    setup_presets = ("fig2_cm",)
    setup_docs = ()

    def __init__(self, runner, rng, workdir):
        self.runner = runner
        self.base = runner.preset("fig2_cm")
        ref = _load_json("sweep_fig2_cm.json")
        grid = ref["omegas"]
        picks = rng.sample(range(len(grid)), SWEEP_POINTS)
        self.values = [grid[i] for i in picks]
        self.expected = [ref["top"][i] for i in picks]
        for position in sorted(rng.sample(range(SWEEP_POINTS + SWEEP_INVALID), SWEEP_INVALID)):
            self.values.insert(position, -grid[rng.randrange(len(grid))])
            self.expected.insert(position, None)

    def overhead_configs(self):
        return [self.base]

    def run_pass(self):
        # One sweep call covers every point. A point completes when sweep's
        # run_experiment returns; the last point also takes sweep's tail.
        done = []
        inner = self.runner.run_experiment

        def completion_hook(cfg):
            try:
                return inner(cfg)
            finally:
                done.append(perf_counter())

        self.runner.run_experiment = completion_hook
        start = perf_counter()
        try:
            rows = self.runner.sweep(self.base, "omega", self.values)
        except Exception as exc:
            failure = _crash(exc)
            rows = None
        finally:
            end = perf_counter()
            self.runner.run_experiment = inner
        points = len(self.values)
        if len(done) == points:
            latencies = np.diff([start] + done[:-1] + [end]).tolist()
        else:
            latencies = [(end - start) / points] * points
        if rows is None:
            return [(latency, failure) for latency in latencies]
        if len(rows) != points:
            return [(latency, f"{len(rows)} rows for {points} points") for latency in latencies]
        return [
            (latency, self._check(row, value, want))
            for latency, row, value, want in zip(latencies, rows, self.values, self.expected)
        ]

    @staticmethod
    def _check(row, value, want):
        if row.value != value:
            return f"row value {row.value} != {value}"
        if want is None:
            if isinstance(row.error, ValueError) and not row.top:
                return None
            return f"omega={value}: expected a ValueError row, got {row.error!r}"
        if row.error is not None:
            return f"omega={value}: {row.error!r}"
        if sorted(row.top) != sorted(want):
            return f"omega={value}: pairs {sorted(row.top)} != {sorted(want)}"
        for label, found in row.top.items():
            ref = want[label]
            if (found is None) != (ref is None):
                return f"omega={value}: C_{label} top {found} != reference {ref}"
            if found is not None and (found[0] != ref[0] or not _close(found[1], ref[1])):
                return f"omega={value}: C_{label} top {found} != reference {ref}"
        return None


WORKLOADS = {w.name: w for w in (Presets, Chain7Carry, Sweep)}
