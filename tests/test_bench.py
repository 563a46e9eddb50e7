"""The benchmark's reference outputs and entry points, checked in the tier-1 run.

bench/ is loaded read-only, as the benchmark loads it, so a change that
moves an output off bench/ref or renames a traced function fails here
and not only in the benchmark or its CI self-check.
"""

import importlib
import importlib.util
import json
import pathlib
import sys

import numpy as np

from collisim import runner
from collisim.network import pair_label
from collisim.runner import config_from_dict, preset, reproduce, run_experiment

ROOT = pathlib.Path(__file__).resolve().parent.parent
REF = ROOT / "bench" / "ref"


def bench_module(name):
    """bench/<name>.py, executed as a module of that name."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_presets_reproduce_the_reference_files(tmp_path):
    workloads = bench_module("workloads")
    for name in workloads.PRESET_NAMES:
        summary = reproduce(name, tmp_path)
        for got, suffix in ((summary["csv"], ".csv"), (summary["report"], "_peaks.txt")):
            want = (REF / "presets" / f"{name}{suffix}").read_text(encoding="utf-8")
            text = pathlib.Path(got).read_text(encoding="utf-8")
            assert workloads.compare_text(text, want, f"{name}{suffix}") is None


def test_chain7_carry_matches_its_reference():
    workloads = bench_module("workloads")
    ref = json.loads((REF / "chain7_carry.json").read_text(encoding="utf-8"))
    result = run_experiment(config_from_dict(workloads.chain_config(7)))
    assert [pair_label(pair) for pair in result.pairs] == ref["pairs"]
    table = np.asarray(ref["table"])
    assert result.table.shape == table.shape
    assert np.max(np.abs(result.table - table)) <= workloads.TOL
    assert workloads.compare_peaks(result.peaks, ref["peaks"], pair_label) is None


def test_every_traced_entry_point_resolves(monkeypatch):
    # bench/spans.py imports its neighbour as a top-level module.
    monkeypatch.setitem(sys.modules, "workloads", bench_module("workloads"))
    spans = bench_module("spans")
    for _, module, attr in spans.LAYERS:
        assert hasattr(importlib.import_module(f"collisim.{module}"), attr), f"{module}.{attr}"


def test_peaks_are_reduced_through_reduced_pair(monkeypatch):
    # bench/selfcheck.py requires a positive metrics.reduced_pair.us on
    # fig5, read from runner.reduced_pair. While bench/ stays as it is, this
    # blocks taking peak states from pair_states instead (ROADMAP direction
    # 3, first bullet).
    calls = []
    reduced_pair = runner.reduced_pair

    def counted(*args):
        calls.append(args)
        return reduced_pair(*args)

    monkeypatch.setattr(runner, "reduced_pair", counted)
    run_experiment(preset("fig5"))
    assert calls


def test_sweep_tabulates_through_the_traced_entry_points(monkeypatch):
    # bench/spans.py times runner.pair_concurrences and metrics.concurrence,
    # so sweep's tables show in both spans: 60 fig2_cm points run as stacks
    # of 43 and 17, streamed in windows of 5 and 15 steps, so their 81 rows
    # take 17 and 6 windows. Each window is tabulated by one
    # pair_concurrences call that makes one concurrence call.
    monkeypatch.setitem(sys.modules, "workloads", bench_module("workloads"))
    spans = bench_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        rows = runner.sweep(preset("fig2_cm"), "omega", [4.0 + k / 8 for k in range(60)])
    finally:
        tracer.uninstall()
    assert all(row.error is None for row in rows)
    name, parent = np.array(tracer.name), np.array(tracer.parent)
    tables = np.flatnonzero(name == tracer.names.index("metrics.pair_concurrences"))
    chunks = parent[name == tracer.names.index("metrics.concurrence")]
    assert len(tables) == 23
    assert [int((chunks == table).sum()) for table in tables] == [1] * 23
    assert len(chunks) == 23
