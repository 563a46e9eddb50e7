"""Quick self-check of the benchmark, from the repository root:

    python3 bench/selfcheck.py

Runs every workload at minimal size in both modes and asserts that each
metric BENCHMARK.json names is printed with its unit, that every op passes
its output check (error rate 0), that bench/moves.json maps every
per-layer metric to real end-to-end metrics, that a renamed entry point
only drops its own per-layer metrics, and that the benchmark fails without
printing a result when the collisim sources are absent.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEED = 1
SECONDS = "1"


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_moves(spec):
    moves = _load(os.path.join(BENCH, "moves.json"))["moves"]
    layers = [m["name"] for m in spec["per_layer"]]
    assert sorted(moves) == sorted(layers), "moves.json and BENCHMARK.json list different metrics"
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for name, targets in moves.items():
        for target in targets:
            workload, metric = target.split("/")
            assert workload in workloads and metric in e2e, f"{name}: bad target {target}"


def check_renamed_entry_point():
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import spans
    from collisim import runner

    layers = tuple(
        (name, module, "renamed_concurrence" if name == "metrics.concurrence" else attr)
        for name, module, attr in spans.LAYERS
    )
    tracer = spans.Tracer(layers)
    tracer.install()
    try:
        runner.run_experiment(runner.preset("fig5"))
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer, 0, len(tracer), 1, 3)
    assert tracer.missing == ["collisim.metrics.renamed_concurrence"], tracer.missing
    assert "metrics.concurrence.us" not in metrics
    assert metrics["metrics.reduced_pair.us"][0] > 0


def check_run(spec, workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted), workload
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (metric["name"], got["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(metric["unit"])
                   for line in lines), f"{metric['name']} not printed with its unit"
    detail = json.loads(next(line for line in lines if line.startswith("detail: "))[8:])
    assert detail["seed"] == SEED and detail["error_rate"] == 0, detail
    assert {"git_sha", "python", "numpy", "blas", "blas_version", "blas_threads", "nproc"} <= set(
        detail["environment"]
    )


def check_without_sources(spec):
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = _run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0, "ran without collisim sources"
    assert '"metrics"' not in done.stdout, "printed a result without collisim sources"


def main():
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    check_moves(spec)
    check_renamed_entry_point()
    check_without_sources(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
            print(f"ok {workload['name']} trace {trace}", flush=True)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
