"""collisim benchmark: one workload per run, end-to-end or traced per layer.

Usage, from the repository root:

    python3 bench/run.py --workload presets|chain7_carry|sweep \
        --seed N --seconds S --trace 0|1

Load is a closed loop with one caller in one process: each op is issued
after the previous one completes, as a researcher runs collisim. With
--trace 0 the run times ops for S seconds with tracing off and prints the
end-to-end metrics; with --trace 1 it prints the per-layer metrics of a
separate traced run. The seed drives the preset order, the sweep values
and the positions of the invalid sweep points; collisim itself only sees
the generated inputs. Every op's output is checked against bench/ref.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it print each metric with
its unit and a `detail:` JSON line holding the seed and environment; the
same record, and in traced runs the spans, are written to .bench_out/.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads. On a small shared host the
# second BLAS thread runs at the speed of whichever core is busier, so
# two-thread matmuls switch between two speeds in phases of 10-30 s and
# one run's median lands on either; a single thread stays steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer, layer_metrics, overhead_pct, scaling_curve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 11
TAIL_CHUNK = 100
SHOWN_ERRORS = 5

# Runs in a fresh interpreter: import collisim and resolve the workload's
# configs, timed from before the import. argv: src dir, JSON spec.
SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from collisim import runner
spec = json.loads(sys.argv[2])
configs = [runner.preset(name) for name in spec["presets"]]
configs += [runner.config_from_dict(doc) for doc in spec["docs"]]
for cfg in configs:
    runner.build_protocol(cfg)
print(time.perf_counter() - start)
"""


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def git_sha():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        head = _read(os.path.join(git, "HEAD")).strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            return _read(os.path.join(git, ref)).strip()
        for line in _read(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "collisim", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup_seconds(workload):
    """Median time for a fresh process to import collisim and resolve configs."""
    spec = json.dumps(
        {"presets": list(workload.setup_presets), "docs": list(workload.setup_docs)}
    )
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, spec],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    # The first process also fills the bytecode and page caches.
    return median(times[1:])


def run_passes(workload, seconds):
    """Whole passes until `seconds` have elapsed; each pass is a list of ops."""
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        passes.append(workload.run_pass())
    return passes


def tail_latency(latencies):
    """Tail latency as (seconds, percentile, chunks).

    The run is cut into consecutive chunks of TAIL_CHUNK ops. In each chunk
    the tail is the latency at the highest percentile with ten samples
    beyond it; the result is the lower quartile over chunks. A run's
    single highest latencies are host stalls, and on a shared host bursts
    of other load slow whole chunks for up to half a run, so a tail read
    off the whole run, or the median chunk, would time the host. A run
    shorter than one chunk is one chunk.
    """
    size = TAIL_CHUNK if len(latencies) >= TAIL_CHUNK else len(latencies)
    chunks = [latencies[i:i + size] for i in range(0, len(latencies) - size + 1, size)]
    rank = max(size - 11, 0)
    tails = sorted(sorted(chunk)[rank] for chunk in chunks)
    return tails[(len(tails) - 1) // 4], round(100.0 * (rank + 1) / size, 3), len(chunks)


def end_to_end(workload, seconds, detail):
    warmup = workload.run_pass()
    passes = run_passes(workload, seconds)
    latencies = [latency for ops in passes for latency, _ in ops]
    tail, percentile, chunks = tail_latency(latencies)
    detail.update(
        passes_timed=len(passes),
        op_ms_tail_percentile=percentile,
        op_ms_tail_samples=len(latencies),
        op_ms_tail_chunks=chunks,
    )
    # Throughput is the median over passes, so a short stall of the host
    # moves it no more than it moves the median latency.
    throughput = median(len(ops) / sum(latency for latency, _ in ops) for ops in passes)
    metrics = {
        "ops_per_s": (throughput, "1/s"),
        "op_ms_p50": (median(latencies) * 1e3, "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail["latencies_ms"] = [round(latency * 1e3, 4) for latency in latencies]
    return warmup + [op for ops in passes for op in ops], metrics


def traced(workload, runner, seconds, seed, detail):
    warmup = workload.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        ops = [op for ops in run_passes(workload, seconds / 2) for op in ops]
    finally:
        tracer.uninstall()
    phases = {"workload": 0, "overhead": len(tracer)}
    overhead, pairs = overhead_pct(runner, tracer, workload.overhead_configs(), seconds / 4)
    phases["scaling"] = len(tracer)
    tracer.install()
    try:
        scaling = scaling_curve(runner, tracer)
    finally:
        tracer.uninstall()
    spans_path = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.npz")
    tracer.save(spans_path, phases)
    metrics = layer_metrics(tracer, 0, phases["overhead"], len(ops), workload.qubits)
    metrics.update(scaling)
    metrics["trace.overhead_pct"] = (overhead, "%")
    detail.update(
        ops_traced=len(ops),
        overhead_pairs=pairs,
        spans=len(tracer),
        spans_file=os.path.relpath(spans_path, ROOT),
        missing_entry_points=tracer.missing,
    )
    return warmup + ops, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "collisim", "__init__.py")):
        print(f"error: no collisim sources under {SRC}", file=sys.stderr)
        return 2

    workload_class = WORKLOADS[args.workload]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    setup = None if args.trace else setup_seconds(workload_class)

    sys.path.insert(0, SRC)
    from collisim import runner

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ops-", dir=OUT)
    try:
        workload = workload_class(runner, random.Random(args.seed), workdir)
        if args.trace:
            ops, metrics = traced(workload, runner, args.seconds, args.seed, detail)
        else:
            ops, metrics = end_to_end(workload, args.seconds, detail)
            metrics["setup_s"] = (setup, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [error for _, error in ops if error is not None]
    for error in errors[:SHOWN_ERRORS]:
        print(f"failed op: {error}", file=sys.stderr)
    detail["error_rate"] = len(errors) / len(ops)
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())
        },
    }
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<36} {value:.6g} {unit}")
    print(f"{'error_rate':<36} {detail['error_rate']:.6g} ({len(errors)}/{len(ops)} ops)")
    shown = {key: value for key, value in detail.items() if key != "latencies_ms"}
    print("detail: " + json.dumps(shown))
    with open(
        os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        "w", encoding="utf-8",
    ) as fh:
        json.dump({"detail": detail, "result": result}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
