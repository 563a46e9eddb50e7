"""Regenerate the reference outputs the benchmark checks against.

Run from the repository root, only at a commit whose outputs are trusted:

    python3 bench/make_refs.py

It rewrites bench/ref/: the six presets' CSV and peak report as
`collisim reproduce` writes them, the chain7_carry concurrence table and
peaks, and the fig2_cm top peak per pair on the omega grid the sweep
workload draws its points from.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from collisim import runner  # noqa: E402
from collisim.network import pair_label  # noqa: E402
from workloads import PRESET_NAMES, REF_DIR, chain_config  # noqa: E402

# 401 omegas in [4, 20], step 0.04.
SWEEP_GRID = np.linspace(4.0, 20.0, 401).tolist()


def _write_json(name, doc):
    with open(os.path.join(REF_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def main():
    preset_dir = os.path.join(REF_DIR, "presets")
    os.makedirs(preset_dir, exist_ok=True)
    for name in PRESET_NAMES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = runner.main(["reproduce", name, "--out", preset_dir])
        if code != 0:
            raise SystemExit(f"reproduce {name} exited with {code}")

    result = runner.run_experiment(runner.config_from_dict(chain_config(7)))
    _write_json(
        "chain7_carry.json",
        {
            "pairs": [pair_label(p) for p in result.pairs],
            "table": result.table.tolist(),
            "peaks": [
                [pair_label(p.pair), p.n, p.concurrence, p.best_target, p.fidelity]
                for p in result.peaks
            ],
        },
    )

    rows = runner.sweep(runner.preset("fig2_cm"), "omega", SWEEP_GRID)
    for row in rows:
        if row.error is not None:
            raise SystemExit(f"sweep omega={row.value}: {row.error}")
    _write_json(
        "sweep_fig2_cm.json",
        {
            "omegas": SWEEP_GRID,
            "top": [
                {label: None if found is None else [found[0], found[1]]
                 for label, found in row.top.items()}
                for row in rows
            ],
        },
    )


if __name__ == "__main__":
    main()
