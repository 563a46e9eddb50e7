"""Experiment orchestration: declarative configs, presets, sweeps, output.

A run is described by a flat, serializable ExperimentConfig whose fields
double as the keys of the YAML config files accepted by the command
line. The named presets correspond to the reference simulations the
package reproduces; `reproduce` runs one and writes its CSV and peak
report.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from .dynamics import ProtocolConfig, ProtocolMode, run_protocol
from .linalg import NumericalError
from .metrics import (
    PeakReport,
    all_pairs,
    characterize_peak,
    find_peaks,
    pair_concurrences,
    purity,
    reduced_pair,
)
from .network import (
    CouplingKind,
    NetworkSpec,
    Topology,
    pair_label,
    preset_topology,
    qubit_label,
)


@dataclass
class ExperimentConfig:
    """Declarative run description; every field is a plain document value.

    topology is a preset name or an explicit adjacency row list;
    ancilla_init is one of the kets "0", "1", "+", "+i" or an explicit
    amplitude pair; network_init is a bitstring (defaults to all zeros);
    tracked_pairs defaults to every network pair.
    """

    topology: object
    system_coupling: str
    ancilla_coupling: str
    omega: float
    target: object
    mode: str
    dt: float
    steps: int
    omega0: float = 1.0
    ancilla_init: object = "+"
    network_init: str = None
    tracked_pairs: list = None
    peak_min_height: float = 0.9
    csv_path: str = None
    report_path: str = None


_CONFIG_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
_REQUIRED_FIELDS = [
    f.name
    for f in dataclasses.fields(ExperimentConfig)
    if f.default is dataclasses.MISSING
]


_NUMBER_KEYS = ("omega", "omega0", "dt", "peak_min_height")
# Peak finding compares each recorded state with its neighbours, so a run
# needs at least three records: the initial state and two steps.
_MIN_STEPS = 2


def config_from_dict(doc):
    """Build an ExperimentConfig from a parsed key-value document."""
    if not isinstance(doc, dict):
        raise ValueError(f"config document must be a mapping, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(_CONFIG_FIELDS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(set(_REQUIRED_FIELDS) - set(doc))
    if missing:
        raise ValueError(f"missing config keys: {', '.join(missing)}")
    cfg = ExperimentConfig(**doc)
    for key in _NUMBER_KEYS:
        setattr(cfg, key, _parse_number(getattr(cfg, key), key))
    cfg.steps = _parse_steps(cfg.steps)
    return cfg


def _parse_number(value, key):
    """A finite float; numeric strings are accepted, booleans are not."""
    message = f"config key {key} must be a finite number, got {value!r}"
    if isinstance(value, bool):
        raise ValueError(message)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(message) from None
    if not math.isfinite(number):
        raise ValueError(message)
    return number


def _parse_steps(value):
    """An integer of at least _MIN_STEPS; integral numeric strings are accepted."""
    message = f"config key steps must be an integer, got {value!r}"
    if isinstance(value, bool):
        raise ValueError(message)
    try:
        steps = int(value)
        integral = steps == float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(message) from None
    if not integral:
        raise ValueError(message)
    if steps < _MIN_STEPS:
        raise ValueError(
            f"config key steps must be at least {_MIN_STEPS} for peak finding, got {steps}"
        )
    return steps


def config_to_dict(cfg):
    """Plain-document form of a config; None-valued optionals are omitted."""
    doc = {}
    for name in _CONFIG_FIELDS:
        value = getattr(cfg, name)
        if value is not None:
            doc[name] = value
    return doc


def load_config(path):
    """Read a YAML config file into an ExperimentConfig."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValueError(f"could not parse config {path}: {exc}") from exc
    return config_from_dict(doc)


_COUPLINGS = {
    "xx": CouplingKind.XX,
    "zz": CouplingKind.ZZ,
    "exchange": CouplingKind.EXCHANGE,
}
_MODES = {
    "collision": ProtocolMode.COLLISION,
    "repeated": ProtocolMode.REPEATED_INTERACTION,
}
_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "+i": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
}


def _parse_coupling(value, key):
    try:
        return _COUPLINGS[str(value).lower()]
    except KeyError:
        raise ValueError(
            f"config key {key} must be one of XX, ZZ, Exchange, got {value!r}"
        ) from None


def _parse_topology(value):
    if isinstance(value, str):
        return preset_topology(value)
    if isinstance(value, (list, tuple)):
        rows = np.array(value)
        return Topology(len(value), rows)
    raise ValueError(f"topology must be a preset name or adjacency rows, got {value!r}")


def _parse_target(value, n):
    if isinstance(value, str):
        text = value.strip().upper()
        if len(text) == 1 and "A" <= text <= "Z":
            return ord(text) - ord("A")
        raise ValueError(f"target {value!r} is not a qubit letter or index")
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"target {value!r} is not a qubit letter or index")


def _parse_ket(value, key):
    if isinstance(value, str):
        if value in _KETS:
            return _KETS[value].copy()
        raise ValueError(
            f'config key {key} must be "0", "1", "+", "+i", or an amplitude pair'
        )
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return np.array([complex(a) for a in value])
        except (TypeError, ValueError):
            raise ValueError(f"config key {key}: amplitudes must be numbers") from None
    raise ValueError(
        f'config key {key} must be "0", "1", "+", "+i", or an amplitude pair'
    )


def _parse_bitstring(value, n, key):
    text = str(value)
    if len(text) != n or set(text) - {"0", "1"}:
        raise ValueError(f"config key {key} must be a bitstring of length {n}")
    ket = np.zeros(2**n, dtype=complex)
    ket[int(text, 2)] = 1.0
    return ket


def _parse_pairs(value, n):
    if value is None:
        return all_pairs(n)
    pairs = []
    for entry in value:
        if isinstance(entry, str):
            text = entry.strip().upper()
            if len(text) != 2:
                raise ValueError(f"tracked pair {entry!r} must name two qubits")
            i, j = ord(text[0]) - ord("A"), ord(text[1]) - ord("A")
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            i, j = int(entry[0]), int(entry[1])
        else:
            raise ValueError(f"tracked pair {entry!r} must name two qubits")
        if i == j:
            raise ValueError(f"tracked pair {entry!r} repeats a qubit")
        i, j = min(i, j), max(i, j)
        if not (0 <= i and j < n):
            raise ValueError(
                f"tracked pair {entry!r} is outside the {n}-qubit network; "
                "only network pairs can be tracked"
            )
        pairs.append((i, j))
    if len(set(pairs)) != len(pairs):
        raise ValueError("tracked_pairs contains duplicates")
    return pairs


def build_protocol(cfg):
    """Resolve a declarative config into (ProtocolConfig, pairs, min_height)."""
    numbers = {key: _parse_number(getattr(cfg, key), key) for key in _NUMBER_KEYS}
    topology = _parse_topology(cfg.topology)
    n = topology.n
    spec = NetworkSpec(
        topology=topology,
        system_coupling=_parse_coupling(cfg.system_coupling, "system_coupling"),
        omega0=numbers["omega0"],
        ancilla_coupling=_parse_coupling(cfg.ancilla_coupling, "ancilla_coupling"),
        omega=numbers["omega"],
        target=_parse_target(cfg.target, n),
    )
    mode_key = str(cfg.mode).lower()
    if mode_key not in _MODES:
        raise ValueError(f'mode must be "collision" or "repeated", got {cfg.mode!r}')
    network_init = "0" * n if cfg.network_init is None else cfg.network_init
    protocol = ProtocolConfig(
        spec=spec,
        mode=_MODES[mode_key],
        dt=numbers["dt"],
        steps=_parse_steps(cfg.steps),
        ancilla_init=_parse_ket(cfg.ancilla_init, "ancilla_init"),
        network_init=_parse_bitstring(network_init, n, "network_init"),
    )
    return protocol, _parse_pairs(cfg.tracked_pairs, n), numbers["peak_min_height"]


# Reference simulations. All share omega0 = 1 and a network starting in
# |000>. fig2_cm uses dt = 0.2: its reference peak (C_BC = 0.911 at
# n = 4, fidelity 0.955) is produced at that step duration, not at 0.4.
PRESETS = {
    "fig2": dict(
        topology="triangle3", system_coupling="XX", ancilla_coupling="ZZ",
        omega=5.0, target="A", mode="repeated", dt=0.4, steps=80,
        ancilla_init="+", network_init="000",
    ),
    "fig3a": dict(
        topology="linear3", system_coupling="XX", ancilla_coupling="ZZ",
        omega=5.0, target="A", mode="repeated", dt=0.4, steps=140,
        ancilla_init="+", network_init="000",
    ),
    "fig3b": dict(
        topology="linear3", system_coupling="XX", ancilla_coupling="ZZ",
        omega=10.0, target="A", mode="collision", dt=0.4, steps=140,
        ancilla_init="+", network_init="000",
    ),
    "fig2_cm": dict(
        topology="triangle3", system_coupling="XX", ancilla_coupling="ZZ",
        omega=12.0, target="A", mode="collision", dt=0.2, steps=80,
        ancilla_init="+", network_init="000",
    ),
    "fig5": dict(
        topology="linear3", system_coupling="XX", ancilla_coupling="ZZ",
        omega=5.0, target="B", mode="repeated", dt=0.4, steps=80,
        ancilla_init="1", network_init="000",
    ),
    "fig6": dict(
        topology="linear3", system_coupling="Exchange", ancilla_coupling="XX",
        omega=5.0, target="A", mode="repeated", dt=0.4, steps=220,
        ancilla_init="+", network_init="000",
    ),
}

_PRESET_NOTES = {
    "fig2": "triangle, coherent ZZ ancilla on A, carried ancilla",
    "fig3a": "open chain, coherent ZZ ancilla on A, carried ancilla",
    "fig3b": "open chain, ZZ ancilla on A at omega=10, reset each step",
    "fig2_cm": "triangle, ZZ ancilla on A at omega=12, reset each step",
    "fig5": "open chain, ancilla |1> on the middle qubit",
    "fig6": "exchange chain, XX ancilla on A",
}

# Presets whose reset and carried-ancilla runs coincide; `reproduce`
# checks that agreement explicitly.
DUAL_MODE_PRESETS = ("fig5", "fig6")


def preset(name):
    """A ready-to-run configuration for one of the reference simulations."""
    try:
        fields = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        ) from None
    return ExperimentConfig(**fields)


@dataclass(eq=False)
class ExperimentResult:
    """Trajectory plus the derived concurrence table and peak reports."""

    config: ExperimentConfig
    trajectory: object
    pairs: list
    table: np.ndarray
    peaks: list


def run_experiment(cfg):
    """Run one configured simulation and analyze its concurrence peaks."""
    protocol, pairs, min_height = build_protocol(cfg)
    trajectory = run_protocol(protocol)
    n = protocol.spec.topology.n
    _, table = pair_concurrences(trajectory, pairs)
    peaks = []
    for col, pair in enumerate(pairs):
        for index, value in find_peaks(table[:, col], min_height):
            state = reduced_pair(trajectory.records[index].network_state, pair, n)
            label, fid = characterize_peak(state)
            peaks.append(PeakReport(pair, index, value, label, fid))
    peaks.sort(key=lambda p: (-p.concurrence, p.n, p.pair))
    return ExperimentResult(cfg, trajectory, pairs, table, peaks)


@dataclass(eq=False)
class SweepRow:
    """Outcome of one sweep point; error is None when the run succeeded."""

    value: float
    top: dict
    error: Exception


def sweep(base, param, values):
    """Re-run a base config with `param` (omega or dt) set to each value.

    Rows are returned in the given order. A failing run is recorded in
    its row and does not abort the remaining runs.
    """
    if param not in ("omega", "dt"):
        raise ValueError(f"sweep parameter must be omega or dt, got {param!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for value in values:
        cfg = dataclasses.replace(base, **{param: value})
        try:
            result = run_experiment(cfg)
        except (ValueError, NumericalError, OSError) as exc:
            rows.append(SweepRow(value, {}, exc))
            continue
        top = {}
        for col, pair in enumerate(result.pairs):
            found = find_peaks(result.table[:, col], 0.0)
            top[pair_label(pair)] = found[0] if found else None
        rows.append(SweepRow(value, top, None))
    return rows


def emit_csv(result, path):
    """Write the per-step concurrence table as CSV.

    Columns: step, time, one C_<pair> column per tracked pair in label
    order, then the purity of the recorded ancilla state. Floats carry
    12 significant digits.
    """
    labels = [pair_label(p) for p in result.pairs]
    header = "step,time," + ",".join(f"C_{lab}" for lab in labels) + ",ancilla_purity"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row, record in enumerate(result.trajectory.records):
            cells = [str(record.n), f"{record.time:.12g}"]
            cells += [f"{result.table[row, col]:.12g}" for col in range(len(labels))]
            cells.append(f"{purity(record.ancilla_state):.12g}")
            fh.write(",".join(cells) + "\n")


def emit_report(result, path):
    """Write the peak list as plain text, one peak per line."""
    lines = []
    for p in result.peaks:
        lines.append(
            f"pair={pair_label(p.pair)} n={p.n} concurrence={p.concurrence:.12g} "
            f"target={p.best_target} fidelity={p.fidelity:.12g}"
        )
    if not lines:
        lines.append(f"no peaks at or above min_height={result.config.peak_min_height}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


_OTHER_MODE = {"collision": "repeated", "repeated": "collision"}


def reproduce(name, out_dir="."):
    """Run a preset and write <name>.csv and <name>_peaks.txt to out_dir.

    For the presets whose two protocol modes coincide, both are run and
    the maximum concurrence difference between them is included in the
    returned summary.
    """
    cfg = preset(name)
    result = run_experiment(cfg)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    report_path = os.path.join(out_dir, f"{name}_peaks.txt")
    emit_csv(result, csv_path)
    emit_report(result, report_path)
    mode_delta = None
    if name in DUAL_MODE_PRESETS:
        other = run_experiment(
            dataclasses.replace(cfg, mode=_OTHER_MODE[str(cfg.mode).lower()])
        )
        mode_delta = float(np.max(np.abs(result.table - other.table)))
    return {
        "preset": name,
        "csv": csv_path,
        "report": report_path,
        "result": result,
        "mode_delta": mode_delta,
    }


def _print_peaks(result, out=None):
    out = sys.stdout if out is None else out
    by_pair = {}
    for p in result.peaks:
        by_pair.setdefault(p.pair, p)
    for pair in result.pairs:
        top = by_pair.get(pair)
        if top is None:
            print(
                f"C_{pair_label(pair)}: no peaks at or above "
                f"{result.config.peak_min_height}",
                file=out,
            )
        else:
            print(
                f"C_{pair_label(pair)}: peak n={top.n} "
                f"concurrence={top.concurrence:.6f} target={top.best_target} "
                f"fidelity={top.fidelity:.6f}",
                file=out,
            )


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(
        prog="collisim",
        description="Collision-model entanglement distribution in qubit networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p_run = sub.add_parser("run", help="run a config file (or preset name)")
    p_run.add_argument("config", help="YAML config path or preset name")
    p_rep = sub.add_parser("reproduce", help="run a preset and write its outputs")
    p_rep.add_argument("preset", help="preset name, see list-presets")
    p_rep.add_argument("--out", default=".", help="output directory (default .)")
    p_sweep = sub.add_parser("sweep", help="re-run a config over parameter values")
    p_sweep.add_argument("config", help="YAML config path or preset name")
    p_sweep.add_argument("--param", required=True, choices=("omega", "dt"))
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    sub.add_parser("list-presets", help="list available presets")
    return parser


def _config_argument(text):
    if text in PRESETS:
        return preset(text)
    return load_config(text)


_ERROR_CODES = ((NumericalError, 2), (ValueError, 1), (OSError, 3))


def _error_code(exc):
    for kind, code in _ERROR_CODES:
        if isinstance(exc, kind):
            return code
    raise exc


def _cmd_run(args):
    cfg = _config_argument(args.config)
    result = run_experiment(cfg)
    if cfg.csv_path:
        emit_csv(result, cfg.csv_path)
        print(f"wrote {cfg.csv_path}")
    if cfg.report_path:
        emit_report(result, cfg.report_path)
        print(f"wrote {cfg.report_path}")
    _print_peaks(result)
    return 0


def _cmd_reproduce(args):
    summary = reproduce(args.preset, args.out)
    print(f"wrote {summary['csv']}")
    print(f"wrote {summary['report']}")
    _print_peaks(summary["result"])
    delta = summary["mode_delta"]
    if delta is not None:
        verdict = "agree within 1e-9" if delta <= 1e-9 else "DISAGREE beyond 1e-9"
        print(f"collision vs repeated: max concurrence difference {delta:.3g}, {verdict}")
    return 0


def _cmd_sweep(args):
    base = _config_argument(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"could not parse sweep values {args.values!r}") from None
    rows = sweep(base, args.param, values)
    code = 0
    for row in rows:
        if row.error is not None:
            print(f"{args.param}={row.value:g}: error: {row.error}")
            if code == 0:
                code = _error_code(row.error)
            continue
        cells = []
        for label, found in row.top.items():
            if found is None:
                cells.append(f"C_{label}: no peak")
            else:
                cells.append(f"C_{label}: {found[1]:.6f} at n={found[0]}")
        print(f"{args.param}={row.value:g}: " + "  ".join(cells))
    return code


def _cmd_list_presets(args):
    for name in PRESETS:
        print(f"{name:<8} {_PRESET_NOTES[name]}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "reproduce": _cmd_reproduce,
    "sweep": _cmd_sweep,
    "list-presets": _cmd_list_presets,
}


def main(argv=None):
    """Command-line entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
