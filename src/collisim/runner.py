"""Experiment orchestration: declarative configs, presets, sweeps, output.

A run is described by a flat, serializable ExperimentConfig whose fields
double as the keys of the YAML config files accepted by the command
line. The named presets correspond to the reference simulations the
package reproduces; `reproduce` runs one and writes its CSV and peak
report.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    ProtocolConfig,
    ProtocolMode,
    _windows,
    check_run_size,
    run_protocol,
    run_protocols,
    runs_per_stack,
)
from .linalg import NumericalError, check_pure_state
from .metrics import (
    PeakReport,
    all_pairs,
    characterize_peak,
    find_peaks,
    pair_concurrences,
    purity,
    reduced_pair,
    top_peaks,
)
from .network import (
    CouplingKind,
    NetworkSpec,
    Topology,
    pair_label,
    preset_topology,
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
# Peak finding compares each stored state with its neighbours, so a run
# needs at least three of them: the initial state and two steps.
_MIN_STEPS = 2


def config_from_dict(doc):
    """Build an ExperimentConfig from a parsed document, checking every value."""
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
    for key in ("csv_path", "report_path"):
        value = getattr(cfg, key)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"config key {key} must be a file path, got {value!r}")
    build_protocol(cfg)
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
    # yaml is imported here, as only a config file needs it: importing it
    # after numpy takes 15-20 ms and 0.9 MB of memory (2-vCPU host).
    import yaml

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValueError(f"could not parse config {path}: {exc}") from exc
    return config_from_dict(doc)


_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "+i": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
}


def _parse_choice(value, key, kinds):
    """The member of the Enum kinds whose value is the string value, ignoring case."""
    for kind in kinds:
        if isinstance(value, str) and value.lower() == kind.value.lower():
            return kind
    names = ", ".join(kind.value for kind in kinds)
    raise ValueError(f"config key {key} must be one of {names}, got {value!r}")


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _parse_topology(value):
    """A preset name, or square adjacency rows of integer 0/1 entries."""
    try:
        if isinstance(value, str):
            return preset_topology(value)
        n = len(value) if isinstance(value, (list, tuple)) else 0
        if n and all(
            isinstance(row, (list, tuple))
            and len(row) == n
            and all(_is_integer(entry) and entry in (0, 1) for entry in row)
            for row in value
        ):
            return Topology(n, np.array(value, dtype=int))
    except ValueError as exc:
        raise ValueError(f"config key topology: {exc}") from None
    raise ValueError(
        "config key topology must be a preset name or square rows of 0/1 "
        f"integers, got {value!r}"
    )


def _parse_qubit(value, key):
    """Qubit index from a letter (A is 0) or an integer; the caller checks the range."""
    if isinstance(value, str):
        text = value.strip().upper()
        if len(text) == 1 and "A" <= text <= "Z":
            return ord(text) - ord("A")
    elif _is_integer(value):
        return int(value)
    raise ValueError(f"config key {key}: {value!r} is not a qubit letter or index")


def _parse_ket(value, key):
    if isinstance(value, str) and value in _KETS:
        return _KETS[value].copy()
    if isinstance(value, (list, tuple)) and len(value) == 2:
        if not all(
            isinstance(a, numbers.Number) and not isinstance(a, bool) and cmath.isfinite(a)
            for a in value
        ):
            raise ValueError(
                f"config key {key} must be a pair of finite numbers, got {value!r}"
            )
        ket = np.array([complex(a) for a in value])
        check_pure_state(ket, f"config key {key}")
        return ket
    raise ValueError(
        f'config key {key} must be one of the quoted strings "0", "1", "+", "+i", '
        f"or an amplitude pair, got {value!r}"
    )


def _parse_bitstring(value, n, key):
    """A string of n 0/1 digits; YAML reads unquoted digits as an integer."""
    if not (isinstance(value, str) and len(value) == n and set(value) <= {"0", "1"}):
        raise ValueError(f"config key {key} must be a bitstring of length {n}, got {value!r}")
    ket = np.zeros(2**n, dtype=complex)
    ket[int(value, 2)] = 1.0
    return ket


def _parse_pairs(value, n):
    if value is None:
        return all_pairs(n)
    if not isinstance(value, (list, tuple)):
        raise ValueError(
            f"config key tracked_pairs must be a list of pairs, got {value!r}"
        )
    pairs = []
    for entry in value:
        if isinstance(entry, str):
            entry = entry.strip()
        if not isinstance(entry, (str, list, tuple)) or len(entry) != 2:
            raise ValueError(f"config key tracked_pairs: {entry!r} must name two qubits")
        i, j = sorted(_parse_qubit(q, "tracked_pairs") for q in entry)
        if i == j:
            raise ValueError(f"config key tracked_pairs: {entry!r} repeats a qubit")
        if not (0 <= i and j < n):
            raise ValueError(
                f"config key tracked_pairs: {entry!r} is outside the {n}-qubit "
                "network; only network pairs can be tracked"
            )
        pairs.append((i, j))
    if len(set(pairs)) != len(pairs):
        raise ValueError("config key tracked_pairs contains duplicates")
    return pairs


def _check_strength(number, key):
    if number < 0:
        raise ValueError(f"config key {key} must be non-negative, got {number!r}")


def build_protocol(cfg):
    """Resolve a declarative config into (ProtocolConfig, pairs, min_height)."""
    numbers = {key: _parse_number(getattr(cfg, key), key) for key in _NUMBER_KEYS}
    for key in ("omega0", "omega"):
        _check_strength(numbers[key], key)
    steps = _parse_steps(cfg.steps)
    # Bound the run before the O(n**2) topology checks and the 2**n network
    # ket below; ProtocolConfig checks it again.
    if isinstance(cfg.topology, (list, tuple)):
        check_run_size(len(cfg.topology), steps)
    topology = _parse_topology(cfg.topology)
    n = topology.n
    target = _parse_qubit(cfg.target, "target")
    if not 0 <= target < n:
        raise ValueError(f"config key target {cfg.target!r} is outside the {n}-qubit network")
    spec = NetworkSpec(
        topology=topology,
        system_coupling=_parse_choice(cfg.system_coupling, "system_coupling", CouplingKind),
        omega0=numbers["omega0"],
        ancilla_coupling=_parse_choice(cfg.ancilla_coupling, "ancilla_coupling", CouplingKind),
        omega=numbers["omega"],
        target=target,
    )
    network_init = "0" * n if cfg.network_init is None else cfg.network_init
    protocol = ProtocolConfig(
        spec=spec,
        mode=_parse_choice(cfg.mode, "mode", ProtocolMode),
        dt=numbers["dt"],
        steps=steps,
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


def _analyze(cfg, trajectory, pairs, table, min_height):
    """The peak reports of a finished run, from its concurrence table."""
    n = trajectory.config.spec.topology.n
    peaks = []
    for col, pair in enumerate(pairs):
        for index, value in find_peaks(table[:, col], min_height):
            state = reduced_pair(trajectory[index], pair, n)
            label, fid = characterize_peak(state)
            peaks.append(PeakReport(pair, index, value, label, fid))
    peaks.sort(key=lambda p: (-p.concurrence, p.n, p.pair))
    return ExperimentResult(cfg, trajectory, pairs, table, peaks)


def run_experiment(cfg):
    """Run one configured simulation and analyze its concurrence peaks."""
    protocol, pairs, min_height = build_protocol(cfg)
    trajectory = run_protocol(protocol)
    return _analyze(cfg, trajectory, pairs, pair_concurrences(trajectory, pairs)[1], min_height)


# Exit code and message prefix for each failure the CLI reports; the
# first matching kind wins. sweep records these kinds in its rows.
_FAILURES = (
    (NumericalError, 2, "numerical error"),
    (ValueError, 1, "error"),
    (OSError, 3, "io error"),
)
_FAILURE_KINDS = tuple(kind for kind, _, _ in _FAILURES)


def _failure(exc):
    """(exit code, message prefix) for an exception of a kind in _FAILURES."""
    for kind, code, prefix in _FAILURES:
        if isinstance(exc, kind):
            return code, prefix
    raise exc


@dataclass(eq=False)
class SweepRow:
    """Outcome of one sweep point; error is None when the run succeeded."""

    value: float
    top: dict
    error: Exception


def _failed_row(value, exc):
    # A traceback would keep sweep's frame, and with it a whole stack of
    # trajectories, alive for as long as the row.
    return SweepRow(value, {}, exc.with_traceback(None))


def sweep(base, param, values):
    """Re-run a base config with `param` (omega or dt) set to each value.

    The base is resolved once, with the swept key at 1.0 so that its own
    value does not count, and each point then varies only that key; a
    bad base fails every point with the error it gets alone. The valid
    points run as stacks of dynamics.runs_per_stack, one at a time, each
    stepped once while one pair_concurrences call per window of steps
    fills its tables. A row holds each pair's top concurrence peak, read
    off the stack's tables in one pass without characterizing it; rows
    keep the given order. A failing point is recorded in its row and does
    not abort the others: a stack that fails, stepping or tabulating, is
    rerun one point at a time through the same path, so only the bad
    point fails.
    """
    if param not in ("omega", "dt"):
        raise ValueError(f"sweep parameter must be omega or dt, got {param!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    try:
        protocol, pairs, _ = build_protocol(dataclasses.replace(base, **{param: 1.0}))
    except _FAILURE_KINDS:
        protocol = None
    rows = [None] * len(values)
    valid = []
    for index, value in enumerate(values):
        try:
            if protocol is None:
                # Whatever the swept value, a bad base raises its own error here.
                build_protocol(dataclasses.replace(base, **{param: value}))
            valid.append((index, _vary(protocol, param, value)))
        except _FAILURE_KINDS as exc:
            rows[index] = _failed_row(value, exc)
    size = runs_per_stack(protocol) if valid else 1
    stacks = [valid[start : start + size] for start in range(0, len(valid), size)]
    # A stack that fails appends its points as stacks of one, which this
    # loop reaches in turn; a stack of one that fails records its row.
    for batch in stacks:
        try:
            tables = np.empty((len(batch), protocol.steps + 1, len(pairs)))
            for window in _windows([point for _, point in batch]):
                end = window.start + len(window[0])
                _, tables[:, window.start : end] = pair_concurrences(window, pairs)
            n_top, c_top = top_peaks(tables.swapaxes(-1, -2), 0.0)
            # Free the rows and tables before the next stack is built.
            del tables, window
        except _FAILURE_KINDS as exc:
            if len(batch) == 1:
                rows[batch[0][0]] = _failed_row(values[batch[0][0]], exc)
            else:
                stacks += [[point] for point in batch]
            continue
        labels = [pair_label(pair) for pair in pairs]
        for (k, _), ns, cs in zip(batch, n_top.tolist(), c_top.tolist()):
            top = {label: (n, c) if n >= 0 else None for label, n, c in zip(labels, ns, cs)}
            rows[k] = SweepRow(values[k], top, None)
    return rows


def _vary(protocol, param, value):
    """The protocol with param (omega or dt) at value, checked as build_protocol checks it."""
    number = _parse_number(value, param)
    if param == "dt":
        return dataclasses.replace(protocol, dt=number)
    _check_strength(number, param)
    return dataclasses.replace(protocol, spec=dataclasses.replace(protocol.spec, omega=number))


def emit_csv(result, path):
    """Write the per-step concurrence table as CSV.

    Columns: step, time, one C_<pair> column per tracked pair in label
    order, then the purity of the recorded ancilla state. Floats carry
    12 significant digits.
    """
    header = ["step", "time"] + [f"C_{pair_label(p)}" for p in result.pairs] + ["ancilla_purity"]
    dt = result.trajectory.config.dt
    purities = purity(result.trajectory.ancilla).tolist()
    line = "%d,%.12g" + ",%.12g" * (len(result.pairs) + 1) + "\n"
    rows = (
        line % (row, row * dt, *cells, anc_purity)
        for row, (cells, anc_purity) in enumerate(zip(result.table.tolist(), purities))
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n" + "".join(rows))


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


def reproduce(name, out_dir="."):
    """Run a preset and write <name>.csv and <name>_peaks.txt to out_dir.

    For the presets whose two protocol modes coincide, both are run and
    tabulated as one stack, and the maximum concurrence difference between
    them is included in the returned summary.
    """
    cfg = preset(name)
    protocol, pairs, min_height = build_protocol(cfg)
    protocols = [protocol]
    if name in DUAL_MODE_PRESETS:
        (mode,) = set(ProtocolMode) - {protocol.mode}
        protocols.append(dataclasses.replace(protocol, mode=mode))
    trajectories = run_protocols(protocols)
    _, tables = pair_concurrences(trajectories, pairs)
    result = _analyze(cfg, trajectories[0], pairs, tables[0], min_height)
    mode_delta = float(np.max(np.abs(tables[0] - tables[1]))) if len(tables) > 1 else None
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    report_path = os.path.join(out_dir, f"{name}_peaks.txt")
    emit_csv(result, csv_path)
    emit_report(result, report_path)
    return {
        "preset": name,
        "csv": csv_path,
        "report": report_path,
        "result": result,
        "mode_delta": mode_delta,
    }


def _print_peaks(result):
    by_pair = {}
    for p in result.peaks:
        by_pair.setdefault(p.pair, p)
    for pair in result.pairs:
        top = by_pair.get(pair)
        if top is None:
            print(
                f"C_{pair_label(pair)}: no peaks at or above "
                f"{result.config.peak_min_height}"
            )
        else:
            print(
                f"C_{pair_label(pair)}: peak n={top.n} "
                f"concurrence={top.concurrence:.6f} target={top.best_target} "
                f"fidelity={top.fidelity:.6f}"
            )


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
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
                code = _failure(row.error)[0]
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
    except _FAILURE_KINDS as exc:
        code, prefix = _failure(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
