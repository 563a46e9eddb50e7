"""Command-line behaviour: exit codes, output files, printed summaries."""

import subprocess
import sys
import warnings

import pytest
import yaml

from collisim.dynamics import _CHARGES
from collisim.linalg import NumericalError
from collisim.runner import PRESETS, main, preset
import collisim.dynamics as dynamics_module
import collisim.runner as runner_module
from reference import config_document
from test_bench import bench_module


def write_config(tmp_path, **overrides):
    cfg = preset("fig5")
    doc = config_document(cfg)
    doc["steps"] = 8
    doc.update(overrides)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


TOPOLOGY_ROWS = "must be a preset name or square rows of 0/1 integers"
AMPLITUDES = "must be a pair of finite numbers"


class TestExitCodes:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_usage_error_leaves_the_parser_reusable(self, capsys):
        # main shares one parser across calls; a failed parse must not
        # change how the next call parses.
        assert main(["list-presets", "--bogus"]) == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert main(["list-presets"]) == 0
        assert "fig5" in capsys.readouterr().out
        assert runner_module._build_parser() is runner_module._build_parser()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "run" in capsys.readouterr().out

    def test_missing_config_file(self, capsys):
        assert main(["run", "no_such_file.yaml"]) == 3
        assert "io error" in capsys.readouterr().err

    def test_invalid_config_value(self, tmp_path, capsys):
        path = write_config(tmp_path, mode="markovian")
        assert main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("steps", 1, "must be at least 2"),
            ("steps", True, "must be an integer"),
            ("omega", float("nan"), "must be a finite number"),
            ("omega0", float("inf"), "must be a finite number"),
            ("dt", float("inf"), "must be a finite number"),
            ("peak_min_height", float("nan"), "must be a finite number"),
            ("csv_path", True, "must be a file path"),
            ("csv_path", 2, "must be a file path"),
            ("report_path", 1, "must be a file path"),
            ("topology", [[0, 1.5, 0], [1.5, 0, 1], [0, 1, 0]], TOPOLOGY_ROWS),
            ("topology", [[0, True, 0], [True, 0, 1], [0, 1, 0]], TOPOLOGY_ROWS),
            ("topology", [["a", "b", "c"]] * 3, TOPOLOGY_ROWS),
            ("topology", [[0, 1], [1, 0, 1], [0, 1, 0]], TOPOLOGY_ROWS),
            ("ancilla_init", [True, False], AMPLITUDES),
            ("ancilla_init", ["1", 0], AMPLITUDES),
            ("ancilla_init", [float("nan"), 0], AMPLITUDES),
            ("ancilla_init", [1, 1], "has norm 1.4142135623730951, expected 1"),
            ("ancilla_init", [1.0e300, 0], "has norm inf, expected 1"),
            ("target", "Q", "'Q' is outside the 3-qubit network"),
            ("target", 3, "3 is outside the 3-qubit network"),
            ("omega", -1, "must be non-negative, got -1.0"),
            ("omega0", -0.5, "must be non-negative, got -0.5"),
            ("dt", -0.1, "must be positive, got -0.1"),
            ("dt", 0, "must be positive, got 0.0"),
            ("mode", ["repeated"], "must be one of collision, repeated, got ['repeated']"),
        ],
        ids=[
            "steps-1", "steps-true", "omega-nan", "omega0-inf", "dt-inf",
            "peak_min_height-nan", "csv_path-true", "csv_path-2", "report_path-1",
            "topology-1.5", "topology-true", "topology-letters", "topology-ragged",
            "ancilla_init-true", "ancilla_init-string", "ancilla_init-nan",
            "ancilla_init-unnormalized", "ancilla_init-overflow", "target-letter", "target-index",
            "omega-negative", "omega0-negative", "dt-negative", "dt-zero", "mode-list",
        ],
    )
    def test_bad_values_fail_at_load(self, tmp_path, capsys, key, value, message):
        # Each fails at load, before any step runs, and the message names the key.
        message = f"config key {key} {message}"
        path = write_config(tmp_path, **{key: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_unquoted_bitstring_fails_at_load(self, tmp_path, capsys):
        # YAML reads an unquoted 011 as the octal integer 9, not a bitstring.
        path = write_config(tmp_path, network_init="011")
        text = path.read_text(encoding="utf-8")
        assert "network_init: '011'\n" in text
        path.write_text(text.replace("'011'", "011"), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert "config key network_init must be a bitstring of length 3, got 9" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_unquoted_ket_fails_at_load(self, tmp_path, capsys):
        # YAML reads an unquoted 1 as the integer 1, not the ket "1".
        path = write_config(tmp_path, ancilla_init="1")
        text = path.read_text(encoding="utf-8")
        assert "ancilla_init: '1'\n" in text
        path.write_text(text.replace("'1'", "1"), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert "config key ancilla_init must be one of the quoted strings" in captured.err
        assert captured.err.rstrip().endswith("got 1")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_run_over_the_storage_limit(self, tmp_path, capsys):
        chain12 = [[1 if abs(i - j) == 1 else 0 for j in range(12)] for i in range(12)]
        path = write_config(tmp_path, topology=chain12, target="A", steps=80, network_init=None)
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert "steps=80 on 12 network qubits" in captured.err
        assert "GiB" in captured.err
        assert captured.out == ""

    def test_a_huge_step_count_is_shown_short(self, tmp_path, capsys):
        # YAML reads 1.0e+300 as a float that int() turns into 301 digits;
        # the message gives the count to 6 digits.
        path = write_config(tmp_path, steps=1.0e300)
        assert "steps: 1.0e+300\n" in path.read_text(encoding="utf-8")
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: steps=1.00000e+300 on 3 network qubits needs ")
        assert len(captured.err) < 160
        assert captured.out == ""

    @pytest.mark.parametrize(
        "value",
        [5, [[None, 1]], [[0, 1.7]], [[True, 2]], [["A", "Q"]]],
        ids=["int", "null", "float", "bool", "bad-letter"],
    )
    def test_bad_tracked_pairs_fail_with_one_line(self, tmp_path, capsys, value):
        path = write_config(tmp_path, tracked_pairs=value)
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config key tracked_pairs")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_invalid_yaml_syntax(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("topology: [linear3\n", encoding="utf-8")
        assert main(["run", str(path)]) == 1

    def test_numerical_failure(self, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalError("step correction over budget")

        monkeypatch.setattr(runner_module, "run_experiment", boom)
        assert main(["run", "fig5"]) == 2
        assert "numerical error" in capsys.readouterr().err


def partition_config(charge):
    """A config document whose run steps in the partition of one of _CHARGES."""
    triangle3 = dict(
        topology="triangle3", omega=5.0, target="A", mode="repeated", dt=0.4, steps=20
    )
    return {
        ("number", False): dict(
            triangle3, system_coupling="Exchange", ancilla_coupling="ZZ", ancilla_init="+"
        ),
        ("number", True): bench_module("workloads").chain_config(4),
        ("parity", False): PRESETS["fig2_cm"],
        ("parity", True): dict(
            triangle3, system_coupling="XX", ancilla_coupling="XX", ancilla_init="1"
        ),
        (None, False): PRESETS["fig6"],
    }[charge]


class TestRunCommand:
    def test_preset_by_name(self, capsys):
        assert main(["run", "fig2_cm"]) == 0
        out = capsys.readouterr().out
        assert "C_BC: peak n=4" in out
        assert "target=PhiTilde-" in out

    def test_config_file_with_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "traj.csv"
        report_path = tmp_path / "peaks.txt"
        path = write_config(
            tmp_path, csv_path=str(csv_path), report_path=str(report_path)
        )
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {csv_path}" in out
        assert f"wrote {report_path}" in out
        assert csv_path.read_text().startswith("step,time,")
        assert report_path.exists()

    def test_run_reports_pairs_without_peaks(self, tmp_path, capsys):
        path = write_config(tmp_path, steps=4)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "C_AB: no peaks at or above 0.9" in out

    @pytest.mark.parametrize("charge", _CHARGES, ids=lambda charge: "-".join(map(str, charge)))
    def test_every_partition_runs(self, tmp_path, capsys, monkeypatch, charge):
        # Each partition's step, mix and tabulation run end to end with no
        # numpy warning, in the partition the config is meant to reach.
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(partition_config(charge)), encoding="utf-8")
        seen = []
        blocks = dynamics_module.propagator_blocks

        def spy(u, partition):
            seen.append(partition.charge)
            return blocks(u, partition)

        monkeypatch.setattr(dynamics_module, "propagator_blocks", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path)]) == 0
        assert seen == [charge]
        captured = capsys.readouterr()
        assert "C_AB:" in captured.out
        assert captured.err == ""


class TestReproduceCommand:
    def test_writes_files_and_mode_agreement(self, tmp_path, capsys):
        assert main(["reproduce", "fig5", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "fig5.csv").exists()
        assert (tmp_path / "fig5_peaks.txt").exists()
        assert "C_AC: peak n=51" in out
        assert "agree within 1e-9" in out

    def test_unknown_preset(self, capsys):
        assert main(["reproduce", "fig9"]) == 1
        assert "unknown preset" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_over_omega(self, capsys):
        assert main(["sweep", "fig5", "--param", "omega", "--values", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("omega=5:")
        assert "C_AC: 0.998615 at n=51" in out

    def test_sweep_collects_row_errors(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["sweep", str(path), "--param", "dt", "--values", "0.4,-1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "dt=0.4:" in out
        assert "dt=-1: error: config key dt must be positive, got -1.0\n" in out

    def test_a_pair_without_a_peak_reads_no_peak(self, capsys):
        # fig3a's C_AC is exactly 0 at every one of its 141 rows, so it has no peak.
        assert main(["sweep", "fig3a", "--param", "omega", "--values", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("omega=5: C_AB: ")
        assert "  C_AC: no peak  C_BC: " in out

    def test_exit_code_follows_the_first_failing_row(self, monkeypatch, capsys):
        # The fault hits the omega=7 point inside the stack sweep steps, so
        # the stack is rerun point by point and only that row fails.
        build_propagator = dynamics_module.build_propagator

        def flaky(specs, dts):
            if any(spec.omega == 7.0 for spec in specs):
                raise NumericalError("step correction over budget")
            return build_propagator(specs, dts)

        monkeypatch.setattr(dynamics_module, "build_propagator", flaky)
        code = main(["sweep", "fig5", "--param", "omega", "--values", "5,7,-1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "omega=5: C_AB" in out
        assert "omega=7: error: step correction over budget" in out
        assert "omega=-1: error:" in out

    @pytest.mark.parametrize(
        "key, value",
        [
            ("topology", [[0, 1.5, 0], [1.5, 0, 1], [0, 1, 0]]),
            ("system_coupling", "YY"),
            ("ancilla_coupling", "XZ"),
            ("target", "AB"),
            ("mode", "markovian"),
            ("ancilla_init", [1, 1]),
            ("network_init", "012"),
            ("tracked_pairs", [["A", "Q"]]),
        ],
    )
    def test_bad_config_fails_once_at_load(self, tmp_path, capsys, key, value):
        # The config is rejected before any point runs, not once per row.
        path = write_config(tmp_path, **{key: value})
        assert main(["sweep", str(path), "--param", "omega", "--values", "4,5,6"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert key in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_overflowing_dt_fails_its_row_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "fig2_cm", "--param", "dt", "--values", "0.2,1e308"])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("dt=0.2: C_AB")
        assert lines[1] == "dt=1e+308: error: propagator unitarity defect nan"
        assert captured.err == ""

    def test_overflowing_hamiltonian_fails_each_row(self, tmp_path, capsys):
        path = write_config(
            tmp_path, topology="triangle3", system_coupling="ZZ", omega0=1.0e308
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", str(path), "--param", "omega", "--values", "4,5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines() == [
            f"omega={omega}: error: register Hamiltonian overflows with omega0=1e+308 "
            f"and omega={omega}; use smaller coupling strengths"
            for omega in (4, 5)
        ]
        assert captured.err == ""

    def test_rejects_unknown_parameter(self, capsys):
        assert main(["sweep", "fig5", "--param", "steps", "--values", "5"]) == 1

    def test_rejects_unparseable_values(self, capsys):
        assert main(["sweep", "fig5", "--param", "omega", "--values", "abc"]) == 1
        assert "could not parse sweep values" in capsys.readouterr().err


class TestListPresetsCommand:
    def test_lists_all(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3a", "fig3b", "fig2_cm", "fig5", "fig6"):
            assert name in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "collisim", "list-presets"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fig5" in proc.stdout
