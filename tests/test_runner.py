"""Config parsing, presets, sweeps, and file output."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import yaml

import collisim.dynamics as dynamics_module
import collisim.metrics as metrics_module
import collisim.runner as runner_module
from collisim.dynamics import ProtocolMode, run_protocol, run_protocols
from collisim.linalg import NumericalError
from collisim.metrics import find_peaks, pair_concurrences
from collisim.network import CouplingKind, pair_label
from collisim.runner import (
    DUAL_MODE_PRESETS,
    PRESETS,
    ExperimentConfig,
    build_protocol,
    config_from_dict,
    config_to_dict,
    emit_csv,
    emit_report,
    load_config,
    preset,
    reproduce,
    run_experiment,
    sweep,
)


def small_config(**overrides):
    base = dict(
        topology="linear3",
        system_coupling="XX",
        ancilla_coupling="ZZ",
        omega=5.0,
        target="B",
        mode="repeated",
        dt=0.4,
        steps=6,
        ancilla_init="1",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_round_trip_through_dict(self):
        for name in PRESETS:
            cfg = preset(name)
            assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_through_yaml_file(self, tmp_path):
        cfg = small_config(tracked_pairs=["BC"], peak_min_height=0.5)
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(config_to_dict(cfg)), encoding="utf-8")
        assert load_config(path) == cfg

    def test_numeric_strings_are_coerced(self):
        doc = config_to_dict(small_config())
        doc["omega"] = "5"
        doc["steps"] = "6"
        cfg = config_from_dict(doc)
        assert cfg.omega == 5.0
        assert cfg.steps == 6

    def test_unknown_key(self):
        doc = config_to_dict(small_config())
        doc["coupling"] = "XX"
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict(doc)

    def test_missing_key(self):
        doc = config_to_dict(small_config())
        del doc["omega"]
        with pytest.raises(ValueError, match="missing config keys"):
            config_from_dict(doc)

    def test_non_mapping_document(self):
        with pytest.raises(ValueError, match="mapping"):
            config_from_dict(["omega", 5])

    def test_non_numeric_value(self):
        doc = config_to_dict(small_config())
        doc["dt"] = "soon"
        with pytest.raises(ValueError, match="dt"):
            config_from_dict(doc)

    def test_invalid_yaml_text(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("topology: [linear3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="could not parse"):
            load_config(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.yaml")

    def test_rejects_single_step(self):
        # One step leaves two records, too few for peak finding.
        doc = config_to_dict(small_config(steps=1))
        with pytest.raises(ValueError, match="steps must be at least 2"):
            config_from_dict(doc)
        assert config_from_dict(config_to_dict(small_config(steps=2))).steps == 2

    @pytest.mark.parametrize("value", [True, False, 2.5, "2.5", None, [6]])
    def test_rejects_non_integer_steps(self, value):
        doc = config_to_dict(small_config())
        doc["steps"] = value
        with pytest.raises(ValueError, match="config key steps must be an integer"):
            config_from_dict(doc)

    @pytest.mark.parametrize("key", ["csv_path", "report_path"])
    @pytest.mark.parametrize("value", [True, 1, 2.0, ["out.csv"]])
    def test_rejects_non_string_output_paths(self, key, value):
        doc = config_to_dict(small_config())
        doc[key] = value
        with pytest.raises(ValueError, match=f"config key {key} must be a file path"):
            config_from_dict(doc)

    def test_integral_float_steps_are_accepted(self):
        doc = config_to_dict(small_config())
        doc["steps"] = 6.0
        assert config_from_dict(doc).steps == 6

    @pytest.mark.parametrize("key", ["omega", "omega0", "dt", "peak_min_height"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), "nan", True])
    def test_rejects_non_finite_numbers(self, key, value):
        doc = config_to_dict(small_config())
        doc[key] = value
        with pytest.raises(ValueError, match=f"config key {key} must be a finite number"):
            config_from_dict(doc)


class TestBuildProtocol:
    def test_resolves_fields(self):
        protocol, pairs, min_height = build_protocol(small_config())
        assert protocol.spec.topology.n == 3
        assert protocol.spec.system_coupling is CouplingKind.XX
        assert protocol.spec.ancilla_coupling is CouplingKind.ZZ
        assert protocol.spec.target == 1
        assert protocol.mode is ProtocolMode.REPEATED_INTERACTION
        assert pairs == [(0, 1), (0, 2), (1, 2)]
        assert min_height == 0.9

    def test_target_accepts_letter_or_index(self):
        by_letter, _, _ = build_protocol(small_config(target="C"))
        by_index, _, _ = build_protocol(small_config(target=2))
        assert by_letter.spec.target == by_index.spec.target == 2

    def test_ancilla_kets(self):
        protocol, _, _ = build_protocol(small_config(ancilla_init="+i"))
        want = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        assert np.allclose(protocol.ancilla_init, want)
        protocol, _, _ = build_protocol(small_config(ancilla_init=[0.6, 0.8]))
        assert np.allclose(protocol.ancilla_init, [0.6, 0.8])

    def test_network_bitstring(self):
        protocol, _, _ = build_protocol(small_config(network_init="010"))
        want = np.zeros(8)
        want[2] = 1.0
        assert np.allclose(protocol.network_init, want)

    def test_default_network_is_all_zeros(self):
        protocol, _, _ = build_protocol(small_config())
        assert protocol.network_init[0] == 1.0

    def test_tracked_pairs_accept_labels_and_indices(self):
        _, pairs, _ = build_protocol(small_config(tracked_pairs=["CB", [0, 1]]))
        assert pairs == [(1, 2), (0, 1)]

    def test_rejects_pair_outside_network(self):
        with pytest.raises(ValueError, match="outside the 3-qubit network"):
            build_protocol(small_config(tracked_pairs=["AD"]))

    def test_rejects_repeated_qubit_pair(self):
        with pytest.raises(ValueError, match="repeats"):
            build_protocol(small_config(tracked_pairs=["AA"]))

    def test_rejects_duplicate_pairs(self):
        with pytest.raises(ValueError, match="duplicates"):
            build_protocol(small_config(tracked_pairs=["AB", "BA"]))

    def test_rejects_bad_coupling(self):
        with pytest.raises(ValueError, match="system_coupling"):
            build_protocol(small_config(system_coupling="YY"))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            build_protocol(small_config(mode="markovian"))

    def test_rejects_bad_ket_name(self):
        with pytest.raises(ValueError, match="ancilla_init"):
            build_protocol(small_config(ancilla_init="-"))

    def test_rejects_unquoted_ket(self):
        # YAML reads an unquoted 1 or 0 as an integer; only a quoted string
        # names a ket, and the message shows the value read.
        for value in (1, 0):
            message = (
                'config key ancilla_init must be one of the quoted strings "0", "1", "\\+", '
                f'"\\+i", or an amplitude pair, got {value}$'
            )
            with pytest.raises(ValueError, match=message):
                build_protocol(small_config(ancilla_init=value))

    def test_rejects_bad_bitstring(self):
        with pytest.raises(ValueError, match="network_init"):
            build_protocol(small_config(network_init="01"))
        with pytest.raises(ValueError, match="network_init"):
            build_protocol(small_config(network_init="012"))
        # YAML reads unquoted digits as an integer, 011 as octal 9; only a
        # string is a bitstring, and the message shows the value read.
        for value in (9, 0, 101):
            message = f"config key network_init must be a bitstring of length 3, got {value}$"
            with pytest.raises(ValueError, match=message):
                build_protocol(small_config(network_init=value))

    def test_checks_configs_that_skip_loading(self):
        # Configs built in code, as sweep builds its points, get the same checks.
        for key, value in (("steps", 1), ("steps", True), ("omega", float("nan")),
                           ("dt", float("inf"))):
            with pytest.raises(ValueError, match=f"config key {key}"):
                build_protocol(small_config(**{key: value}))

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target"):
            build_protocol(small_config(target="AB"))

    @pytest.mark.parametrize("value", [True, 1.0, None, "", [1]])
    def test_target_rejects_non_qubit_values(self, value):
        with pytest.raises(ValueError, match="config key target"):
            build_protocol(small_config(target=value))

    @pytest.mark.parametrize(
        "value",
        [5, "AB", [[None, 1]], [[0, 1.7]], [[True, 2]], [[0]], [[0, 1, 2]], [7], ["ABC"]],
        ids=["int", "string", "null", "float", "bool", "one", "three", "int-entry", "long"],
    )
    def test_rejects_bad_tracked_pairs(self, value):
        with pytest.raises(ValueError, match="config key tracked_pairs"):
            build_protocol(small_config(tracked_pairs=value))

    def test_pair_members_parse_like_the_target(self):
        # One qubit parser serves both keys: a letter or an index per member.
        cfg = small_config(tracked_pairs=[["C", 0], ["b", "a"], " BC "])
        assert build_protocol(cfg)[1] == [(0, 2), (0, 1), (1, 2)]
        for bad in ("AB", True, 1.5):
            with pytest.raises(ValueError, match="config key target") as target_error:
                build_protocol(small_config(target=bad))
            with pytest.raises(ValueError, match="config key tracked_pairs") as pair_error:
                build_protocol(small_config(tracked_pairs=[[bad, 0]]))
            assert str(target_error.value).replace("target", "tracked_pairs") == str(
                pair_error.value
            )

    def test_unnormalized_amplitudes_fail_at_run_time(self):
        with pytest.raises(ValueError, match="norm"):
            run_experiment(small_config(ancilla_init=[1.0, 1.0]))

    def test_rejects_runs_over_the_storage_limit(self, monkeypatch):
        # 80 steps on a 12-qubit chain would store about 20 GiB of network
        # states; the config fails before the network ket, the propagator or
        # the trajectory exists.
        def fail(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(runner_module, "_parse_bitstring", fail)
        monkeypatch.setattr(runner_module, "run_protocol", fail)
        monkeypatch.setattr(dynamics_module, "build_propagator", fail)
        chain12 = [[1 if abs(i - j) == 1 else 0 for j in range(12)] for i in range(12)]
        cfg = small_config(topology=chain12, target="A", steps=80)
        with pytest.raises(ValueError, match="steps=80 on 12 network qubits"):
            run_experiment(cfg)
        rows = sweep(cfg, "omega", [5.0])
        assert isinstance(rows[0].error, ValueError)
        assert "steps=80 on 12 network qubits" in str(rows[0].error)

    def test_run_size_is_bounded_before_the_topology_is_checked(self):
        # 6000 rows that are one aliased list: checking every entry would
        # take O(n**2) work, but the row count alone is over the limit.
        row = "[" + ", ".join(["0"] * 6000) + "]"
        doc = config_to_dict(small_config(steps=8))
        doc["topology"] = yaml.safe_load("[&r " + row + ", " + ", ".join(["*r"] * 5999) + "]")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="steps=8 on 6000 network qubits"):
                config_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_topology_errors_name_the_key(self):
        for bad in (
            "ring3",
            [[0, 1, 1], [0, 0, 1], [1, 1, 0]],
            [[1, 1, 0], [1, 0, 1], [0, 1, 0]],
            [[0, 1.0, 0], [1.0, 0, 1], [0, 1, 0]],
            [[0, 2, 0], [2, 0, 1], [0, 1, 0]],
            [],
            3,
        ):
            with pytest.raises(ValueError, match="config key topology"):
                build_protocol(small_config(topology=bad))

    def test_custom_adjacency(self):
        ring4 = [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
        cfg = small_config(topology=ring4, target="D", steps=5, network_init="0000")
        result = run_experiment(cfg)
        assert result.table.shape == (6, 6)
        assert [p for p in result.pairs] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]


class TestPresets:
    def test_names(self):
        assert list(PRESETS) == ["fig2", "fig3a", "fig3b", "fig2_cm", "fig5", "fig6"]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("fig9")

    def test_dual_mode_presets_exist(self):
        for name in DUAL_MODE_PRESETS:
            assert name in PRESETS

    def test_preset_returns_fresh_config(self):
        a = preset("fig5")
        a.omega = 99.0
        assert preset("fig5").omega == 5.0


class TestRunExperiment:
    def test_middle_target_distributes_to_the_ends(self):
        result = run_experiment(preset("fig5"))
        assert result.table.shape == (81, 3)
        top = result.peaks[0]
        assert top.pair == (0, 2)
        assert top.n == 51
        assert abs(top.concurrence - 0.9986) < 5e-4
        assert top.best_target == "PhiTilde+"
        assert abs(top.fidelity - 0.9993) < 5e-4

    def test_peaks_sorted_by_height(self):
        result = run_experiment(preset("fig5"))
        heights = [p.concurrence for p in result.peaks]
        assert heights == sorted(heights, reverse=True)

    def test_deterministic(self):
        a = run_experiment(preset("fig2_cm"))
        b = run_experiment(preset("fig2_cm"))
        assert np.array_equal(a.table, b.table)

    def test_tracked_pairs_limit_the_table(self):
        result = run_experiment(small_config(tracked_pairs=["AC"], steps=8))
        assert result.pairs == [(0, 2)]
        assert result.table.shape == (9, 1)


class TestSweep:
    def test_single_point_matches_direct_run(self):
        base = preset("fig5")
        rows = sweep(base, "omega", [base.omega])
        assert len(rows) == 1
        assert rows[0].error is None
        direct = run_experiment(base)
        top = rows[0].top["AC"]
        assert top[0] == direct.peaks[0].n
        assert abs(top[1] - direct.peaks[0].concurrence) < 1e-12

    def test_preserves_value_order(self):
        rows = sweep(small_config(steps=5), "dt", [0.3, 0.1, 0.2])
        assert [r.value for r in rows] == [0.3, 0.1, 0.2]

    def test_bad_value_is_recorded_not_raised(self):
        rows = sweep(small_config(steps=5), "dt", [0.4, -1.0])
        assert rows[0].error is None
        assert isinstance(rows[1].error, ValueError)
        assert rows[1].top == {}

    def test_negative_and_non_finite_points_are_value_error_rows(self):
        base = preset("fig2_cm")
        rows = sweep(base, "omega", [-12.0, float("nan"), 12.0])
        assert isinstance(rows[0].error, ValueError)
        assert "non-negative" in str(rows[0].error)
        assert isinstance(rows[1].error, ValueError)
        assert "config key omega" in str(rows[1].error)
        assert rows[2].error is None and rows[2].top

    def test_points_are_stepped_in_stacks(self, monkeypatch):
        # runs_per_stack counts a fig2_cm run by what it holds streamed: a
        # 256-entry propagator and three times its 128 block entries, 10240
        # bytes, beside a window of 256 run-steps of 36-entry rows and
        # 48-entry pair states, 344064 bytes for any stack; so 43 runs fill
        # the 768 KiB stack, and 60 points take stacks of 43 and 17.
        # Every row equals the point's own run exactly.
        sizes = []
        step = dynamics_module.collision_step

        def counted(net, blocks, anc):
            sizes.append(net.shape[0])
            return step(net, blocks, anc)

        monkeypatch.setattr(dynamics_module, "collision_step", counted)
        base = preset("fig2_cm")
        values = [4.0 + k / 8 for k in range(60)]
        rows = sweep(base, "omega", values)
        assert sizes == [43] * 80 + [17] * 80
        for value, row in zip(values, rows):
            alone = run_experiment(dataclasses.replace(base, omega=value))
            for col, pair in enumerate(alone.pairs):
                found = find_peaks(alone.table[:, col], 0.0)
                assert row.top[pair_label(pair)] == (found[0] if found else None)

    @pytest.mark.parametrize(
        "param, values",
        [
            ("dt", [0.05 + 0.01 * k for k in range(28)] + [-0.1, 0.0]),
            # An omega of 0 gives its stack a second nonzero pattern of H.
            ("omega", [0.0] + [4.0 + k / 2 for k in range(28)] + [float("nan"), -3.0]),
        ],
    )
    def test_stacked_rows_equal_each_point_run_alone(self, param, values):
        # The valid points span two stacks; the two bad ones sit between them.
        values = values[:20] + values[-2:] + values[20:-2]
        base = preset("fig2_cm")
        rows = sweep(base, param, values)
        assert [row.value for row in rows] == values
        for value, row in zip(values, rows):
            try:
                alone = run_experiment(dataclasses.replace(base, **{param: value}))
            except ValueError as exc:
                assert (type(row.error), str(row.error), row.top) == (type(exc), str(exc), {})
                continue
            assert row.error is None
            want = {}
            for col, pair in enumerate(alone.pairs):
                found = find_peaks(alone.table[:, col], 0.0)
                want[pair_label(pair)] = found[0] if found else None
            assert row.top == want

    @pytest.mark.parametrize(
        "name, param, values",
        [
            # fig5 carries its ancilla, so its blocks are re-mixed every step.
            ("fig5", "omega", [3.0 + k / 8 for k in range(51)]),
            ("fig2_cm", "dt", [0.05 + 0.005 * k for k in range(51)]),
            # An omega of 0 gives its stack a second nonzero pattern of H.
            (
                "fig2_cm",
                "omega",
                [4.0, -1.0, 0.0, float("nan")] + [4.25 + k / 4 for k in range(49)],
            ),
        ],
    )
    def test_streamed_stacks_equal_each_point_run_alone(self, monkeypatch, name, param, values):
        # Stacks of 43 and 8 stream windows of 5 and 32 steps: 81 rows are
        # no multiple of either, so a short window ends each stack. Every
        # window's rows and tables equal those steps of the point's own run
        # bit for bit.
        windows = []
        tabulate = runner_module.pair_concurrences

        def spy(window, pairs):
            found = tabulate(window, pairs)
            configs = [trajectory.config for trajectory in window]
            windows.append((configs, window.start, window.rows.copy(), found[1].copy()))
            return found

        monkeypatch.setattr(runner_module, "pair_concurrences", spy)
        base = preset(name)
        rows = sweep(base, param, values)
        assert [len(configs) for configs, start, _, _ in windows if start == 0] == [43, 8]
        assert {len(table[0]) for _, _, _, table in windows} == {5, 1, 32, 17}
        alone = {}
        for configs, start, states, tables in windows:
            for config, run_rows, table in zip(configs, states, tables):
                if id(config) not in alone:
                    trajectory = run_protocol(config)
                    alone[id(config)] = trajectory.rows, pair_concurrences(trajectory)[1]
                steps = slice(start, start + len(table))
                assert run_rows.tobytes() == alone[id(config)][0][steps].tobytes()
                assert table.tobytes() == alone[id(config)][1][steps].tobytes()
        monkeypatch.undo()
        for value, row in zip(values, rows):
            try:
                alone = run_experiment(dataclasses.replace(base, **{param: value}))
            except ValueError as exc:
                assert (type(row.error), str(row.error), row.top) == (type(exc), str(exc), {})
                continue
            want = {}
            for col, pair in enumerate(alone.pairs):
                found = find_peaks(alone.table[:, col], 0.0)
                want[pair_label(pair)] = found[0] if found else None
            assert (row.error, row.top) == (None, want)

    def test_a_late_failure_fails_only_its_row(self, monkeypatch):
        # Over 300 steps, a stack of 20 points streams windows of 12 steps
        # and a point alone windows of 256, so step 280 lies past the first
        # window either way. A NaN put into one run's rows there fails its
        # stack, which is rerun point by point: only that point fails, with
        # the message of its whole trajectory, which names step 280, and
        # every other row equals its own run.
        base = dataclasses.replace(preset("fig2_cm"), steps=300)
        values = [4.0 + k / 4 for k in range(20)]
        bad = values[7]
        pair_states = metrics_module.pair_states

        def faulty(trajectories, pairs):
            step = 280 - trajectories.start
            for run, trajectory in enumerate(trajectories):
                if trajectory.config.spec.omega == bad and 0 <= step < len(trajectory):
                    trajectories.rows[run, step, 0] = np.nan
            return pair_states(trajectories, pairs)

        monkeypatch.setattr(metrics_module, "pair_states", faulty)
        rows = sweep(base, "omega", values)
        protocol, pairs, _ = build_protocol(dataclasses.replace(base, omega=bad))
        with pytest.raises(NumericalError) as whole:
            pair_concurrences(run_protocols([protocol]), pairs)
        assert str(whole.value).endswith("non-finite entries (stack index (0, 280, 0))")
        assert (type(rows[7].error), str(rows[7].error)) == (NumericalError, str(whole.value))
        assert rows[7].top == {}
        monkeypatch.undo()
        for value, row in zip(values, rows):
            if value != bad:
                alone = run_experiment(dataclasses.replace(base, omega=value))
                want = {}
                for col, pair in enumerate(alone.pairs):
                    found = find_peaks(alone.table[:, col], 0.0)
                    want[pair_label(pair)] = found[0] if found else None
                assert (row.error, row.top) == (None, want)

    def test_a_failing_stack_is_rerun_point_by_point(self, monkeypatch):
        # A fault that only a stack meets costs no row: each point, rerun
        # alone, gets the row it gets without the fault.
        values = [4.0, 5.0, 6.0]
        want = sweep(small_config(), "omega", values)
        step = dynamics_module.collision_step

        def flaky(net, blocks, anc):
            if net.shape[0] > 1:
                raise NumericalError("step correction over budget")
            return step(net, blocks, anc)

        monkeypatch.setattr(dynamics_module, "collision_step", flaky)
        rows = sweep(small_config(), "omega", values)
        assert [(r.value, r.top, r.error) for r in rows] == [
            (r.value, r.top, None) for r in want
        ]

    def test_a_failing_table_fails_only_its_row(self, monkeypatch):
        # The stack steps cleanly and one point's table fails: the stack is
        # rerun point by point, and every other row equals its run alone.
        values = [4.0, 5.0, 6.0]
        alone = [sweep(small_config(), "omega", [value])[0] for value in values]
        pair_states = metrics_module.pair_states

        def flaky(trajectories, pairs):
            if any(trajectory.config.spec.omega == 5.0 for trajectory in trajectories):
                raise NumericalError("concurrence of a bad state")
            return pair_states(trajectories, pairs)

        monkeypatch.setattr(metrics_module, "pair_states", flaky)
        rows = sweep(small_config(), "omega", values)
        assert isinstance(rows[1].error, NumericalError) and rows[1].top == {}
        for k in (0, 2):
            assert (rows[k].value, rows[k].top, rows[k].error) == (values[k], alone[k].top, None)

    def test_non_finite_propagator_fails_its_row(self, monkeypatch):
        rows = sweep(preset("fig2_cm"), "dt", [0.2, 1e308])
        assert rows[0].error is None and rows[0].top
        assert isinstance(rows[1].error, NumericalError)
        assert "propagator unitarity defect nan" in str(rows[1].error)
        # A stack of one point that fails is not run a second time. The
        # first build is runs_per_stack's, of the base at dt = 1.
        builds = []
        build_propagator = dynamics_module.build_propagator

        def counted(specs, dts):
            builds.append(dts)
            return build_propagator(specs, dts)

        monkeypatch.setattr(dynamics_module, "build_propagator", counted)
        rows = sweep(preset("fig2_cm"), "dt", [1e308])
        assert isinstance(rows[0].error, NumericalError)
        assert builds == [[1.0], [1e308]]

    def test_points_are_not_peak_characterized(self, monkeypatch):
        # A row needs only each pair's top peak from the concurrence table.
        values = [5.0, 12.0, -1.0]
        want = sweep(preset("fig2_cm"), "omega", values)

        def fail(state):
            raise AssertionError("characterized a sweep point's peak")

        monkeypatch.setattr(runner_module, "characterize_peak", fail)
        rows = sweep(preset("fig2_cm"), "omega", values)
        assert [(r.value, r.top, type(r.error)) for r in rows] == [
            (r.value, r.top, type(r.error)) for r in want
        ]
        assert want[0].top and want[2].top == {}

    def test_rows_keep_no_trajectory_alive(self, monkeypatch):
        # A row's error holds no traceback, so no frame of sweep, and with
        # it no trajectory, outlives the call even without the cyclic GC.
        refs = []
        pair_states = metrics_module.pair_states

        def tracked(trajectories, pairs):
            refs.extend(weakref.ref(trajectory) for trajectory in trajectories)
            return pair_states(trajectories, pairs)

        monkeypatch.setattr(metrics_module, "pair_states", tracked)
        gc.disable()
        try:
            rows = sweep(preset("fig2_cm"), "omega", [5.0, -1.0])
            assert rows[0].error is None
            assert isinstance(rows[1].error, ValueError)
            assert len(refs) == 1 and refs[0]() is None
            assert rows[1].error.__traceback__ is None
        finally:
            gc.enable()

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="sweep parameter"):
            sweep(small_config(), "steps", [5])

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError, match="at least one"):
            sweep(small_config(), "omega", [])


class TestOutputs:
    def test_csv_layout(self, tmp_path):
        result = run_experiment(small_config(steps=4))
        path = tmp_path / "out.csv"
        emit_csv(result, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "step,time,C_AB,C_AC,C_BC,ancilla_purity"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.0
        assert [float(c) for c in first[2:5]] == [0.0, 0.0, 0.0]
        assert float(first[5]) == 1.0
        # Row n is the state after the n-th collision, at time n * dt.
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]
        assert [line.split(",")[1] for line in lines[1:]] == [f"{n * 0.4:.12g}" for n in range(5)]

    @pytest.mark.parametrize(
        "overrides",
        [dict(tracked_pairs=[]), dict(topology=[[0]], target="A")],
        ids=["no-tracked-pairs", "one-qubit-network"],
    )
    def test_csv_without_pairs(self, tmp_path, overrides):
        result = run_experiment(small_config(steps=4, **overrides))
        path = tmp_path / "out.csv"
        emit_csv(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step,time,ancilla_purity"
        assert len(lines) == 6
        assert all(len(line.split(",")) == 3 for line in lines)

    def test_csv_values_match_table(self, tmp_path):
        result = run_experiment(small_config(steps=4))
        path = tmp_path / "out.csv"
        emit_csv(result, path)
        rows = [
            line.split(",") for line in path.read_text().splitlines()[1:]
        ]
        for row, cells in enumerate(rows):
            assert int(cells[0]) == row
            assert abs(float(cells[1]) - row * 0.4) < 1e-12
            for col in range(3):
                assert abs(float(cells[2 + col]) - result.table[row, col]) < 1e-11

    def test_csv_bytes_for_awkward_floats(self, tmp_path):
        # Values that print long or in exponent form, and a zero; dt = 0.1
        # makes 3 * dt = 0.30000000000000004.
        result = run_experiment(small_config(steps=3, dt=0.1))
        result.table = np.array(
            [[1 / 3, 0.1 + 0.2, 1e-13], [0.0, 1 / 3, 0.1 + 0.2], [1e-13, 0.0, 1.0], [2 / 3, 1e-13, 0.0]]
        )
        result.trajectory.ancilla[:] = np.array(
            [np.eye(2) / 2, np.diag([1.0, 0.0])] * 2, dtype=complex
        )
        path = tmp_path / "out.csv"
        emit_csv(result, path)
        assert path.read_bytes() == (
            b"step,time,C_AB,C_AC,C_BC,ancilla_purity\n"
            b"0,0,0.333333333333,0.3,1e-13,0.5\n"
            b"1,0.1,0,0.333333333333,0.3,1\n"
            b"2,0.2,1e-13,0,1,0.5\n"
            b"3,0.3,0.666666666667,1e-13,0,1\n"
        )

    def test_csv_is_reproducible_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(preset("fig2_cm")), a)
        emit_csv(run_experiment(preset("fig2_cm")), b)
        assert a.read_bytes() == b.read_bytes()

    def test_report_lines(self, tmp_path):
        result = run_experiment(preset("fig5"))
        path = tmp_path / "peaks.txt"
        emit_report(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("pair=AC n=51 concurrence=0.998")
        assert "target=PhiTilde+" in lines[0]

    def test_report_when_nothing_qualifies(self, tmp_path):
        result = run_experiment(small_config(steps=4, peak_min_height=0.99))
        path = tmp_path / "peaks.txt"
        emit_report(result, path)
        text = path.read_text(encoding="utf-8")
        assert "no peaks at or above min_height=0.99" in text

    def test_emit_to_missing_directory_raises_oserror(self, tmp_path):
        result = run_experiment(small_config(steps=4))
        with pytest.raises(OSError):
            emit_csv(result, tmp_path / "nope" / "out.csv")


class TestReproduce:
    def test_writes_both_files_and_checks_modes(self, tmp_path):
        summary = reproduce("fig5", tmp_path)
        assert (tmp_path / "fig5.csv").exists()
        assert (tmp_path / "fig5_peaks.txt").exists()
        assert summary["mode_delta"] is not None
        assert summary["mode_delta"] <= 1e-9

    def test_dual_mode_runs_are_stepped_together(self, tmp_path, monkeypatch):
        # fig6's two runs share one stack of two states and each equals its
        # own run exactly; fig2_cm steps alone.
        sizes = []
        step = dynamics_module.collision_step

        def counted(net, blocks, anc):
            sizes.append(net.shape[0])
            return step(net, blocks, anc)

        monkeypatch.setattr(dynamics_module, "collision_step", counted)
        summary = reproduce("fig6", tmp_path)
        assert sizes == [2] * 220
        alone = run_experiment(preset("fig6"))
        assert np.array_equal(summary["result"].table, alone.table)
        assert np.array_equal(summary["result"].trajectory.network, alone.trajectory.network)
        sizes.clear()
        reproduce("fig2_cm", tmp_path)
        assert sizes == [1] * 80

    def test_dual_mode_preset_is_resolved_once(self, tmp_path, monkeypatch):
        # The other mode's run flips the resolved protocol; its files and
        # mode delta are those of each mode resolved and run alone.
        builds = []
        build = runner_module.build_protocol
        monkeypatch.setattr(
            runner_module, "build_protocol", lambda cfg: builds.append(cfg) or build(cfg)
        )
        summary = reproduce("fig5", tmp_path / "once")
        assert len(builds) == 1
        monkeypatch.undo()
        cfg = preset("fig5")
        alone = run_experiment(cfg)
        emit_csv(alone, tmp_path / "fig5.csv")
        emit_report(alone, tmp_path / "fig5_peaks.txt")
        for name in ("fig5.csv", "fig5_peaks.txt"):
            assert (tmp_path / "once" / name).read_bytes() == (tmp_path / name).read_bytes()
        other = run_experiment(dataclasses.replace(cfg, mode="collision"))
        assert summary["mode_delta"] == float(np.max(np.abs(alone.table - other.table)))

    def test_single_mode_preset_has_no_delta(self, tmp_path):
        summary = reproduce("fig2_cm", tmp_path)
        assert summary["mode_delta"] is None

    def test_creates_output_directory(self, tmp_path):
        out = tmp_path / "fresh" / "dir"
        reproduce("fig2_cm", out)
        assert (out / "fig2_cm.csv").exists()
