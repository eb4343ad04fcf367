"""Command-line harness tests: parsing, outputs, determinism, exit codes."""

import json
import math
from dataclasses import fields

import pytest

from vopqkd import cli, protocol
from vopqkd.cli import ScenarioConfig, UsageError, main, parse_config
from wire_form import wire_text


def parse(argv):
    return parse_config(cli.build_parser().parse_args(argv))


class TestParsing:
    def test_honest_run_flags(self):
        cfg = parse(["run", "--rounds", "100000", "--attack", "none", "--seed", "7"])
        assert cfg.rounds == 100000
        assert cfg.seed == 7
        assert cfg.attack == "none"

    def test_phase_attack_flags(self):
        cfg = parse([
            "run", "--seed", "1", "--attack", "phase",
            "--phi", "1.5707963", "--channels", "alice-to-bob",
        ])
        assert cfg.attack == "phase"
        assert abs(cfg.phi - math.pi / 2) < 1e-6
        assert cfg.channels == ("alice-to-bob",)

    def test_fraction_out_of_range(self):
        with pytest.raises(UsageError):
            parse(["run", "--seed", "1", "--control-announce-fraction", "1.5"])

    def test_seed_required(self):
        with pytest.raises(UsageError):
            parse(["run", "--rounds", "10"])

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"rounds": 500, "seed": 3, "attack": "mitm"}))
        cfg = parse(["run", "--config", str(path), "--rounds", "900"])
        assert cfg.rounds == 900  # flag wins
        assert cfg.seed == 3
        assert cfg.attack == "mitm"

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"rounds": 500, "speed": 3}))
        with pytest.raises(UsageError):
            parse(["run", "--config", str(path), "--seed", "1"])

    def test_round_trip_through_file(self, tmp_path):
        cfg = ScenarioConfig(
            rounds=1234, seed=99, attack="phase", phi=0.5,
            channels=("alice-to-bob", "bob-to-alice"),
            p2=0.1, detector="threshold", eta=0.8,
            control_announce_fraction=0.2, control_count_fraction=0.1,
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_flat_dict()))
        loaded = ScenarioConfig.from_flat_dict(json.loads(path.read_text()))
        assert loaded == cfg

    def test_scenario_preset(self):
        args = cli.build_parser().parse_args(["oracle", "--scenario", "phase-pi2", "--seed", "4"])
        cfg = parse_config(args)
        assert cfg.attack == "phase"
        assert abs(cfg.phi - math.pi / 2) < 1e-12

    def test_single_channel_string_in_config(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"attack": "phase", "phi": 1.0, "channels": "bob-to-alice"}))
        cfg = parse(["run", "--config", str(path), "--seed", "1"])
        assert cfg.channels == ("bob-to-alice",)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--attack", "mitm", "--phi", "0.5"],
            ["--phi", "0.5"],
            ["--attack", "devil", "--channels", "bob-to-alice"],
        ],
    )
    def test_phase_flags_need_phase_attack(self, flags):
        with pytest.raises(UsageError):
            parse(["run", "--seed", "1", *flags])

    def test_acceptance_scenarios_round_trip(self, tmp_path):
        # every scenario shape the acceptance gate exercises survives the
        # config-file round trip unchanged
        scenarios = [
            ScenarioConfig(rounds=100000, seed=1),
            ScenarioConfig(rounds=100000, seed=1, attack="phase", phi=math.pi / 2,
                           control_announce_fraction=0.5),
            ScenarioConfig(rounds=100000, seed=1, attack="phase", phi=math.pi,
                           control_announce_fraction=0.1),
            ScenarioConfig(rounds=100000, seed=1, attack="mitm"),
            ScenarioConfig(rounds=100000, seed=1, attack="devil"),
            ScenarioConfig(rounds=100000, seed=1, attack="short-circuit",
                           control_announce_fraction=0.2, control_count_fraction=0.2),
            ScenarioConfig(rounds=100000, seed=1, p2=1.0),
            ScenarioConfig(rounds=100000, seed=1, p2=1.0, detector="threshold"),
            ScenarioConfig(rounds=100000, seed=1, eta=0.5),
            ScenarioConfig(rounds=100000, seed=1, eta=0.8),
        ]
        path = tmp_path / "roundtrip.json"
        for cfg in scenarios:
            path.write_text(json.dumps(cfg.to_flat_dict()))
            assert ScenarioConfig.from_flat_dict(json.loads(path.read_text())) == cfg
            cfg.session_config()  # and it is runnable


class TestExecution:
    def test_run_twice_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run", "--rounds", "2000", "--seed", "11"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_jsonl_records(self, tmp_path):
        out = tmp_path / "records.jsonl"
        code = main([
            "run", "--rounds", "300", "--seed", "2", "--format", "jsonl",
            "--control-announce-fraction", "0.2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 300
        rec = json.loads(lines[0])
        assert list(rec) == [
            "round", "n", "m", "alice_counts", "bob_counts", "accepted",
            "announcement", "inferred", "control_kind", "control_flagged",
            "eve_knows_n", "photon_anomaly",
        ]

    def test_jsonl_byte_identical(self, tmp_path):
        outs = []
        for name in ("x.jsonl", "y.jsonl"):
            out = tmp_path / name
            main(["run", "--rounds", "500", "--seed", "8", "--format", "jsonl", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "rounds, flags",
        [
            (300, []),
            (300, ["--attack", "phase", "--phi", "1.5", "--control-announce-fraction", "0.5"]),
            (9000, ["--attack", "mitm", "--control-announce-fraction", "0.3",
                    "--control-count-fraction", "0.2"]),
        ],
    )
    def test_jsonl_streams_the_record_wire_form(self, tmp_path, capsys, rounds, flags):
        argv = ["run", "--rounds", str(rounds), "--seed", "4", "--format", "jsonl", *flags]
        records, _ = protocol.run_session(parse(argv).session_config())
        expected = wire_text(records)
        out = tmp_path / "records.jsonl"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == expected
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        chunk_lines = [chunk.count("\n") for chunk in records.jsonl_chunks()]
        assert sum(chunk_lines) == rounds and max(chunk_lines) <= protocol.CHUNK_ROUNDS

    def test_summary_content(self, tmp_path, capsys):
        assert main(["run", "--rounds", "3000", "--seed", "5"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert abs(summary["sift_rate"] - 0.5) < 0.03
        assert summary["qber"] == 0.0
        assert summary["efficiency"]["E"] == pytest.approx(1 / 3)

    def test_oracle_csv(self, tmp_path, capsys):
        assert main(["oracle", "--scenario", "honest", "--rounds", "2000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("stage,outcome,exact_p,empirical_p,abs_error\n")

    def test_usage_error_exit_code(self, capsys):
        assert main(["run", "--rounds", "10"]) == 1
        assert main(["run", "--seed", "1", "--attack", "laser"]) == 1

    def test_io_error_exit_code(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.json"
        assert main(["run", "--rounds", "50", "--seed", "1", "--out", str(missing)]) == 2

    def test_abort_on_detection_exit_code(self):
        argv = [
            "run", "--rounds", "400", "--seed", "6", "--attack", "phase",
            "--phi", str(math.pi), "--control-announce-fraction", "0.5",
            "--abort-on-detection",
        ]
        assert main(argv) == 3

    def test_abort_flag_without_detection(self):
        argv = ["run", "--rounds", "400", "--seed", "6", "--abort-on-detection"]
        assert main(argv) == 0


@pytest.mark.parametrize(
    "argv, content",
    [
        (["run", "--rounds", "10", "--seed", "-1"], None),
        (["run", "--rounds", "10", "--seed", "18446744073709551616"], None),
        (["run", "--seed", "1", "--config", "{path}"], {"rounds": "abc"}),
        (["run", "--seed", "1", "--config", "{path}"], {"rounds": 1.5}),
        (["run", "--rounds", "10", "--seed", "1", "--attack", "mitm", "--phi", "1"], None),
        (["report", "{path}"], [1, 2]),
        (["report", "{path}"], {}),
    ],
    ids=["negative-seed", "seed-past-64-bits", "string-rounds", "float-rounds", "phi-without-phase",
         "summary-list", "summary-empty"],
)
def test_bad_input_exits_with_usage_error(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert main([a.format(path=path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "jsonl"])
def test_oracle_rejects_formats_other_than_csv(tmp_path, capsys, fmt):
    argv = ["oracle", "--scenario", "honest", "--rounds", "100", "--seed", "5"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"format": fmt}))
    for extra in (["--format", fmt], ["--config", str(path)]):
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.out == ""


def test_oracle_writes_csv_without_a_format(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"rounds": 100, "seed": 5}))
    outputs = []
    for argv in (["oracle", "--config", str(path)], ["oracle", "--config", str(path), "--format", "csv"]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("stage,outcome,exact_p,empirical_p,abs_error\n")
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_impossible_round_count_is_a_runtime_error(capsys, command):
    # the columns of 10**18 rounds cannot be allocated; nothing is touched
    assert main([command, "--rounds", str(10**18), "--seed", "1"]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


# For each scenario key: a config-file value other than its default, the
# flag's arguments, and the value the flag gives. Files also set seed 1 and
# the phase attack, so that every key's value is valid.
SCHEMA_VALUES = {
    "rounds": (500, ["900"], 900),
    "seed": (3, ["4"], 4),
    "attack": ("mitm", ["devil"], "devil"),
    "phi": (0.5, ["1.5"], 1.5),
    "channels": (["bob-to-alice"], ["alice-to-bob,bob-to-alice"], ("alice-to-bob", "bob-to-alice")),
    "p2": (0.1, ["0.2"], 0.2),
    "detector": ("threshold", ["pnr"], "pnr"),
    "eta": (0.5, ["0.8"], 0.8),
    "control_announce_fraction": (0.1, ["0.3"], 0.3),
    "control_count_fraction": (0.1, ["0.3"], 0.3),
    "abort_on_detection": (False, [], True),  # a store_true flag only sets True
    "out": ("a.json", ["b.json"], "b.json"),
    "format": ("jsonl", ["json"], "json"),
}
SCENARIO_KEYS = [f.name for f in fields(ScenarioConfig)]


def flag(key):
    return "--" + key.replace("_", "-")


def config_with(tmp_path, key, value):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"seed": 1, "attack": "phase", key: value}))
    return str(path)


class TestScenarioSchema:
    def test_every_key_has_test_values(self):
        assert sorted(SCHEMA_VALUES) == sorted(SCENARIO_KEYS)

    @pytest.mark.parametrize("command", ["run", "oracle"])
    @pytest.mark.parametrize("key", SCENARIO_KEYS)
    def test_key_is_a_flag(self, command, key):
        args = cli.build_parser().parse_args([command, flag(key), *SCHEMA_VALUES[key][1]])
        assert [k for k in SCENARIO_KEYS if getattr(args, k) is not None] == [key]

    @pytest.mark.parametrize("key", SCENARIO_KEYS)
    def test_key_is_a_config_file_key(self, tmp_path, key):
        value = SCHEMA_VALUES[key][0]
        cfg = parse(["run", "--config", config_with(tmp_path, key, value)])
        assert getattr(cfg, key) == (tuple(value) if key == "channels" else value)

    @pytest.mark.parametrize("key", SCENARIO_KEYS)
    def test_flag_overrides_config_file(self, tmp_path, key):
        value, flag_args, flag_value = SCHEMA_VALUES[key]
        cfg = parse(["run", "--config", config_with(tmp_path, key, value), flag(key), *flag_args])
        assert getattr(cfg, key) == flag_value


class TestSharedParser:
    GOOD = ["run", "--rounds", "500", "--seed", "3", "--attack", "mitm", "--format", "jsonl"]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "bad",
        [
            ["run", "--rounds", "abc", "--seed", "3"],
            ["run", "--rounds", "500", "--seed", "3", "--eta", "2"],
            ["run", "--seed", "3", "--attack", "laser"],
            ["oracle", "--seed", "3", "--format", "json"],
        ],
    )
    def test_failed_call_leaves_no_trace(self, capsys, bad):
        assert main(self.GOOD) == 0
        alone = capsys.readouterr().out
        assert main(bad) == 1
        capsys.readouterr()
        assert main(self.GOOD) == 0
        assert capsys.readouterr().out == alone

    def test_abort_flag_does_not_carry_over(self):
        argv = [
            "run", "--rounds", "400", "--seed", "6", "--attack", "phase",
            "--phi", str(math.pi), "--control-announce-fraction", "0.5",
        ]
        assert main(argv + ["--abort-on-detection"]) == 3
        assert main(argv) == 0
        assert parse(argv).abort_on_detection is False

    def test_config_keys_do_not_leak(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"rounds": 500, "attack": "mitm", "eta": 0.5, "format": "jsonl"}))
        assert parse(["run", "--config", str(path), "--seed", "1"]).attack == "mitm"
        assert parse(["run", "--seed", "1"]) == ScenarioConfig(seed=1)


class TestReport:
    def _summary_file(self, tmp_path, extra_args=()):
        out = tmp_path / "summary.json"
        main(["run", "--rounds", "3000", "--seed", "12", "--out", str(out), *extra_args])
        return out

    def test_efficiency_line(self, tmp_path, capsys):
        path = self._summary_file(tmp_path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "E = 1/(2+1) = 0.333333" in out
        assert "bb84_max 0.250000" in out
        assert "differential_phase_shift 0.166667" in out

    def test_mitm_anomaly_highlight(self, tmp_path, capsys):
        path = self._summary_file(tmp_path, ("--attack", "mitm"))
        main(["report", str(path)])
        out = capsys.readouterr().out
        assert "anomalous vs honest 0.5" in out

    def test_short_circuit_control_lines(self, tmp_path, capsys):
        path = self._summary_file(
            tmp_path,
            ("--attack", "short-circuit", "--control-announce-fraction", "0.2",
             "--control-count-fraction", "0.2"),
        )
        main(["report", str(path)])
        out = capsys.readouterr().out
        assert "announce-control detections: 0" in out
        rate_line = next(l for l in out.splitlines() if "count-control detection rate" in l)
        rate = float(rate_line.split(":")[1].split("(")[0])
        assert abs(rate - 0.5) < 0.06

    def test_machine_json_passthrough(self, tmp_path, capsys):
        path = self._summary_file(tmp_path)
        copy = tmp_path / "copy.json"
        main(["report", str(path), "--out", str(copy)])
        assert json.loads(copy.read_text()) == json.loads(path.read_text())
