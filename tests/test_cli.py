"""Front-end checks: validation, dispatch, exit codes, table emission."""

import csv
import io
import json
import random

import pytest

from scale_iter import cli
from scale_iter.engines import report_from_json


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_validate_accepts_well_formed_configs():
    assert cli.validate({"command": "bruno", "kind": "constant", "value": 1.0}) == []
    assert (
        cli.validate(
            {
                "command": "tame",
                "a": {"kind": "geometric", "ratio": 2.0},
                "b": {"kind": "geometric", "ratio": 0.25},
                "horizon": 30,
            }
        )
        == []
    )
    assert cli.validate({"command": "newton", "steps": 4, "truncation": 16}) == []


def test_validate_schedule_cites_half_hypothesis():
    diags = cli.validate(
        {"command": "schedule", "t": 1.0, "steps": 5, "rho": {"kind": "constant", "value": 0.7}}
    )
    assert any("rho < 1/2" in d for d in diags)


def test_validate_morse_truncation_bound():
    diags = cli.validate({"command": "morse", "steps": 4, "truncation": 10})
    assert any("too small" in d for d in diags)


def test_validate_rejects_unknown_keys_and_commands():
    assert cli.validate({"command": "bogus"})
    diags = cli.validate({"command": "morse", "steps": 2, "truncation": 10, "zzz": 1})
    assert any("unknown keys" in d for d in diags)


def test_validate_catches_unparseable_payloads():
    assert cli.validate({"command": "newton", "y": {"1": "not-a-number"}})
    assert cli.validate({"command": "newton", "y": {"0": "1"}})
    assert cli.validate(
        {"command": "drive", "kind": "contraction", "factor": {"type": "mystery"}}
    )
    assert cli.validate(
        {"command": "drive", "kind": "contraction", "b": {"kind": "nope"}}
    )


def test_run_bruno_constant_one(tmp_path, capsys):
    code = cli.run({"command": "bruno", "kind": "constant", "value": 1.0})
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["a_pi"] == pytest.approx(1.0)
    assert doc["converged"] is True


def test_run_bruno_divergent_exit_two(tmp_path):
    cfg = {
        "command": "bruno",
        "sequence": {"kind": "explicit", "sign": "+", "phases": [1.0] * 49},
    }
    assert cli.run(cfg, out_path=tmp_path / "r.json") == 2


def test_run_tame_geometric_pair(tmp_path):
    cfg = {
        "command": "tame",
        "a": {"kind": "geometric", "ratio": 2.0},
        "b": {"kind": "geometric", "ratio": 0.25},
        "horizon": 30,
    }
    out = tmp_path / "tame.json"
    assert cli.run(cfg, out_path=out) == 0
    doc = json.loads(out.read_text())
    assert doc["tame"] is True and doc["N"] == 2


def test_run_tame_failure_exit_two(tmp_path):
    cfg = {
        "command": "tame",
        "a": {"kind": "geometric", "ratio": 4.0},
        "b": {"kind": "geometric", "ratio": 0.5},
        "horizon": 20,
    }
    assert cli.run(cfg, out_path=tmp_path / "t.json") == 2


def test_run_morse_emits_exact_strings(tmp_path):
    cfg = {"command": "morse", "steps": 2, "truncation": 10}
    out = tmp_path / "morse.json"
    assert cli.run(cfg, out_path=out) == 0
    text = out.read_text()
    doc = json.loads(text)
    f1 = doc["functions"][1]
    assert f1[2] == "1/2" and f1[4] == "-3/2"
    f2 = doc["functions"][2]
    assert f2[6] == "-12" and f2[7] == "39"


def test_run_schedule_with_factor_flags(tmp_path):
    cfg = {
        "command": "schedule",
        "t": 1.0,
        "steps": 12,
        "rho": {"kind": "constant", "value": 0.25},
        "factor": {"type": "local", "C": 1.0, "alpha": 1.0, "beta": 1.0},
    }
    out = tmp_path / "sched.json"
    assert cli.run(cfg, out_path=out) == 0
    doc = json.loads(out.read_text())
    assert doc["s_inf"] == pytest.approx(0.25, rel=1e-10)
    assert all(doc["bound_flags"])


def test_run_newton_reports_valuations(tmp_path):
    cfg = {
        "command": "newton",
        "steps": 6,
        "truncation": 32,
        "y": {"1": "1", "2": "1/10"},
    }
    out = tmp_path / "newton.json"
    assert cli.run(cfg, out_path=out) == 0
    doc = json.loads(out.read_text())
    assert doc["residual_valuations"] == [2, 3, 5, 9, 17, 33]


def test_run_circle_csv_has_harmonics(tmp_path):
    cfg = {"command": "circle", "eps": 0.1, "steps": 2, "cap": 16}
    out = tmp_path / "circle.csv"
    assert cli.run(cfg, out_path=out, fmt="csv") == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0][:6] == ["n", "s_n", "step_norm", "residual", "bound", "flag"]
    assert "cos_1" in rows[0] and "cos_4" in rows[0]
    assert len(rows) == 3


def test_run_drive_contraction(tmp_path):
    cfg = {
        "command": "drive",
        "kind": "contraction",
        "factor": {"type": "perturbative", "a": {"kind": "constant", "value": 1.2}},
        "b": {"kind": "constant", "value": 0.5},
        "t": 1.0,
        "x0": 0.5,
        "steps": 25,
    }
    out = tmp_path / "drive.json"
    assert cli.run(cfg, out_path=out) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["verdict"] == "converged"


def test_run_drive_kam(tmp_path):
    cfg = {
        "command": "drive",
        "kind": "kam",
        "factor": {"type": "kam"},
        "t": 4.0,
        "x0": 0.25,
        "steps": 25,
        "eps": 0.5,
        "c_phase_exponent": 1.9,
    }
    out = tmp_path / "kam.json"
    assert cli.run(cfg, out_path=out) == 0


def test_report_json_round_trips_through_cli(tmp_path):
    cfg = {"command": "circle", "eps": 0.1, "steps": 2, "cap": 16}
    out = tmp_path / "c.json"
    cli.run(cfg, out_path=out)
    doc = json.loads(out.read_text())
    report = report_from_json(doc["report"])
    assert report_from_json(json.loads(json.dumps(doc["report"]))) == report


def test_exit_code_partition_over_mutated_configs(tmp_path):
    # deterministic sweep: valid configs exit 0/2, mutations exit 1
    rng = random.Random(20240819)
    base_configs = [
        {"command": "bruno", "kind": "constant", "value": 1.0},
        {
            "command": "tame",
            "a": {"kind": "geometric", "ratio": 2.0},
            "b": {"kind": "geometric", "ratio": 0.25},
            "horizon": 20,
        },
        {"command": "morse", "steps": 2, "truncation": 10},
        {"command": "circle", "eps": 0.1, "steps": 2, "cap": 16},
    ]
    for cfg in base_configs:
        assert cli.run(dict(cfg), out_path=tmp_path / "ok.json") in (0, 2)
    mutations = []
    for cfg in base_configs:
        bad = dict(cfg)
        bad["unexpected_key"] = 1
        mutations.append(bad)
        bad2 = dict(cfg)
        bad2["command"] = "nope"
        mutations.append(bad2)
    numeric = {"command": "circle", "eps": 1.5, "steps": 2, "cap": 16}
    mutations.append(numeric)
    mutations.append({"command": "morse", "steps": "two", "truncation": 10})
    for bad in mutations:
        assert cli.run(bad, out_path=tmp_path / "bad.json") == 1


def test_main_end_to_end(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, "bruno.json", {"command": "bruno", "kind": "constant", "value": 1.0}
    )
    code = cli.main(["bruno", "--config", str(cfg_path)])
    assert code == 0
    assert '"a_pi": 1.0' in capsys.readouterr().out


def test_main_command_mismatch(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, "bruno.json", {"command": "bruno", "kind": "constant", "value": 1.0}
    )
    assert cli.main(["morse", "--config", str(cfg_path)]) == 1
    assert "does not match" in capsys.readouterr().err


def test_main_missing_config(tmp_path, capsys):
    assert cli.main(["bruno", "--config", str(tmp_path / "absent.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_runs_are_byte_deterministic(tmp_path):
    cfg = {"command": "circle", "eps": 0.1, "steps": 2, "cap": 16}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(dict(cfg), out_path=a, seed=5) == 0
    assert cli.run(dict(cfg), out_path=b, seed=5) == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_config_parse_and_run(tmp_path):
    cfg = cli.ExperimentConfig.parse(
        {"command": "bruno", "kind": "constant", "value": 1.0},
        output=tmp_path / "b.json",
        seed=3,
    )
    assert cfg.command == "bruno" and cfg.parameters["kind"] == "constant"
    assert cli.run(cfg) == 0
    assert json.loads((tmp_path / "b.json").read_text())["seed"] == 3


def test_batch_configs_run_independently(tmp_path):
    batch = [
        {"command": "bruno", "kind": "constant", "value": 1.0},
        {
            "command": "tame",
            "a": {"kind": "geometric", "ratio": 4.0},
            "b": {"kind": "geometric", "ratio": 0.5},
            "horizon": 20,
        },
    ]
    cfg_path = write_config(tmp_path, "batch.json", batch)
    out = tmp_path / "batch.json.out"
    code = cli.main(["bruno", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2  # worst verdict in the batch
    assert (tmp_path / "batch.json.0.out").exists()
    assert (tmp_path / "batch.json.1.out").exists()


def test_main_writes_out_file(tmp_path):
    cfg_path = write_config(
        tmp_path,
        "tame.json",
        {
            "command": "tame",
            "a": {"kind": "geometric", "ratio": 2.0},
            "b": {"kind": "geometric", "ratio": 0.25},
        },
    )
    out = tmp_path / "verdict.json"
    assert cli.main(["tame", "--config", str(cfg_path), "--out", str(out), "--seed", "7"]) == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 7


def test_exact_newton_tiny_constant_term_is_not_singular(tmp_path):
    # 1e-13 sits below the float singularity threshold but is exactly invertible
    out = tmp_path / "n.json"
    cfg = {"command": "newton", "x0": {"0": "1e-13"}, "mode": "exact", "truncation": 16, "steps": 4}
    cli.run(cfg, out_path=out)
    report = json.loads(out.read_text())["report"]
    assert report["verdict"] != "singular"
    assert "failed_step" not in report["meta"]
    # x -> x * integral(x) is homogeneous of degree 2, so scaling the target
    # by x_0^2 keeps the valuation ladder of the x_0 = 1 run
    cfg["y"] = {"1": "1e-26", "2": "1e-27"}
    assert cli.run(cfg, out_path=out) == 0
    doc = json.loads(out.read_text())
    assert doc["residual_valuations"] == [2, 3, 5, 9, 17]


def test_exact_newton_float_overflow_exits_one(capsys):
    cfg = {"command": "newton", "x0": {"0": "1e-200"}, "mode": "exact", "truncation": 16, "steps": 4}
    assert cli.run(cfg) == 1
    assert "too large for a float" in capsys.readouterr().err


def test_tame_sequences_shorter_than_horizon_exit_one(capsys):
    def cfg(len_a, len_b):
        return {
            "command": "tame",
            "a": {"kind": "explicit", "log_terms": [0.5 * n for n in range(len_a)]},
            "b": {"kind": "explicit", "log_terms": [-1.0 * n for n in range(len_b)]},
            "horizon": 10,
        }

    assert cli.run(cfg(3, 3)) == 1
    assert "ends before index" in capsys.readouterr().err
    assert cli.validate(cfg(10, 10)) == ["sequence 'b' ends before index 10 of horizon 10"]
    # a is read up to index horizon - 1, b up to index horizon
    assert cli.validate(cfg(10, 11)) == []
    assert cli.run(cfg(10, 11)) in (0, 2)


def test_bruno_sequence_shorter_than_horizon_exits_one(capsys):
    cfg = {"command": "bruno", "sequence": {"kind": "explicit", "log_terms": [0.0, 0.5, 1.0]}, "horizon": 10}
    assert cli.run(cfg) == 1
    assert "ends before index 10" in capsys.readouterr().err
