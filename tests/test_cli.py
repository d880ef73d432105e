"""Front-end checks: validation, dispatch, exit codes, table emission."""

import csv
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from scale_iter import bruno, cli, engines, factors
from scale_iter.series import TruncatedPowerSeries


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


def _engine_args(monkeypatch, module, name, cfg):
    """The arguments cli.run passes to module.name when it runs cfg."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    assert cli.run(cfg) in (0, 2)
    monkeypatch.undo()
    return calls[0]


def _built_sequence(monkeypatch, spec, horizon):
    """The sequence the bruno command builds from spec."""
    cfg = {"command": "bruno", "sequence": spec, "horizon": horizon}
    return _engine_args(monkeypatch, bruno, "a_pi", cfg)[0]


def test_sequence_spec_round_trip(monkeypatch):
    seq = bruno.BrunoSequence.geometric(0.8, 12)
    spec = {"kind": "explicit", "sign": "-", "phases": list(seq.phases)}
    back = _built_sequence(monkeypatch, spec, 12)
    assert back.sign == seq.sign and back.phases == seq.phases


def test_sequence_spec_kinds_and_rejection(monkeypatch):
    def built(spec, horizon):
        return _built_sequence(monkeypatch, spec, horizon)

    assert built({"kind": "constant", "value": 2.0}, 8).log_term(3) == pytest.approx(math.log(2.0))
    assert built({"kind": "geometric", "ratio": 3.0}, 8).log_term(2) == pytest.approx(math.log(9.0))
    s = built({"kind": "phase-power", "exponent": 2.0, "sign": "-"}, 8)
    assert s.sign == -1 and s.phase(3) == pytest.approx(1.0 / 9.0)
    e = built({"kind": "explicit", "terms": [1.0, 2.0, 4.0]}, 2)
    assert e.log_term(2) == pytest.approx(math.log(4.0))
    lg = built({"kind": "explicit", "log_terms": [0.0, -1.0, -4.0]}, 2)
    assert lg.log_term(2) == pytest.approx(-4.0)
    # each spec is refused for its own fault, not for its length; numbers
    # inside a spec are finite JSON numbers: no bools, strings, NaN or inf
    for spec, message in (
        ({"kind": "constant", "value": 1.0, "bogus": 3}, "unknown keys for 'constant' sequence: ['bogus']"),
        ({"kind": "nope"}, "a sequence is an object with 'kind' one of"),
        ({"kind": "constant", "value": True}, "value must be a number"),
        ({"kind": "constant", "value": "0.25"}, "value must be a number"),
        ({"kind": "geometric", "ratio": math.nan}, "ratio must be finite"),
        ({"kind": "phase-power", "exponent": math.inf}, "exponent must be finite"),
        ({"kind": "phase-power", "exponent": 2.0, "sign": True}, "sequence sign must be '+' or '-'"),
        ({"kind": "explicit", "log_terms": [0.0, math.nan, 0.0]}, "log_terms must be finite"),
        ({"kind": "explicit", "log_terms": [1.0, -1.0, 0.0]}, "terms must all be >= 1 or all <= 1"),
        ({"kind": "explicit", "terms": "124"}, "terms must be a list of numbers"),
        ({"kind": "explicit"}, "an explicit sequence takes exactly one of 'terms', 'log_terms' or 'phases'"),
    ):
        diags = cli.validate({"command": "bruno", "sequence": spec, "horizon": 2})
        assert len(diags) == 1 and diags[0].startswith(message), spec


def test_factor_spec_round_trip(monkeypatch):
    cfg = {
        "command": "drive",
        "kind": "contraction",
        "factor": {"type": "perturbative", "alpha": 1.0, "beta": 2.0, "a": {"kind": "constant", "value": 2.0}},
    }
    back = _engine_args(monkeypatch, engines, "contraction_run", cfg)[1]
    assert isinstance(back, factors.PerturbativeFactor)
    assert back.inner_exponent == 1.0 and back.gap_exponent == 2.0
    assert back.gain.phases == pytest.approx(bruno.BrunoSequence.constant(2.0, 21).phases)
    schedule = {"command": "schedule", "rho": {"kind": "constant", "value": 0.25}}
    for spec, message in (
        ({"type": "local", "C": 1.0, "junk": 2}, "unknown keys for local factor: ['junk']"),
        ({"type": "local", "alpha": math.nan}, "alpha must be finite"),
        ({"type": "perturbative", "beta": "1"}, "beta must be a number"),
        ({"type": "kam", "k": True}, "k must be a number"),
    ):
        assert cli.validate({**schedule, "factor": spec}) == [message], spec


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


def _emission_cases():
    """(config, the same engine call made directly) for four engines."""
    D = 16
    exact_y = TruncatedPowerSeries.from_dict({1: 1, 2: "1/10"}, D)
    float_y = TruncatedPowerSeries.from_dict({1: 1.0, 2: 0.1}, D, "float")
    ones = bruno.BrunoSequence.constant(1.0, 27)
    kam = factors.KamFactor(ones, ones)
    return [
        ({"command": "circle", "eps": 0.1, "steps": 2, "cap": 16}, lambda: engines.circle_run(0.1, 2, 16)),
        (
            {"command": "newton", "mode": "float", "steps": 4, "truncation": D, "y": {"1": 1.0, "2": 0.1}},
            lambda: engines.newton_invert(float_y, TruncatedPowerSeries.from_dict({0: 1.0}, D, "float"), 4),
        ),
        (
            {"command": "newton", "steps": 4, "truncation": D, "defect": 2, "y": {"1": "1", "2": "1/10"}},
            lambda: engines.newton_invert(exact_y, TruncatedPowerSeries.from_dict({0: 1}, D), 4, defect=2),
        ),
        (
            {"command": "drive", "kind": "kam", "t": 4.0, "x0": 0.25, "steps": 25},
            lambda: engines.kam_run(
                engines.scalar_kam_family(kam), kam, 0.5, 1.9, 4.0, engines.ScalarElement(0.25), 25
            ),
        ),
    ]


def test_report_json_round_trips_through_cli(tmp_path, capsys):
    # one JSON line per report, the same floats as the engine's own report
    # JSON, the same text in an --out file, and CSV rows from the report object
    for cfg, call in _emission_cases():
        report = call().report
        assert cli.run(dict(cfg)) in (0, 2)
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        assert json.loads(out)["report"] == engines.report_to_json(report)
        path = tmp_path / "report.json"
        cli.run(dict(cfg), out_path=path)
        assert path.read_text(encoding="utf-8") == out[:-1]
        buf = io.StringIO()
        csv.writer(buf).writerows(engines.report_csv_rows(report))
        cli.run(dict(cfg), out_path=path, fmt="csv")
        assert path.read_bytes().decode("utf-8") == buf.getvalue()


def test_only_the_circle_command_loads_numpy():
    # each command loads only the modules it runs; a process runs its configs
    # in order and records the scale_iter modules loaded after each, so that
    # set only grows, and numpy loads with fourier alone
    drive = ["bruno", "engines", "factors", "series"]
    newton = ["bruno", "engines", "series"]
    processes = [
        [
            ({"command": "bruno", "kind": "constant", "value": 0.5, "horizon": 8}, ["bruno"]),
            ({"command": "tame", "a": {"kind": "geometric", "ratio": 2.0}, "b": {"kind": "geometric", "ratio": 0.25}},
             ["bruno"]),
            ({"command": "schedule", "rho": {"kind": "constant", "value": 0.25}, "factor": {"type": "local"}},
             ["bruno", "factors"]),
            ({"command": "drive", "kind": "contraction"}, drive),
            ({"command": "drive", "kind": "kam"}, drive),
            ({"command": "circle"}, ["bruno", "engines", "factors", "fourier", "series"]),
        ],
        [
            ({"command": "morse"}, newton),
            ({"command": "newton", "truncation": 16, "steps": 4}, newton),
            ({"command": "newton", "mode": "float", "truncation": 16, "steps": 4}, newton),
            ({"command": "circle"}, ["bruno", "engines", "fourier", "series"]),
        ],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from scale_iter import cli\n"
        "records = []\n"
        "for config in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.run(config)\n"
        "    loaded = sorted(m.removeprefix('scale_iter.') for m in sys.modules if m.startswith('scale_iter.'))\n"
        "    loaded.remove('cli')\n"
        "    records.append([code, loaded, 'numpy' in sys.modules])\n"
        "print(json.dumps(records))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    for runs in processes:
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps([config for config, _ in runs])],
            env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for (config, modules), (code, loaded, numpy) in zip(runs, json.loads(proc.stdout), strict=True):
            assert code in (0, 2), config
            assert loaded == modules, config
            assert numpy == ("fourier" in modules), config


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
    assert json.loads(capsys.readouterr().out)["a_pi"] == 1.0


def test_main_command_mismatch(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, "bruno.json", {"command": "bruno", "kind": "constant", "value": 1.0}
    )
    assert cli.main(["morse", "--config", str(cfg_path)]) == 1
    assert "does not match" in capsys.readouterr().err


def test_main_missing_config(tmp_path, capsys):
    # absent, not UTF-8, and nested past the JSON decoder's recursion limit
    (tmp_path / "not_utf8.json").write_bytes(b'\xff\xfe{"horizon": 8}')
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for name in ("absent.json", "not_utf8.json", "deep.json"):
        assert cli.main(["bruno", "--config", str(tmp_path / name)]) == 1, name
        assert "config error" in capsys.readouterr().err


def test_runs_are_byte_deterministic(tmp_path):
    cfg = {"command": "circle", "eps": 0.1, "steps": 2, "cap": 16}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(dict(cfg), out_path=a, seed=5) == 0
    assert cli.run(dict(cfg), out_path=b, seed=5) == 0
    assert a.read_bytes() == b.read_bytes()


def test_batch_configs_run_independently(tmp_path):
    batch = [
        {"command": "tame", "a": {"kind": "geometric", "ratio": 2.0}, "b": {"kind": "geometric", "ratio": 0.25}},
        {
            "command": "tame",
            "a": {"kind": "geometric", "ratio": 4.0},
            "b": {"kind": "geometric", "ratio": 0.5},
            "horizon": 20,
        },
    ]
    cfg_path = write_config(tmp_path, "batch.json", batch)
    out = tmp_path / "batch.json.out"
    code = cli.main(["tame", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2  # worst verdict in the batch
    assert (tmp_path / "batch.json.0.out").exists()
    assert (tmp_path / "batch.json.1.out").exists()


# bruno entries by exit code: 0 verdict success, 2 verdict failure, 1 config error
BATCH_ENTRY = {
    0: {"kind": "constant", "value": 1.0},
    2: {"kind": "constant", "value": 0.5, "horizon": 8},
    1: {"kind": "constant", "value": "0.5"},
}


def test_batch_entries_take_the_command_line_command(tmp_path, capsys):
    batch = [{"kind": "constant", "value": 0.25, "horizon": 48}, {"command": "bruno", "kind": "constant", "value": 1.0}]
    code = cli.main(["bruno", "--config", str(write_config(tmp_path, "b.json", batch))])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [json.loads(line)["command"] for line in lines] == ["bruno", "bruno"]


def test_batch_with_an_entry_for_another_command_runs_nothing(tmp_path, capsys):
    tame = {"command": "tame", "a": {"kind": "geometric", "ratio": 2.0}, "b": {"kind": "geometric", "ratio": 0.25}}
    batch = [{"kind": "constant", "value": 0.25, "horizon": 48}, tame]
    out = tmp_path / "b.out"
    assert cli.main(["bruno", "--config", str(write_config(tmp_path, "b.json", batch)), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: config command 'tame' does not match 'bruno'\n"
    assert list(tmp_path.glob("b.*.out")) == []


@pytest.mark.parametrize(
    "codes, worst",
    [((0, 0), 0), ((2, 0), 2), ((0, 1, 2), 1), ((2, 1, 0), 1)],
)
def test_batch_exits_with_the_worst_code(codes, worst, tmp_path, capsys):
    cfg_path = write_config(tmp_path, "b.json", [BATCH_ENTRY[c] for c in codes])
    assert cli.main(["bruno", "--config", str(cfg_path)]) == worst
    capsys.readouterr()


def test_batch_out_files_get_an_index_suffix(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "b.json", [BATCH_ENTRY[0], BATCH_ENTRY[2]])
    out = tmp_path / "report.json"
    assert cli.main(["bruno", "--config", str(cfg_path), "--out", str(out), "--seed", "4"]) == 2
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.glob("report*")) == ["report.0.json", "report.1.json"]
    for i, entry in enumerate((BATCH_ENTRY[0], BATCH_ENTRY[2])):
        want = tmp_path / f"want.{i}.json"
        cli.run({"command": "bruno", **entry}, want, seed=4)
        assert (tmp_path / f"report.{i}.json").read_bytes() == want.read_bytes()


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


def test_exact_newton_coefficients_past_the_float_range(capsys):
    # x0 = 1e-200 makes the solution coefficients overflow a float, and
    # x0 = 1e200 the residual's; their norms are taken in the log domain
    for x0 in ("1e-200", "1e200"):
        cfg = {"command": "newton", "mode": "exact", "x0": {"0": x0}, "truncation": 16, "steps": 4}
        assert cli.run(cfg) in (0, 2)
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["report"]["steps"]


def test_exact_newton_past_the_float_range_of_the_squared_residual_norm(capsys):
    # the residual valuation reaches 129, where the squared residual norm
    # underflows to 0.0 while the norm itself does not
    cfg = {"command": "newton", "truncation": 130, "steps": 8, "y": {"1": "1", "2": "1/10"}}
    assert cli.run(cfg) in (0, 2)
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["steps"][-1]["bound"] ** 2 == 0.0 < report["steps"][-1]["bound"]
    assert all(math.isfinite(r["extras"]["defect_ratio"]) for r in report["steps"])


def test_newton_norms_form_no_power_for_a_zero_coefficient(capsys):
    # x0 = 1 solves y = z at step 0, so the residual is zero; its norm forms
    # no t^k, however far t^truncation lies past the float range
    base = {"command": "newton", "y": {"1": "1"}, "steps": 5}
    for extra in (
        {"truncation": 40, "norm_radius": 1e10},
        {"truncation": 400, "norm_radius": 20},
        {"truncation": 40, "norm_radius": 1e10, "mode": "float"},
    ):
        assert cli.run({**base, **extra}) == 0, extra
        captured = capsys.readouterr()
        assert captured.err == "", extra
        assert json.loads(captured.out)["report"]["verdict"] == "converged", extra
    # a nonzero coefficient whose t^k leaves the float range is summed in the
    # log domain, and the norm saturates to inf only past the float range
    for cfg in (
        {"command": "newton", "y": {"1": "1", "2": "1/10"}, "truncation": 400, "steps": 3, "norm_radius": 20},
        {"command": "newton", "mode": "float", "y": {"1": 1, "2": 0.1}, "truncation": 40, "steps": 3, "norm_radius": 1e10},
    ):
        assert cli.run(cfg) in (0, 2), cfg
        captured = capsys.readouterr()
        assert captured.err == "", cfg
        assert json.loads(captured.out)["report"]["steps"], cfg


def test_newton_norm_of_a_nonzero_residual_is_not_zero_where_t_to_the_k_underflows(capsys):
    # the residual is -10^200 z^300, and 0.04^300 is below the normal floats;
    # its norm is 10^200 * 0.04^300 in both modes, not 0.0
    want = float(10**200 * Fraction(0.04) ** 300)
    for mode, top in (("exact", "1e200"), ("float", 1e200)):
        cfg = {"command": "newton", "mode": mode, "truncation": 300, "steps": 1, "norm_radius": 0.04,
               "y": {"1": "1" if mode == "exact" else 1.0, "300": top}}
        assert cli.run(cfg) == 0, mode
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["meta"]["initial_residual_norm"] == pytest.approx(want, rel=1e-12), mode
        assert report["steps"][0]["bound"] == report["meta"]["initial_residual_norm"], mode


def test_singular_newton_report_holds_the_meta_of_every_verdict(capsys):
    # x_0 reaches zero at step 1: the failed step is bounded by the residual
    # it could not reduce, and meta holds every key a converged run holds
    for mode in ("exact", "float"):
        assert cli.run({"command": "newton", "mode": mode, "truncation": 12, "steps": 4, "y": {"1": "-1"}}) == 2
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["verdict"] == "singular", mode
        failed = report["steps"][-1]
        assert (failed["n"], failed["bound"], failed["residual"], failed["flag"]) == (1, 0.5, 0.5, False), mode
        assert report["meta"] == {
            "norm_radius": 0.5,
            "defect": 0,
            "final_residual_norm": 0.5,
            "initial_residual_norm": 1.0,
            "initial_drift_norm": 1.5,
            "defect_ratio_max": 0.0,
            "failed_step": 1,
        }, mode


def test_float_newton_tiny_constant_term_is_not_singular(capsys):
    # x -> x * integral(x) is homogeneous, so the float solve, like the exact
    # one, is singular only at x_0 = 0; this is the x_0 = 1 run scaled by 1e-13
    cfg = {
        "command": "newton",
        "mode": "float",
        "x0": {"0": "1e-13"},
        "y": {"1": "1e-26", "2": "1e-27"},
        "truncation": 16,
        "steps": 6,
    }
    assert cli.run(cfg) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["verdict"] == "converged"
    assert "failed_step" not in report["meta"]


def test_kam_drive_steps_ceiling(capsys):
    # the tameness check reads 2^steps, a finite float up to steps 1023
    cfg = {"command": "drive", "kind": "kam", "steps": cli.MAX_KAM_STEPS}
    assert cli.run(cfg) in (0, 2)
    capsys.readouterr()
    assert cli.run({**cfg, "steps": cli.MAX_KAM_STEPS + 1}) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_kam_bound_saturates_where_n_to_the_exponent_leaves_the_float_range(capsys):
    # c_n = exp(-2^n / n^c) is 1.0 where n^c overflows a float, as 6^400 does
    cfg = {"command": "drive", "kind": "kam", "steps": 10, "c_phase_exponent": 400}
    assert cli.run(cfg) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)["report"]
    assert captured.err == "" and report["verdict"] == "undecided"
    assert [step["extras"]["c_n"] for step in report["steps"][2:]] == [1.0] * 8


def test_drive_exponent_shift_is_one_of_the_two_root_conventions(capsys):
    # 0 and 1 are the README's two conventions, as the schedule command reads them
    for kind in ("contraction", "kam"):
        cfg = {"command": "drive", "kind": kind, "steps": 6}
        for shift in (0, 1):
            assert cli.validate({**cfg, "exponent_shift": shift}) == [], (kind, shift)
        assert cli.validate({**cfg, "exponent_shift": 2}) == ["exponent_shift must be <= 1"]
        assert cli.validate({**cfg, "exponent_shift": -1}) == ["exponent_shift must be >= 0"]
        assert cli.run({**cfg, "exponent_shift": 10**30}) == 1
        assert capsys.readouterr().err.startswith("config error: exponent_shift must be <= 1")


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


NAN, INF = float("nan"), float("inf")

# Regression cases: the first ten raised out of cli.run, the rest passed
# validate and then exited 1 from the engine or ran.
PARSE_FAILURES = [
    {"command": "circle", "strip_width": [1]},
    {"command": "morse", "remainder": [1, 2]},
    {"command": "morse", "remainder": {"3": None}},
    {"command": "morse", "remainder": {"3": "1/0"}},
    {"command": "schedule", "rho": {"kind": "constant", "value": 0.25}, "factor": "x"},
    {"command": "drive", "kind": "contraction", "exponent_shift": [1]},
    {"command": "circle", "steps": INF},
    {"command": "schedule", "rho": {"kind": "explicit", "log_terms": [-2.0, -3.0]}, "steps": 20},
    {
        "command": "drive",
        "kind": "contraction",
        "factor": {"type": "perturbative", "a": {"kind": "explicit", "log_terms": [0.1, 0.2]}},
        "steps": 20,
    },
    {
        "command": "drive",
        "kind": "kam",
        "factor": {"type": "kam", "a": {"kind": "explicit", "log_terms": [0.1, 0.2]}},
        "steps": 20,
    },
    {"command": "newton", "truncation": 8, "y": {"40": "1"}},
    {"command": "morse", "steps": 2, "truncation": 10, "remainder": {"40": "1"}},
    {"command": "schedule", "rho": {"kind": "constant", "value": 0.25}, "factor": {"type": "mystery"}},
    {"command": "drive", "kind": "contraction", "factor": {"type": "kam"}},
    {"command": "drive", "kind": "kam", "factor": {"type": "perturbative"}},
    {"command": "drive", "kind": "contraction", "t": NAN},
    {"command": "schedule", "t": INF, "rho": {"kind": "constant", "value": 0.25}},
    {"command": "bruno", "sequence": {"kind": "constant", "value": True}},
    {"command": "bruno", "sequence": {"kind": "constant", "value": "0.25"}},
    {"command": "schedule", "rho": {"kind": "constant", "value": 0.25}, "factor": {"type": "local", "alpha": NAN}},
    {"command": "bruno", "sequence": {"kind": "explicit", "terms": "123"}, "horizon": 2},
    {"command": "bruno", "sequence": {"kind": "phase-power", "exponent": 2.0, "sign": True}},
    {"command": "bruno", "kind": "constant", "value": 0.5, "seed": "x"},
    {"command": "circle", "strip_width": 0.0},
    {"command": "bruno", "kind": "constant", "value": 0.5, "tol": 0.0},
    {"command": "newton", "truncation": 8, "defect": 9},
    {"command": "drive", "kind": "kam", "eps": 0.999999},
    {"command": "drive", "kind": "kam", "steps": 3},
    {"command": "newton", "x0": {"0": "0", "1": "1"}},
    {"command": "drive", "kind": "contraction", "b": {"kind": "constant", "value": 2.0}},
    {"command": "morse", "remainder": {"3": "1e1000000"}},
    {"command": "drive", "kind": "kam", "b": {"kind": "constant", "value": 0.5}},
    {"command": "drive", "kind": "contraction", "eps": 0.5},
    # remainder degrees below 3: the first two exited 1 from the engine, the last two ran
    {"command": "morse", "remainder": {"1": "1"}},
    {"command": "morse", "remainder": {"2": "1"}},
    {"command": "morse", "remainder": {"2": "1/2", "3": "1"}},
    {"command": "morse", "remainder": {"0": "0"}},
    # an explicit sequence with two forms read only one, and a sign without phases was ignored
    {
        "command": "bruno",
        "sequence": {"kind": "explicit", "log_terms": [0.1, 0.2, 0.3], "phases": [9, 9, 9]},
        "horizon": 2,
    },
    {"command": "bruno", "sequence": {"kind": "explicit", "terms": [2, 3, 4], "sign": "-"}, "horizon": 2},
    # schedule checks its radii against a local factor only; these ran with no bound_flags
    {"command": "schedule", "rho": {"kind": "constant", "value": 0.25}, "steps": 4, "factor": {"type": "kam"}},
    {
        "command": "schedule",
        "rho": {"kind": "constant", "value": 0.25},
        "steps": 4,
        "factor": {"type": "perturbative"},
    },
]


@pytest.mark.parametrize("cfg", PARSE_FAILURES, ids=range(len(PARSE_FAILURES)))
def test_unparseable_configs_are_config_errors(cfg, capsys):
    assert cli.validate(cfg)
    assert cli.run(cfg) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_short_sequences_rejected_at_the_last_index_each_engine_reads():
    def schedule(n_rho, steps):
        rho = {"kind": "explicit", "log_terms": [-2.0 - n for n in range(n_rho)]}
        return {"command": "schedule", "rho": rho, "steps": steps}

    # schedule_build reads rho below index steps, though rho is materialized at 48
    assert cli.validate(schedule(20, 20)) == []
    assert cli.validate(schedule(19, 20)) == ["sequence 'rho' ends before index 19 of horizon 20"]

    def contraction(n_a, n_b, steps=20):
        return {
            "command": "drive",
            "kind": "contraction",
            "factor": {"type": "perturbative", "a": {"kind": "explicit", "log_terms": [0.1] * n_a}},
            "b": {"kind": "explicit", "log_terms": [-1.0] * n_b},
            "steps": steps,
        }

    # the schedule reads rho (derived from b) through index steps, and rho
    # reads the gain at every index of b
    assert cli.validate(contraction(21, 21)) == []
    assert cli.validate(contraction(21, 20)) == ["sequence 'b' ends before index 20 of horizon 20"]
    assert cli.validate(contraction(30, 30)) == []
    assert cli.validate(contraction(29, 30)) == ["sequence 'factor.a' ends before index 29 of horizon 20"]
    assert cli.run(contraction(30, 30)) in (0, 2)

    kam = {"command": "drive", "kind": "kam", "steps": 20}
    assert cli.validate({**kam, "factor": {"type": "kam", "b": {"kind": "explicit", "log_terms": [0.0] * 21}}}) == []
    assert cli.validate({**kam, "factor": {"type": "kam", "b": {"kind": "explicit", "log_terms": [0.0] * 20}}}) == [
        "sequence 'factor.b' ends before index 20 of horizon 20"
    ]


def test_ceilings_reject_one_past_each_limit(capsys):
    over = {
        "bruno": ({"command": "bruno", "kind": "constant", "value": 0.5}, "horizon", cli.MAX_HORIZON),
        "tame": (
            {"command": "tame", "a": {"kind": "geometric", "ratio": 2.0}, "b": {"kind": "geometric", "ratio": 0.25}},
            "horizon",
            cli.MAX_HORIZON,
        ),
        "schedule": ({"command": "schedule", "rho": {"kind": "constant", "value": 0.25}}, "steps", cli.MAX_HORIZON),
        "circle steps": ({"command": "circle", "cap": cli.MAX_CAP}, "steps", cli.MAX_HORIZON),
        "circle cap": ({"command": "circle"}, "cap", cli.MAX_CAP),
        "circle order": ({"command": "circle"}, "order", cli.MAX_ORDER),
        "newton steps": ({"command": "newton"}, "steps", cli.MAX_HORIZON),
        "newton truncation": ({"command": "newton"}, "truncation", cli.MAX_TRUNCATION),
        "morse steps": ({"command": "morse"}, "steps", cli.MAX_MORSE_STEPS),
        "morse truncation": ({"command": "morse"}, "truncation", cli.MAX_TRUNCATION),
        "drive": ({"command": "drive", "kind": "contraction"}, "steps", cli.MAX_HORIZON),
    }
    for name, (base, key, ceiling) in over.items():
        assert cli.validate({**base, key: ceiling + 1}) == [f"{key} must be <= {ceiling}"], name
    # a circle cap must hold 2^(steps+1), so circle steps stay far below the ceiling
    for name, (base, key, ceiling) in over.items():
        if name != "circle steps":
            assert cli.validate({**base, key: ceiling}) == [], name
    # the configs at a ceiling also run to a report.  Left out for its cost:
    # exact newton at truncation 1024 with a nontrivial y (about 4 s), whose
    # time goes to the dense integer products (ROADMAP.md item 6)
    at_ceiling = [
        {**over["bruno"][0], "horizon": cli.MAX_HORIZON},
        {**over["tame"][0], "horizon": cli.MAX_HORIZON},
        {**over["schedule"][0], "steps": cli.MAX_HORIZON},
        {**over["drive"][0], "steps": cli.MAX_HORIZON},
        {"command": "circle", "cap": cli.MAX_CAP, "steps": 2},
        {"command": "circle", "cap": cli.MAX_CAP, "steps": 13},
        {"command": "circle", "order": cli.MAX_ORDER},
        {"command": "newton", "steps": cli.MAX_HORIZON, "y": {"1": "1", "2": "1/10"}, "truncation": 32},
        {"command": "newton", "truncation": cli.MAX_TRUNCATION},
        {"command": "morse", "steps": cli.MAX_MORSE_STEPS},
        {"command": "morse", "truncation": cli.MAX_TRUNCATION},
    ]
    for cfg in at_ceiling:
        assert cli.run(cfg) in (0, 2), cfg
        captured = capsys.readouterr()
        assert captured.err == "", cfg
        assert json.loads(captured.out)["command"] == cfg["command"], cfg


def test_float_newton_past_the_float_range_reads_infinity(capsys):
    # step 0 sends the residual to inf; step 1's correction then holds +inf and
    # -inf, so its norm is inf (on complex coefficients one of them was nan+nanj
    # and the norm read nan).  The run still diverges and exits 2
    cfg = {"command": "newton", "mode": "float", "truncation": 4, "y": {"1": 1.0, "2": 1e200}}
    assert cli.run(cfg) == 2
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["verdict"] == "diverged"
    assert [step["step_norm"] for step in report["steps"][:2]] == [3.3333333333333334e199, math.inf]
    assert report["steps"][0]["residual"] == math.inf
    # an infinite bound passes any residual but NaN
    step = report["steps"][1]
    assert step["bound"] == math.inf and math.isnan(step["residual"]) and step["flag"] is False
    assert all(math.isnan(step["step_norm"]) for step in report["steps"][2:])
    # a NaN bound cannot be met, so those steps are flagged
    assert all(math.isnan(step["bound"]) for step in report["steps"][2:])
    assert [step["flag"] for step in report["steps"][2:]] == [False] * 4


def test_diverged_morse_exits_two(capsys):
    # a remainder of 1e40 sends the step norms past the float range; morse
    # shares circle's rule: diverged exits 2, undecided exits 0
    assert cli.run({"command": "morse", "steps": 3, "remainder": {"3": "1e40"}}) == 2
    assert json.loads(capsys.readouterr().out)["report"]["verdict"] == "diverged"
    assert cli.run({"command": "morse", "steps": 3}) == 0
    assert json.loads(capsys.readouterr().out)["report"]["verdict"] == "undecided"


def test_morse_coefficient_too_long_to_print_is_a_named_error(capsys):
    # the run finishes, but str() of a coefficient past 4,300 digits raises
    assert cli.run({"command": "morse", "steps": 5, "remainder": {"3": "1e200"}}) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a coefficient is longer than Python prints")
    assert "Traceback" not in captured.err and "set_int_max_str_digits" not in captured.err


def test_numbers_reject_bools_and_non_finite_values():
    base = {"command": "circle", "eps": 0.1, "steps": 2, "cap": 16}
    for value in (True, NAN, INF, -INF, "0.5", None):
        assert cli.validate({**base, "strip_width": value}), value
    assert cli.validate({**base, "steps": 2.0, "cap": 16.0}) == []
    assert cli.validate({**base, "steps": 2.5}) == ["steps must be an integer"]
    assert cli.validate({"command": "newton", "mode": "float", "y": {"1": "1e400"}})
    assert cli.validate({"command": "morse", "remainder": {"3": NAN}})


def test_diverging_contraction_drive_exits_two(tmp_path):
    # x_n squared leaves the float range at step 11; the iterate saturates to inf
    cfg = {
        "command": "drive",
        "kind": "contraction",
        "factor": {"type": "perturbative", "a": {"kind": "constant", "value": 1.5}},
        "x0": 0.9,
        "steps": 40,
    }
    out = tmp_path / "drive.json"
    assert cli.run(cfg, out_path=out) == 2
    assert json.loads(out.read_text())["report"]["verdict"] == "diverged"


def test_kam_drive_zero_orbit_under_saturated_gain(tmp_path):
    # log M_n passes 709 at step 31; the orbit from 0 stays 0 with no nan bound
    cfg = {
        "command": "drive",
        "kind": "kam",
        "factor": {"type": "kam", "a": {"kind": "geometric", "ratio": 1e10}},
        "x0": 0.0,
        "steps": 40,
    }
    out = tmp_path / "kam0.json"
    assert cli.run(cfg, out_path=out) == 0
    report = json.loads(out.read_text())["report"]
    assert report["verdict"] == "converged"
    assert all(step["flag"] for step in report["steps"])


def test_kam_drive_divergence_agrees_with_mixed_orbit(tmp_path):
    cfg = {
        "command": "drive",
        "kind": "kam",
        "factor": {"type": "kam", "a": {"kind": "geometric", "ratio": 10}},
        "x0": 0.1,
        "steps": 40,
    }
    out = tmp_path / "kam.json"
    assert cli.run(cfg, out_path=out) == 2
    assert json.loads(out.read_text())["report"]["verdict"] == "diverged"

    K = factors.KamFactor(bruno.BrunoSequence.geometric(10, 42), bruno.BrunoSequence.constant(1.0, 42))
    res = engines.kam_run(engines.scalar_kam_family(K), K, 0.5, 1.9, 1.0, engines.ScalarElement(0.1), 40)
    orbit = bruno.mixed_orbit(
        bruno.LogSequence(res.log_m[:41]), bruno.LogSequence(res.log_n[:41]), 0.1, 40, require_tame=False
    )
    assert res.report.verdict == orbit.verdict == "diverged"
    finite = [it.value for it in res.iterates if math.isfinite(it.value)]
    assert len(finite) >= orbit.failed_at
    for value, expected in zip(finite, orbit.values):
        assert value == pytest.approx(expected, rel=1e-9)


SWEEP_BASES = [
    {"command": "bruno", "sequence": {"kind": "geometric", "ratio": 0.5}, "horizon": 12, "tol": 1e-12},
    {
        "command": "tame",
        "a": {"kind": "geometric", "ratio": 2.0},
        "b": {"kind": "explicit", "log_terms": [-1.0 * n for n in range(13)]},
        "horizon": 12,
    },
    {
        "command": "schedule",
        "t": 1.0,
        "steps": 8,
        "exponent_shift": 1,
        "rho": {"kind": "constant", "value": 0.25},
        "factor": {"type": "local", "C": 1.0, "alpha": 1.0, "beta": 1.0},
    },
    {"command": "morse", "steps": 2, "truncation": 10, "remainder": {"3": "1", "4": "-1/2"}},
    {"command": "circle", "eps": 0.1, "steps": 2, "cap": 16, "order": 2, "strip_width": 0.5},
    {"command": "newton", "y": {"1": "1", "2": "1/10"}, "x0": {"0": "1"}, "steps": 3, "truncation": 8},
    {"command": "newton", "y": {"1": 1.0, "2": 0.1}, "mode": "float", "steps": 3, "truncation": 8, "defect": 1},
    {
        "command": "drive",
        "kind": "contraction",
        "factor": {"type": "perturbative", "a": {"kind": "constant", "value": 1.2}},
        "b": {"kind": "constant", "value": 0.5},
        "t": 1.0,
        "x0": 0.5,
        "steps": 12,
        "exponent_shift": 1,
    },
    {
        "command": "drive",
        "kind": "kam",
        "factor": {"type": "kam", "a": {"kind": "constant", "value": 1.0}, "b": {"kind": "constant", "value": 1.0}},
        "t": 4.0,
        "x0": 0.25,
        "steps": 12,
        "eps": 0.5,
        "c_phase_exponent": 1.9,
    },
]

SWEEP_JUNK = ["x", [1], {"k": 1}, None, True, NAN, INF, -INF, -1, 0, 0.5, 2.5, 1e308, 10**30, "1/0", {}, "1e1000000"]

# unknown keys, and keys that only one drive kind reads
SWEEP_KEYS = ["zz0", "zz1", "zz2", "b", "eps", "c_phase_exponent"]


def _mutate(cfg, rng):
    """One random malformation somewhere in a copy of cfg."""
    slots = []  # (container, key) of every value in the config

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if not (node is cfg and key == "command"):
                slots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(cfg)
    container, key = rng.choice(slots)
    how = rng.choice(("junk", "junk", "short", "unknown-key"))
    if how == "junk":
        container[key] = rng.choice(SWEEP_JUNK)
    elif how == "short":
        sign = rng.choice((-1.0, 1.0))
        container[key] = {"kind": "explicit", "log_terms": [sign * n for n in range(rng.randint(0, 14))]}
    else:
        dicts = [c for c, _ in slots if isinstance(c, dict)]
        rng.choice(dicts).setdefault(rng.choice(SWEEP_KEYS), 0.5)
    return cfg


def _holds_bad_number(node) -> bool:
    """A bool or a non-finite float anywhere in node; no config key accepts either."""
    if isinstance(node, dict):
        return any(_holds_bad_number(v) for v in node.values())
    if isinstance(node, list):
        return any(_holds_bad_number(v) for v in node)
    return isinstance(node, bool) or (isinstance(node, float) and not math.isfinite(node))


def test_seeded_sweep_of_malformed_configs_never_raises(capsys):
    rng = random.Random(4)
    for _ in range(400):
        cfg = json.loads(json.dumps(rng.choice(SWEEP_BASES)))
        for _ in range(rng.randint(1, 2)):
            cfg = _mutate(cfg, rng)
        code = cli.run(cfg)
        assert code in (0, 1, 2), cfg
        if cli.validate(cfg) or _holds_bad_number(cfg):
            assert code == 1, cfg
        capsys.readouterr()


def test_config_seed_is_recorded_unless_overridden(capsys):
    cfg = {"command": "bruno", "kind": "constant", "value": 0.5, "horizon": 8, "seed": 3}
    assert cli.run(dict(cfg)) == 2
    assert json.loads(capsys.readouterr().out)["seed"] == 3
    assert cli.run(dict(cfg), seed=5) == 2
    assert json.loads(capsys.readouterr().out)["seed"] == 5


def test_every_name_in_all_resolves():
    # bench/spans.py wraps each module's __all__ with getattr, patches two
    # methods by hand through the class __dict__, and the bench imports from
    # the package root
    import ast
    import importlib
    import inspect

    import scale_iter

    for name in ("bruno", "factors", "series", "fourier", "engines", "cli"):
        module = importlib.import_module(f"scale_iter.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
    tree = ast.parse(Path(scale_iter.__file__).read_text(encoding="utf-8"))
    root_names = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert [n for n in root_names if not hasattr(scale_iter, n)] == []
    assert {"BrunoSequence", "quadratic_orbit"} <= set(root_names)  # bench/checks.py imports these
    # the engine metrics of bench/spans.py sum the self time of these names, and read 0 without them
    for name in ("morse_run", "newton_invert", "circle_run", "contraction_run", "kam_run"):
        fn = getattr(engines, name)
        assert name in engines.__all__ and inspect.isfunction(fn) and fn.__module__ == engines.__name__, name
    from scale_iter import fourier, series

    assert inspect.isfunction(series.Derivation.__dict__["apply"])
    assert isinstance(fourier._TrigData.__dict__["from_coefficients"], classmethod)


# Public names that nothing in src/ references, and why each stays
KEPT_UNREFERENCED = {
    "tail_decay_check": "the subject of acceptance criterion C04",
    "solve_homological": "a subject of acceptance criterion C03",
    "lie_exp_terms": "a subject of acceptance criterion C03",
    "perturbative_radius_search": "the subject of acceptance criterion C08",
    "validate": "the config check the README documents",
    "main": "the console script's entry point",
    "Derivation": "bench/spans.py patches Derivation.apply",
}


def test_every_public_name_is_used_or_kept_for_a_reason():
    # public API that nothing in the library or CLI uses is deleted with its
    # tests: each name in a module's __all__ is read somewhere in src/ outside
    # its own definition (re-exports from the package root count), or is kept
    # above with its reason
    import ast
    import importlib

    src = Path(cli.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}
    root = trees["__init__"].body
    root_exports = {a.asname or a.name for node in root if isinstance(node, ast.ImportFrom) for a in node.names}

    def defines(node, name):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return node.name == name
        return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)

    def reads(node, name):
        nodes = (n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))
        return sum((n.id if isinstance(n, ast.Name) else n.attr) == name for n in nodes)

    unread = []
    for name in ("bruno", "factors", "series", "fourier", "engines", "cli"):
        for public in importlib.import_module(f"scale_iter.{name}").__all__:
            own = next((node for node in trees[name].body if defines(node, public)), None)  # None: imported
            outside = sum(reads(tree, public) for tree in trees.values()) - (reads(own, public) if own else 0)
            if not outside and public not in root_exports and public not in KEPT_UNREFERENCED:
                unread.append(f"{name}.{public}")
    assert unread == []
