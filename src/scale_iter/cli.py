"""Command-line front end: validate experiment configs, dispatch, emit reports.

Usage: scale-iter <command> --config <file> [--out <path>] [--format json|csv]
[--seed N].  Configs are strict JSON objects; unknown keys are rejected and
all numeric parameters are validated against the target operation's
preconditions before anything runs.  Exit status: 0 on verdict success, 2 on
verdict failure (non-tame pair, divergence, missing bound index), 1 on
config or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import bruno, engines, factors, series
from .bruno import PreconditionError

__all__ = ["ExperimentConfig", "main", "run", "run_batch", "validate", "emit_table"]

SCHEMA = "scale-iter.report.v1"

_SEQUENCE_SHORTHAND_KEYS = {"kind", "value", "ratio", "scale", "exponent", "sign", "terms", "log_terms", "phases"}

_COMMAND_KEYS: dict[str, set[str]] = {
    "bruno": {"command", "seed", "sequence", "horizon", "tol"} | _SEQUENCE_SHORTHAND_KEYS,
    "tame": {"command", "seed", "a", "b", "horizon"},
    "schedule": {"command", "seed", "t", "rho", "steps", "exponent_shift", "factor"},
    "morse": {"command", "seed", "steps", "truncation", "remainder"},
    "circle": {"command", "seed", "eps", "steps", "cap", "order", "strip_width"},
    "newton": {"command", "seed", "y", "x0", "steps", "truncation", "mode", "defect", "norm_radius"},
    "drive": {
        "command",
        "seed",
        "kind",
        "factor",
        "b",
        "t",
        "x0",
        "steps",
        "eps",
        "c_phase_exponent",
        "exponent_shift",
    },
}

_DEFAULT_HORIZON = 48


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run description: command, parameters, output, seed."""

    command: str
    parameters: dict = field(default_factory=dict)
    output: Path | None = None
    fmt: str = "json"
    seed: int | None = None

    @classmethod
    def parse(cls, raw: dict, output: Path | None = None, fmt: str = "json",
              seed: int | None = None) -> "ExperimentConfig":
        if not isinstance(raw, dict) or "command" not in raw:
            raise PreconditionError("config must be an object with a 'command' key")
        params = {k: v for k, v in raw.items() if k != "command"}
        if seed is None and "seed" in params:
            seed = params["seed"]
        return cls(raw["command"], params, output, fmt, seed)

    def as_dict(self) -> dict:
        return {"command": self.command, **self.parameters}


def _extract_sequence_spec(cfg: dict) -> dict:
    if "sequence" in cfg:
        return cfg["sequence"]
    inline = {k: cfg[k] for k in _SEQUENCE_SHORTHAND_KEYS if k in cfg}
    if "kind" not in inline:
        raise PreconditionError("bruno command needs a 'sequence' object or inline 'kind'")
    return inline


def validate(config: dict) -> list[str]:
    """Diagnostics list; empty exactly when run() would not fail a precondition."""
    problems: list[str] = []
    if not isinstance(config, dict):
        return ["config must be a JSON object"]
    command = config.get("command")
    if command not in _COMMAND_KEYS:
        return [f"unknown command {command!r}; expected one of {sorted(_COMMAND_KEYS)}"]
    extra = set(config) - _COMMAND_KEYS[command]
    if extra:
        problems.append(f"unknown keys for {command}: {sorted(extra)}")

    def need_number(key: str, lo: float | None = None, hi: float | None = None, integer: bool = False):
        if key not in config:
            return None
        v = config[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            problems.append(f"{key} must be a number")
            return None
        if integer and int(v) != v:
            problems.append(f"{key} must be an integer")
            return None
        if lo is not None and v < lo:
            problems.append(f"{key} must be >= {lo}")
        if hi is not None and v > hi:
            problems.append(f"{key} must be <= {hi}")
        return v

    try:
        if command == "bruno":
            horizon = int(config.get("horizon", _DEFAULT_HORIZON))
            need_number("horizon", lo=2, integer=True)
            need_number("tol", lo=0.0)
            seq = bruno.sequence_from_spec(_extract_sequence_spec(config), max(horizon, 2))
            if seq.horizon < horizon:
                problems.append(f"sequence ends before index {horizon} of horizon {horizon}")
        elif command == "tame":
            horizon = int(config.get("horizon", 30))
            need_number("horizon", lo=1, integer=True)
            # is_tame reads a up to index horizon - 1 and b up to index horizon
            for key, last in (("a", horizon - 1), ("b", horizon)):
                if key not in config:
                    problems.append(f"tame command needs sequence {key!r}")
                elif bruno.sequence_from_spec(config[key], max(horizon, 2)).horizon < last:
                    problems.append(f"sequence {key!r} ends before index {last} of horizon {horizon}")
        elif command == "schedule":
            need_number("t", lo=1e-300)
            need_number("steps", lo=1, integer=True)
            need_number("exponent_shift", lo=0, hi=1, integer=True)
            if "rho" not in config:
                problems.append("schedule command needs a 'rho' sequence")
            else:
                steps = int(config.get("steps", 10))
                rho = bruno.sequence_from_spec(config["rho"], max(steps, 2))
                for n in range(steps):
                    if rho.log_term(n) >= -math.log(2.0) * (1.0 - 1e-12):
                        problems.append(
                            f"rho term at {n} is >= 1/2; the schedule hypothesis requires rho < 1/2"
                        )
                        break
        elif command == "morse":
            steps = need_number("steps", lo=0, integer=True)
            trunc = need_number("truncation", lo=2, integer=True)
            if steps is not None and trunc is not None and trunc < 2 ** int(steps) + 2:
                problems.append(
                    f"truncation {int(trunc)} too small for {int(steps)} steps; need >= {2 ** int(steps) + 2}"
                )
        elif command == "circle":
            eps = need_number("eps", lo=0.0)
            if eps is not None and eps >= 1.0:
                problems.append("eps must be < 1")
            steps = need_number("steps", lo=1, integer=True)
            cap = need_number("cap", lo=2, integer=True)
            need_number("order", lo=1, integer=True)
            if steps is not None and cap is not None and cap < 2 ** (int(steps) + 1):
                problems.append(f"cap {int(cap)} too small; need >= 2^(steps+1) = {2 ** (int(steps) + 1)}")
        elif command == "newton":
            need_number("steps", lo=1, integer=True)
            need_number("truncation", lo=2, integer=True)
            need_number("defect", lo=0, integer=True)
            need_number("norm_radius", lo=1e-12)
            mode = config.get("mode", "exact")
            if mode not in ("exact", "float"):
                problems.append("mode must be 'exact' or 'float'")
            else:
                for key in ("y", "x0"):
                    entries = config.get(key)
                    if entries is None:
                        continue
                    if not isinstance(entries, dict):
                        problems.append(f"{key} must be an object of degree: coefficient entries")
                        continue
                    for deg, value in entries.items():
                        if int(deg) < 0:
                            problems.append(f"{key} has a negative degree {deg}")
                        if mode == "exact":
                            Fraction(value)
                        else:
                            complex(float(value))
                    if key == "y" and any(int(k) < 1 for k in entries):
                        problems.append("y must vanish at the origin (no degree-0 term)")
        elif command == "drive":
            if config.get("kind") not in ("contraction", "kam"):
                problems.append("drive kind must be 'contraction' or 'kam'")
            need_number("t", lo=1e-300)
            need_number("steps", lo=1, integer=True)
            need_number("x0", lo=0.0)
            need_number("eps", lo=1e-9)
            need_number("c_phase_exponent", lo=1.0)
            if "factor" in config:
                factors.factor_from_spec(config["factor"], 4)
            if "b" in config:
                bruno.sequence_from_spec(config["b"], 4)
    except (PreconditionError, ValueError, KeyError, TypeError) as exc:
        problems.append(str(exc))
    return problems


# ---------------------------------------------------------------------------
# Command handlers: each returns (payload dict, exit code)
# ---------------------------------------------------------------------------


def _cmd_bruno(cfg: dict) -> tuple[dict, int]:
    horizon = int(cfg.get("horizon", _DEFAULT_HORIZON))
    seq = bruno.sequence_from_spec(_extract_sequence_spec(cfg), horizon)
    tol = float(cfg.get("tol", 1e-12))
    limit = bruno.a_pi(seq, tol)
    summable = seq.is_bruno(horizon)
    transform = [bruno.log_bruno_transform(seq, n) for n in range(horizon + 1)]
    payload = {
        "a_pi": limit.limit,
        "log_a_pi": limit.log_limit,
        "converged": limit.converged,
        "is_bruno": summable,
        "log_transform": transform,
    }
    return payload, 0 if (limit.converged and summable) else 2


def _cmd_tame(cfg: dict) -> tuple[dict, int]:
    horizon = int(cfg.get("horizon", 30))
    a = bruno.sequence_from_spec(cfg["a"], horizon + 1)
    b = bruno.sequence_from_spec(cfg["b"], horizon + 1)
    verdict = bruno.is_tame(a, b, horizon)
    payload = {
        "tame": verdict.tame,
        "N": verdict.N,
        "flags": list(verdict.flags),
        "violations": [{"n": n, "message": m} for n, m in verdict.violations],
    }
    return payload, 0 if verdict.tame else 2


def _cmd_schedule(cfg: dict) -> tuple[dict, int]:
    steps = int(cfg.get("steps", 10))
    t = float(cfg.get("t", 1.0))
    shift = int(cfg.get("exponent_shift", 1))
    # materialize well past the requested steps so the limit radius is tight
    rho = bruno.sequence_from_spec(cfg["rho"], max(steps, _DEFAULT_HORIZON))
    sched = factors.schedule_build(t, rho, steps, shift)
    payload = {
        "t": t,
        "radii": list(sched.radii),
        "log_radii": list(sched.log_radii),
        "s_inf": sched.s_inf,
        "exponent_shift": shift,
    }
    if "factor" in cfg:
        f = factors.factor_from_spec(cfg["factor"], max(steps, 2))
        if isinstance(f, factors.LocalFactor):
            check = factors.geometric_bound_check(f, sched)
            payload["bound_flags"] = list(check.flags)
            payload["log_bounds"] = list(check.log_bounds)
            payload["log_values"] = list(check.log_values)
            return payload, 0 if check.all_ok() else 2
    return payload, 0


def _series_from_config(entries: dict, truncation: int, mode: str) -> series.TruncatedPowerSeries:
    parsed = {}
    for key, value in entries.items():
        deg = int(key)
        parsed[deg] = Fraction(value) if mode == "exact" else complex(float(value))
    return series.TruncatedPowerSeries.from_dict(parsed, truncation, mode)


def _cmd_morse(cfg: dict) -> tuple[dict, int]:
    steps = int(cfg.get("steps", 2))
    truncation = int(cfg.get("truncation", max(2**steps + 2, 8)))
    remainder_entries = cfg.get("remainder", {"3": "1"})
    f0 = series.TruncatedPowerSeries.from_dict(
        {2: Fraction(1, 2), **{int(k): Fraction(v) for k, v in remainder_entries.items()}},
        truncation,
        "exact",
    )
    result = engines.morse_run(f0, steps)
    payload = report_payload(result.report)
    payload["functions"] = [[str(c) for c in f.coefficients] for f in result.functions]
    payload["generators"] = [[str(c) for c in g.coefficients] for g in result.generators]
    return payload, 0


def _cmd_circle(cfg: dict) -> tuple[dict, int]:
    result = engines.circle_run(
        float(cfg.get("eps", 0.1)),
        int(cfg.get("steps", 2)),
        int(cfg.get("cap", 16)),
        int(cfg.get("order", 2)),
        float(cfg.get("strip_width", 0.5)),
    )
    payload = report_payload(result.report)
    return payload, 0 if result.report.verdict != "diverged" else 2


def _cmd_newton(cfg: dict) -> tuple[dict, int]:
    truncation = int(cfg.get("truncation", 32))
    mode = cfg.get("mode", "exact")
    y = _series_from_config(cfg.get("y", {"1": "1"}), truncation, mode)
    x0 = _series_from_config(cfg.get("x0", {"0": "1"}), truncation, mode)
    steps = int(cfg.get("steps", 6))
    defect = int(cfg.get("defect", 0))
    radius = float(cfg.get("norm_radius", 0.5))
    if defect:
        result = engines.quasi_newton_run(y, x0, steps, defect, radius)
    else:
        result = engines.newton_invert(y, x0, steps, radius)
    payload = report_payload(result.report)
    payload["residual_valuations"] = list(result.residual_valuations)
    ok = result.report.verdict == "converged"
    return payload, 0 if ok else 2


def _cmd_drive(cfg: dict) -> tuple[dict, int]:
    steps = int(cfg.get("steps", 20))
    t = float(cfg.get("t", 1.0))
    x0 = engines.ScalarElement(float(cfg.get("x0", 0.25)))
    kind = cfg["kind"]
    if kind == "contraction":
        f = factors.factor_from_spec(cfg.get("factor", {"type": "perturbative"}), steps + 1)
        if not isinstance(f, factors.PerturbativeFactor):
            raise PreconditionError("contraction drive needs a perturbative factor")
        b = bruno.sequence_from_spec(cfg.get("b", {"kind": "constant", "value": 0.5}), steps + 1)
        result = engines.contraction_run(
            engines.scalar_contraction_family(f.gain),
            f,
            b,
            t,
            x0,
            steps,
            int(cfg.get("exponent_shift", 1)),
        )
    else:
        f = factors.factor_from_spec(cfg.get("factor", {"type": "kam"}), steps + 2)
        if not isinstance(f, factors.KamFactor):
            raise PreconditionError("kam drive needs a kam factor")
        result = engines.kam_run(
            engines.scalar_kam_family(f),
            f,
            float(cfg.get("eps", 0.5)),
            float(cfg.get("c_phase_exponent", 1.9)),
            t,
            x0,
            steps,
            int(cfg.get("exponent_shift", 1)),
        )
    payload = report_payload(result.report)
    return payload, 0 if result.report.verdict == "converged" else 2


_HANDLERS: dict[str, Callable[[dict], tuple[dict, int]]] = {
    "bruno": _cmd_bruno,
    "tame": _cmd_tame,
    "schedule": _cmd_schedule,
    "morse": _cmd_morse,
    "circle": _cmd_circle,
    "newton": _cmd_newton,
    "drive": _cmd_drive,
}


def report_payload(report: engines.IterationReport) -> dict:
    return {"report": engines.report_to_json(report)}


def emit_table(payload: dict, fmt: str, out_path: Path | None) -> str:
    """Serialize a payload; CSV uses the fixed report columns, JSON is lossless."""
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif fmt == "csv":
        if "report" in payload:
            report = engines.report_from_json(payload["report"])
            rows = engines.report_csv_rows(report)
        else:
            rows = [["key", "value"]] + [
                [k, json.dumps(v)] for k, v in sorted(payload.items()) if k != "schema"
            ]
        import io

        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out_path is not None:
        out_path.write_text(text, encoding="utf-8")
    return text


def run(config, out_path: Path | None = None, fmt: str = "json", seed: int | None = None) -> int:
    """Validate, dispatch, write the report, and map verdicts to exit codes."""
    if isinstance(config, ExperimentConfig):
        out_path = out_path or config.output
        fmt = config.fmt if fmt == "json" else fmt
        seed = seed if seed is not None else config.seed
        config = config.as_dict()
    problems = validate(config)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 1
    try:
        payload, code = _HANDLERS[config["command"]](config)
    except (PreconditionError, factors.ScheduleError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {"schema": SCHEMA, "command": config["command"], "seed": seed, **payload}
    try:
        text = emit_table(payload, fmt, out_path)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    if out_path is None:
        print(text)
    return code


def run_batch(configs: list, out_path: Path | None, fmt: str, seed: int | None) -> int:
    """Execute a list of configs independently; outputs get an index suffix.

    The batch exits with the worst per-run code, so one config error (1)
    outranks verdict failures (2) outranks clean runs (0).
    """
    order = {1: 2, 2: 1, 0: 0}
    worst = 0
    for i, cfg in enumerate(configs):
        target = None
        if out_path is not None:
            target = out_path.with_name(f"{out_path.stem}.{i}{out_path.suffix}")
        code = run(cfg, target, fmt, seed)
        if order[code] > order[worst]:
            worst = code
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scale-iter",
        description="Finite-horizon experiments for small-divisor iteration machinery.",
    )
    parser.add_argument("command", choices=sorted(_COMMAND_KEYS))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")
    parser.add_argument("--format", default="json", choices=["json", "csv"])
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else None
    if isinstance(config, list):
        return run_batch(config, out, args.format, args.seed)
    if isinstance(config, dict) and "command" not in config:
        config["command"] = args.command
    elif isinstance(config, dict) and config.get("command") != args.command:
        print(
            f"config error: config command {config.get('command')!r} does not match {args.command!r}",
            file=sys.stderr,
        )
        return 1
    return run(config, out, args.format, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
