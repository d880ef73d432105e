"""Command-line front end: parse experiment configs, dispatch, emit reports.

Usage: scale-iter <command> --config <file> [--out <path>] [--format json|csv]
[--seed N].  Configs are strict JSON objects, and this is the one module that
reads them: commands, sequence specs {"kind": ...} and factor specs
{"type": ...}, each with its own key set.  Each command parses its config
once into the sequences, factors and series its engine consumes; unknown keys,
wrong types, non-finite numbers, values out of range or above the resource
ceilings, and explicit sequences that end before the last index the engine
reads are config errors, found before anything runs.  Exit status: 0 on
verdict success, 2 on verdict failure (non-tame pair, divergence, missing
bound index), 1 on config or I/O errors.  A JSON report is one line with
sorted keys.  Each command imports the modules it runs when it is parsed, so
a bruno or tame run loads bruno alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from . import bruno

if TYPE_CHECKING:
    from . import engines

__all__ = ["main", "run", "run_batch", "validate", "emit_table"]

SCHEMA = "scale-iter.report.v1"

# The keys each sequence kind reads; the bruno command also takes them
# inline, in place of a "sequence" object.
_SEQUENCE_KEYS: dict[str, set[str]] = {
    "constant": {"kind", "value"},
    "geometric": {"kind", "ratio"},
    "phase-power": {"kind", "scale", "exponent", "sign"},
    "explicit": {"kind", "terms", "log_terms", "sign", "phases"},
}
_SEQUENCE_SHORTHAND_KEYS = set().union(*_SEQUENCE_KEYS.values())

_FACTOR_KEYS: dict[str, set[str]] = {
    "local": {"type", "C", "alpha", "beta"},
    "perturbative": {"type", "alpha", "beta", "a"},
    "kam": {"type", "k", "q", "l", "m", "a", "b"},
}

_DRIVE_KEYS = {"command", "seed", "kind", "factor", "t", "x0", "steps", "exponent_shift"}  # read by both kinds

_COMMAND_KEYS: dict[str, set[str]] = {
    "bruno": {"command", "seed", "sequence", "horizon", "tol"} | _SEQUENCE_SHORTHAND_KEYS,
    "tame": {"command", "seed", "a", "b", "horizon"},
    "schedule": {"command", "seed", "t", "rho", "steps", "exponent_shift", "factor"},
    "morse": {"command", "seed", "steps", "truncation", "remainder"},
    "circle": {"command", "seed", "eps", "steps", "cap", "order", "strip_width"},
    "newton": {"command", "seed", "y", "x0", "steps", "truncation", "mode", "defect", "norm_radius"},
    "contraction drive": _DRIVE_KEYS | {"b"},
    "kam drive": _DRIVE_KEYS | {"eps", "c_phase_exponent"},
}

_DEFAULT_HORIZON = 48

# Resource ceilings, so that no config asks for an unbounded allocation.
MAX_HORIZON = 1024  # horizon or steps of bruno, tame, schedule, circle, newton and drive
MAX_KAM_STEPS = 1023  # 2^steps must stay a finite float
MAX_TRUNCATION = 1024
MAX_MORSE_STEPS = 9  # keeps the default truncation 2^steps + 2 at most 514
MAX_CAP = 16384
MAX_ORDER = 64
MAX_DECIMAL_EXPONENT = sys.int_info.default_max_str_digits  # int() refuses a longer mantissa
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")

Command = Callable[[], tuple[dict, int]]


class ConfigError(Exception):
    """A config that does not parse into an engine call."""


def _keys(spec: dict, allowed: set[str], what: str) -> None:
    """Refuse the keys of spec that its reader does not read."""
    extra = set(spec) - allowed
    if extra:
        raise ConfigError(f"unknown keys for {what}: {sorted(extra, key=str)}")


def _number(cfg: dict, key: str, default=None, lo=None, hi=None, integer: bool = False):
    """cfg[key], or the default, as a finite int or float in [lo, hi].

    A key without a default is required.  Bools, strings, NaN and infinities
    are not numbers.
    """
    if key in cfg:
        value = cfg[key]
    elif default is None:
        raise ConfigError(f"{key} is required")
    else:
        value = default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite")
    if integer and int(value) != value:
        raise ConfigError(f"{key} must be an integer")
    value = int(value) if integer else float(value)
    if lo is not None and value < lo:
        raise ConfigError(f"{key} must be >= {lo}")
    if hi is not None and value > hi:
        raise ConfigError(f"{key} must be <= {hi}")
    return value


def _numbers(spec: dict, key: str) -> list[float]:
    values = spec.get(key)
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list of numbers")
    return [_number({key: v}, key) for v in values]


def _sign(spec: dict) -> int:
    sign = spec.get("sign", "+")
    if isinstance(sign, bool) or sign not in ("+", "-", 1, -1):
        raise ConfigError("sequence sign must be '+' or '-'")
    return -1 if sign in ("-", -1) else 1


def _sequence(spec, horizon: int) -> bruno.BrunoSequence:
    """The sequence a {"kind": ..., <its keys>} spec describes, materialized through horizon."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _SEQUENCE_KEYS:
        raise ConfigError(f"a sequence is an object with 'kind' one of {sorted(_SEQUENCE_KEYS)}")
    _keys(spec, _SEQUENCE_KEYS[kind], f"{kind!r} sequence")
    if kind == "constant":
        return bruno.BrunoSequence.constant(_number(spec, "value"), horizon)
    if kind == "geometric":
        return bruno.BrunoSequence.geometric(_number(spec, "ratio"), horizon)
    if kind == "phase-power":
        return bruno.BrunoSequence.phase_power(
            _number(spec, "scale", 1.0), _number(spec, "exponent"), _sign(spec), horizon
        )
    if sum(key in spec for key in ("terms", "log_terms", "phases")) != 1:
        raise ConfigError("an explicit sequence takes exactly one of 'terms', 'log_terms' or 'phases'")
    if "phases" in spec:
        return bruno.BrunoSequence.from_phases(_sign(spec), _numbers(spec, "phases"))
    if "sign" in spec:
        raise ConfigError("an explicit sequence takes 'sign' only with 'phases'")
    if "log_terms" in spec:
        return bruno.BrunoSequence.from_log_terms(_numbers(spec, "log_terms"))
    return bruno.BrunoSequence.from_terms(_numbers(spec, "terms"))


def _factor(spec, horizon: int):
    """The factor a {"type": ..., <its keys>} spec describes; gains are materialized through horizon."""
    from . import factors

    kind = spec.get("type") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _FACTOR_KEYS:
        raise ConfigError(f"a factor is an object with 'type' one of {sorted(_FACTOR_KEYS)}")
    _keys(spec, _FACTOR_KEYS[kind], f"{kind} factor")

    def gain(key: str) -> bruno.BrunoSequence:
        return _sequence(spec.get(key, {"kind": "constant", "value": 1.0}), horizon)

    if kind == "local":
        return factors.LocalFactor(_number(spec, "C", 1.0), _number(spec, "alpha", 0.0), _number(spec, "beta", 0.0))
    if kind == "perturbative":
        return factors.PerturbativeFactor(gain("a"), _number(spec, "alpha", 0.0), _number(spec, "beta", 0.0))
    return factors.KamFactor(gain("a"), gain("b"), *(_number(spec, key, 0.0) for key in "kqlm"))


def _reach(seq: bruno.BrunoSequence, name: str, last: int, horizon: int) -> bruno.BrunoSequence:
    """seq, if its terms reach index last, the last one the engine reads."""
    if seq.horizon < last:
        raise ConfigError(f"sequence {name!r} ends before index {last} of horizon {horizon}")
    return seq


def _coefficients(entries, key: str, mode: str) -> dict:
    """Degree: coefficient entries; exact values are rationals, float values finite.

    An exact decimal string may not carry an exponent past MAX_DECIMAL_EXPONENT,
    since Fraction computes 10**exponent.
    """
    if not isinstance(entries, dict):
        raise ConfigError(f"{key} must be an object of degree: coefficient entries")
    parsed = {}
    for deg, value in entries.items():
        name = f"{key} coefficient at degree {deg}"
        if isinstance(value, bool):
            raise ConfigError(f"{name} must be a number or a string")
        if mode == "float":
            parsed[int(deg)] = _number({name: float(value)}, name)
            continue
        exponent = _DECIMAL_EXPONENT.search(value) if isinstance(value, str) else None
        if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
            raise ConfigError(f"{name} has a decimal exponent past {MAX_DECIMAL_EXPONENT}")
        parsed[int(deg)] = Fraction(value)
    return parsed


# ---------------------------------------------------------------------------
# Per-command parses: each returns the engine call, which gives (payload, exit code)
# ---------------------------------------------------------------------------


def _parse_bruno(cfg: dict) -> Command:
    horizon = _number(cfg, "horizon", _DEFAULT_HORIZON, lo=2, hi=MAX_HORIZON, integer=True)
    tol = _number(cfg, "tol", 1e-12)
    if tol <= 0.0:
        raise ConfigError("tol must be positive")
    if "sequence" in cfg:
        spec = cfg["sequence"]
    else:
        spec = {k: cfg[k] for k in _SEQUENCE_SHORTHAND_KEYS if k in cfg}
        if "kind" not in spec:
            raise ConfigError("bruno command needs a 'sequence' object or inline 'kind'")
    seq = _reach(_sequence(spec, horizon), "sequence", horizon, horizon)

    def command() -> tuple[dict, int]:
        limit = bruno.a_pi(seq, tol)
        summable = seq.is_bruno(horizon)
        payload = {
            "a_pi": limit.limit,
            "log_a_pi": limit.log_limit,
            "converged": limit.converged,
            "is_bruno": summable,
            "log_transform": [bruno.log_bruno_transform(seq, n) for n in range(horizon + 1)],
        }
        return payload, 0 if (limit.converged and summable) else 2

    return command


def _parse_tame(cfg: dict) -> Command:
    horizon = _number(cfg, "horizon", 30, lo=1, hi=MAX_HORIZON, integer=True)
    pair = []
    # is_tame reads a up to index horizon - 1 and b up to index horizon
    for key, last in (("a", horizon - 1), ("b", horizon)):
        if key not in cfg:
            raise ConfigError(f"tame command needs sequence {key!r}")
        pair.append(_reach(_sequence(cfg[key], horizon + 1), key, last, horizon))

    def command() -> tuple[dict, int]:
        verdict = bruno.is_tame(*pair, horizon)
        payload = {
            "tame": verdict.tame,
            "N": verdict.N,
            "flags": list(verdict.flags),
            "violations": [{"n": n, "message": m} for n, m in verdict.violations],
        }
        return payload, 0 if verdict.tame else 2

    return command


def _parse_schedule(cfg: dict) -> Command:
    from . import factors

    t = _number(cfg, "t", 1.0, lo=1e-300)
    steps = _number(cfg, "steps", 10, lo=1, hi=MAX_HORIZON, integer=True)
    shift = _number(cfg, "exponent_shift", 1, lo=0, hi=1, integer=True)
    if "rho" not in cfg:
        raise ConfigError("schedule command needs a 'rho' sequence")
    # materialized well past the requested steps so the limit radius is tight;
    # schedule_build reads rho below index steps
    rho = _reach(_sequence(cfg["rho"], max(steps, _DEFAULT_HORIZON)), "rho", steps - 1, steps)
    for n in range(steps):
        if rho.log_term(n) >= -math.log(2.0) * (1.0 - 1e-12):
            raise ConfigError(f"rho term at {n} is >= 1/2; the schedule hypothesis requires rho < 1/2")
    factor = _factor(cfg["factor"], max(steps, 2)) if "factor" in cfg else None
    if factor is not None and not isinstance(factor, factors.LocalFactor):
        raise ConfigError("schedule checks its radii against a local factor only")

    def command() -> tuple[dict, int]:
        sched = factors.schedule_build(t, rho, steps, shift)
        payload = {
            "t": t,
            "radii": list(sched.radii),
            "log_radii": list(sched.log_radii),
            "s_inf": sched.s_inf,
            "exponent_shift": shift,
        }
        if factor is not None:
            check = factors.geometric_bound_check(factor, sched)
            payload["bound_flags"] = list(check.flags)
            payload["log_bounds"] = list(check.log_bounds)
            payload["log_values"] = list(check.log_values)
            return payload, 0 if check.all_ok() else 2
        return payload, 0

    return command


def _normal_form_exit(report: engines.IterationReport) -> int:
    """Exit code of a morse or circle report: 2 if it diverged, else 0 (undecided included)."""
    return 2 if report.verdict == "diverged" else 0


def _parse_morse(cfg: dict) -> Command:
    from . import engines, series

    steps = _number(cfg, "steps", 2, lo=0, hi=MAX_MORSE_STEPS, integer=True)
    truncation = _number(cfg, "truncation", max(2**steps + 2, 8), lo=2, hi=MAX_TRUNCATION, integer=True)
    if truncation < 2**steps + 2:
        raise ConfigError(f"truncation {truncation} too small for {steps} steps; need >= {2**steps + 2}")
    remainder = _coefficients(cfg.get("remainder", {"3": "1"}), "remainder", "exact")
    if any(deg < 3 for deg in remainder):
        raise ConfigError("remainder degrees must be >= 3: f is x^2/2 plus a remainder of valuation >= 3")
    f0 = series.TruncatedPowerSeries.from_dict({2: Fraction(1, 2), **remainder}, truncation, "exact")

    def command() -> tuple[dict, int]:
        result = engines.morse_run(f0, steps)
        payload = {"report": result.report}
        try:
            payload["functions"] = [[str(c) for c in f.coefficients] for f in result.functions]
            payload["generators"] = [[str(c) for c in g.coefficients] for g in result.generators]
        except ValueError as exc:  # str() refuses integers past sys.get_int_max_str_digits()
            raise ConfigError("a coefficient is longer than Python prints, lower `steps` or the remainder") from exc
        return payload, _normal_form_exit(result.report)

    return command


def _parse_circle(cfg: dict) -> Command:
    from . import engines

    eps = _number(cfg, "eps", 0.1, lo=0.0)
    if eps >= 1.0:
        raise ConfigError("eps must be < 1")
    steps = _number(cfg, "steps", 2, lo=1, hi=MAX_HORIZON, integer=True)
    cap = _number(cfg, "cap", 16, lo=2, hi=MAX_CAP, integer=True)
    order = _number(cfg, "order", 2, lo=1, hi=MAX_ORDER, integer=True)
    strip_width = _number(cfg, "strip_width", 0.5)
    if strip_width <= 0.0:
        raise ConfigError("strip_width must be positive")
    if cap < 2 ** (steps + 1):
        raise ConfigError(f"cap {cap} too small; need >= 2^(steps+1) = {2 ** (steps + 1)}")

    def command() -> tuple[dict, int]:
        result = engines.circle_run(eps, steps, cap, order, strip_width)
        return {"report": result.report}, _normal_form_exit(result.report)

    return command


def _parse_newton(cfg: dict) -> Command:
    from . import engines, series

    steps = _number(cfg, "steps", 6, lo=1, hi=MAX_HORIZON, integer=True)
    truncation = _number(cfg, "truncation", 32, lo=2, hi=MAX_TRUNCATION, integer=True)
    defect = _number(cfg, "defect", 0, lo=0, hi=truncation, integer=True)
    radius = _number(cfg, "norm_radius", 0.5, lo=1e-12)
    mode = cfg.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ConfigError("mode must be 'exact' or 'float'")
    y = _coefficients(cfg.get("y", {"1": "1"}), "y", mode)
    if any(deg < 1 for deg in y):
        raise ConfigError("y must vanish at the origin (no degree-0 term)")
    y = series.TruncatedPowerSeries.from_dict(y, truncation, mode)
    x0 = series.TruncatedPowerSeries.from_dict(_coefficients(cfg.get("x0", {"0": "1"}), "x0", mode), truncation, mode)
    if x0.coefficients[0] == 0:
        raise ConfigError("x0 must have a nonzero constant term")

    def command() -> tuple[dict, int]:
        result = engines.newton_invert(y, x0, steps, radius, defect)
        payload = {"report": result.report}
        payload["residual_valuations"] = list(result.residual_valuations)
        return payload, 0 if result.report.verdict == "converged" else 2

    return command


def _parse_drive(cfg: dict) -> Command:
    from . import engines, factors

    steps = _number(cfg, "steps", 20, lo=1, hi=MAX_HORIZON, integer=True)
    t = _number(cfg, "t", 1.0, lo=1e-300)
    x0 = engines.ScalarElement(_number(cfg, "x0", 0.25, lo=0.0))
    shift = _number(cfg, "exponent_shift", 1, lo=0, hi=1, integer=True)
    if cfg["kind"] == "contraction":
        b = _sequence(cfg.get("b", {"kind": "constant", "value": 0.5}), steps + 1)
        f = _factor(cfg.get("factor", {"type": "perturbative"}), steps + 1)
        if not isinstance(f, factors.PerturbativeFactor):
            raise ConfigError("contraction drive needs a perturbative factor")
        if b.sign != -1:
            raise ConfigError("decay sequence b must be negative-phase")
        # the schedule reads rho, derived from b, through index steps, and
        # rho_for_perturbative reads the gain at every index of b
        _reach(b, "b", steps, steps)
        _reach(f.gain, "factor.a", b.horizon, steps)

        def command() -> tuple[dict, int]:
            family = engines.scalar_contraction_family(f.gain)
            return _drive_payload(engines.contraction_run(family, f, b, t, x0, steps, shift))

    else:  # kam, the only other kind _parse admits
        eps = _number(cfg, "eps", 0.5, lo=1e-9)
        c_phase_exponent = _number(cfg, "c_phase_exponent", 1.9, lo=1.0)
        # the tameness check splits the horizon into halves and reads 2^steps
        if not 4 <= steps <= MAX_KAM_STEPS:
            raise ConfigError(f"kam drive steps must sit in [4, {MAX_KAM_STEPS}]")
        f = _factor(cfg.get("factor", {"type": "kam"}), steps + 2)
        if not isinstance(f, factors.KamFactor):
            raise ConfigError("kam drive needs a kam factor")
        if c_phase_exponent - 1.0 <= eps:
            raise ConfigError("c_phase_exponent must exceed 1 + eps")
        # the tameness check reads both gains through index steps
        _reach(f.quad_gain, "factor.a", steps, steps)
        _reach(f.lin_gain, "factor.b", steps, steps)

        def command() -> tuple[dict, int]:
            family = engines.scalar_kam_family(f)
            return _drive_payload(engines.kam_run(family, f, eps, c_phase_exponent, t, x0, steps, shift))

    return command


def _drive_payload(result: engines.DriveResult) -> tuple[dict, int]:
    return {"report": result.report}, 0 if result.report.verdict == "converged" else 2


_PARSERS: dict[str, Callable[[dict], Command]] = {
    "bruno": _parse_bruno,
    "tame": _parse_tame,
    "schedule": _parse_schedule,
    "morse": _parse_morse,
    "circle": _parse_circle,
    "newton": _parse_newton,
    "drive": _parse_drive,
}


def _parse(config) -> tuple[Command, int | None]:
    """The engine call a config asks for, and its seed; ConfigError when it does not parse."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    command = config.get("command")
    if not isinstance(command, str) or command not in _PARSERS:
        raise ConfigError(f"unknown command {command!r}; expected one of {sorted(_PARSERS)}")
    # a drive reads the keys of its kind
    what = f"{config.get('kind')} drive" if command == "drive" else command
    if what not in _COMMAND_KEYS:
        raise ConfigError("drive kind must be 'contraction' or 'kam'")
    _keys(config, _COMMAND_KEYS[what], what)
    try:
        seed = _number(config, "seed", integer=True) if "seed" in config else None
        return _PARSERS[command](config), seed
    except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
        raise ConfigError(str(exc)) from exc


def validate(config) -> list[str]:
    """Config errors decidable without running an engine.

    Empty exactly when the config parses into an engine call; run() can then
    still exit 1 on a precondition that only the computation decides.
    """
    try:
        _parse(config)
    except ConfigError as exc:
        return [str(exc)]
    return []


def emit_table(payload: dict, fmt: str, out_path: Path | None) -> str:
    """Serialize a payload whose "report" is an IterationReport.

    JSON is one line with sorted keys and no padding, which keeps json on its
    C encoder (pretty-print with python -m json.tool); CSV uses the fixed
    report columns.
    """
    if fmt == "json":
        if "report" in payload:
            from . import engines

            payload = {**payload, "report": engines.report_to_json(payload["report"])}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    elif fmt == "csv":
        if "report" in payload:
            from . import engines

            rows = engines.report_csv_rows(payload["report"])
        else:
            rows = [["key", "value"]] + [
                [k, json.dumps(v)] for k, v in sorted(payload.items()) if k != "schema"
            ]
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out_path is not None:
        out_path.write_text(text, encoding="utf-8")
    return text


def run(config, out_path: Path | None = None, fmt: str = "json", seed: int | None = None) -> int:
    """Parse, run the engine, write the report, and map verdicts to exit codes.

    The seed recorded in the report is the argument, or else the config's own.
    """
    try:
        command, config_seed = _parse(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        payload, code = command()
    except (ConfigError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seed = config_seed if seed is None else seed
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
    parser.add_argument("command", choices=sorted(_PARSERS))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")
    parser.add_argument("--format", default="json", choices=["json", "csv"])
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 decode errors
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    # a config, or each entry of a batch, without a command runs the one named here
    for entry in config if isinstance(config, list) else [config]:
        if isinstance(entry, dict) and entry.setdefault("command", args.command) != args.command:
            print(f"config error: config command {entry['command']!r} does not match {args.command!r}", file=sys.stderr)
            return 1
    out = Path(args.out) if args.out else None
    if isinstance(config, list):
        return run_batch(config, out, args.format, args.seed)
    return run(config, out, args.format, args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
