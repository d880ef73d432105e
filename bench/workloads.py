"""Seeded config lists for the four benchmark workloads.

A workload is a list of blocks.  Every block holds the same mix of size
classes (cells); only the random parameters inside a cell and the order of
the configs change with the seed.  A run always executes whole blocks, so
the mix of sizes behind each reported median and percentile is the same on
every seed and every commit.

Each entry is a dict with the config handed to ``scale_iter.cli.run`` under
``"config"``, the outcome the checks expect under ``"expect"`` (``"ok"``: exit
code 0 or 2 with a report; ``"error"``: exit code 1 and no traceback), and a
short cell label under ``"cell"``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Entry = dict
CellMaker = Callable[[random.Random], dict]


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


# ---------------------------------------------------------------------------
# morse-exact: exact Lie-exponential chains in the series layer
# ---------------------------------------------------------------------------


def _morse(steps: int) -> CellMaker:
    def make(rng: random.Random) -> dict:
        return {
            "command": "morse",
            "steps": steps,
            "truncation": 2**steps + rng.randint(2, 6),
            "remainder": {str(d): str(_small_rational(rng)) for d in (3, 4, 5)},
        }

    return make


# ---------------------------------------------------------------------------
# newton-series: dense exact and float products plus the triangular solve
# ---------------------------------------------------------------------------


def _newton(truncation: int, mode: str, defect: int = 0) -> CellMaker:
    def make(rng: random.Random) -> dict:
        y: dict[str, object] = {"1": "1" if mode == "exact" else 1.0}
        for d in (2, 3, 4):
            q = _small_rational(rng) / 4
            y[str(d)] = str(q) if mode == "exact" else float(q)
        cfg = {
            "command": "newton",
            "y": y,
            "truncation": truncation,
            "mode": mode,
            "steps": 8 if defect == 0 else 10,
        }
        if defect:
            cfg["defect"] = defect
        return cfg

    return make


# ---------------------------------------------------------------------------
# circle-harmonic: Fourier convolutions and strip norms
# ---------------------------------------------------------------------------


def _circle(cap: int, order: int) -> CellMaker:
    def make(rng: random.Random) -> dict:
        return {
            "command": "circle",
            "eps": round(rng.uniform(0.05, 0.3), 6),
            "steps": 6,
            "cap": cap,
            "order": order,
        }

    return make


# ---------------------------------------------------------------------------
# scan-sweep: small log-domain scans, CLI overhead, malformed configs
# ---------------------------------------------------------------------------


def _horizon(rng: random.Random) -> int:
    return rng.randint(30, 48)


def _bruno(rng: random.Random) -> dict:
    kind = rng.choice(("constant", "geometric", "phase-power"))
    if kind == "constant":
        seq = {"kind": "constant", "value": round(rng.uniform(0.05, 3.0), 6)}
    elif kind == "geometric":
        seq = {"kind": "geometric", "ratio": round(rng.uniform(0.2, 3.0), 6)}
    else:
        seq = {
            "kind": "phase-power",
            "scale": round(rng.uniform(0.1, 2.0), 6),
            "exponent": round(rng.uniform(1.5, 3.0), 6),
            "sign": rng.choice(("+", "-")),
        }
    return {"command": "bruno", "sequence": seq, "horizon": _horizon(rng)}


def _tame(rng: random.Random) -> dict:
    return {
        "command": "tame",
        "a": {"kind": "geometric", "ratio": round(rng.uniform(1.2, 4.0), 6)},
        "b": {"kind": "geometric", "ratio": round(rng.uniform(0.05, 0.6), 6)},
        "horizon": _horizon(rng),
    }


def _schedule(rng: random.Random) -> dict:
    return {
        "command": "schedule",
        "t": round(rng.uniform(0.5, 2.0), 6),
        "steps": _horizon(rng),
        "rho": {"kind": "constant", "value": round(rng.uniform(0.05, 0.45), 6)},
        "factor": {
            "type": "local",
            "C": round(rng.uniform(0.5, 2.0), 6),
            "alpha": round(rng.uniform(0.0, 2.0), 6),
            "beta": round(rng.uniform(0.0, 2.0), 6),
        },
    }


def _contraction(rng: random.Random) -> dict:
    return {
        "command": "drive",
        "kind": "contraction",
        "factor": {"type": "perturbative", "a": {"kind": "constant", "value": round(rng.uniform(1.0, 2.0), 6)}},
        "b": {"kind": "constant", "value": round(rng.uniform(0.3, 0.7), 6)},
        "x0": round(rng.uniform(0.05, 0.4), 6),
        "steps": _horizon(rng),
    }


def _kam(rng: random.Random) -> dict:
    eps = round(rng.uniform(0.2, 0.5), 6)
    return {
        "command": "drive",
        "kind": "kam",
        "factor": {"type": "kam"},
        "eps": eps,
        "c_phase_exponent": round(1.0 + eps + rng.uniform(0.2, 0.6), 6),
        "x0": round(rng.uniform(0.05, 0.4), 6),
        "steps": _horizon(rng),
    }


# Malformations that cli.run must turn into exit code 1.  Each one rewrites a
# valid config; none of them asks for an unbounded allocation.
def _unknown_key(rng: random.Random) -> dict:
    cfg = rng.choice((_bruno, _tame, _schedule, _contraction))(rng)
    cfg[f"zz_{rng.randint(0, 999)}"] = 1
    return cfg


def _out_of_range(rng: random.Random) -> dict:
    cfg = rng.choice((_bruno, _schedule, _contraction, _kam))(rng)
    if cfg["command"] == "bruno":
        cfg["horizon"] = rng.randint(-5, 1)
    elif cfg["command"] == "schedule":
        cfg["t"] = -round(rng.uniform(0.1, 2.0), 6)
    else:
        cfg["steps"] = rng.randint(-5, 0)
    return cfg


def _wrong_type(rng: random.Random) -> dict:
    cfg = rng.choice((_bruno, _schedule, _contraction))(rng)
    key = "horizon" if cfg["command"] == "bruno" else "steps"
    cfg[key] = rng.choice(("forty", [cfg[key]], {"n": cfg[key]}))
    return cfg


def _tame_short_sequences(rng: random.Random) -> dict:
    horizon = _horizon(rng)
    log_a, log_b = rng.uniform(0.2, 1.4), -rng.uniform(0.5, 3.0)
    short = rng.randint(2, horizon // 2)
    return {
        "command": "tame",
        "a": {"kind": "explicit", "log_terms": [round(n * log_a, 6) for n in range(short)]},
        "b": {"kind": "explicit", "log_terms": [round(n * log_b, 6) for n in range(short)]},
        "horizon": horizon,
    }


MALFORMATIONS: dict[str, CellMaker] = {
    "unknown-key": _unknown_key,
    "out-of-range": _out_of_range,
    "wrong-type": _wrong_type,
    "tame-short-sequences": _tame_short_sequences,
}

# Malformations that today escape cli.run as an exception instead of exit 1.
# They run once per scan-sweep run as a named probe, outside the timed loop,
# so the timed workload holds only operations that succeed.
KNOWN_DEFECTS = {
    "tame-short-sequences": "HorizonError escapes cli.run instead of exit code 1 (open in ROADMAP.md)",
}


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    label: str
    make: CellMaker
    count: int
    expect: str = "ok"


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    blocks: int  # blocks in the config list; a run cycles through them
    tail_percentile: int  # fixed per workload so that every run reports the same percentile
    trace_blocks: int  # whole blocks the traced run executes, twice

    def block(self, rng: random.Random) -> list[Entry]:
        entries = [
            {"config": cell.make(rng), "expect": cell.expect, "cell": cell.label}
            for cell in self.cells
            for _ in range(cell.count)
        ]
        rng.shuffle(entries)
        return entries

    def config_list(self, seed: int) -> list[list[Entry]]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.block(rng) for _ in range(self.blocks)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "morse-exact",
            (
                Cell("steps4", _morse(4), 6),
                Cell("steps5", _morse(5), 8),
                Cell("steps6", _morse(6), 4),
                Cell("steps7", _morse(7), 2),
            ),
            blocks=16,
            tail_percentile=80,
            trace_blocks=2,
        ),
        Workload(
            "newton-series",
            (
                Cell("float32", _newton(32, "float"), 2),
                Cell("quasi-float32", _newton(32, "float", 2), 1),
                Cell("float64", _newton(64, "float"), 2),
                Cell("quasi-float64", _newton(64, "float", 1), 1),
                Cell("exact32", _newton(32, "exact"), 5),
                Cell("quasi-exact32", _newton(32, "exact", 1), 1),
                Cell("exact48", _newton(48, "exact"), 1),
                Cell("float128", _newton(128, "float"), 1),
                Cell("quasi-exact48", _newton(48, "exact", 2), 2),
                Cell("exact64", _newton(64, "exact"), 5),
            ),
            blocks=8,
            tail_percentile=85,
            trace_blocks=1,
        ),
        Workload(
            "circle-harmonic",
            (
                Cell("cap512-o2", _circle(512, 2), 2),
                Cell("cap512-o3", _circle(512, 3), 1),
                Cell("cap1024-o2", _circle(1024, 2), 2),
                Cell("cap1024-o3", _circle(1024, 3), 3),
                Cell("cap2048-o2", _circle(2048, 2), 1),
                Cell("cap2048-o3", _circle(2048, 3), 1),
                Cell("cap4096-o2", _circle(4096, 2), 1),
                Cell("cap4096-o3", _circle(4096, 3), 2),
            ),
            blocks=24,
            tail_percentile=90,
            trace_blocks=4,
        ),
        Workload(
            "scan-sweep",
            (
                Cell("bruno", _bruno, 12),
                Cell("tame", _tame, 12),
                Cell("schedule", _schedule, 8),
                Cell("drive-contraction", _contraction, 6),
                Cell("drive-kam", _kam, 6),
                Cell("unknown-key", _unknown_key, 2, "error"),
                Cell("out-of-range", _out_of_range, 2, "error"),
                Cell("wrong-type", _wrong_type, 2, "error"),
            ),
            blocks=128,
            tail_percentile=99,
            trace_blocks=256,
        ),
    )
}
