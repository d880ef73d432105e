"""Output checks: recorded reference, seed-independent invariants, known answers.

Every payload is split into its exact part (strings, integers, booleans,
None: verdicts, exact Morse coefficients and generators, Newton residual
valuations, tameness flags) and its float part.  The exact part must match
the reference bit for bit, through a SHA-256 digest.  Floats must match
within ``REL_TOL`` relative plus ``ABS_TOL`` absolute, so a rewrite that only
changes rounding (numpy, FFT) does not count as a failure.  Per-step bound
flags of a report are compared with the floats, not with the exact part,
because they are float comparisons that rounding can flip.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Floats are stored for the first FLOAT_ENTRIES configs of a reference list;
# exit codes, verdicts and exact digests are stored for every config.
FLOAT_ENTRIES = 96
_ROUNDING_KEYS = {"flag", "eventual_ok"}


def split_payload(payload) -> tuple[str, list[float]]:
    """(digest of the exact part, flat list of floats) in key order."""
    exact: list = []
    floats: list[float] = []

    def walk(node, key=None) -> None:
        if isinstance(node, dict):
            exact.append("{")
            for k in sorted(node):
                exact.append(k)
                walk(node[k], k)
            exact.append("}")
        elif isinstance(node, list):
            exact.append("[")
            for item in node:
                walk(item, key)
            exact.append("]")
        elif isinstance(node, float):
            exact.append("f")
            floats.append(node)
        elif key in _ROUNDING_KEYS and isinstance(node, bool):
            exact.append("f")
            floats.append(float(node))
        else:
            exact.append(node)

    walk(payload)
    blob = json.dumps(exact, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16], floats


def floats_match(got: list[float], want: list[float]) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} floats, reference has {len(want)}"
    for i, (a, b) in enumerate(zip(got, want)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        if abs(a - b) > REL_TOL * max(abs(a), abs(b)) + ABS_TOL:
            return f"float {i} is {a!r}, reference {b!r}"
    return None


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> list[dict] | None:
    path = reference_path(workload)
    if not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def save_reference(workload: str, seed: int, entries: list[dict]) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": seed, "rel_tol": REL_TOL, "abs_tol": ABS_TOL, "entries": entries}
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc, separators=(",", ":")).encode("utf-8"))
    return path


def reference_entry(index: int, code: int, payload: dict | None) -> dict:
    entry: dict = {"code": code}
    if payload is not None:
        digest, floats = split_payload(payload)
        entry["digest"] = digest
        entry["verdict"] = _verdict(payload)
        if index < FLOAT_ENTRIES:
            entry["floats"] = floats
    return entry


def _verdict(payload: dict):
    if "report" in payload:
        return payload["report"].get("verdict")
    for key in ("tame", "converged"):
        if key in payload:
            return payload[key]
    return None


def compare_reference(code: int, payload: dict | None, ref: dict) -> str | None:
    if code != ref["code"]:
        return f"exit code {code}, reference {ref['code']}"
    if payload is None:
        return None
    if _verdict(payload) != ref.get("verdict"):
        return f"verdict {_verdict(payload)!r}, reference {ref.get('verdict')!r}"
    digest, floats = split_payload(payload)
    if digest != ref["digest"]:
        return "exact fields differ from the reference"
    if "floats" in ref:
        return floats_match(floats, ref["floats"])
    return None


# ---------------------------------------------------------------------------
# Seed-independent invariants
# ---------------------------------------------------------------------------


def invariants(config: dict, payload: dict) -> str | None:
    """Checks that hold for any seed; None when the payload passes."""
    command = config["command"]
    if payload.get("schema") != "scale-iter.report.v1" or payload.get("command") != command:
        return "payload lacks the scale-iter.report.v1 schema"
    report = payload.get("report")
    if command in ("morse", "circle", "newton", "drive"):
        if not isinstance(report, dict) or report.get("schema") != "report.v1":
            return "payload lacks a report.v1 report"
    if command == "morse":
        D, steps = config["truncation"], config["steps"]
        if len(payload["functions"]) != steps + 1 or len(payload["generators"]) != steps:
            return "morse run returned the wrong number of steps"
        for f in payload["functions"]:
            if len(f) != D + 1 or f[2] != "1/2":
                return "morse function lost its x^2/2 part or its length"
        for rec in report["steps"]:
            n = rec["n"]
            if rec["extras"]["valuation"] < min(2 ** (n + 1) + 2, D + 1):
                return f"step {n} remainder valuation {rec['extras']['valuation']} below 2^{n + 1}+2"
    elif command == "newton" and config.get("mode") == "exact" and not config.get("defect"):
        D = config["truncation"]
        vals = payload["residual_valuations"]
        for v, w in zip(vals, vals[1:]):
            if w < min(2 * v - 1, D + 1):
                return f"residual valuations {vals} break v' >= 2v-1"
    elif command == "circle":
        if len(report["steps"]) != config["steps"]:
            return "circle run returned the wrong number of steps"
    return None


# ---------------------------------------------------------------------------
# Known answers that do not come from the recorded output
# ---------------------------------------------------------------------------


def known_answers(run_config) -> list[str]:
    """README quick-start values and the exact Newton valuation ladder.

    ``run_config(config) -> (exit code, payload)`` runs one config through
    ``cli.run``.  Returns the failed checks by name.
    """
    from scale_iter import BrunoSequence, quadratic_orbit

    failures = []
    code, payload = run_config({"command": "morse", "steps": 1, "truncation": 10, "remainder": {"3": "1"}})
    if code != 0 or payload["functions"][1][4] != "-3/2":
        failures.append("morse step-1 degree-4 coefficient is not -3/2")
    a = BrunoSequence.constant(2.0, 48)
    if quadratic_orbit(a, 0.49, 30).verdict != "converged-to-zero":
        failures.append("quadratic_orbit(a=2, u0=0.49) did not converge to zero")
    if quadratic_orbit(a, 0.51, 30).verdict != "diverged":
        failures.append("quadratic_orbit(a=2, u0=0.51) did not diverge")
    code, payload = run_config(
        {"command": "newton", "y": {"1": "1", "2": "1/10"}, "truncation": 64, "mode": "exact", "steps": 8}
    )
    if code != 0 or payload["residual_valuations"] != [2, 3, 5, 9, 17, 33, 65]:
        failures.append("exact Newton valuations for y = z + z^2/10 at D=64 are not [2, 3, 5, 9, 17, 33, 65]")
    return failures
