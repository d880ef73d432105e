"""scale-iter benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload morse-exact --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload scan-sweep --seed 3 --seconds 20 --trace 1
    python3 bench/run.py --workload newton-series --record-reference

One closed-loop client in one process drives ``scale_iter.cli.run``: each
config starts only after the previous one returned, with stdout captured in
memory so every payload is checked (see checks.py).  The run executes whole
blocks of its workload's config list (see workloads.py) until ``--seconds``
have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of blocks once plainly and once with the per-layer wrappers of
spans.py installed, and prints the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import compare_reference, invariants, known_answers, load_reference, reference_entry, save_reference
from spans import LAYERS, Tracer
from workloads import KNOWN_DEFECTS, MALFORMATIONS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRIVIAL_CONFIG = BENCH_DIR / "configs" / "trivial.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
# numpy's BLAS pool runs on one thread, here and in the set-up subprocesses.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "configs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("coeff_bits_max"):
        return "bits"
    if name.endswith("emit_bytes"):
        return "bytes"
    if name == "trace_overhead_ratio":
        return "ratio"
    return "count"


class Client:
    """Runs one config at a time through cli.run and checks what it printed."""

    def __init__(self, cli, reference: list[dict] | None):
        self.cli = cli
        self.reference = reference
        self.latencies: list[float] = []
        self.cells: list[str] = []  # cell label of each latency
        self.failures: list[tuple[str, str]] = []

    def call(self, config: dict):
        """(exit code or None, stdout, stderr, exception, seconds inside cli.run)."""
        out, err = io.StringIO(), io.StringIO()
        exc = None
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.run(config)  # looked up per call, so trace wrappers apply
            except Exception as caught:  # noqa: BLE001 - an escaping exception is a measured failure
                exc = caught
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), exc, elapsed

    def run_config(self, config: dict):
        """(exit code, parsed payload or None) for the known-answer checks."""
        code, text, _, exc, _ = self.call(copy.deepcopy(config))
        if exc is not None:
            raise exc
        return code, (json.loads(text) if text else None)

    def run_entry(self, index: int, entry: dict) -> None:
        code, text, err, exc, elapsed = self.call(copy.deepcopy(entry["config"]))
        self.latencies.append(elapsed)
        self.cells.append(entry["cell"])
        problem = self.check(index, entry, code, text, err, exc)
        if problem is not None:
            self.failures.append((entry["cell"], problem))

    def check(self, index, entry, code, text, err, exc) -> str | None:
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"
        payload = None
        if entry["expect"] == "error":
            if code != 1:
                return f"malformed config exited {code}, expected 1"
        else:
            if code not in (0, 2):
                return f"exit code {code}: {err.strip()[:160]}"
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as bad:
                return f"output is not JSON: {bad}"
            problem = invariants(entry["config"], payload)
            if problem is not None:
                return problem
        if self.reference is not None and index < len(self.reference):
            return compare_reference(code, payload, self.reference[index])
        return None


def run_blocks(client: Client, blocks: list[list[dict]], first: int, count: int | None,
               seconds: float, after_each=lambda: None) -> None:
    """Run whole blocks from ``first`` on; stop after ``count`` blocks or ``seconds``."""
    start = time.perf_counter()
    i = first
    while True:
        block = blocks[i % len(blocks)]
        base = (i % len(blocks)) * len(block)
        for pos, entry in enumerate(block):
            client.run_entry(base + pos, entry)
            after_each()
        i += 1
        if i - first == count or (count is None and time.perf_counter() - start >= seconds):
            return


def block_rate(workload, client: Client) -> float:
    """Configs per second of one block, each cell timed at its median latency.

    A block holds the same cells on every seed and commit, so this is the
    throughput of the workload's mix.  Taking each cell's median, rather than
    summing every latency, keeps a few configs that ran while the host was
    busy with other work from moving the figure.
    """
    by_cell: dict[str, list[float]] = {}
    for cell, elapsed in zip(client.cells, client.latencies):
        by_cell.setdefault(cell, []).append(elapsed)
    block_s = sum(cell.count * statistics.median(by_cell[cell.label]) for cell in workload.cells)
    return sum(cell.count for cell in workload.cells) / block_s


def measure_setup() -> tuple[list[float], list[str]]:
    """Wall time of fresh ``python -m scale_iter.cli`` processes on a trivial config."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    cmd = [sys.executable, "-m", "scale_iter.cli", "bruno", "--config", str(TRIVIAL_CONFIG)]
    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or '"scale-iter.report.v1"' not in proc.stdout:
            problems.append(f"set-up run exited {proc.returncode}: {proc.stderr.strip()[-160:]}")
    return times, problems


def probe_known_defects(client: Client, seed: int) -> tuple[list[str], list[str]]:
    """Run each known-defect malformation a few times outside the timed loop."""
    lines, problems = [], []
    rng = random.Random(f"known-defects:{seed}")
    for name, defect in KNOWN_DEFECTS.items():
        outcomes = []
        for _ in range(3):
            code, _, _, exc, _ = client.call(MALFORMATIONS[name](rng))
            outcomes.append(type(exc).__name__ if exc is not None else f"exit {code}")
        if any(o in ("exit 0", "exit 2") for o in outcomes):
            problems.append(f"malformed {name} config was accepted")
        state = "fixed" if all(o == "exit 1" for o in outcomes) else "still open"
        lines.append(f"known defect {name}: {defect}; outcomes {outcomes}; {state}")
    return lines, problems


def record_reference(client: Client, workload, blocks) -> int:
    entries = []
    for b, block in enumerate(blocks):
        for pos, entry in enumerate(block):
            code, text, err, exc, _ = client.call(copy.deepcopy(entry["config"]))
            problem = client.check(b * len(block) + pos, entry, code, text, err, exc)
            if problem is not None:
                print(f"refusing to record {entry['config']}: {problem}", file=sys.stderr)
                return 1
            payload = json.loads(text) if entry["expect"] == "ok" else None
            entries.append(reference_entry(b * len(block) + pos, code, payload))
    path = save_reference(workload.name, DEFAULT_SEED, entries)
    print(f"recorded {len(entries)} reference entries to {path.relative_to(ROOT)}")
    return 0


def traced(client: Client, workload, blocks, package):
    """Run ``trace_blocks`` blocks plainly, then traced; per-layer metrics."""
    count = workload.trace_blocks
    run_blocks(client, blocks, len(blocks) - 1, 1, 0.0)  # warm-up, so neither timed pass pays first-call costs
    warm = len(client.latencies)
    run_blocks(client, blocks, 0, count, 0.0)
    plain = sum(client.latencies[warm:])
    done = len(client.latencies)
    tracer = Tracer()
    tracer.install(package)
    try:
        run_blocks(client, blocks, 0, count, 0.0, tracer.fold)
    finally:
        tracer.uninstall()
    traced_s = sum(client.latencies[done:])
    metrics = tracer.metrics()
    metrics["trace_overhead_ratio"] = traced_s / plain
    total_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) or 1.0
    shares = ", ".join(f"{layer} {metrics[f'{layer}.self_s'] / total_self:.1%}" for layer in LAYERS)
    notes = [f"traced {done - warm} configs ({count} blocks) twice: {plain:.3f} s plain, {traced_s:.3f} s traced",
             f"self-time share by layer: {shares}"]
    return metrics, {name: per_layer_unit(name) for name in metrics}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"record the reference outputs of seed {DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)

    if not (SRC / "scale_iter" / "cli.py").is_file():
        print(f"error: the scale_iter sources are missing under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import scale_iter
    from scale_iter import cli

    workload = WORKLOADS[args.workload]
    blocks = workload.config_list(args.seed)
    if args.record_reference:
        return record_reference(Client(cli, None), workload, blocks)

    reference = load_reference(workload.name) if args.seed == DEFAULT_SEED else None
    client = Client(cli, reference)
    problems = [f"known answer: {f}" for f in known_answers(client.run_config)]
    notes = [f"workload {workload.name}, seed {args.seed}, "
             f"outputs checked against {'the recorded reference' if reference else 'invariants only'}"]
    if workload.name == "scan-sweep":
        lines, probe_problems = probe_known_defects(client, args.seed)
        notes += lines
        problems += probe_problems

    if args.trace:
        metrics, units, extra = traced(client, workload, blocks, scale_iter)
        notes += extra
    else:
        setup_times, setup_problems = measure_setup()
        problems += setup_problems
        run_blocks(client, blocks, 0, None, args.seconds)
        lat = client.latencies
        tail = statistics.quantiles(lat, n=100)[workload.tail_percentile - 1]
        metrics = {
            "configs_per_s": block_rate(workload, client),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": tail,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        notes.append(f"latency_tail_s is p{workload.tail_percentile} of {len(lat)} samples; "
                     f"{sum(x > tail for x in lat)} samples lie beyond it")
        notes.append(f"setup_s is the median of {SETUP_REPEATS} fresh processes")

    attempted, failed = len(client.latencies), len(client.failures)
    notes.append(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} configs)")
    for cell, problem in client.failures[:20]:
        notes.append(f"FAILED [{cell}] {problem}")
    notes += [f"PROBLEM {p}" for p in problems]
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
