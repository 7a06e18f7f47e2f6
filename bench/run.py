"""Benchmark for ramseykit: times one workload in this process.

    python3 bench/run.py --workload {construct,search,cli} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from the `src/` directory next
to this one.  The run repeats the workload's fixed operation list in whole
rounds until `--seconds` would be exceeded (at least one round), after one
untimed warm-up operation.  Outputs of the first round are checked against
independent computations (checks.py); every later round must reproduce
them exactly.  Set-up time is probed in fresh interpreters before,
between and after the rounds.  The process and its probes run numpy's
BLAS on one thread.

The last line of standard output is one JSON object:
  {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
op_s_p50, peak_rss_mb).  With --trace 1 untraced and traced rounds
alternate, and the metrics are the per-layer ones from tracing.py, the
traced round time and its overhead over the untraced rounds, the import
times from `python -X importtime` and the source line count.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # before the rounds, as many after them, one between
IMPORT_PROBES = 5
IMPORTED = ("ramseykit", "numpy", "mpmath")


@dataclass(frozen=True)
class Raised:
    """Stands in for the output of an operation that raised."""
    error: str


def probe(*flags: str) -> tuple[float, str]:
    """Seconds for a fresh interpreter to import ramseykit.cli, and its
    standard error."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import ramseykit.cli"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - start, proc.stderr


def import_seconds() -> dict[str, float]:
    """Cumulative import time of each package, from -X importtime; 0 for a
    package the program no longer imports."""
    samples = defaultdict(list)
    for _ in range(IMPORT_PROBES):
        cumulative = {}
        for line in probe("-X", "importtime")[1].splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        for name in IMPORTED:
            samples[f"import.{name}_s"].append(cumulative.get(name, 0) / 1e6)
    return {name: statistics.median(v) for name, v in samples.items()}


def source_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((SRC / "ramseykit").rglob("*.py")))


def run_round(ops) -> tuple[list, list[float]]:
    outputs, times = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # noqa: BLE001 - a fault is an output
            out = Raised(f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - start)
        outputs.append(out)
    return outputs, times


def verdict(op, output) -> tuple[str, str | None]:
    """("ok" | "failed" | "wrong", reason) for one first-round output."""
    if isinstance(output, Raised):
        return "wrong", f"raised {output.error}"
    try:
        reason = op.check(output)
    except checks.CheckFailed as exc:
        return "wrong", str(exc)
    except Exception as exc:  # noqa: BLE001 - a malformed output is wrong
        return "wrong", f"check raised {type(exc).__name__}: {exc}"
    return ("failed", reason) if reason else ("ok", None)


@dataclass
class Rounds:
    count: int = 0
    first: list | None = None  # outputs of the first round
    mismatches: dict = field(default_factory=lambda: defaultdict(int))
    walls: list = field(default_factory=list)  # untraced round times
    op_times: list = field(default_factory=list)  # untraced operation times
    traced_walls: list = field(default_factory=list)
    layers: list = field(default_factory=list)  # tracer snapshot per round


def measure(ops, seconds: float, tracer, between) -> Rounds:
    """Whole rounds while the next one is predicted to end within
    `seconds`, calling `between()` after each; with a tracer, untraced and
    traced rounds alternate."""
    done = Rounds()
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        traced = tracer is not None and done.count % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            outputs, times = run_round(ops)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            done.traced_walls.append(sum(times))
            done.layers.append(tracer.snapshot())
        else:
            done.walls.append(sum(times))
            done.op_times.extend(times)
        if done.first is None:
            done.first = outputs
        for i, (a, b) in enumerate(zip(done.first, outputs)):
            done.mismatches[i] += a != b
        done.count += 1
        between()
        now = time.perf_counter()
        if (now - started) + (now - round_start) > seconds and \
                done.count >= (2 if tracer else 1):
            return done


def per_layer(done: Rounds, imports: dict) -> dict:
    metrics = {}
    for name in done.layers[0]:
        values = [x[name] for x in done.layers]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
        else:  # a count stays a whole number
            metrics[name] = (statistics.median_low(values), "count")
    for prefix in ("colouring", "extremal"):
        nodes, secs = f"{prefix}.nodes", f"{prefix}.search_s"
        if nodes not in metrics or secs not in metrics:
            continue  # a traced function is missing; see Tracer.missing
        rates = [x[nodes] / x[secs] if x[secs] else 0.0 for x in done.layers]
        metrics[f"{prefix}.nodes_per_s"] = (statistics.median(rates), "1/s")
    traced_wall = statistics.median(done.traced_walls)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(done.walls),
                                   "s")
    for name, value in imports.items():
        metrics[name] = (value, "s")
    metrics["src.lines"] = (source_lines(), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("construct", "search", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "ramseykit" / "__init__.py",
                           ROOT / "schemas" / "record-v1.json",
                           ROOT / "schemas" / "output-v1.json")
               if not p.is_file()]
    if missing:
        print(f"bench: program not found: {missing[0]}", file=sys.stderr)
        return 2
    # one thread: numpy's BLAS would otherwise start a pool as wide as the
    # machine at import, in the workload and in every set-up probe, and
    # that start-up competes with whatever else runs on the machine
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import ramseykit
    import workloads

    if Path(ramseykit.__file__).resolve().parent != SRC / "ramseykit":
        print(f"bench: imported {ramseykit.__file__}, not the program in "
              f"{SRC}", file=sys.stderr)
        return 2

    # the in-process import above compiled the sources for the probes;
    # set-up is probed before, between and after the rounds, so that its
    # median spans the run rather than one moment of a shared machine
    setup = []
    if args.trace:
        imports = import_seconds()
    else:
        setup += [probe()[0] for _ in range(SETUP_PROBES)]

    def between():
        if not args.trace:
            setup.append(probe()[0])

    (HERE / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=HERE / "out"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.ops
        run_round([workload.warmup])
        tracer = tracing.Tracer() if args.trace else None
        done = measure(ops, args.seconds, tracer, between)
        for function in sorted(tracer.missing if tracer else ()):
            print(f"bench: not traced, the program has no {function}; its "
                  f"layer's metrics are left out", file=sys.stderr)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            setup += [probe()[0] for _ in range(SETUP_PROBES)]
        verdicts = [verdict(op, out) for op, out in zip(ops, done.first)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = 0
    correct = True
    for i, (op, (status, reason)) in enumerate(zip(ops, verdicts)):
        if status != "ok":
            print(f"bench: {op.name}: {status}: {reason}", file=sys.stderr)
            failed += done.count
        elif done.mismatches[i]:
            print(f"bench: {op.name}: output changed between rounds",
                  file=sys.stderr)
            failed += done.mismatches[i]
        correct &= status != "wrong" and not done.mismatches[i]

    if args.trace:
        metrics = per_layer(done, imports)
    else:
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "wall_s": (statistics.median(done.walls), "s"),
                   "op_s_p50": (statistics.median(done.op_times), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    print(json.dumps({
        "correct": correct,
        "attempted": done.count * len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
