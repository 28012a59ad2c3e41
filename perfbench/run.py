"""Layered benchmark for delgov: end-to-end and per-layer figures.

Run one workload, as the contract in ``BENCHMARK.json`` describes::

    python3 perfbench/run.py --workload gateway --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer ones. ``--out FILE`` also writes
the full result, with host facts and raw figures.

Run everything and print every metric by name and unit::

    python3 perfbench/run.py --all --seed 1 --seconds 30 --out results.json

Compare two result files, metric by metric and workload by workload::

    python3 perfbench/run.py --compare before.json after.json

See ``perfbench/README.md`` for the workloads, the metrics and which layer
figure should move which end-to-end figure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

LAYER_MODULES = ("types", "wire", "contracts", "errors", "routing", "simulate", "experiments", "stats")
SETUP_REPEATS = 7
WORK_BLOCK_NS = 20_000_000
# Calibrate for a quarter of the work block just run, and at least this long.
CALIBRATION_BLOCK_NS = 5_000_000
# The calibration unit's time on an idle reference host (2-vCPU x86-64,
# Python 3.11). Times are scaled by CALIBRATION_REF_NS / measured unit time.
CALIBRATION_REF_NS = 70_000.0

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names() -> list:
    """Per-layer metric names and units, in report order."""
    names = []
    for module, function in tracing.SPANNED:
        names += [(f"{module}.{function}.calls", "count"), (f"{module}.{function}.self_s", "s")]
    names += [(f"{m}.{f}.calls", "count") for m, f in tracing.COUNTED]
    names += [
        ("wire.encode.bytes", "bytes"),
        ("wire.decode.rejected", "count"),
        ("wire.decode.escaped", "count"),
        ("contracts.reject_ratio", "ratio"),
        ("routing.select.repeat_ratio", "ratio"),
        ("routing.no_eligible", "count"),
        ("failed_ratio", "ratio"),
        ("trace.overhead_pct", "%"),
    ]
    return names


# ---------------------------------------------------------------------------
# host facts


def host_facts() -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "delgov").glob("*.py")))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": _commit(),
        "src_delgov_lines": lines,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# calibration: host speed, measured next to the work


def _calibration_unit() -> int:
    table = {}
    for i in range(200):
        key = str(i)
        table[key] = (i, key)
    total = 0
    for key, (i, text) in table.items():
        if text.endswith("7"):
            total += i
    return total


def speed_factor(work_ns: int = 0) -> float:
    """CALIBRATION_REF_NS over the median calibration-unit time right now.

    Calibrates for a quarter of ``work_ns``, the work just timed, and at
    least CALIBRATION_BLOCK_NS. Multiplying a time measured next to this
    block by the factor gives the time at the reference host speed; that
    removes the drift of a shared host, whose speed changes by tens of
    percent from one minute to the next.
    """
    budget_ns = max(CALIBRATION_BLOCK_NS, work_ns // 4)
    clock = time.perf_counter_ns
    samples = []
    start = clock()
    end = start
    while end - start < budget_ns or len(samples) < 5:
        t0 = clock()
        _calibration_unit()
        end = clock()
        samples.append(end - t0)
    return CALIBRATION_REF_NS / statistics.median(samples)


# ---------------------------------------------------------------------------
# one workload run


def import_library():
    """Import delgov from this checkout afresh and return its modules."""
    for name in [n for n in sys.modules if n == "delgov" or n.startswith("delgov.")]:
        del sys.modules[name]
    package = importlib.import_module("delgov")
    for module in LAYER_MODULES:
        importlib.import_module(f"delgov.{module}")
    if Path(package.__file__).resolve().parent != (SRC / "delgov").resolve():
        raise ImportError(f"delgov imported from {package.__file__}, not from {SRC}")
    return package


class ScaledClock:
    """Times segments of work, each scaled by calibrations on both sides.

    ``lap()`` ends the current segment, calibrates, starts the next one and
    returns the factor applied to the segment that ended.
    """

    def __init__(self):
        self.scaled_ns = 0.0
        self.raw_ns = 0
        self.before = speed_factor()
        self.start = time.perf_counter_ns()

    def lap(self) -> float:
        elapsed = time.perf_counter_ns() - self.start
        after = speed_factor(elapsed)
        factor = (self.before + after) / 2
        self.scaled_ns += elapsed * factor
        self.raw_ns += elapsed
        self.before = after
        self.start = time.perf_counter_ns()
        return factor


def setup(workload_cls, seed: int):
    """Import, generate inputs and warm up, SETUP_REPEATS times.

    Returns the last workload object and the median set-up time, scaled
    and raw. Input generation calls ``lap`` every few hundred rounds, so
    calibration stays close to the work it scales.
    """
    times, raw = [], []
    work = None
    for _ in range(SETUP_REPEATS):
        work = None
        gc.collect()  # the previous import's modules and classes sit in cycles
        clock = ScaledClock()
        lib = import_library()
        clock.lap()
        work = workload_cls(lib, seed, clock.lap)
        clock.lap()
        work.warm_up()
        clock.lap()
        times.append(clock.scaled_ns / 1e9)
        raw.append(clock.raw_ns / 1e9)
    return work, statistics.median(times), statistics.median(raw)


def run_untraced(work, seconds: float) -> tuple[dict, dict]:
    """Closed-loop blocks of work, each scaled by calibrations on both sides.

    Runs the workload's planned number of operations, or until ``seconds``
    have passed when it plans none.
    """
    latencies = array("d")
    total_ops, blocks = 0, 0
    planned = work.planned_ops(seconds)
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    clock = ScaledClock()
    while (total_ops < planned) if planned is not None else (time.perf_counter_ns() < deadline):
        block = work.run_block(WORK_BLOCK_NS, None if planned is None else planned - total_ops)
        factor = clock.lap()
        blocks += 1
        latencies.extend(x * factor for x in block)
        total_ops += len(block) * work.ops_per_sample
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(latencies)
    cuts = statistics.quantiles(latencies, n=100, method="inclusive") if n > 1 else [latencies[0]] * 99
    metrics = {
        "throughput_ops_s": total_ops / (clock.scaled_ns / 1e9),
        "latency_p50_us": cuts[49] / 1000,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "latency_samples": n,
        "ops_per_latency_sample": work.ops_per_sample,
        # Tails are shown, not gated: they did not repeat within a tenth.
        "latency_p90_us": cuts[89] / 1000,
        "latency_p99_us": cuts[98] / 1000,
        "blocks": blocks,
        "raw_throughput_ops_s": total_ops / (clock.raw_ns / 1e9),
        "mean_speed_factor": clock.scaled_ns / clock.raw_ns,
    }
    return metrics, details


def run_traced(work, seconds: float, spans_path: Path) -> tuple[dict, dict, list]:
    tracer = tracing.Tracer(work.lib)
    problems = []
    overheads, selfs, calls_seen, counts_seen = [], [], None, None
    digests = set()
    planned = work.planned_reps(seconds)
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    pairs = 0
    while (pairs < planned) if planned is not None else (pairs < 2 or time.perf_counter_ns() < deadline):
        t0 = time.perf_counter_ns()
        digests.add(work.rep())
        untraced = time.perf_counter_ns() - t0
        untraced *= speed_factor(untraced)

        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter_ns()
            digests.add(work.rep(tracer))
            elapsed = time.perf_counter_ns() - t0
        finally:
            tracer.uninstall()
        factor = speed_factor(elapsed)
        overheads.append(100.0 * (elapsed * factor / untraced - 1.0))
        calls, self_s = tracer.layer_figures()
        selfs.append({k: v * factor for k, v in self_s.items()})
        counts = dict(tracer.counts)
        if calls_seen is None:
            calls_seen, counts_seen = calls, counts
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_spans(spans_path)
        elif (calls, counts) != (calls_seen, counts_seen):
            problems.append("call counts differ between traced repetitions")
        pairs += 1
    if len(digests) != 1:
        problems.append("outputs differ between traced and untraced runs")

    metrics = {}
    for module, function in tracing.SPANNED:
        name = f"{module}.{function}"
        metrics[name + ".calls"] = calls_seen.get(name, 0)
        metrics[name + ".self_s"] = statistics.median(s.get(name, 0.0) for s in selfs)
    for module, function in tracing.COUNTED:
        metrics[f"{module}.{function}.calls"] = calls_seen.get(f"{module}.{function}", 0)
    checks = calls_seen.get("contracts.check_result", 0)
    by_claims = counts_seen.get("routing.select.by_claims", 0)
    metrics.update({
        "wire.encode.bytes": counts_seen.get("wire.encode.bytes", 0),
        "wire.decode.rejected": counts_seen.get("wire.decode.rejected", 0),
        "wire.decode.escaped": counts_seen.get("wire.decode.escaped", 0),
        "contracts.reject_ratio": counts_seen.get("contracts.rejected", 0) / checks if checks else 0.0,
        "routing.select.repeat_ratio": counts_seen.get("routing.select.repeats", 0) / by_claims if by_claims else 0.0,
        "routing.no_eligible": counts_seen.get("routing.no_eligible", 0),
        "failed_ratio": work.failed / work.attempted,
        "trace.overhead_pct": statistics.median(overheads),
    })
    details = {"repetitions": pairs, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, details, problems


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work, setup_s, setup_raw = setup(workloads.WORKLOADS[workload], seed)
    problems = []
    if trace:
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        values, details, problems = run_traced(work, seconds, spans_path)
        units = dict(per_layer_names())
    else:
        values, details = run_untraced(work, seconds)
        values["setup_s"] = setup_s
        details["raw_setup_s"] = setup_raw
        units = dict(END_TO_END)
    problems += work.finish()
    details.update(work.details())
    details["problems"] = problems
    return {
        "correct": not problems,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "details": details,
    }


# ---------------------------------------------------------------------------
# --all and --compare


def run_all(seed: int, seconds: float, out: Path) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    merged = {"host": host_facts(), "seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for workload in ("gateway", "grid", "e3"):
        for trace in (0, 1):
            part = OUT_DIR / f"part-{workload}-{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace), "--out", str(part)]
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
            if done.returncode != 0:
                print(f"{workload} trace={trace}: exit code {done.returncode}", file=sys.stderr)
                status = 1
                continue
            entry = json.loads(part.read_text())["workloads"][workload]
            part.unlink()
            merged["workloads"].setdefault(workload, {"seed": seed}).update(entry)
    out.write_text(json.dumps(merged, indent=1) + "\n")
    print_table(merged)
    incorrect = [w for w, e in merged["workloads"].items() for k, r in e.items() if k.startswith("trace") and not r["correct"]]
    print(f"correct: {not incorrect and not status}" + (f" (incorrect: {', '.join(incorrect)})" if incorrect else ""))
    print(f"wrote {out}")
    return 1 if incorrect else status


def print_table(result: dict) -> None:
    print("host: " + json.dumps(result["host"], sort_keys=True))
    for workload, entry in result["workloads"].items():
        for trace in ("trace0", "trace1"):
            if trace not in entry:
                continue
            run = entry[trace]
            print(f"== {workload} ({'end-to-end' if trace == 'trace0' else 'per-layer'}): "
                  f"correct={run['correct']} attempted={run['attempted']} failed={run['failed']}")
            for name, metric in run["metrics"].items():
                print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
            details = run["details"]
            for tail in ("latency_p90_us", "latency_p99_us"):
                if tail in details:
                    print(f"  {tail:<42} {details[tail]:>16.6g} us (unresolved, "
                          f"{details['latency_samples']} samples)")
            shown = {k: v for k, v in details.items() if k not in ("problems", "latency_p90_us", "latency_p99_us")}
            print("  details: " + json.dumps(shown, sort_keys=True))
            for problem in details.get("problems", []):
                print(f"  problem: {problem}")


def compare(path_a: Path, path_b: Path) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    print(f"A: {path_a}  {json.dumps(a.get('host', {}), sort_keys=True)}")
    print(f"B: {path_b}  {json.dumps(b.get('host', {}), sort_keys=True)}")
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        entry_a, entry_b = a["workloads"].get(workload, {}), b["workloads"].get(workload, {})
        print(f"== {workload}")
        print(f"  {'metric':<42} {'A':>14} {'B':>14} {'change':>9}")
        for trace in ("trace0", "trace1"):
            metrics_a = entry_a.get(trace, {}).get("metrics", {})
            metrics_b = entry_b.get(trace, {}).get("metrics", {})
            for name in list(metrics_a) + [n for n in metrics_b if n not in metrics_a]:
                va = metrics_a.get(name, {}).get("value")
                vb = metrics_b.get(name, {}).get("value")
                unit = (metrics_a.get(name) or metrics_b.get(name))["unit"]
                if va is None or vb is None:
                    change = "missing"
                elif va == vb:
                    change = "0%"
                elif va == 0:
                    change = "new"
                else:
                    change = f"{100.0 * (vb - va) / abs(va):+.1f}%"
                fa = "-" if va is None else f"{va:.6g}"
                fb = "-" if vb is None else f"{vb:.6g}"
                print(f"  {name + ' (' + unit + ')':<42} {fa:>14} {fb:>14} {change:>9}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("gateway", "grid", "e3"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result to this file")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="compare two result files")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "delgov" / "__init__.py").is_file():
        print(f"perfbench: no delgov sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds, args.out or OUT_DIR / f"results-seed{args.seed}.json")
    if args.workload is None:
        parser.error("give --workload, --all or --compare")

    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    host = host_facts()
    if args.out:
        document = {"host": host, "workloads": {args.workload: {"seed": args.seed, f"trace{args.trace}": result}}}
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    print_table({"host": host, "workloads": {args.workload: {f"trace{args.trace}": result}}})
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
