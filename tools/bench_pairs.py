"""Alternating end-to-end benchmark runs of two checkouts, and the claim rule on them.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seed S --seconds T --pairs N

``PARENT`` and ``CHANGE`` are checkout roots, each holding
``perfbench/run.py`` and ``src/delgov``. Pair i runs ``perfbench/run.py
--workload W --seed S --seconds T --trace 0`` once in each checkout, the
parent first in even pairs and the change first in odd ones, so a host
that drifts moves both sides alike. Every run gets
``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPYCACHEPREFIX``, so it writes
no bytecode and reads the standard library's own caches, as a benchmark
run does. A checkout that holds a ``__pycache__`` under ``src/`` or
``perfbench/`` is refused (exit 1, naming the directory): a run would read
it, and both sides must import delgov and the benchmark from source, in
the same bytecode state.

Each pair's figures are printed as it ends. Then, per end-to-end metric of
the change's ``BENCHMARK.json``, each side's median and quartiles, the
pairs the change won (a tie counts for neither side), and whether the
claim rule holds: the change wins at least 9 of every 10 pairs, and its
median is better than the parent's by more than the parent's
interquartile range. The script exits 1, naming the run, as soon as a run
fails or is not ``correct``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def metrics_of(root: Path) -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` per end-to-end metric of ``root``'s ``BENCHMARK.json``."""
    contract = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"], m["better"]) for m in contract["end_to_end"]]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``root``: its last stdout line, parsed."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    done = subprocess.run(
        command, cwd=root, env=env, capture_output=True, text=True, encoding="utf-8", check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "problem": f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    if not result["correct"]:
        result["problem"] = f"not correct: {result['failed']} of {result['attempted']} failed"
    return result


def bytecode_caches(root: Path) -> list[Path]:
    """Every ``__pycache__`` under ``root``'s ``src/`` and ``perfbench/``, in path order."""
    return sorted(path for top in ("src", "perfbench") for path in (root / top).rglob("__pycache__"))


def wins_needed(pairs: int) -> int:
    """At least 9 of every 10 pairs."""
    return math.ceil(0.9 * pairs)


def summarize(metrics, parent: list[dict], change: list[dict]) -> list[str]:
    """One line per metric: the medians and quartiles, the change's wins and the claim rule.

    ``parent[i]`` and ``change[i]`` map each metric name to its value in pair i.
    """
    lines = []
    for name, unit, better in metrics:
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b, strict=True))
        a1, am, a3 = statistics.quantiles(a, n=4, method="inclusive")
        b1, bm, b3 = statistics.quantiles(b, n=4, method="inclusive")
        gain, iqr = sign * (bm - am), a3 - a1
        holds = wins >= wins_needed(len(a)) and gain > iqr
        lines.append(
            f"{name} ({unit}, {better} is better): parent median {am:.6g} (q1 {a1:.6g}, q3 {a3:.6g}), "
            f"change median {bm:.6g} (q1 {b1:.6g}, q3 {b3:.6g}), {(bm - am) / am:+.1%}; "
            f"change better in {wins} of {len(a)} pairs; claim rule "
            f"{'holds' if holds else 'does not hold'}: {wins} wins against {wins_needed(len(a))} needed, "
            f"median gain {gain:.6g} against parent IQR {iqr:.6g}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=("gateway", "grid", "e3"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {root} has no perfbench/run.py")
        caches = bytecode_caches(root)
        if caches:
            print(f"{side} checkout holds {caches[0]}: delete it, so both sides import from source")
            return 1
    metrics = metrics_of(roots["change"])

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(roots[side], args.workload, args.seed, args.seconds)
            if "problem" in result:
                print(f"pair {i + 1}, {side}: {result['problem']}")
                return 1
            runs[side].append({name: result["metrics"][name]["value"] for name, _, _ in metrics})
        print(
            f"pair {i + 1} ({order[0]} first): "
            + ", ".join(
                f"{name} {runs['parent'][-1][name]:.6g} -> {runs['change'][-1][name]:.6g}"
                for name, _, _ in metrics
            ),
            flush=True,
        )
    print(
        f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs, "
        "every run correct"
    )
    for line in summarize(metrics, runs["parent"], runs["change"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
