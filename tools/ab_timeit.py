"""Time two ``delgov`` source trees against each other in one process.

    python tools/ab_timeit.py PARENT_SRC CHANGE_SRC [--rounds N]

Each ``*_SRC`` is a directory holding a ``delgov`` package, such as the
``src`` of two checkouts. Both are imported side by side. The script
first checks that the two trees give the same seeded results: the reprs
of ``run_sensitivity([s], 100)`` and ``run_routing_conditions_detailed(s,
100)`` for a few seeds. It exits 1 if they differ. It then warms both
trees and runs N timed rounds that alternate which tree goes first, and
prints, per experiment, each tree's median round time, the median of the
rounds' change/parent time ratios and the rounds the change won.

Rounds in one process share the interpreter, the allocator and the clock,
so the ratio is steadier than that of two benchmark runs; it measures the
library calls alone, not the benchmark's end-to-end metrics.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

CHECKED_SEEDS = range(4)
TASKS = 100
# one round: all 36 grid cells for each seed, or one e3 seed each
EXPERIMENTS = {
    "grid": (lambda e, seed: e.run_sensitivity([seed], TASKS), range(3)),
    "e3": (lambda e, seed: e.run_routing_conditions_detailed(seed, TASKS), range(40)),
}


def load(src: str):
    """Import ``delgov.experiments`` from ``src``, leaving ``sys.modules`` free for another tree."""
    if not (Path(src) / "delgov" / "__init__.py").is_file():
        raise SystemExit(f"{src}: no delgov package")
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if name.split(".")[0] == "delgov"}
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        from delgov import experiments
    finally:
        sys.path.pop(0)
        for name in [name for name in sys.modules if name.split(".")[0] == "delgov"]:
            del sys.modules[name]
        sys.modules.update(saved)
    return experiments


def outputs(experiments) -> list[str]:
    return [
        repr(run(experiments, seed))
        for seed in CHECKED_SEEDS
        for run, _ in EXPERIMENTS.values()
    ]


def time_round(experiments, run, seeds) -> float:
    """Seconds one tree takes over ``seeds``, with the collector off, as ``timeit`` runs."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for seed in seeds:
            run(experiments, seed)
        return time.perf_counter() - start
    finally:
        gc.enable()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    parent, change = load(args.parent_src), load(args.change_src)

    if outputs(parent) != outputs(change):
        print(f"seeded outputs differ for seeds {list(CHECKED_SEEDS)}")
        return 1
    print(f"seeded outputs identical for seeds {list(CHECKED_SEEDS)}")

    for name, (run, seeds) in EXPERIMENTS.items():
        times: dict[str, list[float]] = {"parent": [], "change": []}
        sides = [("parent", parent), ("change", change)]
        for side, experiments in sides:
            time_round(experiments, run, seeds)
        for i in range(args.rounds):
            for side, experiments in sides if i % 2 == 0 else sides[::-1]:
                times[side].append(time_round(experiments, run, seeds))
        pairs = list(zip(times["parent"], times["change"]))
        # the ratio within each round, so a host that slows mid-run moves both sides
        ratio = statistics.median(c / p for p, c in pairs)
        wins = sum(c < p for p, c in pairs)
        print(
            f"{name}: parent {statistics.median(times['parent']) * 1e3:.2f} ms, change "
            f"{statistics.median(times['change']) * 1e3:.2f} ms (median of {args.rounds} "
            f"rounds of {len(seeds)} seeds), median round ratio {ratio:.3f}, "
            f"change faster in {wins} of {args.rounds}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
