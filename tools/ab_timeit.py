"""Time two ``delgov`` source trees against each other in one process.

    python tools/ab_timeit.py PARENT_SRC CHANGE_SRC [--rounds N]

Each ``*_SRC`` is a directory holding a ``delgov`` package, such as the
``src`` of two checkouts. Both are imported side by side, and the parent
a second time as an A/A control. The script first checks that the two
trees give the same seeded results: the reprs of ``run_sensitivity([s],
100)`` and ``run_routing_conditions_detailed(s, 100)`` for a few seeds. It
then checks each layer row: both trees must have the layer, and the reprs
of their first calls must be equal. It exits 1, naming what differs, if
either check fails.

The rows are the two experiments and these layers, each tree building
its inputs from its own ``experiments.canonical_*``:

- ``decode_message`` on the encoded canonical submit (with its contract)
  and result, each plain and with one ``\\n`` in its text, and on the
  result with a ``Provenance`` (lineage and evidence refs), the shape of
  every ``gateway`` result and the one that holds lists of strings;
- ``encode_message`` of the canonical submit, of the result and of the
  result with provenance, and ``canonical_bytes`` of the submit's wire
  object;
- ``parse_timestamp`` and ``format_timestamp`` of the result's
  ``completed_at``;
- ``check_result`` of the canonical contract on the result as it is (the
  accepted path) and with 8,200 tokens (the breach path), received at
  ``experiments.CANONICAL_RECEIVED_AT``, and ``apply_policy`` of the
  accepted outcome, the path ``delgov bench`` times;
- by_claims ``select`` over a fixed 50-record pool of dated claims, with a
  48 h window at a fixed clock;
- ``DelegateRecord`` of 20 delegates with one self-reported claim each,
  the one-claim record build: what ``experiments._per_size`` pays per
  delegate of a new pool size and ``_run_conditions`` per holder of the
  top claim; ``records_for_pool`` pays it with a second claim to index;
- ``build_pool_with_metadata`` of the grid's 36 configurations, built
  from ``experiments.GRID_*``, each drawn on from a ``Random`` of its own;
- ``simulate._normals`` of 100 tasks, drawn on from one ``Random(0)``, and
  ``execute_tasks`` of 100 fixed true qualities and normals;
- ``experiments._run_conditions`` of one grid cell-seed: 100 tasks per
  condition over the claims ``simulate._draw`` draws for ``PoolConfig(10,
  0.3, (0.25, 0.35))`` from ``Random(0)``, with fixed stream seeds in the
  grid's shape, one noise stream for every condition.

It then warms every tree and runs N timed rounds. A round times each row
once on each of the three trees, rotating which tree goes first. Per row
it prints the quartiles of the rounds' change/parent time ratios, the
rounds the change won and each tree's median time per call, then the A/A
row: the same ratios of the parent's second copy against the parent.

Rounds in one process share the interpreter, the allocator and the clock,
so the ratio is steadier than that of two benchmark runs; it measures the
library calls alone, not the benchmark's end-to-end metrics. A change
ratio inside the A/A quartiles is noise.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import statistics
import sys
import time
from datetime import datetime, timedelta, timezone
from functools import partial
from pathlib import Path
from random import Random

CHECKED_SEEDS = range(4)
TASKS = 100
# one round: all 36 grid cells for each seed, or one e3 seed each
EXPERIMENTS = {
    "grid": (lambda e, seed: e.run_sensitivity([seed], TASKS), range(3)),
    "e3": (lambda e, seed: e.run_routing_conditions_detailed(seed, TASKS), range(40)),
}
# calls of a layer per round
CALLS = 500
POOL_SIZE = 50
CLOCK = datetime(2026, 3, 1, tzinfo=timezone.utc)
# the canonical result's token count on each path through the canonical contract's 6,000 budget
TOKENS_USED = {"accepted": 5400, "breach": 8200}


def _message(delgov, kind: str):
    e, types = delgov.experiments, delgov.types
    if kind == "submit":
        return e.canonical_submit(True)
    if kind == "result":
        return e.canonical_result()
    provenance = types.Provenance(
        types.VerificationStatus.TOOL_VERIFIED, ("ev-000417",), ("gateway", "agent-07", "agent-42")
    )
    return dataclasses.replace(e.canonical_result(), provenance=provenance)


def _decode(kind: str, text: str):
    def build(delgov):
        wire, msg = delgov.wire, _message(delgov, kind)
        field = "payload" if kind == "submit" else "output"
        data = wire.encode_message(dataclasses.replace(msg, **{field: getattr(msg, field) + text}))
        return lambda: wire.decode_message(data)

    return build


def _encode(kind: str):
    def build(delgov):
        wire, msg = delgov.wire, _message(delgov, kind)
        return lambda: wire.encode_message(msg)

    return build


def _format_timestamp(delgov):
    wire, moment = delgov.wire, delgov.experiments.canonical_result().completed_at
    return lambda: wire.format_timestamp(moment)


def _parse_timestamp(delgov):
    wire = delgov.wire
    text = wire.format_timestamp(delgov.experiments.canonical_result().completed_at)
    return lambda: wire.parse_timestamp(text, "completed_at")


def _canonical_bytes(delgov):
    wire = delgov.wire
    obj = wire.to_wire(delgov.experiments.canonical_submit(True))
    return lambda: wire.canonical_bytes(obj)


def _contract_args(e, path: str):
    return e.canonical_contract(), e.canonical_result(TOKENS_USED[path]), e.CANONICAL_RECEIVED_AT


def _check(path: str):
    def build(delgov):
        check, args = delgov.contracts.check_result, _contract_args(delgov.experiments, path)
        return lambda: check(*args)

    return build


def _apply_policy(delgov):
    contracts = delgov.contracts
    contract, result, received_at = _contract_args(delgov.experiments, "accepted")
    outcome = contracts.check_result(contract, result, received_at)
    return lambda: contracts.apply_policy(outcome, result)


def _grid_pools(delgov):
    e, simulate = delgov.experiments, delgov.simulate
    configs = [
        simulate.PoolConfig(size, fraction, inflation)
        for fraction in e.GRID_FRACTIONS
        for _, inflation in e.GRID_INFLATION
        for size in e.GRID_POOL_SIZES
    ]
    pairs = [(config, Random(i)) for i, config in enumerate(configs)]
    build = simulate.build_pool_with_metadata
    return lambda: [build(config, rng) for config, rng in pairs]


def _normals(delgov):
    normals, rng = delgov.simulate._normals, Random(0)
    return lambda: normals(rng, TASKS)


def _execute_tasks(delgov):
    simulate, rng = delgov.simulate, Random(0)
    q_trues = [round(rng.uniform(0.3, 0.99), 3) for _ in range(TASKS)]
    normals = simulate._normals(rng, TASKS)
    return lambda: simulate.execute_tasks(q_trues, normals)


def _cell_streams(condition: str) -> tuple[str, str]:
    # the grid's shape: a selection stream per condition, one noise stream for all
    return f"cell:select:{condition}", "cell:noise"


def _grid_cell(delgov):
    simulate = delgov.simulate
    claims, _ = simulate._draw(simulate.PoolConfig(10, 0.3, (0.25, 0.35)), Random(0))
    run = delgov.experiments._run_conditions
    return lambda: run(claims, _cell_streams, TASKS)


def _select(delgov):
    routing, types = delgov.routing, delgov.types
    rng, levels = Random(0), list(types.ClaimType)
    pool = []
    for i in range(POOL_SIZE):
        held = [level for level in levels if rng.random() < 0.5] or [rng.choice(levels)]
        claims = [
            types.QualityClaim(
                "summarize", round(rng.uniform(0.3, 0.99), 3), level, "issuer-0",
                CLOCK - timedelta(seconds=rng.randrange(72 * 3600)),
            )
            for level in held
        ]
        pool.append(routing.DelegateRecord(f"d{i:02d}", tuple(claims)))
    policy = routing.RoutingPolicy.by_claims(
        "summarize", types.ClaimType.ISSUER_ATTESTED, timedelta(hours=48)
    )
    rng = Random(0)
    return lambda: routing.select(pool, policy, rng, CLOCK)


def _single_claim_records(delegov):
    types, record = delegov.types, delegov.routing.DelegateRecord
    claims = [
        (f"d{i:02d}", (types.QualityClaim("general", 0.45 + i / 40, types.ClaimType.SELF_CLAIMED),))
        for i in range(20)
    ]
    return lambda: [record(delegate_id, held) for delegate_id, held in claims]


_SUBMIT = ("experiments.canonical_submit", "wire.encode_message", "wire.decode_message")
_RESULT = ("experiments.canonical_result", "wire.encode_message", "wire.decode_message")
_PROVENANCE = ("types.Provenance", "types.VerificationStatus")
_TIMESTAMP = ("experiments.canonical_result", "wire.format_timestamp")
_CHECK = (
    "experiments.canonical_contract", "experiments.canonical_result",
    "experiments.CANONICAL_RECEIVED_AT", "contracts.check_result",
)
_ROUTING = (
    "types.QualityClaim", "types.ClaimType", "routing.DelegateRecord", "routing.RoutingPolicy", "routing.select"
)
# row -> (the entry points its build calls, as module.name, and the build, which takes a
# tree and gives the call the row times)
LAYERS = {
    "decode_message submit": (_SUBMIT, _decode("submit", "")),
    "decode_message submit \\n": (_SUBMIT, _decode("submit", "\n")),
    "decode_message result": (_RESULT, _decode("result", "")),
    "decode_message result \\n": (_RESULT, _decode("result", "\n")),
    "decode_message result provenance": ((*_RESULT, *_PROVENANCE), _decode("provenance", "")),
    "encode_message submit": (_SUBMIT[:2], _encode("submit")),
    "encode_message result": (_RESULT[:2], _encode("result")),
    "encode_message result provenance": ((*_RESULT[:2], *_PROVENANCE), _encode("provenance")),
    "canonical_bytes submit": (
        ("experiments.canonical_submit", "wire.to_wire", "wire.canonical_bytes"), _canonical_bytes
    ),
    "parse_timestamp completed_at": ((*_TIMESTAMP, "wire.parse_timestamp"), _parse_timestamp),
    "format_timestamp completed_at": (_TIMESTAMP, _format_timestamp),
    "check_result accepted": (_CHECK, _check("accepted")),
    "check_result breach": (_CHECK, _check("breach")),
    "apply_policy accepted": ((*_CHECK, "contracts.apply_policy"), _apply_policy),
    "select 50 records": (_ROUTING, _select),
    "DelegateRecord 20 single claims": (
        ("types.QualityClaim", "types.ClaimType", "routing.DelegateRecord"),
        _single_claim_records,
    ),
    "build_pool_with_metadata grid configs": (
        (
            "experiments.GRID_FRACTIONS", "experiments.GRID_INFLATION", "experiments.GRID_POOL_SIZES",
            "simulate.PoolConfig", "simulate.build_pool_with_metadata",
        ),
        _grid_pools,
    ),
    "_normals 100 tasks": (("simulate._normals",), _normals),
    "execute_tasks 100 tasks": (("simulate._normals", "simulate.execute_tasks"), _execute_tasks),
    "_run_conditions grid cell": (
        ("simulate.PoolConfig", "simulate._draw", "experiments._run_conditions"), _grid_cell
    ),
}


def _has(delgov, entry: str) -> bool:
    module, name = entry.split(".")
    return hasattr(getattr(delgov, module, None), name)


def load(src: str):
    """Import the ``delgov`` package of ``src``, leaving ``sys.modules`` free for another tree.

    ``delgov.experiments`` is imported before the unload, so every module and
    field table is built while ``sys.modules`` still holds this tree:
    ``types._fields`` resolves annotations through it on first use.
    """
    if not (Path(src) / "delgov" / "__init__.py").is_file():
        raise SystemExit(f"{src}: no delgov package")
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if name.split(".")[0] == "delgov"}
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        import delgov.experiments

        package = sys.modules["delgov"]
    finally:
        sys.path.pop(0)
        for name in [name for name in sys.modules if name.split(".")[0] == "delgov"]:
            del sys.modules[name]
        sys.modules.update(saved)
    return package


def outputs(experiments) -> list[str]:
    return [
        repr(run(experiments, seed))
        for seed in CHECKED_SEEDS
        for run, _ in EXPERIMENTS.values()
    ]


def time_round(batch, calls: int) -> float:
    """Seconds per call of one ``batch`` of ``calls`` calls, with the collector off, as ``timeit`` runs."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        batch()
        return (time.perf_counter() - start) / calls
    finally:
        gc.enable()


def _run_seeds(run, experiments, seeds) -> None:
    for seed in seeds:
        run(experiments, seed)


def _repeated(call):
    def batch() -> None:
        for _ in range(CALLS):
            call()

    return batch


def _per_call(seconds: float) -> str:
    return f"{seconds * 1e3:.2f} ms" if seconds >= 1e-3 else f"{seconds * 1e6:.2f} µs"


def _ratios(base: list[float], other: list[float]) -> str:
    """The quartiles of the per-round other/base ratios, and the rounds ``other`` won."""
    # the ratio within each round, so a host that slows mid-run moves both sides
    ratios = [o / b for b, o in zip(base, other)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    wins = sum(o < b for b, o in zip(base, other))
    return f"median {median:.3f} (q1 {q1:.3f}, q3 {q3:.3f}), faster in {wins} of {len(ratios)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    trees = {
        "parent": load(args.parent_src),
        "parent again": load(args.parent_src),
        "change": load(args.change_src),
    }

    if outputs(trees["parent"].experiments) != outputs(trees["change"].experiments):
        print(f"seeded outputs differ for seeds {list(CHECKED_SEEDS)}")
        return 1
    print(f"seeded outputs identical for seeds {list(CHECKED_SEEDS)}")

    # row -> (what one call is, calls per round, tree -> one round's batch)
    rows: dict[str, tuple[str, int, dict]] = {}
    for name, (run, seeds) in EXPERIMENTS.items():
        batches = {side: partial(_run_seeds, run, tree.experiments, seeds) for side, tree in trees.items()}
        rows[name] = ("seed", len(seeds), batches)
    for name, (entries, build) in LAYERS.items():
        # only a missing entry point means a missing layer; any error inside one propagates
        for side, tree in trees.items():
            if not all(_has(tree, entry) for entry in entries):
                print(f"{name}: the {side} tree lacks this layer")
                return 1
        calls = {side: build(tree) for side, tree in trees.items()}
        if len({repr(call()) for call in calls.values()}) != 1:
            print(f"{name}: the trees' outputs differ")
            return 1
        rows[name] = ("call", CALLS, {side: _repeated(call) for side, call in calls.items()})
    print(f"layer outputs identical for {', '.join(LAYERS)}")

    sides = list(trees)
    times = {name: {side: [] for side in sides} for name in rows}
    for _, calls, batches in rows.values():
        for side in sides:
            time_round(batches[side], calls)
    for i in range(args.rounds):
        order = sides[i % 3:] + sides[:i % 3]
        for name, (_, calls, batches) in rows.items():
            for side in order:
                times[name][side].append(time_round(batches[side], calls))
    for name, (unit, _, _) in rows.items():
        parent, again, change = (times[name][side] for side in sides)
        print(
            f"{name}: change/parent {_ratios(parent, change)}; per {unit} parent "
            f"{_per_call(statistics.median(parent))}, change {_per_call(statistics.median(change))}"
        )
        print(f"{name} A/A: parent again/parent {_ratios(parent, again)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
