"""Experiment harness: routing conditions, sensitivity grid, overhead bench.

Three experiments, all seeded and reproducible:

- Routing conditions: one pool, the three routing conditions of
  ``CONDITIONS`` (blind, self_claimed, attested), N tasks each, summarized
  per condition with effect size and rank-test p-value against the blind
  baseline.
- Sensitivity grid: 36 cells over dishonest fraction x inflation level x
  pool size, averaged over a seed list, with a paradox flag per cell
  (self_claimed mean strictly below blind mean). A ``PoolConfig`` holds
  only those three axes; every pool shares the simulator's fixed
  true-quality range and noise (``Q_TRUE_RANGE``, ``NOISE_SIGMA``).
- Overhead: canonical message byte sizes with and without a contract, and
  mean wall time for contract validation and message serialization.

The routing conditions and the grid run each pool through one runner,
``_run_conditions``, which builds the records each condition routes over
and runs the three conditions in ``CONDITIONS`` order; the two
experiments differ only in the seeds of their streams.

Randomness discipline: every stream is an independent ``random.Random``
seeded with a readable string, so runs are reproducible byte for byte. In
the routing-condition experiment each condition owns independent selection
and noise streams, keeping the rank-test samples uncorrelated. The grid
instead runs the three conditions of a cell over one batch of normals,
drawn once from one noise stream (common random numbers): noise cancels
out of the comparison, which makes the attested-dominance property hold
pointwise instead of merely in expectation. No cross-condition
statistics are computed on the grid, so nothing needs the independence.

Reports are frozen dataclasses, and each is described once: ``csv_bytes``
takes its columns from the dataclass fields, in declaration order, and the
JSON summaries use ``dataclasses.asdict``.

Routing cost: ``run_condition`` selects once per by_claims condition and
seeds no selection stream, as a by_claims select reads no rng (see
``routing``); a blind condition draws all its selections in one
``routing._blind`` batch. A condition's tasks run as one ``execute_tasks``
batch over the normals of its noise stream, which ``_run_conditions``
draws once per distinct noise seed. Each condition routes over only the
claims its policy reads (see ``_run_conditions``), and pool set-up builds
only what depends on the seed. The grid's 36 cells, each with its
``PoolConfig`` and the key that names its streams, are built once, at
import. A configuration's roles and metadata come from ``simulate``'s
per-configuration plan, and the ids and true qualities of a pool size
from its shared layout. One cache of at most 8 pool sizes (the grid and
``e3`` use 3), ``_per_size``, holds what every pool of a size shares: the
``{delegate_id: q_true}`` map ``run_condition`` reads, the attested
records the blind and attested conditions route over, and the attested
route, ``select``'s answer over those records, computed when the size is
first seen. So only the self_claimed condition calls ``select`` per seed,
and only over the delegates that hold the top claim: its policy admits
every self-reported claim, and ``select`` takes the highest value, so no
other delegate can win. ``select`` still makes the choice and breaks the
ties, which are common at the 1.0 cap. A grid seed builds only its
draws, the claimed values of ``simulate._draw``, and the self_claimed
records of the top holders, one self-reported claim each. An ``e3`` seed
also builds the ``DelegateProfile`` pool and metadata it reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from decimal import Decimal
from functools import lru_cache
from random import Random
from typing import Callable, Mapping, Sequence

from .contracts import apply_policy, check_result
from .routing import DelegateRecord, RoutingPolicy, Strategy, _blind, select
from .simulate import (
    DelegateProfile,
    PoolConfig,
    PoolMetadata,
    _draw,
    _layout,
    _normals,
    best_delegate,
    build_pool_with_metadata,
    execute_tasks,
)
from .stats import _pooled_d, cohens_d, descriptive, mann_whitney_u
from .types import (
    Budget,
    ClaimType,
    DelegationContract,
    FailurePolicy,
    PolicyEnvelope,
    QualityClaim,
    TaskResult,
    TaskSubmit,
)
from .wire import canonical_bytes, encode_message

EXPERIMENT_SKILL = "general"
ATTESTATION_ISSUER = "quality-bench"

CONDITIONS = {
    "blind": RoutingPolicy.blind(),
    "self_claimed": RoutingPolicy.by_claims(EXPERIMENT_SKILL, ClaimType.SELF_CLAIMED),
    "attested": RoutingPolicy.by_claims(EXPERIMENT_SKILL, ClaimType.ISSUER_ATTESTED),
}

ROUTING_POOL = PoolConfig(pool_size=10, dishonest_fraction=0.3, inflation_range=(0.35, 0.45))

GRID_FRACTIONS = (0.1, 0.3, 0.5, 0.7)
GRID_INFLATION = (
    ("low", (0.10, 0.15)),
    ("medium", (0.25, 0.35)),
    ("high", (0.40, 0.50)),
)
GRID_POOL_SIZES = (5, 10, 20)
# the grid's cells in report order, built once: (fraction, level, size, config, key), where
# the key names the cell's random streams
_GRID = tuple(
    (fraction, level, size, PoolConfig(size, fraction, inflation), f"grid:{fraction!r}:{level}:{size}")
    for fraction in GRID_FRACTIONS
    for level, inflation in GRID_INFLATION
    for size in GRID_POOL_SIZES
)


@dataclass(frozen=True)
class ConditionReport:
    """One row of the routing-condition summary."""

    condition: str
    quality_mean: float
    quality_std: float
    accuracy_pct: float
    inflation_selected_pct: float
    d_vs_blind: float
    p_vs_blind: float
    std_defined: bool = True


@dataclass(frozen=True)
class GridCellReport:
    """One sensitivity-grid cell, averaged over seeds."""

    dishonest_fraction: float
    inflation_level: str
    pool_size: int
    blind_mean: float
    self_claimed_mean: float
    attested_mean: float
    paradox: bool


@dataclass(frozen=True)
class OverheadReport:
    """Protocol overhead measurements."""

    bytes_without_contract: int
    bytes_with_contract: int
    validation_ns_mean: float
    serialization_ns_mean: float


@dataclass(frozen=True)
class ConditionRun:
    """Raw per-task data for one condition."""

    condition: str
    samples: tuple[float, ...]
    selections: tuple[str, ...]


@dataclass(frozen=True)
class RoutingRun:
    """Everything one seeded routing-condition experiment produced."""

    seed: int
    tasks_per_condition: int
    pool: tuple[DelegateProfile, ...]
    metadata: PoolMetadata
    runs: tuple[ConditionRun, ...]
    reports: tuple[ConditionReport, ...]


def _self_claim(q_claimed: float) -> QualityClaim:
    return QualityClaim(EXPERIMENT_SKILL, q_claimed, ClaimType.SELF_CLAIMED)


def _attested_claim(q_true: float) -> QualityClaim:
    return QualityClaim(EXPERIMENT_SKILL, q_true, ClaimType.ISSUER_ATTESTED, ATTESTATION_ISSUER)


@lru_cache(maxsize=8)
def _per_size(n: int) -> tuple:
    """What every simulated pool of ``n`` shares, built once per size: the
    ``{delegate_id: q_true}`` map of ``_layout(n)``, read and never written; a record
    per delegate with its attested claim alone; and ``select``'s attested route over
    those records. No pool has fewer than 2 delegates, so a smaller size holds Nones.
    """
    if n < 2:
        return None, None, None
    attested = tuple(DelegateRecord(d, (_attested_claim(q),)) for d, q in _layout(n))
    return dict(_layout(n)), attested, select(attested, CONDITIONS["attested"], None)


def records_for_pool(pool: Sequence[DelegateProfile]) -> list[DelegateRecord]:
    """Router-facing records for a simulated pool.

    Every delegate advertises its self-reported quality first, then an
    issuer-attested claim equal to its true quality: the issuer measured
    it rather than taking the delegate's word. The experiments route each
    condition over only the claims its policy reads (see
    ``_run_conditions``), and pick what they would pick over these
    records.
    """
    return [
        DelegateRecord(p.delegate_id, (_self_claim(p.q_claimed), _attested_claim(p.q_true)))
        for p in pool
    ]


def run_condition(
    q_true: Mapping[str, float],
    records: Sequence[DelegateRecord],
    condition: str,
    select_seed: str,
    normals: Sequence[float],
) -> ConditionRun:
    """Route and execute one task per standard normal in ``normals`` under one condition.

    ``q_true`` maps every id in ``records`` to its true quality, such as
    the map ``_per_size(n)`` holds for a simulated pool of n. Blind routing
    draws a delegate per task from the selection stream
    ``Random(select_seed)``. by_claims routing reads no rng, so it seeds
    none: it is resolved once, before the first task, and that delegate
    and its true quality serve every task. Over the shared attested records
    of the pool size ``len(q_true)`` it takes the route cached next to
    them, ``select``'s own answer; over any other records it calls
    ``select``. ``records`` may list fewer delegates than ``q_true``, as
    ``_run_conditions`` does for the self_claimed condition, which routes
    over the holders of the top claim alone.
    """
    policy = CONDITIONS[condition]
    tasks = len(normals)
    if policy.strategy is Strategy.BLIND:
        selections = _blind(records, Random(select_seed), tasks)
        q_trues = map(q_true.__getitem__, selections)
    else:
        # attested-only records: every by_claims condition reads an attested claim, so
        # its route over them is the attested one
        _, attested, route = _per_size(len(q_true))
        chosen = route if records is attested else select(records, policy, None)
        selections = [chosen] * tasks
        q_trues = [q_true[chosen]] * tasks
    samples = execute_tasks(q_trues, normals)
    return ConditionRun(condition=condition, samples=tuple(samples), selections=tuple(selections))


def _run_conditions(
    claims: Sequence[float],
    stream_seeds: Callable[[str], tuple[str, str]],
    tasks: int,
) -> tuple[ConditionRun, ...]:
    """Run every condition over one pool, in ``CONDITIONS`` order.

    ``claims`` holds each delegate's claimed quality, as ``simulate._draw``
    draws it; the ids and true qualities are ``simulate._layout(len(claims))``.
    ``stream_seeds(condition)`` names the seeds of that condition's
    selection and noise streams; the conditions that name one noise seed
    share its batch of ``tasks`` normals.

    Each condition routes over the claims its policy reads, and picks what
    it would pick over ``records_for_pool`` of the pool's profiles. The
    self_claimed condition routes over records without attested claims,
    modelling a deployment where no attestation exists yet: the router
    always prefers the most trusted eligible claim, so leaving the attested
    claims in would quietly upgrade the condition. Its records are built
    per pool, one per delegate whose claim equals the pool's top claim:
    ``select`` takes the highest value, so no other delegate can win, and
    it still breaks ties among the holders. A NaN claim's record is built
    too, so it raises the ``ValueError`` a build of every record raises,
    naming the first NaN delegate. The attested policy reads no claim
    below its issuer-attested floor, and a blind draw reads only the ids,
    so both route over the shared attested records of the pool's size.
    """
    if tasks < 1:
        raise ValueError("tasks_per_condition must be >= 1")
    q_true, attested, _ = _per_size(len(claims))
    # only a holder of the top claim can win select, so only those records are built, in
    # pool order (the map's order). No claim is below a NaN, so a NaN claim's record is
    # built too, and raises as it would in a build of every record
    top = max(claims)
    self_claimed = [DelegateRecord(d, (_self_claim(c),)) for d, c in zip(q_true, claims) if not c < top]
    batches: dict[str, list[float]] = {}
    runs = []
    for condition in CONDITIONS:
        select_seed, noise_seed = stream_seeds(condition)
        if noise_seed not in batches:
            batches[noise_seed] = _normals(Random(noise_seed), tasks)
        records = self_claimed if condition == "self_claimed" else attested
        runs.append(run_condition(q_true, records, condition, select_seed, batches[noise_seed]))
    return tuple(runs)


def run_routing_conditions_detailed(seed: int, tasks_per_condition: int) -> RoutingRun:
    """Run the three routing conditions on one seeded pool, keeping raw data."""
    pool, metadata = build_pool_with_metadata(ROUTING_POOL, Random(f"{seed}:e3:pool"))
    runs = _run_conditions(
        [p.q_claimed for p in pool],
        lambda c: (f"{seed}:e3:{c}:select", f"{seed}:e3:{c}:noise"),
        tasks_per_condition,
    )
    best_id = best_delegate(pool)
    dishonest = frozenset(metadata.dishonest_ids)
    n = tasks_per_condition
    reports = []
    for run in runs:
        # each sample is summarised once; one sample has a mean but no spread
        mean, std = descriptive(run.samples) if n >= 2 else (run.samples[0], 0.0)
        # blind comes first in CONDITIONS, so its summary is read before any other row
        if run.condition == "blind":
            blind, d, p = (mean, std), 0.0, 1.0
        else:
            d = _pooled_d(n, mean, std, n, *blind) if n >= 2 else math.nan
            p = mann_whitney_u(run.samples, runs[0].samples)[1] if n >= 3 else math.nan
        reports.append(
            ConditionReport(
                condition=run.condition,
                quality_mean=mean,
                quality_std=std,
                accuracy_pct=100.0 * run.selections.count(best_id) / n,
                inflation_selected_pct=100.0 * sum(map(dishonest.__contains__, run.selections)) / n,
                d_vs_blind=d,
                p_vs_blind=p,
                std_defined=n >= 2,
            )
        )
    return RoutingRun(
        seed=seed,
        tasks_per_condition=tasks_per_condition,
        pool=tuple(pool),
        metadata=metadata,
        runs=runs,
        reports=tuple(reports),
    )


def run_sensitivity(
    seeds: Sequence[int],
    tasks_per_condition: int,
) -> list[GridCellReport]:
    """Run all 36 grid cells, averaging each condition mean over the seeds."""
    if not seeds:
        raise ValueError("run_sensitivity requires at least one seed")
    cells: list[GridCellReport] = []
    for fraction, level, size, config, key in _GRID:
        totals = {condition: 0.0 for condition in CONDITIONS}
        for seed in seeds:
            claims, _ = _draw(config, Random(f"{seed}:{key}:pool"))
            # one noise stream for every condition: common random numbers
            runs = _run_conditions(
                claims,
                lambda c: (f"{seed}:{key}:select:{c}", f"{seed}:{key}:noise"),
                tasks_per_condition,
            )
            for run in runs:
                totals[run.condition] += math.fsum(run.samples) / len(run.samples)
        means = {c: totals[c] / len(seeds) for c in CONDITIONS}
        cells.append(
            GridCellReport(
                dishonest_fraction=fraction,
                inflation_level=level,
                pool_size=size,
                blind_mean=means["blind"],
                self_claimed_mean=means["self_claimed"],
                attested_mean=means["attested"],
                paradox=means["self_claimed"] < means["blind"],
            )
        )
    return cells


# ---------------------------------------------------------------------------
# overhead benchmark


def canonical_contract() -> DelegationContract:
    """The fixed contract used by the overhead bench and the demo trace."""
    return DelegationContract(
        contract_id="ctr-7f3a9c2e51b84d06",
        objective="Summarize the attached quarterly earnings report for the executive brief",
        policy=PolicyEnvelope(
            failure_policy=FailurePolicy.FAIL_CLOSED,
            budget=Budget(max_tokens=6000, max_cost_usd=Decimal("0.05")),
            safety_constraints=("no speculative financial projections",),
            max_delegation_depth=2,
        ),
        success_criteria=("at most 300 words", "cover revenue and margin figures"),
        deadline=datetime(2026, 3, 15, 18, 0, 0, tzinfo=timezone.utc),
    )


_CANONICAL_PAYLOAD = (
    "Quarterly earnings report, fiscal Q3. Consolidated revenue reached 412.6 "
    "million across all operating segments, an increase of 9.4 percent year "
    "over year, driven primarily by subscription renewals in the enterprise "
    "tier and a one-time licensing settlement recognized in September. Gross "
    "margin expanded to 61.2 percent from 58.9 percent as infrastructure "
    "migration costs rolled off. Operating expenses grew 6.1 percent, with "
    "headcount flat and the increase concentrated in go-to-market programs. "
    "Free cash flow was 54.3 million against 41.0 million in the prior "
    "quarter. Deferred revenue ended the period at 198.2 million. Management "
    "raised full-year revenue guidance to a range of 1.63 to 1.66 billion and "
    "reiterated the operating margin target. Please produce the summary for "
    "the Monday executive brief and flag any figure that cannot be verified "
    "against the tables in the appendix."
)


def canonical_submit(with_contract: bool) -> TaskSubmit:
    return TaskSubmit(
        task_id="task-58c21f7d",
        payload=_CANONICAL_PAYLOAD,
        contract=canonical_contract() if with_contract else None,
    )


def canonical_result(tokens_used: int = 5400) -> TaskResult:
    return TaskResult(
        task_id="task-58c21f7d",
        output=(
            "Q3 revenue was 412.6M, up 9.4% year over year on enterprise "
            "renewals and a September licensing settlement. Gross margin rose "
            "to 61.2%; opex grew 6.1% on go-to-market spend with flat "
            "headcount. Free cash flow reached 54.3M and deferred revenue "
            "198.2M. Full-year guidance was raised to 1.63-1.66B with the "
            "margin target reiterated."
        ),
        tokens_used=tokens_used,
        cost_usd=Decimal("0.04"),
        completed_at=datetime(2026, 3, 15, 17, 10, 0, tzinfo=timezone.utc),
    )


# the delegator's receipt clock for the canonical result: after its completion, before the deadline
CANONICAL_RECEIVED_AT = datetime(2026, 3, 15, 17, 15, 0, tzinfo=timezone.utc)


def _time_loop(fn: Callable[[], object], warmup: int, iterations: int) -> float:
    for _ in range(warmup):
        fn()
    start = time.perf_counter_ns()
    for _ in range(iterations):
        fn()
    return (time.perf_counter_ns() - start) / iterations


def run_overhead(iterations: int) -> OverheadReport:
    """Measure byte and time overhead of the governance extensions.

    Byte sizes come from the canonical submission with and without its
    contract. Timings are loop means over a monotonic high-resolution
    clock with at least ten percent warm-up discarded; validation is timed
    on the accepted path (budget and deadline checks plus policy
    application).
    """
    if iterations < 1000:
        raise ValueError("iterations must be >= 1000 for stable means")
    bytes_without = len(encode_message(canonical_submit(False)))
    bytes_with = len(encode_message(canonical_submit(True)))

    contract = canonical_contract()
    result = canonical_result()
    warmup = max(iterations // 10, 100)

    validation_ns = _time_loop(
        lambda: apply_policy(check_result(contract, result, CANONICAL_RECEIVED_AT), result),
        warmup,
        iterations,
    )
    submit = canonical_submit(True)
    serialization_ns = _time_loop(lambda: encode_message(submit), warmup, iterations)
    return OverheadReport(
        bytes_without_contract=bytes_without,
        bytes_with_contract=bytes_with,
        validation_ns_mean=validation_ns,
        serialization_ns_mean=serialization_ns,
    )


# ---------------------------------------------------------------------------
# report output

def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_bytes(rows: Sequence[object]) -> bytes:
    """One CSV line per report dataclass, under a header of its field names, as UTF-8.

    Columns follow the dataclass field order; ``rows`` must be non-empty
    and of one type.
    """
    columns = [f.name for f in fields(rows[0])]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, column)) for column in columns))
    return ("\n".join(lines) + "\n").encode("utf-8")


def summary_bytes(payload: dict) -> bytes:
    """Wire-format summary document: canonical JSON plus a trailing newline."""
    return canonical_bytes(payload) + b"\n"


def routing_summary(run: RoutingRun) -> dict:
    """Wire-format summary of one seed's run, including both effect-size pairings.

    The attested condition is compared against both baselines because the
    two pairings answer different questions and differ by an order of
    magnitude: against blind the denominator is dominated by the spread of
    pool quality, against self_claimed it is just execution noise.
    ``seeds`` and the two pairing entries stay one-element lists, as in the
    published ``e3.json``.
    """
    # run.runs follows CONDITIONS: blind, self_claimed, attested
    attested, self_claimed = run.runs[2].samples, run.runs[1].samples
    return {
        "experiment": "routing_conditions",
        "seeds": [run.seed],
        "tasks_per_condition": run.tasks_per_condition,
        "pool": [asdict(p) for p in run.pool],
        "pool_metadata": asdict(run.metadata),
        "reports": [{"seed": run.seed, **asdict(report)} for report in run.reports],
        "d_attested_vs_self_claimed": [cohens_d(attested, self_claimed)],
        "p_attested_vs_self_claimed": [mann_whitney_u(attested, self_claimed)[1]],
    }
