"""Experiment harness: routing conditions, sensitivity grid, overhead bench.

Three experiments, all seeded and reproducible:

- Routing conditions: one pool, three routing strategies (blind,
  self_claimed, attested), N tasks each, summarized per condition with
  effect size and rank-test p-value against the blind baseline. Every
  delegate record carries both its self-reported claim and an
  issuer-attested claim equal to its true quality, except under
  self_claimed, which routes over the self-reported claims alone.
- Sensitivity grid: 36 cells over dishonest fraction x inflation level x
  pool size, averaged over a seed list, with a paradox flag per cell
  (self_claimed mean strictly below blind mean). A ``PoolConfig`` holds
  only those three axes; every pool shares the simulator's fixed
  true-quality range and noise (``Q_TRUE_RANGE``, ``NOISE_SIGMA``).
- Overhead: canonical message byte sizes with and without a contract, and
  mean wall time for contract validation and message serialization.

The routing conditions and the grid run each pool through one runner. It
builds the records each condition routes over (self_claimed gets records
without attested claims, see ``_run_conditions``) and runs the three
conditions in ``CONDITIONS`` order; the two experiments differ only in
the seeds of their streams.

Randomness discipline: every stream is an independent ``random.Random``
seeded with a readable string, so runs are reproducible byte for byte. In
the routing-condition experiment each condition owns independent selection
and noise streams, keeping the rank-test samples uncorrelated. The grid
instead reuses one noise stream across the three conditions of a cell
(common random numbers): noise cancels out of the comparison, which makes
the attested-dominance property hold pointwise instead of merely in
expectation. No cross-condition statistics are computed on the grid, so
nothing needs the independence.

Reports are frozen dataclasses, and each is described once: ``csv_bytes``
takes its columns from the dataclass fields, in declaration order, and the
JSON summaries use ``dataclasses.asdict``.

Routing cost: over the static pool of one condition, by_claims routing is
a pure function of the pool and the policy, so ``run_condition`` selects
once per condition and gives every task that delegate. Blind routing
still draws once per task from its selection stream, all of a condition's
draws in one ``routing._blind`` batch, and the condition's tasks run as one
``execute_tasks`` batch over its noise stream; both batches draw the same
numbers as the per-task calls would. The self_claimed records reuse the
claim objects of the full records rather than building them again (see
``routing`` for how a select reads them).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from decimal import Decimal
from random import Random
from typing import Callable, Sequence

from .contracts import apply_policy, check_result
from .routing import DelegateRecord, RoutingPolicy, Strategy, _blind, select
from .simulate import (
    DelegateProfile,
    PoolConfig,
    PoolMetadata,
    best_delegate,
    build_pool_with_metadata,
    execute_tasks,
)
from .stats import cohens_d, descriptive, mann_whitney_u
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


def records_for_pool(pool: Sequence[DelegateProfile]) -> list[DelegateRecord]:
    """Router-facing records for a simulated pool.

    Every delegate advertises its self-reported quality first, then an
    issuer-attested claim equal to its true quality: the issuer measured
    it rather than taking the delegate's word.
    """
    return [
        DelegateRecord(
            delegate_id=profile.delegate_id,
            claims=(
                QualityClaim(
                    skill=EXPERIMENT_SKILL,
                    value=profile.q_claimed,
                    claim_type=ClaimType.SELF_CLAIMED,
                ),
                QualityClaim(
                    skill=EXPERIMENT_SKILL,
                    value=profile.q_true,
                    claim_type=ClaimType.ISSUER_ATTESTED,
                    issuer=ATTESTATION_ISSUER,
                ),
            ),
        )
        for profile in pool
    ]


def run_condition(
    pool: Sequence[DelegateProfile],
    records: Sequence[DelegateRecord],
    condition: str,
    select_rng: Random,
    noise_rng: Random,
    tasks: int,
) -> ConditionRun:
    """Route and execute ``tasks`` tasks under one condition.

    Blind routing draws a delegate per task from ``select_rng``. by_claims
    routing never reads the rng, so it is resolved once, before the first
    task, and that delegate serves every task.
    """
    policy = CONDITIONS[condition]
    q_true = {p.delegate_id: p.q_true for p in pool}
    if policy.strategy is Strategy.BLIND:
        selections = _blind(records, select_rng, tasks)
    elif tasks > 0:
        selections = [select(records, policy, select_rng)] * tasks
    else:
        selections = []
    samples = execute_tasks([q_true[d] for d in selections], noise_rng)
    return ConditionRun(condition=condition, samples=tuple(samples), selections=tuple(selections))


def _run_conditions(
    pool: Sequence[DelegateProfile],
    stream_seeds: Callable[[str], tuple[str, str]],
    tasks: int,
) -> tuple[ConditionRun, ...]:
    """Run every condition over one pool, in ``CONDITIONS`` order.

    ``stream_seeds(condition)`` names the seeds of that condition's
    selection and noise streams. The self_claimed condition routes over
    records without attested claims, modelling a deployment where no
    attestation exists yet: the router always prefers the most trusted
    eligible claim, so leaving the attested claims in would quietly
    upgrade the condition. The others route over the full records.
    """
    full = records_for_pool(pool)
    # records_for_pool lists the self-reported claim first
    self_only = [DelegateRecord(r.delegate_id, r.claims[:1]) for r in full]
    return tuple(
        run_condition(
            pool,
            self_only if condition == "self_claimed" else full,
            condition,
            *map(Random, stream_seeds(condition)),
            tasks,
        )
        for condition in CONDITIONS
    )


def _condition_report(
    run: ConditionRun,
    blind_samples: Sequence[float],
    best_id: str,
    dishonest_ids: frozenset[str],
) -> ConditionReport:
    n = len(run.samples)
    if n >= 2:
        mean, std = descriptive(run.samples)
        std_defined = True
    else:
        mean, std, std_defined = run.samples[0], 0.0, False
    accuracy = 100.0 * sum(1 for s in run.selections if s == best_id) / n
    inflated = 100.0 * sum(1 for s in run.selections if s in dishonest_ids) / n

    if run.condition == "blind":
        d, p = 0.0, 1.0
    else:
        # every condition of one run has the same number of samples as blind
        d = cohens_d(run.samples, blind_samples) if n >= 2 else math.nan
        p = mann_whitney_u(run.samples, blind_samples)[1] if n >= 3 else math.nan
    return ConditionReport(
        condition=run.condition,
        quality_mean=mean,
        quality_std=std,
        accuracy_pct=accuracy,
        inflation_selected_pct=inflated,
        d_vs_blind=d,
        p_vs_blind=p,
        std_defined=std_defined,
    )


def run_routing_conditions_detailed(seed: int, tasks_per_condition: int) -> RoutingRun:
    """Run the three routing conditions on one seeded pool, keeping raw data."""
    if tasks_per_condition < 1:
        raise ValueError("tasks_per_condition must be >= 1")
    pool, metadata = build_pool_with_metadata(ROUTING_POOL, Random(f"{seed}:e3:pool"))
    runs = _run_conditions(
        pool,
        lambda c: (f"{seed}:e3:{c}:select", f"{seed}:e3:{c}:noise"),
        tasks_per_condition,
    )
    best_id = best_delegate(pool)
    dishonest = frozenset(metadata.dishonest_ids)
    reports = tuple(
        _condition_report(run, runs[0].samples, best_id, dishonest) for run in runs
    )
    return RoutingRun(
        seed=seed,
        tasks_per_condition=tasks_per_condition,
        pool=tuple(pool),
        metadata=metadata,
        runs=runs,
        reports=reports,
    )


def run_sensitivity(
    seeds: Sequence[int],
    tasks_per_condition: int,
) -> list[GridCellReport]:
    """Run all 36 grid cells, averaging each condition mean over the seeds."""
    if not seeds:
        raise ValueError("run_sensitivity requires at least one seed")
    if tasks_per_condition < 1:
        raise ValueError("tasks_per_condition must be >= 1")
    cells: list[GridCellReport] = []
    for fraction in GRID_FRACTIONS:
        for level, inflation in GRID_INFLATION:
            for size in GRID_POOL_SIZES:
                config = PoolConfig(size, fraction, inflation)
                key = f"grid:{fraction!r}:{level}:{size}"
                totals = {condition: 0.0 for condition in CONDITIONS}
                for seed in seeds:
                    pool, _ = build_pool_with_metadata(config, Random(f"{seed}:{key}:pool"))
                    # one noise stream for every condition: common random numbers
                    runs = _run_conditions(
                        pool,
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
    received_at = datetime(2026, 3, 15, 17, 15, 0, tzinfo=timezone.utc)
    warmup = max(iterations // 10, 100)

    validation_ns = _time_loop(
        lambda: apply_policy(check_result(contract, result, received_at), result),
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


def routing_summary(runs: Sequence[RoutingRun]) -> dict:
    """Wire-format summary across seeds, including both effect-size pairings.

    The attested condition is compared against both baselines because the
    two pairings answer different questions and differ by an order of
    magnitude: against blind the denominator is dominated by the spread of
    pool quality, against self_claimed it is just execution noise.
    """
    # run.runs follows CONDITIONS: blind, self_claimed, attested
    pairs = [(run.runs[2].samples, run.runs[1].samples) for run in runs]
    first = runs[0]
    return {
        "experiment": "routing_conditions",
        "seeds": [run.seed for run in runs],
        "tasks_per_condition": first.tasks_per_condition,
        "pool": [asdict(p) for p in first.pool],
        "pool_metadata": asdict(first.metadata),
        "reports": [
            {"seed": run.seed, **asdict(report)} for run in runs for report in run.reports
        ],
        "d_attested_vs_self_claimed": [cohens_d(a, s) for a, s in pairs],
        "p_attested_vs_self_claimed": [mann_whitney_u(a, s)[1] for a, s in pairs],
    }
