"""Client-side contract validation and failure-policy branching.

The delegator checks a returned result against its contract at receipt
time: token budget, cost budget, deadline, and (via the lineage chain)
delegation depth. Violations are plain data until the failure policy is
applied; ``fail_closed`` turns them into a single CONTRACT_VIOLATED error
that preserves the delegate's output, ``fail_open`` accepts the result and
keeps the violations as a log.

Limits are inclusive: usage equal to the limit passes. The deadline check
uses the delegator's own receipt clock, never the result's self-reported
completion time, because delegates can misreport. Token and cost figures
are likewise taken from the result as reported; enforcement here is
best-effort bookkeeping, not an adversarial guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Optional, Sequence, Union

from .errors import make_contract_violation
from .types import DelegationContract, FailurePolicy, LdpError, Provenance, TaskResult
from .wire import format_timestamp


class ViolationRule(str, Enum):
    BUDGET_TOKENS = "budget_tokens"
    BUDGET_COST = "budget_cost"
    DEADLINE = "deadline"
    DELEGATION_DEPTH = "delegation_depth"


class Disposition(str, Enum):
    ACCEPTED = "accepted"
    ACCEPTED_WITH_LOG = "accepted_with_log"
    REJECTED = "rejected"


@dataclass(frozen=True)
class Violation:
    """One observed contract breach: which rule, what we saw, what was allowed."""

    rule: ViolationRule
    detail: str
    observed: float
    limit: float


@dataclass(frozen=True)
class ValidationOutcome:
    """Violations plus the disposition the failure policy assigns to them."""

    violations: tuple[Violation, ...]
    disposition: Disposition

    @classmethod
    def from_violations(
        cls,
        violations: Sequence[Violation],
        failure_policy: FailurePolicy,
    ) -> "ValidationOutcome":
        violations = tuple(violations)
        if not violations:
            disposition = Disposition.ACCEPTED
        elif failure_policy is FailurePolicy.FAIL_CLOSED:
            disposition = Disposition.REJECTED
        else:
            disposition = Disposition.ACCEPTED_WITH_LOG
        return cls(violations=violations, disposition=disposition)


@dataclass(frozen=True)
class Accepted:
    """An accepted result together with its (possibly empty) violation log."""

    result: TaskResult
    log: tuple[Violation, ...] = ()


def check_result(
    contract: DelegationContract,
    result: TaskResult,
    received_at: datetime,
) -> ValidationOutcome:
    """Check a result against budget, deadline and delegation depth.

    The deadline is checked at receipt time, and depth through
    ``check_depth`` whenever the result's provenance has a non-empty
    lineage. Violations are returned as data, not raised, in that order;
    apply_policy decides what they mean under the contract's failure
    policy.
    """
    if received_at.tzinfo is None:
        received_at = received_at.replace(tzinfo=timezone.utc)
    else:
        received_at = received_at.astimezone(timezone.utc)

    violations: list[Violation] = []
    budget = contract.policy.budget
    if budget is not None and budget.max_tokens is not None:
        if result.tokens_used > budget.max_tokens:
            violations.append(
                Violation(
                    rule=ViolationRule.BUDGET_TOKENS,
                    detail=(
                        f"tokens_used {result.tokens_used} exceeds "
                        f"max_tokens {budget.max_tokens}"
                    ),
                    observed=float(result.tokens_used),
                    limit=float(budget.max_tokens),
                )
            )
    if budget is not None and budget.max_cost_usd is not None:
        if result.cost_usd > budget.max_cost_usd:
            violations.append(
                Violation(
                    rule=ViolationRule.BUDGET_COST,
                    detail=(
                        f"cost_usd {result.cost_usd} exceeds "
                        f"max_cost_usd {budget.max_cost_usd}"
                    ),
                    observed=float(result.cost_usd),
                    limit=float(budget.max_cost_usd),
                )
            )
    if contract.deadline is not None and received_at > contract.deadline:
        violations.append(
            Violation(
                rule=ViolationRule.DEADLINE,
                detail=(
                    f"result received at {format_timestamp(received_at)} after "
                    f"deadline {format_timestamp(contract.deadline)}"
                ),
                observed=received_at.timestamp(),
                limit=contract.deadline.timestamp(),
            )
        )
    if result.provenance is not None and result.provenance.lineage:
        depth = check_depth(contract, result.provenance)
        if depth is not None:
            violations.append(depth)
    return ValidationOutcome.from_violations(violations, contract.policy.failure_policy)


def apply_policy(
    outcome: ValidationOutcome,
    result: TaskResult,
) -> Union[Accepted, LdpError]:
    """Resolve an outcome into an accepted result or a typed error.

    A rejection returns (never raises) the CONTRACT_VIOLATED error with the
    delegate's output preserved byte for byte as partial_output. fail_open
    outcomes always come back as Accepted, violations riding along as the
    log.
    """
    if outcome.disposition is Disposition.REJECTED:
        return make_contract_violation(
            [v.detail for v in outcome.violations],
            partial_output=result.output,
        )
    return Accepted(result=result, log=outcome.violations)


def check_depth(
    contract: DelegationContract,
    provenance: Provenance,
) -> Optional[Violation]:
    """Check the lineage chain against max_delegation_depth.

    Depth counts hops beyond the original delegator, so a lineage of
    [delegator, worker] is one hop. No limit configured means no check.
    """
    if not provenance.lineage:
        raise ValueError("check_depth requires a non-empty lineage")
    limit = contract.policy.max_delegation_depth
    if limit is None:
        return None
    hops = len(provenance.lineage) - 1
    if hops <= limit:
        return None
    return Violation(
        rule=ViolationRule.DELEGATION_DEPTH,
        detail=f"lineage spans {hops} delegation hops, limit {limit}",
        observed=float(hops),
        limit=float(limit),
    )


def violation_record(
    violation: Violation,
    contract_id: str,
    task_id: str,
) -> dict:
    """Wire-format log record for one violation, ready for the log stream."""
    return {
        "rule": violation.rule.value,
        "detail": violation.detail,
        "observed": violation.observed,
        "limit": violation.limit,
        "contract_id": contract_id,
        "task_id": task_id,
    }
