"""Client-side contract validation and failure-policy branching.

The delegator checks a returned result against its contract at receipt
time with ``check_result``, the one function that decides which limits a
result breaks. The rules run in this order, each only when its limit is
set:

- token budget: ``tokens_used`` above ``max_tokens``
- cost budget: ``cost_usd`` above ``max_cost_usd``
- deadline: the receipt time after ``deadline``
- delegation depth: more hops than ``max_delegation_depth``, where a
  lineage of n entries is n - 1 hops beyond the original delegator. Depth
  is checked only when the result's provenance has a non-empty lineage.

Limits are inclusive: usage equal to the limit passes. Each breach is a
``Violation`` whose observed value and limit are floats. The disposition
follows from the violations and the failure policy: none gives
``accepted``; otherwise ``fail_closed`` gives ``rejected`` and
``fail_open`` gives ``accepted_with_log``. ``apply_policy`` then turns a
rejection into a single CONTRACT_VIOLATED error that preserves the
delegate's output, and anything else into ``Accepted`` with the
violations as its log.

The deadline check uses the delegator's own receipt clock (a naive time
counts as UTC), never the result's self-reported completion time, because
delegates can misreport. Token and cost figures are likewise taken from
the result as reported; enforcement here is best-effort bookkeeping, not
an adversarial guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Union

from .errors import make_contract_violation
from .types import DelegationContract, FailurePolicy, LdpError, TaskResult, _utc
from .wire import InvariantViolation, format_timestamp, validate_invariants


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


# Frozen and without violations, so one instance serves every accepted result.
_ACCEPTED = ValidationOutcome((), Disposition.ACCEPTED)


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

    Violations are returned as data, not raised, in the rule order of the
    module docstring, together with the disposition the contract's
    failure policy gives them; apply_policy resolves that outcome.

    Precondition: ``contract`` and ``result`` satisfy
    ``validate_invariants``, as every decoded value does. It is checked
    only off the accepted path: once a limit is found broken, a broken
    invariant raises ``InvariantViolation``. A result that breaks an
    invariant but no limit, such as a negative ``tokens_used``, is
    accepted. A ``received_at`` whose UTC form falls outside the years 1
    to 9999 raises ``ValueError``.
    """
    received_at = _utc(received_at)
    policy = contract.policy
    budget = policy.budget
    # (rule, detail, observed, limit), the figures still exact
    found = []
    if budget is not None:
        if budget.max_tokens is not None and result.tokens_used > budget.max_tokens:
            found.append((
                ViolationRule.BUDGET_TOKENS,
                f"tokens_used {result.tokens_used} exceeds max_tokens {budget.max_tokens}",
                result.tokens_used,
                budget.max_tokens,
            ))
        if budget.max_cost_usd is not None and result.cost_usd > budget.max_cost_usd:
            found.append((
                ViolationRule.BUDGET_COST,
                f"cost_usd {result.cost_usd} exceeds max_cost_usd {budget.max_cost_usd}",
                result.cost_usd,
                budget.max_cost_usd,
            ))
    deadline = contract.deadline
    if deadline is not None and received_at > deadline:
        found.append((
            ViolationRule.DEADLINE,
            f"result received at {format_timestamp(received_at)} after "
            f"deadline {format_timestamp(deadline)}",
            received_at.timestamp(),
            deadline.timestamp(),
        ))
    depth_limit = policy.max_delegation_depth
    provenance = result.provenance
    if depth_limit is not None and provenance is not None and provenance.lineage:
        hops = len(provenance.lineage) - 1
        if hops > depth_limit:
            found.append((
                ViolationRule.DELEGATION_DEPTH,
                f"lineage spans {hops} delegation hops, limit {depth_limit}",
                hops,
                depth_limit,
            ))

    if not found:
        return _ACCEPTED
    broken = validate_invariants(contract) + validate_invariants(result)
    if broken:
        raise InvariantViolation(broken)
    violations = tuple(
        Violation(rule, detail, float(observed), float(limit))
        for rule, detail, observed, limit in found
    )
    if policy.failure_policy is FailurePolicy.FAIL_CLOSED:
        return ValidationOutcome(violations, Disposition.REJECTED)
    return ValidationOutcome(violations, Disposition.ACCEPTED_WITH_LOG)


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

