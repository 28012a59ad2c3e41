"""Value types for the governed delegation protocol.

All types are frozen dataclasses. Construction normalizes representations
(timestamps to UTC, money to exact ``Decimal``, sequences to tuples, claim
types to ``ClaimType`` members) but does not enforce semantic rules.
Semantic checks live in ``delgov.wire.validate_invariants`` so that
suspect input can be inspected and reported instead of being lost to a
constructor exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Decimal
from enum import Enum
from typing import Optional, Union

MoneyLike = Union[Decimal, int, str, float]


class FailurePolicy(str, Enum):
    """What the delegator does when a result violates its contract."""

    FAIL_CLOSED = "fail_closed"
    FAIL_OPEN = "fail_open"


class ClaimType(str, Enum):
    """Provenance level of a quality score, on an increasing trust scale.

    Members are declared in trust order, and each carries its rank on the
    scale as ``level``: 0 for ``self_claimed`` up to 3 for
    ``externally_benchmarked``.
    """

    SELF_CLAIMED = "self_claimed"
    RUNTIME_OBSERVED = "runtime_observed"
    ISSUER_ATTESTED = "issuer_attested"
    EXTERNALLY_BENCHMARKED = "externally_benchmarked"


for _level, _member in enumerate(ClaimType):
    _member.level = _level
del _level, _member


class ErrorCategory(str, Enum):
    RUNTIME = "runtime"
    TRANSPORT = "transport"
    POLICY = "policy"
    CAPABILITY = "capability"
    QUALITY = "quality"
    IDENTITY = "identity"
    SESSION = "session"


class Severity(str, Enum):
    WARNING = "warning"
    ERROR = "error"
    FATAL = "fatal"


class VerificationStatus(str, Enum):
    UNVERIFIED = "unverified"
    SELF_VERIFIED = "self_verified"
    PEER_VERIFIED = "peer_verified"
    TOOL_VERIFIED = "tool_verified"
    HUMAN_VERIFIED = "human_verified"


def _utc(value: Optional[datetime]) -> Optional[datetime]:
    if value is None:
        return None
    if value.tzinfo is None:
        return value.replace(tzinfo=timezone.utc)
    return value.astimezone(timezone.utc)


def _money(value: Optional[MoneyLike]) -> Optional[Decimal]:
    if value is None or isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        # repr() is the shortest faithful form, so 0.05 becomes "0.05", not
        # its 55-digit binary expansion.
        return Decimal(repr(value))
    return Decimal(value)


@dataclass(frozen=True)
class Budget:
    """Resource ceiling for a delegated task; at least one limit must be set."""

    max_tokens: Optional[int] = None
    max_cost_usd: Optional[Decimal] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_cost_usd", _money(self.max_cost_usd))


@dataclass(frozen=True)
class PolicyEnvelope:
    """Constraint bundle inside a contract: what happens on violation."""

    failure_policy: FailurePolicy
    budget: Optional[Budget] = None
    safety_constraints: tuple[str, ...] = ()
    max_delegation_depth: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "safety_constraints", tuple(self.safety_constraints))


@dataclass(frozen=True)
class DelegationContract:
    """Machine-readable statement of expectations attached to a task.

    ``success_criteria`` and ``safety_constraints`` are stored and echoed in
    logs but never evaluated; they are free-form text, not predicates.
    """

    contract_id: str
    objective: str
    policy: PolicyEnvelope
    success_criteria: tuple[str, ...] = ()
    deadline: Optional[datetime] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "success_criteria", tuple(self.success_criteria))
        object.__setattr__(self, "deadline", _utc(self.deadline))


@dataclass(frozen=True)
class QualityClaim:
    """Skill-scoped quality score plus the provenance of how it was established."""

    skill: str
    value: float
    claim_type: ClaimType
    issuer: Optional[str] = None
    observed_at: Optional[datetime] = None

    def __post_init__(self) -> None:
        if not isinstance(self.claim_type, ClaimType):
            object.__setattr__(self, "claim_type", ClaimType(self.claim_type))
        object.__setattr__(self, "observed_at", _utc(self.observed_at))


@dataclass(frozen=True)
class LdpError:
    """Structured failure: category, severity, retryability, machine code.

    ``partial_output`` preserves whatever the delegate produced before the
    failure was signalled, so callers can inspect or salvage it.
    """

    category: ErrorCategory
    severity: Severity
    retryable: bool
    code: str
    message: str
    partial_output: Optional[str] = None


@dataclass(frozen=True)
class Provenance:
    """How a result was verified and which delegates handled it.

    ``lineage`` is ordered: first entry is the original delegator, last is
    the final producer. Its length minus one is the delegation depth.
    """

    verification_status: VerificationStatus
    evidence_refs: tuple[str, ...] = ()
    lineage: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "evidence_refs", tuple(self.evidence_refs))
        object.__setattr__(self, "lineage", tuple(self.lineage))


@dataclass(frozen=True)
class TaskSubmit:
    """Task submission; the contract is optional so legacy senders still work."""

    task_id: str
    payload: str
    contract: Optional[DelegationContract] = None


@dataclass(frozen=True)
class TaskResult:
    """Task result with self-reported resource usage and optional provenance."""

    task_id: str
    output: str
    tokens_used: int
    cost_usd: Decimal
    completed_at: datetime
    provenance: Optional[Provenance] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cost_usd", _money(self.cost_usd))
        object.__setattr__(self, "completed_at", _utc(self.completed_at))


Message = Union[TaskSubmit, TaskResult]

DomainType = Union[
    Budget,
    PolicyEnvelope,
    DelegationContract,
    QualityClaim,
    LdpError,
    Provenance,
    TaskSubmit,
    TaskResult,
]
