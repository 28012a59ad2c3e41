"""Value types for the governed delegation protocol.

All types are frozen dataclasses. Construction checks every field against
its annotation, as the one field table ``_fields`` says. An enum field
takes a member or its plain value (``"fail_closed"``) and stores the
member, money becomes an exact ``Decimal``, a timestamp UTC (naive reads
as UTC), a sequence of strings a tuple, and an int given for a float field
its float. Only an ``Optional`` field takes ``None``, so a required field
refuses it. Other values of the wrong type raise ``TypeError``: a bool is
never an integer or a number, money is a decimal string or a number, a
timestamp a ``datetime``, a tuple field takes no bare string, and a field
annotated with any other class (a wire type, a ``timedelta``) takes that
type only. An unknown enum value (``None`` too), a non-finite amount of money
(``NaN``, ``sNaN`` or an infinity, as a string, a float or a ``Decimal``), a
money string outside the wire's one decimal grammar (ASCII digits; no ``_``
and no surrounding space) or a timestamp out of range in UTC raises
``ValueError``. Either error names the class and field it came from, as in
``Budget.max_cost_usd: non-finite decimal 'NaN'``. Semantic rules live in
``delgov.wire.validate_invariants`` so that suspect input can be inspected
and reported instead of lost to a constructor error.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import cache
from typing import Any, Callable, Optional, Union, get_args, get_origin, get_type_hints


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


def _utc(value: Any) -> datetime:
    if not isinstance(value, datetime):
        raise TypeError("expected a datetime")
    if value.tzinfo is timezone.utc:
        return value
    if value.tzinfo is None:
        return value.replace(tzinfo=timezone.utc)
    try:
        return value.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"{value.isoformat()} is out of range in UTC") from None


# The one money grammar, in ASCII digits. Decimal alone also reads underscores,
# surrounding whitespace and any Unicode digit, so two readers could disagree.
_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([Ee][+-]?\d+)?", re.ASCII)


def _money(value: Any) -> Decimal:
    if isinstance(value, bool) or not isinstance(value, (str, int, float, Decimal)):
        raise TypeError("expected a decimal string or number")
    try:
        # repr() is the shortest faithful form of a float, so 0.05 becomes "0.05",
        # not its 55-digit binary expansion; a Decimal comes back as itself
        money = Decimal(repr(value) if isinstance(value, float) else value)
    except InvalidOperation:
        raise ValueError(f"invalid decimal {value!r}") from None
    # NaN, sNaN and the infinities parse, but no amount compares with them
    if not money.is_finite():
        raise ValueError(f"non-finite decimal {value!r}")
    if isinstance(value, str) and _DECIMAL.fullmatch(value) is None:
        raise ValueError(f"invalid decimal {value!r}")
    return money


def _str(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _int(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer")
    return value


def _float(value: Any) -> float:
    # a bool is never a number; an int is stored as its float
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("integer too large for a float") from None


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected a boolean")
    return value


def _strings(value: Any) -> tuple[str, ...]:
    if value is None or isinstance(value, str):  # a str would iterate as its characters
        raise TypeError("expected a sequence of strings")
    items = tuple(value)
    for item in items:
        if not isinstance(item, str):
            raise TypeError("expected a sequence of strings")
    return items


def _only(cls: type) -> Callable[[Any], Any]:
    # the check of a field annotated with any other class, which keeps that exact type only
    def refuse(value: Any) -> Any:
        raise TypeError(f"expected a {cls.__name__}")

    return refuse


# (normal type, check) of each plain annotation. Money, a timestamp or a tuple
# of strings has no normal type: its every value goes through the check.
_CHECKS: dict[Any, tuple[Optional[type], Callable[[Any], Any]]] = {
    str: (str, _str), int: (int, _int), float: (float, _float), bool: (bool, _bool),
    Decimal: (None, _money), datetime: (None, _utc), tuple[str, ...]: (None, _strings),
}


@cache
def _fields(cls: type) -> tuple[tuple[str, Any, bool, Any, bool, Optional[type], Callable[[Any], Any]], ...]:
    """(name, type, required, default, optional, normal type, check) per dataclass field
    in declaration order, for construction and the wire codec alike. ``Optional[X]``
    reads as ``X`` and is optional, the one annotation that takes None; required means
    no default, and default is the dataclass default. A value of the normal type is kept
    as it is, and the check gives any other its normal form or raises."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        hint, args = hints[f.name], get_args(hints[f.name])
        optional = get_origin(hint) is Union and len(args) == 2 and args[1] is type(None)
        hint = args[0] if optional else hint
        if hint in _CHECKS:
            normal, check = _CHECKS[hint]
        else:
            normal, check = hint, hint if issubclass(hint, Enum) else _only(hint)
        required = f.default is MISSING and f.default_factory is MISSING
        out.append((f.name, hint, required, f.default, optional, normal, check))
    return tuple(out)


class _Normalized:
    """Base of the wire types and RoutingPolicy: each field is checked against its annotation."""

    def __post_init__(self) -> None:
        for name, _, _, _, optional, normal_type, check in _fields(type(self)):
            value = getattr(self, name)
            # a value of its normal type skips the call (calling an enum costs
            # far more), and so does None in an Optional field; a value the check
            # returns unchanged is not written. wire.from_wire never runs this: it
            # builds each value from fields that went through these same checks
            if type(value) is not normal_type and (value is not None or not optional):
                try:
                    normal = check(value)
                except (TypeError, ValueError) as exc:
                    kind = TypeError if isinstance(exc, TypeError) else ValueError
                    raise kind(f"{type(self).__name__}.{name}: {exc}") from None
                if normal is not value:
                    object.__setattr__(self, name, normal)


@dataclass(frozen=True)
class Budget(_Normalized):
    """Resource ceiling for a delegated task; at least one limit must be set."""

    max_tokens: Optional[int] = None
    max_cost_usd: Optional[Decimal] = None


@dataclass(frozen=True)
class PolicyEnvelope(_Normalized):
    """Constraint bundle inside a contract: what happens on violation."""

    failure_policy: FailurePolicy
    budget: Optional[Budget] = None
    safety_constraints: tuple[str, ...] = ()
    max_delegation_depth: Optional[int] = None


@dataclass(frozen=True)
class DelegationContract(_Normalized):
    """Machine-readable statement of expectations attached to a task.

    ``success_criteria`` and ``safety_constraints`` are stored and echoed in
    logs but never evaluated; they are free-form text, not predicates.
    """

    contract_id: str
    objective: str
    policy: PolicyEnvelope
    success_criteria: tuple[str, ...] = ()
    deadline: Optional[datetime] = None


@dataclass(frozen=True)
class QualityClaim(_Normalized):
    """Skill-scoped quality score plus the provenance of how it was established."""

    skill: str
    value: float
    claim_type: ClaimType
    issuer: Optional[str] = None
    observed_at: Optional[datetime] = None


@dataclass(frozen=True)
class LdpError(_Normalized):
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
class Provenance(_Normalized):
    """How a result was verified and which delegates handled it.

    ``lineage`` is ordered: first entry is the original delegator, last is
    the final producer. Its length minus one is the delegation depth.
    """

    verification_status: VerificationStatus
    evidence_refs: tuple[str, ...] = ()
    lineage: tuple[str, ...] = ()


@dataclass(frozen=True)
class TaskSubmit(_Normalized):
    """Task submission; the contract is optional so legacy senders still work."""

    task_id: str
    payload: str
    contract: Optional[DelegationContract] = None


@dataclass(frozen=True)
class TaskResult(_Normalized):
    """Task result with self-reported resource usage and optional provenance."""

    task_id: str
    output: str
    tokens_used: int
    cost_usd: Decimal
    completed_at: datetime
    provenance: Optional[Provenance] = None


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
