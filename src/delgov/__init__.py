"""Governed task delegation.

Delegation contracts with budgets, deadlines, and failure policies;
quality claims that carry their provenance (self-claimed through
externally benchmarked); typed failures with default recovery semantics;
verification status and lineage on results; a trust-aware router; and a
deterministic simulator for studying how claim inflation distorts
quality-based routing.
"""

from .contracts import (
    Accepted,
    Disposition,
    ValidationOutcome,
    Violation,
    ViolationRule,
    apply_policy,
    check_result,
)
from .errors import (
    CONTRACT_VIOLATED,
    DefaultSemantics,
    RecoveryAction,
    RecoveryKind,
    default_semantics,
    make_contract_violation,
)
from .routing import (
    DelegateRecord,
    NoEligibleDelegate,
    RoutingPolicy,
    Strategy,
    eligible_claim,
    rank,
    select,
)
from .simulate import (
    BadConfig,
    DelegateProfile,
    PoolConfig,
    PoolMetadata,
    best_delegate,
    build_pool_with_metadata,
    execute_task,
)
from .stats import (
    InsufficientData,
    cohens_d,
    descriptive,
    mann_whitney_u,
)
from .types import (
    Budget,
    ClaimType,
    DelegationContract,
    ErrorCategory,
    FailurePolicy,
    LdpError,
    PolicyEnvelope,
    Provenance,
    QualityClaim,
    Severity,
    TaskResult,
    TaskSubmit,
    VerificationStatus,
)
from .wire import (
    DecodeError,
    InvariantViolation,
    MalformedMessage,
    decode_message,
    encode_message,
    validate_invariants,
)

__version__ = "0.1.0"

__all__ = [
    "Accepted",
    "BadConfig",
    "Budget",
    "CONTRACT_VIOLATED",
    "ClaimType",
    "DecodeError",
    "DefaultSemantics",
    "DelegateProfile",
    "DelegateRecord",
    "DelegationContract",
    "Disposition",
    "ErrorCategory",
    "FailurePolicy",
    "InsufficientData",
    "InvariantViolation",
    "LdpError",
    "MalformedMessage",
    "NoEligibleDelegate",
    "PolicyEnvelope",
    "PoolConfig",
    "PoolMetadata",
    "Provenance",
    "QualityClaim",
    "RecoveryAction",
    "RecoveryKind",
    "RoutingPolicy",
    "Severity",
    "Strategy",
    "TaskResult",
    "TaskSubmit",
    "ValidationOutcome",
    "VerificationStatus",
    "Violation",
    "ViolationRule",
    "apply_policy",
    "best_delegate",
    "build_pool_with_metadata",
    "check_result",
    "cohens_d",
    "decode_message",
    "default_semantics",
    "descriptive",
    "eligible_claim",
    "encode_message",
    "execute_task",
    "make_contract_violation",
    "mann_whitney_u",
    "rank",
    "select",
    "validate_invariants",
]
