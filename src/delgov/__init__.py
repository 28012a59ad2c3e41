"""Governed task delegation.

Delegation contracts with budgets, deadlines, and failure policies;
quality claims that carry their provenance (self-claimed through
externally benchmarked); typed failures with default recovery semantics;
verification status and lineage on results; a trust-aware router; and a
deterministic simulator for studying how claim inflation distorts
quality-based routing.

Every name imported here is public, and ``__all__`` is derived from these
imports; ``tests/test_public_api.py`` pins the list.
"""

from types import ModuleType as _Module

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

# importing a submodule binds it here too, and it is no public name
__all__ = sorted(
    name for name, value in globals().items() if not (name[0] == "_" or isinstance(value, _Module))
)
