"""Failure taxonomy: default retry/severity semantics and recovery actions.

Every error category maps to exactly one row of the recovery table:

    Category    Retry  Severity  Default response
    ----------  -----  --------  ----------------------------------------
    runtime     yes    error     reroute to another delegate (or retry)
    transport   yes    warning   retry with exponential backoff
    policy      no     fatal     escalate; contract violation
    capability  no     error     select a different delegate
    quality     no     warning   accept with a quality warning
    identity    no     error     authentication failure
    session     yes    error     re-establish the session

The runtime row allows either a retry or a reroute; it is canonicalized to
``reroute_other_delegate`` so that automation always has a single
deterministic action, with the alternative kept in the description text.

This module only classifies. Executing a recovery (actual retry loops,
backoff timers) belongs to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .types import ErrorCategory, LdpError, Severity

CONTRACT_VIOLATED = "CONTRACT_VIOLATED"


class RecoveryKind(str, Enum):
    RETRY_SAME = "retry_same"
    RETRY_BACKOFF = "retry_backoff"
    REROUTE_OTHER_DELEGATE = "reroute_other_delegate"
    ESCALATE = "escalate"
    SELECT_DIFFERENT_DELEGATE = "select_different_delegate"
    ACCEPT_WITH_WARNING = "accept_with_warning"
    AUTHENTICATION_FAILURE = "authentication_failure"
    REESTABLISH_SESSION = "reestablish_session"


@dataclass(frozen=True)
class RecoveryAction:
    """One automated response to a failure category."""

    kind: RecoveryKind
    description: str


@dataclass(frozen=True)
class DefaultSemantics:
    """The (retryable, severity, action) row for one error category."""

    retryable: bool
    severity: Severity
    action: RecoveryAction


_TABLE: dict[ErrorCategory, DefaultSemantics] = {
    category: DefaultSemantics(retryable, severity, RecoveryAction(kind, description))
    for category, retryable, severity, kind, description in (
        (ErrorCategory.RUNTIME, True, Severity.ERROR, RecoveryKind.REROUTE_OTHER_DELEGATE,
         "Retry or reroute to another delegate"),
        (ErrorCategory.TRANSPORT, True, Severity.WARNING, RecoveryKind.RETRY_BACKOFF,
         "Retry with exponential backoff"),
        (ErrorCategory.POLICY, False, Severity.FATAL, RecoveryKind.ESCALATE,
         "Escalate; contract violation"),
        (ErrorCategory.CAPABILITY, False, Severity.ERROR, RecoveryKind.SELECT_DIFFERENT_DELEGATE,
         "Select different delegate"),
        (ErrorCategory.QUALITY, False, Severity.WARNING, RecoveryKind.ACCEPT_WITH_WARNING,
         "Accept with quality warning"),
        (ErrorCategory.IDENTITY, False, Severity.ERROR, RecoveryKind.AUTHENTICATION_FAILURE,
         "Authentication failure"),
        (ErrorCategory.SESSION, True, Severity.ERROR, RecoveryKind.REESTABLISH_SESSION,
         "Re-establish session"),
    )
}


def default_semantics(category: ErrorCategory) -> DefaultSemantics:
    """Return the recovery-table row for ``category``.

    Total and deterministic over the seven categories.
    """
    return _TABLE[category]


def make_contract_violation(
    violations: Sequence[str],
    partial_output: Optional[str] = None,
) -> LdpError:
    """Build the policy-category error for a rejected result.

    ``violations`` must be non-empty; the message lists every violation so
    nothing is dropped during aggregation. The delegate's output travels
    along as ``partial_output`` so callers can inspect or override.
    """
    if not violations:
        raise ValueError("make_contract_violation requires at least one violation")
    semantics = _TABLE[ErrorCategory.POLICY]
    return LdpError(
        category=ErrorCategory.POLICY,
        severity=semantics.severity,
        retryable=semantics.retryable,
        code=CONTRACT_VIOLATED,
        message="contract violated: " + "; ".join(violations),
        partial_output=partial_output,
    )
