"""The public surface of the package, pinned so that any change shows in a diff."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

import delgov

PUBLIC_NAMES = [
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
    "violation_record",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert delgov.__all__ == PUBLIC_NAMES


def test_every_public_name_imports():
    namespace: dict = {}
    exec("from delgov import *", namespace)
    assert set(PUBLIC_NAMES) <= namespace.keys()


# Removed without aliases: each only forwarded or had no caller outside the
# tests. check_result does the work of the first two; use ClaimType(x).level,
# descriptive/cohens_d/mann_whitney_u and str for the next four, a
# constructor such as Budget(max_cost_usd=raw), then validate_invariants, for
# parse_money, and simulate._normals(rng, 1)[0] for gaussian.
@pytest.mark.parametrize(
    ("owner", "name"),
    [
        ("contracts", "check_depth"),
        ("contracts.ValidationOutcome", "from_violations"),
        ("types", "trust_level"),
        ("stats", "compare"),
        ("stats", "ComparisonStats"),
        ("wire", "format_money"),
        ("wire", "parse_money"),
        ("simulate", "gaussian"),
    ],
)
def test_removed_names_stay_removed(owner, name):
    module, _, attribute = owner.partition(".")
    scope = importlib.import_module(f"delgov.{module}")
    if attribute:
        scope = getattr(scope, attribute)
    assert not hasattr(scope, name)
    assert not hasattr(delgov, name)


def test_the_package_imports_only_the_standard_library():
    sources = sorted(Path(delgov.__file__).parent.glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # relative imports stay inside the package
            for module in modules:
                top = module.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{source.name} imports {module}"
