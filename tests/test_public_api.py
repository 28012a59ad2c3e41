"""The public surface of the package, pinned so that any change shows in a diff."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
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
# parse_money, simulate._normals(rng, 1)[0] for gaussian, and the records
# cli._resolve builds for violation_record.
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
        ("contracts", "violation_record"),
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
    # every import statement at any depth, in every module of every subpackage; an import by
    # name would dodge the walk, so the package names neither import_module nor __import__
    package = Path(delgov.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    for source in sources:
        where = source.relative_to(package)
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), str(source))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            assert name not in {"import_module", "__import__"}, f"{where} imports by name"
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # relative imports stay inside the package
            for module in modules:
                top = module.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{where} imports {module}"


_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_MODULES = {info.name for info in pkgutil.iter_modules(delgov.__path__)}


def _missing(names):
    return [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"delgov.{module}"), name)
    ]


def test_every_name_the_benchmark_traces_exists(monkeypatch):
    # the tracer imports only the standard library; loading it leaves no bytecode behind
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANNED and tracer.COUNTED
    assert _missing(tracer.SPANNED + tracer.COUNTED) == []


def test_every_name_the_benchmark_reads_off_a_module_exists():
    # perfbench reaches delgov through its modules: lib.wire.decode_message, or a local
    # bound to one (wire = lib.wire) and then wire.decode_message
    names = set()
    for source in sorted(_PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), str(source))):
            if isinstance(node, ast.Attribute):
                owner = node.value
                module = getattr(owner, "id", None) or getattr(owner, "attr", None)
                if module in _MODULES:
                    names.add((module, node.attr))
    assert ("wire", "decode_message") in names
    assert _missing(sorted(names)) == []
