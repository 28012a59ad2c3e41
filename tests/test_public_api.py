"""The public surface of the package, pinned so that any change shows in a diff."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path
from random import Random
from typing import get_args

import pytest

import delgov
from delgov import experiments

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


def _frozen_values():
    """One value of each type that is shared once built: the eight wire types, the routing
    policy, the contract outcomes, the simulator's pools, configurations and metadata, the
    experiments' reports and runs, and the recovery table's rows."""
    contract = experiments.canonical_contract()
    result = experiments.canonical_result()
    breach = delgov.check_result(contract, experiments.canonical_result(8200), experiments.CANONICAL_RECEIVED_AT)
    pool, metadata = delgov.build_pool_with_metadata(experiments.ROUTING_POOL, Random(0))
    run = experiments.run_routing_conditions_detailed(0, 3)
    row = delgov.default_semantics(delgov.ErrorCategory.POLICY)
    return [
        contract.policy.budget,
        contract.policy,
        contract,
        delgov.QualityClaim("general", 0.5, delgov.ClaimType.SELF_CLAIMED),
        delgov.LdpError(delgov.ErrorCategory.TRANSPORT, delgov.Severity.ERROR, True, "X", "m"),
        delgov.Provenance(delgov.VerificationStatus.UNVERIFIED),
        experiments.canonical_submit(True),
        result,
        delgov.RoutingPolicy.blind(),
        breach.violations[0],
        breach,
        delgov.apply_policy(delgov.check_result(contract, result, experiments.CANONICAL_RECEIVED_AT), result),
        experiments.ROUTING_POOL,
        metadata,
        pool[0],
        run,
        run.runs[0],
        run.reports[0],
        experiments.run_sensitivity([0], 1)[0],
        experiments.OverheadReport(1, 2, 3.0, 4.0),
        row,
        row.action,
    ]


def test_the_values_checked_for_freezing_are_one_of_each_type():
    shared = {
        delgov.RoutingPolicy, delgov.Violation, delgov.ValidationOutcome, delgov.Accepted,
        delgov.PoolConfig, delgov.PoolMetadata, delgov.DelegateProfile, experiments.RoutingRun,
        experiments.ConditionRun, experiments.ConditionReport, experiments.GridCellReport,
        experiments.OverheadReport, delgov.DefaultSemantics, delgov.RecoveryAction,
    }
    types = [type(value) for value in _frozen_values()]
    assert len(types) == len(set(types))
    assert set(types) == set(get_args(delgov.types.DomainType)) | shared


@pytest.mark.parametrize("value", _frozen_values(), ids=lambda value: type(value).__name__)
def test_assigning_to_a_field_of_a_shared_value_raises(value):
    # one PoolMetadata serves every seed of a configuration, and one outcome every accepted result
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{field.name}'$"):
            setattr(value, field.name, None)
