"""Contract validation: budget/deadline checks, policy branching, depth."""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime, timedelta, timezone
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delgov.contracts import (
    Accepted,
    Disposition,
    Violation,
    ViolationRule,
    apply_policy,
    check_result,
)
from delgov.cli import _resolve
from delgov.errors import CONTRACT_VIOLATED
from delgov.types import (
    Budget,
    DelegationContract,
    FailurePolicy,
    LdpError,
    PolicyEnvelope,
    Provenance,
    TaskResult,
    VerificationStatus,
)
from delgov.wire import InvariantViolation, canonical_bytes, decode_any, validate_invariants

UTC = timezone.utc
DEADLINE = datetime(2026, 3, 15, 18, 0, 0, tzinfo=UTC)
BEFORE = datetime(2026, 3, 15, 17, 0, 0, tzinfo=UTC)


def contract(
    failure_policy=FailurePolicy.FAIL_CLOSED,
    max_tokens=6000,
    max_cost=Decimal("0.05"),
    deadline=DEADLINE,
    max_depth=None,
) -> DelegationContract:
    budget = None
    if max_tokens is not None or max_cost is not None:
        budget = Budget(max_tokens=max_tokens, max_cost_usd=max_cost)
    return DelegationContract(
        contract_id="ctr-1",
        objective="summarize",
        policy=PolicyEnvelope(
            failure_policy=failure_policy,
            budget=budget,
            max_delegation_depth=max_depth,
        ),
        deadline=deadline,
    )


def result(tokens=1000, cost=Decimal("0.01"), output="summary text") -> TaskResult:
    return TaskResult(
        task_id="t-1",
        output=output,
        tokens_used=tokens,
        cost_usd=cost,
        completed_at=BEFORE,
    )


def test_token_overrun_under_fail_closed_is_rejected():
    outcome = check_result(contract(), result(tokens=8200), BEFORE)
    assert [v.rule for v in outcome.violations] == [ViolationRule.BUDGET_TOKENS]
    assert outcome.violations[0].observed == 8200.0
    assert outcome.violations[0].limit == 6000.0
    assert outcome.disposition is Disposition.REJECTED


def test_failure_policy_given_as_its_plain_value_still_fails_closed():
    ctr = contract(failure_policy="fail_closed")
    assert validate_invariants(ctr) == []
    outcome = check_result(ctr, result(tokens=8200), BEFORE)
    assert outcome.disposition is Disposition.REJECTED
    assert isinstance(apply_policy(outcome, result(tokens=8200)), LdpError)


def test_limit_is_inclusive():
    outcome = check_result(contract(), result(tokens=6000), BEFORE)
    assert outcome.violations == ()
    assert outcome.disposition is Disposition.ACCEPTED


def test_same_overrun_under_fail_open_is_logged_not_rejected():
    outcome = check_result(
        contract(failure_policy=FailurePolicy.FAIL_OPEN), result(tokens=8200), BEFORE
    )
    assert len(outcome.violations) == 1
    assert outcome.disposition is Disposition.ACCEPTED_WITH_LOG


def test_cost_overrun_detected():
    outcome = check_result(contract(), result(cost=Decimal("0.06")), BEFORE)
    assert [v.rule for v in outcome.violations] == [ViolationRule.BUDGET_COST]


def test_cost_equal_to_limit_passes():
    outcome = check_result(contract(), result(cost=Decimal("0.05")), BEFORE)
    assert outcome.violations == ()


def test_deadline_uses_receipt_time_not_completed_at():
    late_receipt = DEADLINE + timedelta(seconds=1)
    outcome = check_result(contract(), result(), late_receipt)  # result claims 17:00
    assert [v.rule for v in outcome.violations] == [ViolationRule.DEADLINE]


@pytest.mark.parametrize(
    "clock",
    [
        pytest.param(datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1))), id="before-year-one"),
        pytest.param(
            datetime(9999, 12, 31, 23, tzinfo=timezone(timedelta(hours=-5))), id="after-year-9999"
        ),
    ],
)
def test_clocks_out_of_range_in_utc_raise_value_error(clock):
    with pytest.raises(ValueError, match="is out of range in UTC") as info:
        check_result(contract(), result(), clock)
    assert info.type is ValueError
    with pytest.raises(ValueError, match="is out of range in UTC") as info:
        contract(deadline=clock)
    assert info.type is ValueError


@pytest.mark.parametrize("wall", [BEFORE, DEADLINE + timedelta(minutes=30)], ids=["on-time", "late"])
def test_a_receipt_clock_without_an_offset_reads_as_utc_whatever_the_host_zone(
    new_york_clock, floating, wall
):
    # Python counts a datetime whose tzinfo gives no offset as naive, as it counts one without
    expected = check_result(contract(), result(), wall)
    assert check_result(contract(), result(), wall.replace(tzinfo=floating)) == expected
    assert check_result(contract(), result(), wall.replace(tzinfo=None)) == expected


def test_a_clock_that_is_not_a_datetime_raises_type_error():
    with pytest.raises(TypeError, match="^expected a datetime$"):
        check_result(contract(), result(), "2026-03-15T17:15:00Z")


def test_receipt_at_deadline_passes():
    outcome = check_result(contract(), result(), DEADLINE)
    assert outcome.violations == ()


def test_no_constraints_means_no_violations():
    bare = contract(max_tokens=None, max_cost=None, deadline=None)
    outcome = check_result(bare, result(tokens=10**9), datetime(2099, 1, 1, tzinfo=UTC))
    assert outcome.disposition is Disposition.ACCEPTED


def test_rejection_returns_error_with_output_preserved():
    out = result(tokens=8200, output="partial summary, cut short")
    outcome = check_result(contract(), out, BEFORE)
    resolved = apply_policy(outcome, out)
    assert isinstance(resolved, LdpError)
    assert resolved.code == CONTRACT_VIOLATED
    assert resolved.partial_output == "partial summary, cut short"


def test_accepted_with_empty_log():
    out = result()
    resolved = apply_policy(check_result(contract(), out, BEFORE), out)
    assert resolved == Accepted(result=out, log=())


def test_accepted_with_log_carries_the_deadline_violation():
    out = result()
    outcome = check_result(
        contract(failure_policy=FailurePolicy.FAIL_OPEN),
        out,
        DEADLINE + timedelta(seconds=1),
    )
    resolved = apply_policy(outcome, out)
    assert isinstance(resolved, Accepted)
    assert len(resolved.log) == 1
    assert resolved.log[0].rule is ViolationRule.DEADLINE


# hand-enumerated: violation expected iff (lineage length - 1) > limit
DEPTH_TABLE = {
    0: [False, True, True, True, True, True],
    1: [False, False, True, True, True, True],
    2: [False, False, False, True, True, True],
    3: [False, False, False, False, True, True],
}


def with_lineage(*lineage) -> TaskResult:
    """The in-budget result, delivered through the given lineage."""
    provenance = Provenance(
        verification_status=VerificationStatus.UNVERIFIED, lineage=lineage
    )
    return replace(result(), provenance=provenance)


def depth_violations(max_depth, out):
    outcome = check_result(contract(max_depth=max_depth), out, BEFORE)
    return outcome.violations


@pytest.mark.parametrize("limit", sorted(DEPTH_TABLE))
@pytest.mark.parametrize("length", range(1, 7))
def test_depth_counting_oracle(limit, length):
    violations = depth_violations(limit, with_lineage(*(f"a{i}" for i in range(length))))
    expected = DEPTH_TABLE[limit][length - 1]
    assert bool(violations) == expected
    if violations:
        (violation,) = violations
        assert violation.rule is ViolationRule.DELEGATION_DEPTH
        assert violation.observed == float(length - 1)
        assert violation.limit == float(limit)


def test_depth_boundary_two_hops_at_limit_two():
    assert depth_violations(2, with_lineage("a", "b", "c")) == ()


def test_depth_three_hops_over_limit_two():
    (violation,) = depth_violations(2, with_lineage("a", "b", "c", "d"))
    assert violation.observed == 3.0 and violation.limit == 2.0
    assert violation.detail == "lineage spans 3 delegation hops, limit 2"


def test_absent_limit_means_no_depth_check():
    assert depth_violations(None, with_lineage(*"abcdefgh")) == ()


# ---------------------------------------------------------------------------
# properties

_tokens = st.integers(min_value=0, max_value=20000)
_cost_cents = st.integers(min_value=0, max_value=1000)
_receipt = st.datetimes(
    min_value=datetime(2026, 3, 15, 12, 0), max_value=datetime(2026, 3, 16, 12, 0)
).map(lambda d: d.replace(tzinfo=UTC))


@settings(max_examples=200, deadline=None)
@given(_tokens, _cost_cents, _receipt, st.sampled_from(FailurePolicy))
def test_policy_totality_and_output_preservation(tokens, cents, received, policy):
    ctr = contract(failure_policy=policy)
    out = result(tokens=tokens, cost=Decimal(cents) / 100)
    resolved = apply_policy(check_result(ctr, out, received), out)
    assert isinstance(resolved, (Accepted, LdpError))
    if isinstance(resolved, LdpError):
        assert policy is FailurePolicy.FAIL_CLOSED
        assert resolved.code == CONTRACT_VIOLATED
        assert resolved.partial_output == out.output
    elif policy is FailurePolicy.FAIL_OPEN:
        assert isinstance(resolved, Accepted)


@settings(max_examples=200, deadline=None)
@given(_tokens, _cost_cents, _receipt)
def test_adding_constraints_never_shrinks_the_violation_set(tokens, cents, received):
    out = result(tokens=tokens, cost=Decimal(cents) / 100)
    loose = contract(max_tokens=None, max_cost=None, deadline=None)
    mid = contract(max_cost=None, deadline=None)
    tight = contract()
    rules_loose = {v.rule for v in check_result(loose, out, received).violations}
    rules_mid = {v.rule for v in check_result(mid, out, received).violations}
    rules_tight = {v.rule for v in check_result(tight, out, received).violations}
    assert rules_loose <= rules_mid <= rules_tight


def test_outcome_invariant_round():
    over = result(tokens=9000)
    outcome = check_result(contract(failure_policy=FailurePolicy.FAIL_OPEN), over, BEFORE)
    assert outcome.disposition is Disposition.ACCEPTED_WITH_LOG
    assert outcome.violations == check_result(contract(), over, BEFORE).violations
    outcome = check_result(contract(), result(), BEFORE)
    assert outcome.violations == () and outcome.disposition is Disposition.ACCEPTED


def test_check_result_enforces_depth_after_budget_and_deadline():
    provenance = Provenance(
        verification_status=VerificationStatus.UNVERIFIED, lineage=("a", "b", "c")
    )
    outcome = check_result(
        contract(max_depth=1),
        replace(result(tokens=8200), provenance=provenance),
        DEADLINE + timedelta(seconds=1),
    )
    assert [v.rule for v in outcome.violations] == [
        ViolationRule.BUDGET_TOKENS,
        ViolationRule.DEADLINE,
        ViolationRule.DELEGATION_DEPTH,
    ]
    assert outcome.violations[-1] == Violation(
        ViolationRule.DELEGATION_DEPTH, "lineage spans 2 delegation hops, limit 1", 2.0, 1.0
    )
    assert outcome.disposition is Disposition.REJECTED


@pytest.mark.parametrize("provenance", [None, Provenance(VerificationStatus.UNVERIFIED)])
def test_check_result_skips_depth_without_lineage(provenance):
    outcome = check_result(
        contract(max_depth=0), replace(result(), provenance=provenance), BEFORE
    )
    assert outcome.violations == ()
    assert outcome.disposition is Disposition.ACCEPTED


@pytest.mark.parametrize(
    "tokens, cost, message",
    [
        (10**400, Decimal("0.01"), f"TaskResult.tokens_used: must be at most 2**53 (got {10**400})"),
        (1000, Decimal("1e400"), "TaskResult.cost_usd: must be at most 2**53 (got 1E+400)"),
    ],
    ids=["huge-tokens", "huge-cost"],
)
def test_check_result_raises_invariant_violation_on_out_of_range_results(tokens, cost, message):
    with pytest.raises(InvariantViolation) as info:
        check_result(contract(), result(tokens=tokens, cost=cost), BEFORE)
    assert info.value.violations == [message]


def test_negative_tokens_break_no_limit_and_are_left_to_the_precondition():
    outcome = check_result(contract(), result(tokens=-5), BEFORE)
    assert outcome.violations == () and outcome.disposition is Disposition.ACCEPTED


_offsets = st.sampled_from(
    [None, UTC, timezone(timedelta(hours=5)), timezone(-timedelta(hours=7, minutes=30))]
)
_moment = st.datetimes(
    min_value=datetime(2026, 3, 15, 12, 0), max_value=datetime(2026, 3, 16, 12, 0)
)
_any_receipt = st.builds(lambda d, tz: d if tz is None else d.replace(tzinfo=tz), _moment, _offsets)
_any_contract = st.builds(
    contract,
    failure_policy=st.sampled_from(FailurePolicy),
    max_tokens=st.none() | st.integers(1, 20000),
    max_cost=st.none() | st.integers(1, 1000).map(lambda c: Decimal(c) / 100),
    deadline=st.none() | _moment.map(lambda d: d.replace(tzinfo=UTC)),
    max_depth=st.none() | st.integers(0, 5),
)
_any_provenance = st.none() | st.lists(st.sampled_from("abcdef"), max_size=6).map(
    lambda lineage: Provenance(VerificationStatus.UNVERIFIED, lineage=tuple(lineage))
)
# Valid figures, plus in-memory ones that break validate_invariants.
_any_tokens = st.integers(0, 30000) | st.sampled_from([-5, 2**53 + 1, 10**400])
_any_cost = st.integers(0, 2000).map(lambda c: Decimal(c) / 100) | st.sampled_from(
    [Decimal(v) for v in ("-0.01", "9007199254740993", "1e400")]
)
_any_result = st.builds(
    lambda tokens, cost, provenance: replace(result(tokens=tokens, cost=cost), provenance=provenance),
    _any_tokens,
    _any_cost,
    _any_provenance,
)


def _expected_outcome(ctr, out, received):
    """check_result restated from its docstring: rules in order, then disposition."""
    if received.tzinfo is None:
        received = received.replace(tzinfo=UTC)
    budget = ctr.policy.budget or Budget()
    expected = []
    if budget.max_tokens is not None and out.tokens_used > budget.max_tokens:
        expected.append((ViolationRule.BUDGET_TOKENS, out.tokens_used, budget.max_tokens))
    if budget.max_cost_usd is not None and out.cost_usd > budget.max_cost_usd:
        expected.append((ViolationRule.BUDGET_COST, out.cost_usd, budget.max_cost_usd))
    if ctr.deadline is not None and received > ctr.deadline:
        expected.append((ViolationRule.DEADLINE, received.timestamp(), ctr.deadline.timestamp()))
    lineage = out.provenance.lineage if out.provenance is not None else ()
    limit = ctr.policy.max_delegation_depth
    if lineage and limit is not None and len(lineage) - 1 > limit:
        expected.append((ViolationRule.DELEGATION_DEPTH, len(lineage) - 1, limit))
    if not expected:
        disposition = Disposition.ACCEPTED
    elif ctr.policy.failure_policy is FailurePolicy.FAIL_CLOSED:
        disposition = Disposition.REJECTED
    else:
        disposition = Disposition.ACCEPTED_WITH_LOG
    figures = [(rule, float(observed), float(limit)) for rule, observed, limit in expected]
    return figures, disposition


# only about a quarter of the results are fully valid, hence the example count
@settings(max_examples=600, deadline=None)
@given(_any_contract, _any_result, _any_receipt)
def test_check_result_matches_its_restatement(ctr, out, received):
    broken = validate_invariants(ctr) + validate_invariants(out)
    try:
        outcome = check_result(ctr, out, received)
    except InvariantViolation as exc:
        # the precondition is checked only off the accepted path
        assert broken and exc.violations == broken
        return
    figures, disposition = _expected_outcome(ctr, out, received)
    assert not (broken and figures)
    assert [(v.rule, v.observed, v.limit) for v in outcome.violations] == figures
    assert all(type(v.observed) is float and type(v.limit) is float for v in outcome.violations)
    assert isinstance(outcome.violations, tuple)
    assert outcome.disposition is disposition


@settings(max_examples=300, deadline=None)
@given(_any_contract, _any_result, _any_receipt)
@example(contract(), result(tokens=8200), BEFORE)
def test_lifecycle_documents_report_the_outcome_and_decode_again(ctr, out, received):
    try:
        outcome = check_result(ctr, out, received)
    except InvariantViolation:
        return
    documents, resolved = _resolve(ctr, out, received)
    records = [
        {"rule": v.rule.value, "detail": v.detail, "observed": v.observed, "limit": v.limit,
         "contract_id": ctr.contract_id, "task_id": out.task_id}
        for v in outcome.violations
    ]
    assert documents[0] == {"disposition": outcome.disposition.value, "violations": records}
    rejected = outcome.disposition is Disposition.REJECTED
    assert len(documents) == 1 + rejected
    assert isinstance(resolved, LdpError) is rejected
    # every document is canonical JSON, so no float in it is NaN or infinite
    data = [canonical_bytes(document) for document in documents]
    if rejected:
        assert decode_any(data[1]) == resolved
