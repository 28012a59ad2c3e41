"""Codec tests: roundtrips, backward/forward compatibility, invariants."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import time
from dataclasses import MISSING, dataclass
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from enum import Enum
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delgov.errors import default_semantics
from delgov.routing import RoutingPolicy
from delgov.types import (
    Budget,
    ClaimType,
    DelegationContract,
    DomainType,
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
    _fields,
)
from delgov.wire import (
    FIELDS,
    DecodeError,
    InvariantViolation,
    MalformedMessage,
    canonical_bytes,
    decode_any,
    decode_contract,
    decode_message,
    encode_message,
    format_timestamp,
    from_wire,
    parse_timestamp,
    to_wire,
    validate_invariants,
)
from delgov.wire import _load_object
from delgov.wire import _rows as build_rows

UTC = timezone.utc


def sample_contract() -> DelegationContract:
    return DelegationContract(
        contract_id="ctr-7f3a",
        objective="Summarize the quarterly report",
        policy=PolicyEnvelope(
            failure_policy=FailurePolicy.FAIL_CLOSED,
            budget=Budget(max_tokens=6000, max_cost_usd=Decimal("0.05")),
            safety_constraints=("no speculative projections",),
            max_delegation_depth=2,
        ),
        success_criteria=("<=300 words", "include revenue figures"),
        deadline=datetime(2026, 3, 15, 18, 0, 0, tzinfo=UTC),
    )


def sample_result(**overrides) -> TaskResult:
    fields = dict(
        task_id="t-1",
        output="done",
        tokens_used=100,
        cost_usd=Decimal("0.01"),
        completed_at=datetime(2026, 3, 15, 17, 0, 0, tzinfo=UTC),
        provenance=None,
    )
    fields.update(overrides)
    return TaskResult(**fields)


# ---------------------------------------------------------------------------
# basic shape and roundtrips


def test_submit_without_contract_has_only_two_keys():
    wire = to_wire(TaskSubmit(task_id="t-1", payload="hello"))
    assert set(wire) == {"task_id", "payload"}


def test_submit_roundtrip_with_contract():
    msg = TaskSubmit(task_id="t-1", payload="hello", contract=sample_contract())
    assert decode_message(encode_message(msg)) == msg


def test_result_roundtrip_with_provenance():
    msg = sample_result(
        provenance=Provenance(
            verification_status=VerificationStatus.TOOL_VERIFIED,
            evidence_refs=("run-99",),
            lineage=("orchestrator", "worker-a"),
        )
    )
    assert decode_message(encode_message(msg)) == msg


def test_contract_strictly_grows_the_message():
    bare = encode_message(TaskSubmit(task_id="t-1", payload="hello"))
    full = encode_message(TaskSubmit(task_id="t-1", payload="hello", contract=sample_contract()))
    assert len(full) > len(bare)


def test_encoding_is_deterministic_and_sorted():
    msg = TaskSubmit(task_id="t-1", payload="hello", contract=sample_contract())
    first, second = encode_message(msg), encode_message(msg)
    assert first == second
    obj = json.loads(first)
    assert list(obj) == sorted(obj)
    assert list(obj["contract"]) == sorted(obj["contract"])


def test_money_roundtrips_exactly_as_decimal_string():
    msg = sample_result(cost_usd=Decimal("0.05"))
    obj = json.loads(encode_message(msg))
    assert obj["cost_usd"] == "0.05"
    assert decode_message(encode_message(msg)).cost_usd == Decimal("0.05")


def test_float_money_is_read_by_its_shortest_repr():
    assert Budget(max_cost_usd=0.05).max_cost_usd == Decimal("0.05")
    assert str(Budget(max_cost_usd=0.05).max_cost_usd) == "0.05"


@pytest.mark.parametrize("amount", ["abc", "", "1_0", " 0.5 ", "\u0661"])
def test_non_numeric_money_string_raises_value_error_in_memory(amount):
    # construction reads the decoder's money grammar: "1_0" is not Decimal("10")
    message = f"invalid decimal {re.escape(repr(amount))}$"
    with pytest.raises(ValueError, match=rf"^Budget\.max_cost_usd: {message}"):
        Budget(max_cost_usd=amount)
    with pytest.raises(ValueError, match=rf"^TaskResult\.cost_usd: {message}"):
        TaskResult("t-1", "x", 5, amount, datetime(2026, 1, 1, tzinfo=timezone.utc))


def test_cost_as_json_number_is_accepted():
    raw = json.dumps(
        {
            "task_id": "t-1",
            "output": "x",
            "tokens_used": 5,
            "cost_usd": 0.05,
            "completed_at": "2026-03-15T17:00:00Z",
        }
    )
    assert decode_message(raw).cost_usd == Decimal("0.05")


def test_timestamp_offsets_normalize_to_utc():
    raw = json.dumps(
        {
            "task_id": "t-1",
            "output": "x",
            "tokens_used": 5,
            "cost_usd": "0.05",
            "completed_at": "2026-03-15T19:30:00+02:00",
        }
    )
    decoded = decode_message(raw)
    assert decoded.completed_at == datetime(2026, 3, 15, 17, 30, 0, tzinfo=UTC)
    assert json.loads(encode_message(decoded))["completed_at"] == "2026-03-15T17:30:00Z"


def test_format_timestamp_reads_a_naive_clock_as_utc_whatever_the_host_zone(
    new_york_clock, floating
):
    assert time.timezone == 5 * 3600
    assert format_timestamp(datetime(2026, 1, 1)) == "2026-01-01T00:00:00Z"
    assert format_timestamp(datetime(2026, 1, 1, tzinfo=UTC)) == "2026-01-01T00:00:00Z"
    # naive too, as Python counts it: its tzinfo gives no offset
    assert format_timestamp(datetime(2026, 1, 1, tzinfo=floating)) == "2026-01-01T00:00:00Z"


def test_fractional_seconds_roundtrip():
    msg = sample_result(completed_at=datetime(2026, 3, 15, 17, 0, 0, 123456, tzinfo=UTC))
    decoded = decode_message(encode_message(msg))
    assert decoded.completed_at == msg.completed_at


# ---------------------------------------------------------------------------
# backward and forward compatibility


def test_legacy_submit_decodes_with_contract_absent():
    decoded = decode_message(b'{"task_id": "t-legacy", "payload": "do the thing"}')
    assert decoded == TaskSubmit(task_id="t-legacy", payload="do the thing")
    assert decoded.contract is None


def test_legacy_result_decodes_with_provenance_absent():
    decoded = decode_message(
        b'{"task_id": "t", "output": "ok", "tokens_used": 12,'
        b' "cost_usd": "0.01", "completed_at": "2026-01-01T00:00:00Z"}'
    )
    assert decoded.provenance is None


def test_unknown_keys_are_discarded():
    base = {"task_id": "t", "payload": "p"}
    plain = decode_message(json.dumps(base))
    extended = dict(base, future_field={"nested": [1, 2, 3]}, claim_type="bogus")
    assert decode_message(json.dumps(extended)) == plain


def test_null_optional_is_treated_as_absent():
    decoded = decode_message(b'{"task_id": "t", "payload": "p", "contract": null}')
    assert decoded.contract is None


# ---------------------------------------------------------------------------
# rejection paths


@pytest.mark.parametrize(
    "raw",
    [
        b"not json at all",
        b"[1, 2, 3]",
        b'{"task_id": "t"}',  # neither payload nor output
        b'{"task_id": "t", "payload": "p", "output": "o", "tokens_used": 1,'
        b' "cost_usd": "0", "completed_at": "2026-01-01T00:00:00Z"}',  # ambiguous
        b'{"task_id": 7, "payload": "p"}',  # wrong type
        b'{"task_id": "t", "output": "o"}',  # result missing required keys
        b'{"task_id": "t", "output": "o", "tokens_used": "many",'
        b' "cost_usd": "0", "completed_at": "2026-01-01T00:00:00Z"}',
        b'{"task_id": "t", "output": "o", "tokens_used": 1,'
        b' "cost_usd": "0", "completed_at": "yesterday"}',
        b'{"task_id": "t", "output": "o", "tokens_used": 1,'
        b' "cost_usd": "0", "completed_at": "2026-01-01T00:00:00"}',  # naive timestamp
    ],
)
def test_malformed_inputs(raw):
    with pytest.raises(MalformedMessage):
        decode_message(raw)


_RESULT = {
    "task_id": "t",
    "output": "o",
    "tokens_used": 1,
    "cost_usd": "0.01",
    "completed_at": "2026-01-01T00:00:00Z",
}
_CLAIM = {"skill": "s", "value": 0.5, "claim_type": "self_claimed"}
_CONTRACT = {"contract_id": "c", "objective": "o", "policy": {"failure_policy": "fail_open"}}


def _with_budget_cost(cost):
    policy = dict(_CONTRACT["policy"], budget={"max_cost_usd": cost})
    return json.dumps(dict(_CONTRACT, policy=policy))


@pytest.mark.parametrize(
    "raw, message",
    [
        pytest.param(
            '{"ext":' + "[" * 100000 + "]" * 100000 + "}",
            "message: invalid JSON (nested too deeply)",
            id="deep-array",
        ),
        pytest.param(
            '{"ext":' + '{"a":' * 100000 + "1" + "}" * 100001,
            "message: invalid JSON (nested too deeply)",
            id="deep-object",
        ),
        pytest.param(
            '{"ext":' + "7" * 5000 + "}",
            "message: invalid JSON (integer too long)",
            id="long-integer",
        ),
        pytest.param(
            json.dumps(dict(_RESULT, cost_usd="NaN")),
            "message.cost_usd: non-finite decimal 'NaN'",
            id="nan-money",
        ),
        pytest.param(
            json.dumps(dict(_RESULT, cost_usd="sNaN")),
            "message.cost_usd: non-finite decimal 'sNaN'",
            id="snan-money",
        ),
        pytest.param(
            json.dumps(dict(_RESULT, cost_usd="-Infinity")),
            "message.cost_usd: non-finite decimal '-Infinity'",
            id="infinite-money-string",
        ),
        pytest.param(
            json.dumps(dict(_RESULT, cost_usd=float("inf"))),
            "message: invalid JSON (Infinity is not JSON)",
            id="infinite-money-number",
        ),
        pytest.param(
            _with_budget_cost("sNaN"),
            "contract.policy.budget.max_cost_usd: non-finite decimal 'sNaN'",
            id="snan-budget",
        ),
        pytest.param(
            json.dumps(dict(_RESULT, cost_usd="1_0")),
            "message.cost_usd: invalid decimal '1_0'",
            id="money-with-an-underscore",
        ),
        pytest.param(
            json.dumps(dict(_RESULT, cost_usd=" 0.5 ")),
            "message.cost_usd: invalid decimal ' 0.5 '",
            id="money-in-whitespace",
        ),
        pytest.param(
            json.dumps(dict(_RESULT, cost_usd="\u0661")),
            "message.cost_usd: invalid decimal '\u0661'",
            id="money-in-non-ascii-digits",
        ),
        pytest.param(
            json.dumps(dict(_RESULT, completed_at="0001-01-01T00:00:00+01:00")),
            "message.completed_at: timestamp '0001-01-01T00:00:00+01:00' is out of range in UTC",
            id="timestamp-before-year-one",
        ),
        pytest.param(
            json.dumps(dict(_CLAIM, observed_at="9999-12-31T23:00:00-05:00")),
            "claim.observed_at: timestamp '9999-12-31T23:00:00-05:00' is out of range in UTC",
            id="timestamp-after-year-9999",
        ),
        pytest.param(
            json.dumps(
                {"category": "runtime", "severity": "error", "retryable": "no",
                 "code": "X", "message": "m"}
            ),
            "error.retryable: expected a boolean",
            id="retryable-as-string",
        ),
        pytest.param(
            json.dumps(dict(_RESULT, output="ok \ud800")).encode(),
            "message: a string holds an unpaired surrogate",
            id="lone-surrogate-escape",
        ),
        pytest.param(
            json.dumps(dict(_RESULT, output="ok \udc00"), ensure_ascii=False),
            "message: a string holds an unpaired surrogate",
            id="lone-surrogate-in-a-str",
        ),
        pytest.param(
            json.dumps(dict(_CLAIM, **{"x_\ud83d": 1})),
            "message: a string holds an unpaired surrogate",
            id="lone-surrogate-in-an-unknown-key",
        ),
        pytest.param(
            json.dumps(_CLAIM)[:-1] + ',"ext":' + '{"x":' * 300 + '"\\ud800"' + "}" * 301,
            "message: a string holds an unpaired surrogate",
            id="lone-surrogate-300-levels-deep",
        ),
        pytest.param(
            json.dumps(dict(_CLAIM, value=10**400)),
            "claim.value: integer too large for a float",
            id="401-digit-claim-value",
        ),
        # json.loads's own verdict on a leading byte order mark, in bytes and in str input
        pytest.param(
            b"\xef\xbb\xbf" + json.dumps(_CLAIM).encode(),
            "message: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))",
            id="byte-order-mark-in-bytes",
        ),
        pytest.param(
            "\ufeff" + json.dumps(_CLAIM),
            "message: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))",
            id="byte-order-mark-in-a-str",
        ),
    ],
)
def test_hostile_input_is_malformed_not_a_crash(raw, message):
    with pytest.raises(MalformedMessage) as info:
        decode_any(raw)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "escape, text",
    [("\\ud83d\\ude00", "\U0001F600"), ("\\\\ud800", "\\ud800")],
    ids=["paired-surrogate-escape", "escaped-backslash"],
)
def test_escapes_that_spell_text_still_decode(escape, text):
    raw = json.dumps(dict(_RESULT, output="@")).replace("@", escape).encode()
    result = decode_message(raw)
    assert result.output == text
    assert decode_message(encode_message(result)) == result


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TaskSubmit(7, "p"), "TaskSubmit.task_id: expected a string"),
        (
            lambda: TaskResult("t", "o", "5", Decimal("0.01"), datetime(2026, 1, 1, tzinfo=UTC)),
            "TaskResult.tokens_used: expected an integer",
        ),
        (lambda: Budget(max_tokens=True), "Budget.max_tokens: expected an integer"),
        (lambda: QualityClaim("s", "0.9", "self_claimed"), "QualityClaim.value: expected a number"),
        (lambda: QualityClaim("s", True, "self_claimed"), "QualityClaim.value: expected a number"),
        (
            lambda: LdpError("runtime", "error", 1, "X", "m"),
            "LdpError.retryable: expected a boolean",
        ),
        (
            lambda: Provenance("unverified", lineage=(1,)),
            "Provenance.lineage: expected a sequence of strings",
        ),
        (
            lambda: PolicyEnvelope("fail_open", safety_constraints=["no pii", None]),
            "PolicyEnvelope.safety_constraints: expected a sequence of strings",
        ),
        (
            lambda: PolicyEnvelope("fail_open", safety_constraints="no pii"),
            "PolicyEnvelope.safety_constraints: expected a sequence of strings",
        ),
        (
            lambda: PolicyEnvelope("fail_open", safety_constraints=None),
            "PolicyEnvelope.safety_constraints: expected a sequence of strings",
        ),
        (
            lambda: TaskResult("t", None, 1, Decimal("0.01"), datetime(2026, 1, 1, tzinfo=UTC)),
            "TaskResult.output: expected a string",
        ),
        (
            lambda: DelegationContract("c", "o", policy="x"),
            "DelegationContract.policy: expected a PolicyEnvelope",
        ),
        (
            lambda: TaskSubmit("t", "p", contract=PolicyEnvelope("fail_open")),
            "TaskSubmit.contract: expected a DelegationContract",
        ),
        (
            lambda: QualityClaim("s", 0.5, "self_claimed", observed_at="2026-01-01"),
            "QualityClaim.observed_at: expected a datetime",
        ),
        (
            lambda: Budget(max_cost_usd=True),
            "Budget.max_cost_usd: expected a decimal string or number",
        ),
        (
            lambda: RoutingPolicy.by_claims("s", ClaimType.SELF_CLAIMED, max_staleness="1d"),
            "RoutingPolicy.max_staleness: expected a timedelta",
        ),
    ],
    ids=[
        "int-for-str", "str-for-int", "bool-for-int", "str-for-float", "bool-for-float",
        "int-for-bool", "int-in-a-tuple", "none-in-a-list", "bare-str-for-a-tuple",
        "none-for-a-tuple", "none-for-required", "str-for-a-wire-type", "other-wire-type",
        "str-for-a-timestamp", "bool-for-money", "str-for-a-timedelta",
    ],
)
def test_fields_of_another_type_raise_type_error_at_construction(build, message):
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == message


def test_an_int_claim_value_is_stored_as_its_float():
    claim = QualityClaim("s", 1, "self_claimed")
    assert type(claim.value) is float
    text = canonical_bytes(to_wire(claim))
    assert text == b'{"claim_type":"self_claimed","skill":"s","value":1.0}'
    assert decode_any(text) == claim


@pytest.mark.parametrize(
    "text, fault",
    [
        ("2026-W11-1T18:00:00Z", "invalid RFC 3339 timestamp"),  # ISO week date
        ("20260315T180000Z", "invalid RFC 3339 timestamp"),  # ISO basic format
        ("2026-03-15T18:00:00,5Z", "invalid RFC 3339 timestamp"),  # comma before the fraction
        ("2026-03-15T18:00:00.1234567Z", "invalid RFC 3339 timestamp"),  # finer than a microsecond
        ("2026-03-15T18Z", "invalid RFC 3339 timestamp"),
        ("2026-03-15T18:00Z", "invalid RFC 3339 timestamp"),
        ("2026-03-15 18:00:00Z", "invalid RFC 3339 timestamp"),
        ("2026-03-15T18:00:00+05:60", "invalid RFC 3339 timestamp"),
        ("\u0662\u0660\u0662\u0666-03-15T18:00:00Z", "invalid RFC 3339 timestamp"),  # non-ASCII digits
        ("2026-02-29T18:00:00Z", "invalid RFC 3339 timestamp"),  # not a leap year
        ("2026-03-15T18:00:00.5", "lacks a UTC offset"),
    ],
)
def test_timestamps_outside_the_rfc_3339_grammar_are_rejected_on_every_python(text, fault):
    with pytest.raises(MalformedMessage, match=f"claim.observed_at: .*{fault}"):
        decode_any(json.dumps(dict(_CLAIM, observed_at=text)))


@pytest.mark.parametrize(
    "text, instant",
    [
        ("2026-03-15T18:00:00.5Z", datetime(2026, 3, 15, 18, 0, 0, 500000, tzinfo=UTC)),
        ("2026-03-15t18:00:00z", datetime(2026, 3, 15, 18, tzinfo=UTC)),
        ("2026-03-15T19:00:00.123456+01:00", datetime(2026, 3, 15, 18, 0, 0, 123456, tzinfo=UTC)),
    ],
)
def test_rfc_3339_timestamps_decode_to_the_same_instant_on_every_python(text, instant):
    assert decode_any(json.dumps(dict(_CLAIM, observed_at=text))).observed_at == instant


@pytest.mark.parametrize(
    "call, value, message",
    [
        (to_wire, "text", "not a wire type: str"),
        (encode_message, sample_contract(), "not a protocol message: DelegationContract"),
        (validate_invariants, 7, "not a protocol domain type: int"),
    ],
)
def test_values_that_are_not_wire_types_raise_type_error(call, value, message):
    with pytest.raises(TypeError, match=message):
        call(value)


def test_years_before_1000_encode_with_four_digits_and_roundtrip():
    msg = sample_result(completed_at=datetime(1, 1, 1, tzinfo=UTC))
    assert json.loads(encode_message(msg))["completed_at"] == "0001-01-01T00:00:00Z"
    assert decode_message(encode_message(msg)) == msg


def test_unknown_enum_value_is_an_invariant_violation():
    raw = json.dumps(
        {
            "task_id": "t",
            "payload": "p",
            "contract": {
                "contract_id": "c",
                "objective": "o",
                "policy": {"failure_policy": "fail_maybe"},
            },
        }
    )
    with pytest.raises(InvariantViolation):
        decode_message(raw)


def test_empty_task_id_is_an_invariant_violation():
    with pytest.raises(InvariantViolation) as info:
        decode_message(b'{"task_id": "", "payload": "p"}')
    assert info.value.violations == ["TaskSubmit.task_id: must be non-empty"]


def test_quality_value_out_of_range_is_rejected():
    with pytest.raises(InvariantViolation):
        decode_any(json.dumps({"skill": "code", "value": 1.3, "claim_type": "self_claimed"}))


def test_negative_tokens_rejected_at_decode():
    raw = json.dumps(
        {
            "task_id": "t",
            "output": "o",
            "tokens_used": -1,
            "cost_usd": "0.01",
            "completed_at": "2026-01-01T00:00:00Z",
        }
    )
    with pytest.raises(InvariantViolation):
        decode_message(raw)


def test_token_counts_past_2_53_are_invariant_violations():
    # contract violations report token figures as floats, exact up to 2**53
    assert validate_invariants(Budget(max_tokens=2**53)) == []
    assert validate_invariants(Budget(max_tokens=2**53 + 1)) == [
        f"Budget.max_tokens: must be at most 2**53 (got {2**53 + 1})"
    ]
    result = TaskResult("t", "o", 10**400, Decimal("0.01"), datetime(2026, 1, 1, tzinfo=UTC))
    assert validate_invariants(result) == [
        f"TaskResult.tokens_used: must be at most 2**53 (got {10**400})"
    ]
    raw = json.dumps(to_wire(result))
    with pytest.raises(InvariantViolation, match="tokens_used: must be at most 2"):
        decode_message(raw)


def test_money_past_2_53_is_an_invariant_violation():
    # float(Decimal("1e400")) is inf, which no violation record may carry
    assert validate_invariants(Budget(max_cost_usd=2**53)) == []
    assert validate_invariants(Budget(max_cost_usd="9007199254740992.01")) == [
        "Budget.max_cost_usd: must be at most 2**53 (got 9007199254740992.01)"
    ]
    result = TaskResult("t", "o", 1, Decimal("1e400"), datetime(2026, 1, 1, tzinfo=UTC))
    assert validate_invariants(result) == [
        "TaskResult.cost_usd: must be at most 2**53 (got 1E+400)"
    ]
    with pytest.raises(InvariantViolation, match=r"cost_usd: must be at most 2\*\*53"):
        decode_message(json.dumps(to_wire(result)))
    with pytest.raises(InvariantViolation, match=r"max_cost_usd: must be at most 2\*\*53"):
        decode_contract(_with_budget_cost("1e400"))


_NON_FINITE = ["NaN", "sNaN", "Infinity", "-Infinity"]


@pytest.mark.parametrize(
    "amount",
    [
        *(pytest.param(Decimal(v), id=f"Decimal-{v}") for v in _NON_FINITE),
        *(pytest.param(v, id=f"str-{v}") for v in [*_NON_FINITE, " inf ", "-nan"]),
        *(pytest.param(v, id=f"float-{v}") for v in [math.nan, math.inf, -math.inf]),
    ],
)
def test_non_finite_money_is_refused_at_construction(amount):
    # no amount compares with these, so none is built, as none decodes
    message = f"non-finite decimal {re.escape(repr(amount))}$"
    with pytest.raises(ValueError, match=rf"^Budget\.max_cost_usd: {message}"):
        Budget(max_cost_usd=amount)
    with pytest.raises(ValueError, match=rf"^TaskResult\.cost_usd: {message}"):
        TaskResult("t", "o", 1, amount, datetime(2026, 1, 1, tzinfo=UTC))


def _case_variants(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(word, upper))
    )


# Money drawn wide: decimal strings and strings near the grammar, every
# spelling of NaN and infinity, the strings the ASCII grammar refuses, and
# numbers of every sort a caller may pass.
_any_money = st.one_of(
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.text(alphabet="0123456789.+-eE_ ", max_size=8),
    st.builds(
        lambda pad, sign, word: f"{pad}{sign}{word}{pad}",
        st.sampled_from(["", " ", "\t\n"]),
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["nan", "snan", "nan12", "inf", "infinity"]).flatmap(_case_variants),
    ),
    st.sampled_from(["1_0", " 0.5 ", "\u0661", "\uff11", "0.5\n", ""]),
    st.floats(),
    st.integers(),
    st.booleans(),
    st.decimals(),
)


def _built_budget(amount):
    # (budget, None) when it constructs, else (None, the reason without the field name)
    try:
        return Budget(max_cost_usd=amount), None
    except (TypeError, ValueError) as exc:
        return None, str(exc).removeprefix("Budget.max_cost_usd: ")


@settings(max_examples=500, deadline=None)
@given(_any_money)
@example("NaN")
def test_construction_and_the_decoder_read_money_by_one_rule(amount):
    if isinstance(amount, Decimal):
        # a Decimal crosses the wire as its string, and builds as that string does
        budget, _ = _built_budget(amount)
        amount = str(amount)
        again, _ = _built_budget(amount)
        assert (budget is None) == (again is None)
        assert budget is None or str(budget.max_cost_usd) == str(again.max_cost_usd)
    budget, reason = _built_budget(amount)
    try:
        decoded = decode_contract(_with_budget_cost(amount)).policy.budget
    except InvariantViolation as exc:
        # read alike, then flagged by the budget's own rules, as in memory
        assert budget is not None and validate_invariants(budget) == exc.violations
    except MalformedMessage as exc:
        assert budget is None
        if isinstance(amount, float) and not math.isfinite(amount):
            # json.dumps writes NaN or Infinity, a token JSON does not have
            assert str(exc) == f"message: invalid JSON ({json.dumps(amount)} is not JSON)"
        else:
            assert str(exc) == f"contract.policy.budget.max_cost_usd: {reason}"
    else:
        assert budget == decoded
        assert str(budget.max_cost_usd) == str(decoded.max_cost_usd)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_canonical_bytes_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        canonical_bytes({"observed": value})


def test_result_with_empty_lineage_provenance_rejected():
    raw = json.dumps(
        {
            "task_id": "t",
            "output": "o",
            "tokens_used": 1,
            "cost_usd": "0.01",
            "completed_at": "2026-01-01T00:00:00Z",
            "provenance": {"verification_status": "unverified"},
        }
    )
    with pytest.raises(InvariantViolation):
        decode_message(raw)


def test_single_fault_outcomes_match_the_pinned_table():
    # Each mutant of tests/data/wire_errors.json holds one fault; the table
    # pins the exception class and message every decoder gave it.
    cases = json.loads(
        (Path(__file__).parent / "data" / "wire_errors.json").read_text(encoding="utf-8")
    )
    decoders = {f.__name__: f for f in (decode_message, decode_contract, decode_any)}
    mismatches = []
    for case in cases:
        text = json.dumps(case["input"])
        for decoder, expected in case["outcomes"].items():
            try:
                got = ["ok", type(decoders[decoder](text)).__name__]
            except Exception as exc:
                got = [type(exc).__name__, str(exc)]
            if got != expected:
                mismatches.append((decoder, text, expected, got))
    assert len(cases) > 400
    assert mismatches == []


def test_first_fault_in_declaration_order_is_reported():
    # TaskResult declares task_id before provenance, so the missing key wins
    raw = json.dumps(
        {
            "output": "o",
            "tokens_used": 1,
            "cost_usd": "0.01",
            "completed_at": "2026-01-01T00:00:00Z",
            "provenance": "x",
        }
    )
    with pytest.raises(MalformedMessage) as info:
        decode_message(raw)
    assert str(info.value) == "message: missing required key 'task_id'"


def test_field_table_has_one_row_per_dataclass_field_in_declaration_order():
    assert tuple(FIELDS) == get_args(DomainType)
    for cls, rows in FIELDS.items():
        expected = [
            (f.name, f.default is MISSING and f.default_factory is MISSING, f.default)
            for f in dataclasses.fields(cls)
        ]
        assert [(name, required, default) for name, _, _, required, default, _ in rows] == expected
    assert sum(len(rows) for rows in FIELDS.values()) == 34


def test_annotation_without_a_wire_kind_fails_at_table_build():
    @dataclass(frozen=True)
    class Tally:
        label: str
        counts: list[int]

    with pytest.raises(TypeError, match=r"^Tally\.counts: no wire kind for "):
        build_rows(Tally)


_ENUM_FIELDS = [
    pytest.param(cls, name, hint, id=f"{cls.__name__}.{name}")
    for cls in get_args(DomainType)
    for name, hint, *_ in _fields(cls)
    if isinstance(hint, type) and issubclass(hint, Enum)
]


def _samples() -> dict:
    contract = sample_contract()
    return {
        Budget: contract.policy.budget,
        PolicyEnvelope: contract.policy,
        DelegationContract: contract,
        QualityClaim: QualityClaim("code", 0.9, ClaimType.SELF_CLAIMED),
        LdpError: _error(ErrorCategory.POLICY, "X", "m", None),
        Provenance: Provenance(VerificationStatus.UNVERIFIED, lineage=("a",)),
        TaskSubmit: TaskSubmit("t-1", "p", contract),
        TaskResult: sample_result(),
    }


@pytest.mark.parametrize(("cls", "name", "enum"), _ENUM_FIELDS)
def test_every_enum_field_takes_a_member_or_its_value(cls, name, enum):
    sample = _samples()[cls]
    for member in enum:
        by_member = dataclasses.replace(sample, **{name: member})
        by_value = dataclasses.replace(sample, **{name: member.value})
        assert getattr(by_member, name) is member
        assert getattr(by_value, name) is member
        assert validate_invariants(by_value) == validate_invariants(by_member)
        assert to_wire(by_value) == to_wire(by_member)
    with pytest.raises(ValueError, match="is not a valid"):
        dataclasses.replace(sample, **{name: "no_such_value"})


def test_there_are_five_enum_fields():
    assert len(_ENUM_FIELDS) == 5


# ---------------------------------------------------------------------------
# validate_invariants


def test_sample_contract_is_clean():
    assert validate_invariants(sample_contract()) == []


def test_empty_budget_yields_one_violation_naming_budget():
    violations = validate_invariants(Budget())
    assert len(violations) == 1
    assert violations[0].startswith("Budget")


def test_a_zero_budget_limit_is_not_strictly_positive():
    assert validate_invariants(Budget(max_tokens=0)) == [
        "Budget.max_tokens: must be strictly positive (got 0)"
    ]
    assert validate_invariants(Budget(max_cost_usd=0)) == [
        "Budget.max_cost_usd: must be strictly positive (got 0)"
    ]


def test_attested_claim_without_issuer_is_flagged():
    claim = QualityClaim(skill="code", value=0.9, claim_type=ClaimType.ISSUER_ATTESTED)
    violations = validate_invariants(claim)
    assert len(violations) == 1
    assert "issuer" in violations[0]


def test_ldp_error_semantics_consistency_is_checked():
    bad = LdpError(
        category=ErrorCategory.TRANSPORT,
        severity=Severity.FATAL,
        retryable=False,
        code="X",
        message="m",
    )
    violations = validate_invariants(bad)
    assert any("retryable" in v for v in violations)
    assert any("severity" in v for v in violations)


def test_negative_depth_is_flagged():
    policy = PolicyEnvelope(failure_policy=FailurePolicy.FAIL_OPEN, max_delegation_depth=-1)
    assert any("max_delegation_depth" in v for v in validate_invariants(policy))


def test_invariant_messages_list_own_rules_before_nested_values():
    # each value reports its own rules, then its nested values in declaration order
    contract = DelegationContract(
        contract_id="",
        objective="o",
        policy=PolicyEnvelope(
            failure_policy=FailurePolicy.FAIL_OPEN, budget=Budget(), max_delegation_depth=-1
        ),
    )
    assert validate_invariants(TaskSubmit(task_id="", payload="p", contract=contract)) == [
        "TaskSubmit.task_id: must be non-empty",
        "DelegationContract.contract_id: must be non-empty",
        "PolicyEnvelope.max_delegation_depth: must be >= 0 (got -1)",
        "Budget: at least one of max_tokens or max_cost_usd must be present",
    ]
    result = sample_result(
        tokens_used=-1, provenance=Provenance(VerificationStatus.UNVERIFIED)
    )
    assert validate_invariants(result) == [
        "TaskResult.tokens_used: must be >= 0 (got -1)",
        "Provenance.lineage: must have at least one entry when attached to a result",
    ]


# ---------------------------------------------------------------------------
# decode_any


def test_decode_any_dispatches_by_shape():
    assert isinstance(decode_any(b'{"task_id": "t", "payload": "p"}'), TaskSubmit)
    contract_doc = json.dumps(
        {"contract_id": "c", "objective": "o", "policy": {"failure_policy": "fail_open"}}
    )
    assert isinstance(decode_any(contract_doc), DelegationContract)
    claim_doc = json.dumps({"skill": "s", "value": 0.5, "claim_type": "self_claimed"})
    assert isinstance(decode_any(claim_doc), QualityClaim)
    with pytest.raises(MalformedMessage):
        decode_any(b'{"something": "else"}')


@pytest.mark.parametrize("missing", ["code", "category"])
def test_an_error_document_needs_both_category_and_code(missing):
    semantics = default_semantics(ErrorCategory.TRANSPORT)
    doc = {
        "category": "transport",
        "severity": semantics.severity.value,
        "retryable": semantics.retryable,
        "code": "X",
        "message": "m",
    }
    assert isinstance(decode_any(json.dumps(doc)), LdpError)
    del doc[missing]
    with pytest.raises(MalformedMessage, match="^document: does not match any known wire object$"):
        decode_any(json.dumps(doc))


def test_decode_contract_checks_invariants():
    doc = json.dumps(
        {
            "contract_id": "",
            "objective": "o",
            "policy": {"failure_policy": "fail_open"},
        }
    )
    with pytest.raises(InvariantViolation):
        decode_contract(doc)


# ---------------------------------------------------------------------------
# property tests

_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=40
)
_id_text = st.text(alphabet="abcdefghijk-0123456789", min_size=1, max_size=16)
# Every strategy below draws each field in any in-memory form construction
# accepts, so the roundtrips check that each form encodes and decodes back.
_cents = st.integers(min_value=1, max_value=10**7)
_money = st.one_of(
    _cents.map(lambda c: Decimal(c) / 100),
    _cents.map(lambda c: str(Decimal(c) / 100)),
    st.integers(min_value=1, max_value=10**5),
)
_naive = st.datetimes(min_value=datetime(1971, 1, 1), max_value=datetime(9000, 12, 31))
_instant = st.one_of(
    _naive,  # read as UTC
    _naive.map(lambda d: d.replace(tzinfo=UTC)),
    st.builds(
        lambda d, minutes: d.replace(tzinfo=timezone(timedelta(minutes=minutes))),
        _naive,
        st.integers(min_value=-14 * 60, max_value=14 * 60),
    ),
)


def _member_or_value(enum):
    return st.sampled_from(enum).flatmap(lambda member: st.sampled_from([member, member.value]))


def _sequence(items, **sizes):
    return st.lists(items, **sizes).flatmap(lambda xs: st.sampled_from([xs, tuple(xs)]))


_budget = st.builds(
    Budget,
    max_tokens=st.one_of(st.none(), st.integers(min_value=1, max_value=10**9)),
    max_cost_usd=_money,
)
_policy = st.builds(
    PolicyEnvelope,
    failure_policy=_member_or_value(FailurePolicy),
    budget=st.one_of(st.none(), _budget),
    safety_constraints=_sequence(_text, max_size=3),
    max_delegation_depth=st.one_of(st.none(), st.integers(min_value=0, max_value=64)),
)
_contract = st.builds(
    DelegationContract,
    contract_id=_id_text,
    objective=_text,
    policy=_policy,
    success_criteria=_sequence(_text, max_size=3),
    deadline=st.one_of(st.none(), _instant),
)
_provenance = st.builds(
    Provenance,
    verification_status=_member_or_value(VerificationStatus),
    evidence_refs=_sequence(_id_text, max_size=3),
    lineage=_sequence(_id_text, min_size=1, max_size=4),
)
_submit = st.builds(
    TaskSubmit,
    task_id=_id_text,
    payload=_text,
    contract=st.one_of(st.none(), _contract),
)
_result = st.builds(
    TaskResult,
    task_id=_id_text,
    output=_text,
    tokens_used=st.integers(min_value=0, max_value=10**9),
    cost_usd=_money,
    completed_at=_instant,
    provenance=st.one_of(st.none(), _provenance),
)
_message = st.one_of(_submit, _result)
_claim = st.builds(
    QualityClaim,
    skill=_text,
    value=st.one_of(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=1)),
    claim_type=_member_or_value(ClaimType),
    issuer=st.one_of(st.none(), _id_text),
    observed_at=st.one_of(st.none(), _instant),
).filter(lambda c: c.claim_type is not ClaimType.ISSUER_ATTESTED or c.issuer)


def _error(category, code, message, partial_output, as_values=False):
    semantics = default_semantics(category)
    severity = semantics.severity
    if as_values:
        category, severity = category.value, severity.value
    return LdpError(category, severity, semantics.retryable, code, message, partial_output)


_ldp_error = st.builds(
    _error,
    st.sampled_from(ErrorCategory),
    _id_text,
    _text,
    st.one_of(st.none(), _text),
    st.booleans(),
)
_TABLE_VALUES = {
    Budget: _budget,
    PolicyEnvelope: _policy,
    DelegationContract: _contract,
    QualityClaim: _claim,
    Provenance: _provenance,
    LdpError: _ldp_error,
    TaskSubmit: _submit,
    TaskResult: _result,
}

_SCHEMA_KEYS = {
    "task_id", "payload", "output", "tokens_used", "cost_usd", "completed_at",
    "provenance", "contract", "contract_id", "objective", "success_criteria",
    "policy", "failure_policy", "budget", "max_tokens", "max_cost_usd",
    "safety_constraints", "max_delegation_depth", "deadline",
    "verification_status", "evidence_refs", "lineage",
    "skill", "value", "claim_type", "issuer", "observed_at",
}
_unknown_key = _id_text.map(lambda s: "x_" + s).filter(lambda s: s not in _SCHEMA_KEYS)
_json_value = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), _text
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_unknown_key, inner, max_size=3)
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(_message)
def test_roundtrip_identity(msg):
    assert decode_message(encode_message(msg)) == msg


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FIELDS, key=lambda cls: cls.__name__)).flatmap(
    lambda cls: _TABLE_VALUES[cls]
))
def test_table_roundtrip_for_every_type(value):
    wire_form = to_wire(value)
    assert from_wire(type(value), wire_form, "value") == value
    text = canonical_bytes(wire_form)
    assert from_wire(type(value), json.loads(text), "value") == value
    if not isinstance(value, (Budget, PolicyEnvelope, Provenance)):
        assert decode_any(text) == value


@settings(max_examples=150, deadline=None)
@given(_message)
def test_no_absent_or_empty_keys_on_the_wire(msg):
    def walk(node):
        if isinstance(node, dict):
            for value in node.values():
                assert value is not None
                assert value != [] and value != {}
                walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(json.loads(encode_message(msg)))


@settings(max_examples=150, deadline=None)
@given(_message, st.dictionaries(_unknown_key, _json_value, min_size=1, max_size=4), st.data())
def test_forward_tolerance_unknown_key_injection(msg, extras, data):
    obj = json.loads(encode_message(msg))
    nested = [v for v in obj.values() if isinstance(v, dict)]
    if nested:
        target = data.draw(st.sampled_from(nested))
        target.update(extras)
    obj.update(extras)
    assert decode_message(json.dumps(obj)) == msg


def _built_as_construction_builds(value):
    # The decoder skips construction's checks, so they must find nothing to
    # change in a decoded value, nested values included.
    rebuilt = dataclasses.replace(value)
    assert rebuilt == value
    for field in dataclasses.fields(value):
        item, again = getattr(value, field.name), getattr(rebuilt, field.name)
        assert type(again) is type(item)
        assert again is item  # e.g. a timestamp already in UTC, not merely the same instant
        if dataclasses.is_dataclass(item):
            _built_as_construction_builds(item)


def _decodes_to_a_valid_value_or_raises_decode_error(raw):
    try:
        value = decode_any(raw)
    except DecodeError:
        return
    assert validate_invariants(value) == []
    _built_as_construction_builds(value)
    assert decode_any(canonical_bytes(to_wire(value))) == value


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_decode_any_is_total_over_arbitrary_bytes(raw):
    _decodes_to_a_valid_value_or_raises_decode_error(raw)


# Values that land near the schema: its keys, its enum values, timestamps,
# money strings and the numbers that break float or datetime conversion.
_WIRE_KEYS = sorted(
    _SCHEMA_KEYS | {"category", "severity", "retryable", "code", "message", "partial_output"}
)
_ENUM_VALUES = [
    member.value
    for enum in (ClaimType, FailurePolicy, ErrorCategory, Severity, VerificationStatus)
    for member in enum
]
# unlike _text, this may hold unpaired surrogates, which no document may carry
_any_text = st.text(max_size=40)
_schema_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**53, 2**53 + 1, 10**400, -(10**20)]),
    st.floats(),
    _any_text,
    st.sampled_from(_ENUM_VALUES),
    st.sampled_from(
        [
            "2026-01-01T00:00:00Z",
            "0001-01-01T00:00:00+01:00",
            "9999-12-31T23:59:59-05:00",
            "0.01",
            "-1",
            "1e400",
            "NaN",
            "sNaN",
            "Infinity",
        ]
    ),
)
_schema_json = st.recursive(
    _schema_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(_WIRE_KEYS), _any_text), inner, max_size=8),
    ),
    max_leaves=20,
)
# a valid document of any table type with up to two of its keys overwritten
_patched_document = st.builds(
    lambda doc, patch: {**doc, **patch},
    st.one_of(*_TABLE_VALUES.values()).map(to_wire),
    st.dictionaries(st.sampled_from(_WIRE_KEYS), _schema_json, max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_schema_json, _patched_document), st.booleans())
@example({"skill": "s", "value": 10**400, "claim_type": "self_claimed"}, True)
def test_decode_any_is_total_over_arbitrary_json_values(value, ensure_ascii):
    # ensure_ascii writes a surrogate as a \u escape, otherwise as itself in a str
    _decodes_to_a_valid_value_or_raises_decode_error(json.dumps(value, ensure_ascii=ensure_ascii))


# Constructor arguments drawn wide: a field gets a value of its own
# annotation in any form, edge values included, or one of another sort
# altogether.
_edge_instant = st.datetimes().map(lambda d: d.replace(tzinfo=UTC)) | st.builds(
    lambda d, hours: d.replace(tzinfo=timezone(timedelta(hours=hours))),
    st.sampled_from([datetime.min, datetime.max]),
    st.sampled_from([-14, 14]),
)
_OWN_SORT = {
    str: _any_text,
    int: st.integers(),
    float: st.floats() | st.integers(),
    bool: st.booleans(),
    Decimal: st.one_of(
        _money, st.decimals(), st.floats(), st.text(alphabet="0123456789.-eEnaNsIf", max_size=8)
    ),
    datetime: _instant | _edge_instant,
    tuple[str, ...]: _sequence(_any_text, max_size=3) | _any_text,
}
_other_sort = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    _any_text,
    st.lists(_any_text, max_size=3),
    st.sampled_from(_ENUM_VALUES),
    st.decimals(),
    st.datetimes(),
    st.one_of(*_TABLE_VALUES.values()),
)


def _own_sort(hint):
    if hint in _TABLE_VALUES:
        return _TABLE_VALUES[hint]
    if isinstance(hint, type) and issubclass(hint, Enum):
        return _member_or_value(hint)
    return _OWN_SORT[hint]


def _wide_arguments(cls):
    # every field of its own sort but at most one, the odd one; optional fields may be left out
    def build(odd):
        required, optional = {}, {}
        for name, hint, is_required, *_ in _fields(cls):
            sort = _other_sort if name == odd else _own_sort(hint)
            (required if is_required else optional)[name] = sort
        return st.fixed_dictionaries(required, optional=optional)

    return st.sampled_from([None] + [row[0] for row in _fields(cls)]).flatmap(build)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS, key=lambda cls: cls.__name__)).flatmap(
    lambda cls: st.tuples(st.just(cls), _wide_arguments(cls))
))
def test_every_value_that_constructs_round_trips_or_is_flagged(drawn):
    # construction raises, or validate_invariants names a fault, or the
    # canonical wire form decodes back to an equal value
    cls, arguments = drawn
    try:
        value = cls(**arguments)
    except (TypeError, ValueError):
        return
    if validate_invariants(value):
        return
    wire_form = to_wire(value)
    try:
        text = canonical_bytes(wire_form)
    except UnicodeEncodeError:
        # a string with an unpaired surrogate has no UTF-8 form (see encode_message)
        assert re.search("[\ud800-\udfff]", json.dumps(wire_form, ensure_ascii=False))
        return
    assert from_wire(cls, json.loads(text), "value") == value


def test_canonical_keys_sort_by_code_point_not_utf16():
    # U+FF61 sorts before U+1F600 by code point; in UTF-16 (RFC 8785) the
    # surrogate pair of U+1F600 (D83D DE00) sorts first.
    assert canonical_bytes({"\U0001F600": 1, "\uFF61": 2}) == (
        '{"\uFF61":2,"\U0001F600":1}'.encode("utf-8")
    )


# ---------------------------------------------------------------------------
# from_wire against the decoder it replaced


def _reference_from_wire(cls, raw, path):
    """from_wire as it read before values of a field's normal type skipped the decoder:
    every row's decoder runs, an enum is called on its value, a nested object recurses here,
    and each field is set with object.__setattr__."""
    if not isinstance(raw, dict):
        raise MalformedMessage(f"{path}: expected an object")
    value = object.__new__(cls)
    for (name, _, decode, required, default, _), (_, hint, *_) in zip(FIELDS[cls], _fields(cls)):
        if required and name not in raw:
            raise MalformedMessage(f"{path}: missing required key {name!r}")
        item = raw.get(name)
        if item is None and not required:
            item = default
        elif hint in FIELDS:
            item = _reference_from_wire(hint, item, name if path == "message" else f"{path}.{name}")
        elif isinstance(hint, type) and issubclass(hint, Enum):
            if not isinstance(item, str):
                raise MalformedMessage(f"{path}.{name}: expected a string")
            try:
                item = hint(item)
            except ValueError:
                unknown = f"{path}.{name}: unknown {hint.__name__} value {item!r}"
                raise InvariantViolation([unknown]) from None
        else:
            item = decode(item, path, name)
        object.__setattr__(value, name, item)
    return value


def _decoded(decode, cls, raw, path):
    try:
        return decode(cls, raw, path)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same(got, expected):
    assert type(got) is type(expected)
    assert got == expected and repr(got) == repr(expected)
    if type(got) in FIELDS:
        assert list(vars(got)) == list(vars(expected))
        for name in vars(expected):
            _assert_same(getattr(got, name), getattr(expected, name))


_ABSENT = object()


def _patched(doc, changes, extras):
    doc = {**doc, **extras}
    for name, item in changes.items():
        if item is _ABSENT:
            doc.pop(name, None)
        else:
            doc[name] = item
    return doc


def _drawn_document(cls, depth=0):
    """A valid wire object of ``cls`` with up to three fields dropped or set to drawn JSON:
    ints, floats and bools of any field, huge ints, nulls, enum values known and unknown, and
    nested objects of any wire type, drawn the same way; plus unknown keys."""
    nested = st.sampled_from(_CLASSES).flatmap(lambda c: _drawn_document(c, depth + 1))
    item = st.one_of(st.just(_ABSENT), _schema_json, *([nested] if depth < 2 else []))
    names = [row[0] for row in FIELDS[cls]]
    return st.builds(
        _patched,
        _TABLE_VALUES[cls].map(to_wire),
        st.dictionaries(st.sampled_from(names), item, max_size=3),
        st.dictionaries(_unknown_key, _json_value, max_size=2),
    )


_CLASSES = sorted(FIELDS, key=lambda cls: cls.__name__)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(_CLASSES).flatmap(lambda cls: st.tuples(st.just(cls), _drawn_document(cls))),
    st.sampled_from(["message", "claim"]),
)
@example((QualityClaim, {"skill": "s", "value": 1, "claim_type": "self_claimed"}), "message")
@example((QualityClaim, {"skill": "s", "value": 10**400, "claim_type": "self_claimed"}), "claim")
@example((QualityClaim, {"skill": "s", "value": 0.5, "claim_type": "peer_reviewed"}), "claim")
@example((Budget, {"max_tokens": True}), "message")
@example((Budget, {"max_tokens": 10**30, "max_cost_usd": 1}), "message")
@example((LdpError, {"category": "runtime", "severity": "error", "retryable": 1, "code": "c",
                     "message": "m"}), "message")
# not JSON, but a caller's dict: a ready-built object is still refused, a member still read
@example((PolicyEnvelope, {"failure_policy": "fail_open", "budget": Budget(max_tokens=1)}), "message")
@example((PolicyEnvelope, {"failure_policy": FailurePolicy.FAIL_OPEN}), "message")
def test_from_wire_decodes_as_the_decoder_it_replaced(drawn, path):
    cls, raw = drawn
    got, expected = _decoded(from_wire, cls, raw, path), _decoded(_reference_from_wire, cls, raw, path)
    _assert_same(got, expected)


# the fields that read a JSON number as a float or as money
_NUMBER_KEYS = sorted(
    {name for cls in _CLASSES for name, hint, *_ in _fields(cls) if hint in (float, Decimal)}
)


def _walk(node):
    """Every value in a JSON value, itself first, in the order json.dumps writes them."""
    yield node
    if isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _walk(child)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_CLASSES).flatmap(_drawn_document),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.data(),
)
def test_a_non_finite_number_anywhere_is_not_json(doc, number, data):
    # json.dumps writes it as NaN, Infinity or -Infinity: Python's reading of JSON, not JSON
    target = data.draw(st.sampled_from([v for v in _walk(doc) if isinstance(v, (dict, list))]))
    if isinstance(target, list):
        target.insert(data.draw(st.integers(0, len(target))), number)
    else:
        target[data.draw(st.sampled_from(_NUMBER_KEYS) | _unknown_key)] = number
    # the drawn document may hold one already; the parser stops at the first
    first = next(v for v in _walk(doc) if isinstance(v, float) and not math.isfinite(v))
    with pytest.raises(MalformedMessage) as info:
        decode_any(json.dumps(doc))
    assert str(info.value) == f"message: invalid JSON ({json.dumps(first)} is not JSON)"


def test_a_ready_built_object_in_a_dict_is_not_an_object():
    with pytest.raises(MalformedMessage, match=r"^budget: expected an object$"):
        from_wire(PolicyEnvelope, {"failure_policy": "fail_open", "budget": Budget(1)}, "message")


# ---------------------------------------------------------------------------
# the unpaired-surrogate test runs only when a text can hold a surrogate


def _always_reencoded(data):
    """_load_object's surrogate rule without its shortcut: every parsed document is
    re-encoded, whatever its text holds. For texts of JSON objects only."""
    parsed = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    try:
        json.dumps(parsed, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedMessage("message: a string holds an unpaired surrogate") from None
    return parsed


def _loaded(load, data):
    try:
        return load(data)
    except MalformedMessage as exc:
        return str(exc)


# lone and paired surrogates, the literal text of an escape in both cases, and other text
_PIECES = [
    "\ud800", "\udbff", "\udc00", "\udfff", "\ud83d\ude00", "\U0001F600",
    "\\ud800", "\\uDC00", "\\u00e9", "\n", "\\", "é", "報",
]
_piece_text = st.lists(
    st.one_of(st.text(alphabet='ab u"\\', max_size=3), st.sampled_from(_PIECES)), max_size=4
).map("".join)
_escape_json = st.recursive(
    st.one_of(_piece_text, st.integers(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_piece_text, inner, max_size=3)
    ),
    max_leaves=10,
)


def _dumped(doc, form, upper):
    """JSON text of ``doc``: every non-ASCII character escaped ("ascii"), none ("raw"), or
    only surrogates ("surrogates"); with ``upper``, every escape's hex digits upper case."""
    text = json.dumps(doc, ensure_ascii=form == "ascii")
    if form == "surrogates":
        text = re.sub("[\ud800-\udfff]", lambda m: f"\\u{ord(m.group()):04x}", text)
    if upper:
        text = re.sub(r"\\u([0-9a-f]{4})", lambda m: "\\u" + m.group(1).upper(), text)
    return text


@settings(max_examples=400, deadline=None)
@given(
    st.dictionaries(_piece_text, _escape_json, max_size=4),
    st.sampled_from(["ascii", "raw", "surrogates"]),
    st.booleans(),
)
@example({"a": "\ud800"}, "ascii", True)
@example({"\udc00": ["x", ["😀"]]}, "surrogates", False)
@example({"a": ["\\ud800"]}, "raw", False)
def test_the_surrogate_verdict_is_the_always_reencode_verdict(doc, form, upper):
    text = _dumped(doc, form, upper)
    inputs = [text]
    try:
        inputs.append(text.encode("utf-8"))
    except UnicodeEncodeError:
        pass  # a raw surrogate has no UTF-8 form, so only str input can carry one
    for data in inputs:
        assert _loaded(_load_object, data) == _loaded(_always_reencoded, data)


# ---------------------------------------------------------------------------
# the timestamp and string-list kinds against the converters they replaced


def _reference_utc(value):
    """types._utc as it read before it asked a tzinfo for its offset."""
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


def _reference_format_timestamp(value):
    """format_timestamp as it read before it formatted the UTC value's fields itself."""
    return _reference_utc(value).replace(tzinfo=None).isoformat() + "Z"


_REFERENCE_RFC3339 = re.compile(
    r"\d{4}-\d\d-\d\d[Tt]\d\d:\d\d:\d\d(\.\d{1,6})?([Zz]|[+-]\d\d:[0-5]\d)?", re.ASCII
)


def _reference_parse_timestamp(raw, path):
    """parse_timestamp as it read before a Z offset skipped the fraction padding and _utc."""
    if not isinstance(raw, str):
        raise MalformedMessage(f"{path}: expected an RFC 3339 string")
    match = _REFERENCE_RFC3339.fullmatch(raw)
    if match is None:
        raise MalformedMessage(f"{path}: invalid RFC 3339 timestamp {raw!r}")
    fraction, offset = match.groups()
    offset = "+00:00" if offset in ("Z", "z") else offset or ""
    try:
        parsed = datetime.fromisoformat(raw[:19] + (fraction or ".").ljust(7, "0") + offset)
    except ValueError:
        raise MalformedMessage(f"{path}: invalid RFC 3339 timestamp {raw!r}") from None
    if parsed.tzinfo is None:
        raise MalformedMessage(f"{path}: timestamp {raw!r} lacks a UTC offset")
    try:
        return _reference_utc(parsed)
    except ValueError:
        raise MalformedMessage(f"{path}: timestamp {raw!r} is out of range in UTC") from None


def _reference_str_list(raw, path, name):
    """The string-list kind's decoder as it read before it left enumerate out."""
    if not isinstance(raw, list):
        raise MalformedMessage(f"{path}.{name}: expected a list of strings")
    for i, item in enumerate(raw):
        if not isinstance(item, str):
            raise MalformedMessage(f"{path}.{name}[{i}]: expected a string")
    return tuple(raw)


def _verdict(call, *args):
    """What a call gives: the value's type, repr and whether it holds the timezone.utc
    singleton, or the exception's type and message."""
    try:
        value = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(value), getattr(value, "tzinfo", None) is timezone.utc


def _decoder(cls, name):
    return next(row[2] for row in FIELDS[cls] if row[0] == name)


# every fixed offset datetime allows, to the microsecond
_ZONES = st.one_of(
    st.none(),
    st.just(UTC),
    st.timedeltas(
        min_value=timedelta(hours=-24, microseconds=1), max_value=timedelta(hours=24, microseconds=-1)
    ).map(timezone),
)
# years 1 to 9999, naive or aware, with and without microseconds
_MOMENTS = st.builds(
    lambda moment, whole: moment.replace(microsecond=0) if whole else moment,
    st.datetimes(timezones=_ZONES),
    st.booleans(),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_MOMENTS, _json_value))
@example(datetime(1, 1, 1))
@example(datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1))))  # before year 1 in UTC
@example(datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone(timedelta(hours=-1))))
@example(datetime(2026, 3, 15, 17, 0, 0, 1, tzinfo=timezone(timedelta(seconds=-1))))
def test_format_timestamp_formats_as_the_code_it_replaced(value):
    assert _verdict(format_timestamp, value) == _verdict(_reference_format_timestamp, value)


def _two_digits(high):
    return st.integers(0, high).map("{:02d}".format)


# the grammar's shape with each part drawn past its range: year 0, month 13, day 32, hour
# 24, minute and second 60, a seventh fractional digit, a space for T, an offset of 24 h
_NEAR_RFC3339 = st.builds(
    "{}-{}-{}{}{}:{}:{}{}{}".format,
    st.one_of(st.integers(0, 9999).map("{:04d}".format), st.sampled_from(["0000", "0001", "9999"])),
    _two_digits(13),
    _two_digits(32),
    st.sampled_from("Tt "),
    _two_digits(24),
    _two_digits(60),
    _two_digits(60),
    st.one_of(st.just(""), st.text("0123456789", min_size=1, max_size=7).map(".{}".format)),
    st.one_of(
        st.sampled_from(["", "Z", "z", "+00:00", "-00:00", "+24:00"]),
        st.builds("{}{}:{}".format, st.sampled_from("+-"), _two_digits(24), _two_digits(60)),
    ),
)
_TIMESTAMP_TEXT = st.one_of(
    _NEAR_RFC3339,
    _MOMENTS.map(datetime.isoformat),
    st.datetimes(timezones=st.just(UTC)).map(_reference_format_timestamp),
    st.text(max_size=40),
    _json_value,
)


@settings(max_examples=800, deadline=None)
@given(_TIMESTAMP_TEXT)
@example("2026-03-15T18:00:00.1234567Z")  # a seventh fractional digit
@example("2026-03-15T18:00:00")  # no offset
@example("2026-02-30T18:00:00")  # a bad day and no offset: the date is what is reported
@example("2026-13-15T18:00:00Z")
@example("2026-02-29T18:00:00Z")
@example("2026-03-15T18:00:00+24:00")
@example("2026-03-15t18:00:00.5z")
@example("2026-03-15T18:00:00-00:00")
@example("0001-01-01T00:00:00+01:00")  # before year 1 in UTC
@example("9999-12-31T23:00:00-05:00")  # after year 9999 in UTC
@example("2026-03-15T19:00:00.123456+01:00")
def test_parse_timestamp_reads_as_the_code_it_replaced(raw):
    expected = _verdict(_reference_parse_timestamp, raw, "received_at")
    assert _verdict(parse_timestamp, raw, "received_at") == expected
    # the decoder's timestamp kind, which names the field only when it fails
    decode = _decoder(TaskResult, "completed_at")
    expected = _verdict(_reference_parse_timestamp, raw, "message.completed_at")
    assert _verdict(decode, raw, "message", "completed_at") == expected


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.one_of(_text, _json_value), max_size=8), _json_value))
@example(["a", "b", 3])
@example([None])
@example(["a", "b", "c"])
@example("abc")
def test_the_string_list_kind_decodes_as_the_code_it_replaced(raw):
    decode = _decoder(DelegationContract, "success_criteria")
    assert _verdict(decode, raw, "contract", "success_criteria") == _verdict(
        _reference_str_list, raw, "contract", "success_criteria"
    )
