"""Wire codec for protocol messages.

Format rules:

- UTF-8 JSON text. Object keys are emitted in sorted order with compact
  separators, so equal values always encode to identical bytes and byte
  counts are reproducible across runs. Keys sort by Unicode code point
  (Python's ``sort_keys``), not by UTF-16 code unit as RFC 8785 (JCS)
  requires, so a key outside the Basic Multilingual Plane can sort
  differently than in JCS; the canonical form is delgov's own, not JCS.
- Absent optional fields are omitted entirely, never emitted as null.
  An empty list is equivalent to an absent one.
- Timestamps are RFC 3339 UTC strings, e.g. ``"2026-03-15T18:00:00Z"``.
  The decoder reads one grammar on every Python, in ASCII digits:
  ``YYYY-MM-DD``, ``T`` or ``t``, ``HH:MM:SS``, optionally ``.`` and one to
  six digits (microseconds at most), then ``Z``, ``z`` or ``[+-]HH:MM``.
- Money is carried as a decimal string so roundtrips are exact on every
  platform; it is parsed to :class:`decimal.Decimal` internally. The
  decoder reads one grammar in ASCII digits: an optional sign, digits with
  an optional ``.`` and fraction (or ``.`` and digits), then optionally
  ``e`` or ``E``, an optional sign and digits. A JSON number is read as it
  is.
- Unknown object keys are ignored on decode (new fields never break old
  readers). Unknown enum values are rejected: trust semantics must never
  be guessed.

Decode failures split into two exceptions, both raised before any message
processing happens:

- :class:`MalformedMessage` for syntactic problems: not JSON, not an
  object, missing required keys, or a key bound to the wrong JSON type.
- :class:`InvariantViolation` for well-shaped input whose values break a
  semantic rule (range, enum membership, cross-field requirements).

Hostile input is malformed too, never a crash: JSON nested past the
parser's recursion limit, an integer literal past the interpreter's digit
limit, a non-finite money value (``NaN``, ``sNaN``, ``Infinity``), a
timestamp whose UTC form falls outside the years 1 to 9999, a string
anywhere in the document (keys included) holding an unpaired surrogate,
by a ``\\ud800`` escape or, in ``str`` input, as itself, and an integer
too large for a float in a float field each raise
:class:`MalformedMessage`. A paired escape such as ``\\ud83d\\ude00``
reads as its one character. A key that appears twice in one object is not
rejected: the last occurrence wins, as in :func:`json.loads`. Rejecting it
takes an ``object_pairs_hook`` with a length check, which parsed a
``gateway`` benchmark document in 9.3 to 10.6 µs against 7.7 to 9.0 µs for
plain :func:`json.loads` (medians of 15 passes over 4,085 documents, three
sets, 2-vCPU x86-64, Python 3.11.7). A ``gateway`` round decodes two.

A message without any governance fields (contract, claims, provenance)
decodes exactly as the base protocol would read it; the governance keys
simply stay absent.

Every wire type is described once, by its dataclass in ``delgov.types``.
``FIELDS`` is derived at import from the field table that construction
reads (``types._fields``): one row per field, in declaration order, holding
the wire name (the attribute name), the kind its annotation gives
(``Optional[X]`` as ``X``) and whether it is required (has no default).
The kind of a ``str``, ``int``, ``float`` or ``bool`` field is
construction's own check. The codec adds only what the wire needs: nested
objects, enum values (an unknown one is an :class:`InvariantViolation`),
RFC 3339 text, JSON lists of strings, and money that must be finite.
Every encoder and decoder goes through ``to_wire`` and ``from_wire``, which
read that table. Decoding checks the fields in declaration order, each for
presence and then for type, and reports the first fault. It then builds the
value without the dataclass ``__init__``, so construction's checks do not
run a second time. That is safe because each kind already gives what
construction would keep: a scalar passes construction's own check, an enum
value becomes its member, a nested object is built as its exact type, a
list becomes a tuple of strings, a timestamp aware UTC and money a finite
``Decimal``. An absent optional field takes its dataclass default.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from datetime import datetime, timezone
from decimal import Decimal
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Optional, Union, get_args

from .errors import default_semantics
from .types import (
    Budget,
    ClaimType,
    DelegationContract,
    DomainType,
    LdpError,
    Message,
    PolicyEnvelope,
    Provenance,
    QualityClaim,
    TaskResult,
    TaskSubmit,
    _CHECKS,
    _fields,
    _money,
    _utc,
)


class DecodeError(ValueError):
    """Base class for wire-level rejections."""


class MalformedMessage(DecodeError):
    """Input is not syntactically valid wire text for any known shape."""


class InvariantViolation(DecodeError):
    """Input parses but violates one or more semantic invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


# ---------------------------------------------------------------------------
# scalar helpers


def format_timestamp(value: datetime) -> str:
    """RFC 3339 UTC text; fractional seconds only when present.

    The year always has four digits, so years before 1000 decode again.
    """
    return value.astimezone(timezone.utc).replace(tzinfo=None).isoformat() + "Z"


# The module docstring's grammar: fromisoformat alone reads other forms, varying by version.
_RFC3339 = re.compile(r"\d{4}-\d\d-\d\d[Tt]\d\d:\d\d:\d\d(\.\d{1,6})?([Zz]|[+-]\d\d:[0-5]\d)?", re.ASCII)


def parse_timestamp(raw: Any, path: str) -> datetime:
    if not isinstance(raw, str):
        raise MalformedMessage(f"{path}: expected an RFC 3339 string")
    match = _RFC3339.fullmatch(raw)
    if match is None:
        raise MalformedMessage(f"{path}: invalid RFC 3339 timestamp {raw!r}")
    fraction, offset = match.groups()
    offset = "+00:00" if offset in ("Z", "z") else offset or ""
    try:
        # every supported fromisoformat reads a six-digit fraction and +00:00
        parsed = datetime.fromisoformat(raw[:19] + (fraction or ".").ljust(7, "0") + offset)
    except ValueError:
        raise MalformedMessage(f"{path}: invalid RFC 3339 timestamp {raw!r}") from None
    if parsed.tzinfo is None:
        raise MalformedMessage(f"{path}: timestamp {raw!r} lacks a UTC offset")
    try:
        return _utc(parsed)
    except ValueError:
        raise MalformedMessage(f"{path}: timestamp {raw!r} is out of range in UTC") from None


# The module docstring's money grammar. Decimal alone also reads underscores,
# surrounding whitespace and any Unicode digit, so two readers could disagree.
_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([Ee][+-]?\d+)?", re.ASCII)


def _finite_money(raw: Any) -> Decimal:
    value = _money(raw)
    # NaN, sNaN and the infinities parse, but no amount compares with them
    if not value.is_finite():
        raise ValueError(f"non-finite decimal {raw!r}")
    if isinstance(raw, str) and _DECIMAL.fullmatch(raw) is None:
        raise ValueError(f"invalid decimal {raw!r}")
    return value


def _str_list(raw: Any, path: str, name: str) -> tuple[str, ...]:
    if not isinstance(raw, list):
        raise MalformedMessage(f"{path}.{name}: expected a list of strings")
    for i, item in enumerate(raw):
        if not isinstance(item, str):
            raise MalformedMessage(f"{path}.{name}[{i}]: expected a string")
    return tuple(raw)


# ---------------------------------------------------------------------------
# the field table


# A kind is how one sort of field crosses the wire: a pair of converters
# (encode, decode). ``encode(value)`` gives the JSON value of an
# attribute, or None to leave the key out; None in its place means the
# value crosses unchanged. ``decode(raw, path, name)`` checks the JSON
# value and converts it back. Kinds are plain tuples because the
# per-field loops unpack them, and a plain tuple unpacks faster than a
# NamedTuple.
_Kind = tuple[Optional[Callable[[Any], Any]], Callable[[Any, str, str], Any]]


def _scalar(check: Callable[[Any], Any], encode: Optional[Callable[[Any], Any]] = None) -> _Kind:
    """The kind of a scalar field: a construction check, with the field path on failure."""

    def decode(raw: Any, path: str, name: str) -> Any:
        try:
            return check(raw)
        except (TypeError, ValueError) as exc:
            raise MalformedMessage(f"{path}.{name}: {exc}") from None

    return encode, decode


_STR_LIST: _Kind = (lambda items: list(items) or None, _str_list)
_MONEY = _scalar(_finite_money, str)
_TIMESTAMP: _Kind = (
    format_timestamp,
    lambda raw, path, name: parse_timestamp(raw, f"{path}.{name}"),
)

# Root path of a decoded message. Objects nested in a message keep their
# own root path (``contract``, not ``message.contract``).
_MESSAGE = "message"


def to_wire(value: DomainType) -> dict:
    """Wire form of any table type, as a dict for ``canonical_bytes``.

    Absent optionals and empty lists are dropped.
    """
    fields = FIELDS.get(type(value))
    if fields is None:
        raise TypeError(f"not a wire type: {type(value).__name__}")
    out: dict[str, Any] = {}
    for name, (encode, _), _ in fields:
        item = getattr(value, name)
        if item is not None and encode is not None:
            item = encode(item)
        if item is not None:
            out[name] = item
    return out


def from_wire(cls: type, raw: Any, path: str) -> Any:
    """Build a table type from its wire form, field by field in table order.

    Each row is checked for presence, then for type; the first fault is
    raised as :class:`MalformedMessage` (an unknown enum value as
    :class:`InvariantViolation`) with ``path`` naming where it sits. The
    value is built from the checked fields without ``__init__``, and its
    invariants are left to ``validate_invariants``.
    """
    if not isinstance(raw, dict):
        raise MalformedMessage(f"{path}: expected an object")
    value = object.__new__(cls)
    for name, decode, required, default in _DECODERS[cls]:
        if required:
            if name not in raw:
                raise MalformedMessage(f"{path}: missing required key {name!r}")
            item = decode(raw[name], path, name)
        else:
            item = raw.get(name)
            item = default if item is None else decode(item, path, name)
        _set(value, name, item)
    return value


def _enum(cls: type) -> _Kind:
    def decode(raw: Any, path: str, name: str) -> Any:
        if not isinstance(raw, str):
            raise MalformedMessage(f"{path}.{name}: expected a string")
        try:
            return cls(raw)
        except ValueError:
            raise InvariantViolation(
                [f"{path}.{name}: unknown {cls.__name__} value {raw!r}"]
            ) from None

    return attrgetter("value"), decode


def _object(cls: type) -> _Kind:
    def decode(raw: Any, path: str, name: str) -> Any:
        return from_wire(cls, raw, name if path == _MESSAGE else f"{path}.{name}")

    return to_wire, decode


_WIRE_TYPES = get_args(DomainType)
# The kinds of plain annotations: construction's own checks, except where the
# wire adds a rule. Enums and wire types get theirs in _rows.
_KINDS = {hint: _scalar(check) for hint, (_, check) in _CHECKS.items()}
_KINDS.update({tuple[str, ...]: _STR_LIST, Decimal: _MONEY, datetime: _TIMESTAMP})


def _rows(cls: type) -> tuple[tuple[str, _Kind, bool], ...]:
    """One row per dataclass field, in declaration order: (name, kind, required)."""
    rows = []
    for name, hint, required, *_ in _fields(cls):
        if hint in _WIRE_TYPES:
            kind = _object(hint)
        elif isinstance(hint, type) and issubclass(hint, Enum):
            kind = _enum(hint)
        elif hint in _KINDS:
            kind = _KINDS[hint]
        else:
            raise TypeError(f"{cls.__name__}.{name}: no wire kind for {hint!r}")
        rows.append((name, kind, required))
    return tuple(rows)


FIELDS: dict[type, tuple[tuple[str, _Kind, bool], ...]] = {cls: _rows(cls) for cls in _WIRE_TYPES}
# from_wire's rows: (name, decode, required, the dataclass default), bound once
_DECODERS = {
    cls: tuple(
        (name, decode, required, f.default)
        for (name, (_, decode), required), f in zip(rows, fields(cls))
    )
    for cls, rows in FIELDS.items()
}
_set = object.__setattr__


# The typed-failure encoder under its earlier name.
ldp_error_to_wire = to_wire

_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
)


def canonical_bytes(obj: Any) -> bytes:
    """Canonical JSON encoding: sorted keys, compact separators, UTF-8.

    A NaN or infinite float raises ValueError: neither is JSON.
    """
    return _CANONICAL.encode(obj).encode("utf-8")


def encode_message(msg: Message) -> bytes:
    """Encode a message to canonical wire bytes.

    Valid in-memory values always encode; callers own the precondition
    that ``msg`` satisfies its invariants (see ``validate_invariants``).
    A string built in memory with an unpaired surrogate has no UTF-8
    form and raises ``UnicodeEncodeError``, which is a ``ValueError``.
    """
    if not isinstance(msg, (TaskSubmit, TaskResult)):
        raise TypeError(f"not a protocol message: {type(msg).__name__}")
    return canonical_bytes(to_wire(msg))


# ---------------------------------------------------------------------------
# decoding documents


def _checked(value: DomainType) -> Any:
    violations = validate_invariants(value)
    if violations:
        raise InvariantViolation(violations)
    return value


_SURROGATE = re.compile("[\ud800-\udfff]")


def _has_lone_surrogate(parsed: Any) -> bool:
    """Whether any string of a parsed JSON value, keys included, holds an unpaired surrogate."""
    pending = [parsed]
    while pending:
        node = pending.pop()
        if isinstance(node, dict):
            pending.extend(node)
            pending.extend(node.values())
        elif isinstance(node, list):
            pending.extend(node)
        elif isinstance(node, str) and _SURROGATE.search(node):
            return True
    return False


def _load_object(data: Union[bytes, str]) -> dict:
    # UTF-8 decoding refuses surrogates, so decoded text can bring one in
    # only by a \u escape; a non-ASCII str can also hold one as it is
    suspect = isinstance(data, str) and not data.isascii()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedMessage("message: input is not valid UTF-8") from None
    try:
        parsed = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedMessage(f"message: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise MalformedMessage("message: invalid JSON (nested too deeply)") from None
    except ValueError:
        # an integer literal past the interpreter's digit limit
        raise MalformedMessage("message: invalid JSON (integer too long)") from None
    if not isinstance(parsed, dict):
        raise MalformedMessage("message: top-level value must be an object")
    if (suspect or "\\" in data) and _has_lone_surrogate(parsed):
        raise MalformedMessage("message: a string holds an unpaired surrogate")
    return parsed


def _message_from_object(obj: dict) -> Message:
    has_payload = obj.get("payload") is not None
    has_output = obj.get("output") is not None
    if has_payload and has_output:
        raise MalformedMessage("message: both 'payload' and 'output' present; shape is ambiguous")
    if has_payload:
        return _checked(from_wire(TaskSubmit, obj, _MESSAGE))
    if has_output:
        return _checked(from_wire(TaskResult, obj, _MESSAGE))
    raise MalformedMessage("message: neither 'payload' nor 'output' present")


def decode_message(data: Union[bytes, str]) -> Message:
    """Decode wire bytes into a TaskSubmit or TaskResult.

    The two message shapes are told apart by their distinguishing keys:
    ``payload`` marks a submission, ``output`` a result. Unknown keys are
    discarded; all invariants are checked before the value is returned.
    """
    return _message_from_object(_load_object(data))


def decode_contract(data: Union[bytes, str]) -> DelegationContract:
    """Decode a standalone contract document and check its invariants."""
    return _checked(from_wire(DelegationContract, _load_object(data), "contract"))


def decode_any(data: Union[bytes, str]) -> DomainType:
    """Decode any known wire object: message, contract, claim or error.

    Used by file-level validation, where the caller does not know in
    advance which protocol object a document holds. An error document is
    one with both ``category`` and ``code``.
    """
    obj = _load_object(data)
    if obj.get("payload") is not None or obj.get("output") is not None:
        return _message_from_object(obj)
    if "contract_id" in obj:
        return _checked(from_wire(DelegationContract, obj, "contract"))
    if "claim_type" in obj and "skill" in obj:
        return _checked(from_wire(QualityClaim, obj, "claim"))
    if "category" in obj and "code" in obj:
        return _checked(from_wire(LdpError, obj, "error"))
    raise MalformedMessage("document: does not match any known wire object")


# ---------------------------------------------------------------------------
# invariant validation

# Contract violations report their figures as floats. Token counts above
# 2**53 have no exact float, and a large enough amount of money becomes an
# infinite one, so both are bounded here.
_MAX_TOKEN_COUNT = 2**53


def validate_invariants(msg: DomainType) -> list[str]:
    """List every broken invariant of a domain value (empty means valid).

    Each entry names the offending type and field plus the rule that was
    broken, so callers can log or aggregate them directly.
    """
    out: list[str] = []
    _validate(msg, out)
    return out


def _check_range(label: str, value: Union[int, Decimal], strict: bool, out: list[str]) -> None:
    # a count or amount is finite, above 0 (or at 0 unless strict) and at most 2**53
    if isinstance(value, Decimal) and not value.is_finite():
        out.append(f"{label}: must be finite (got {value})")
    elif value <= 0 if strict else value < 0:
        out.append(f"{label}: must be {'strictly positive' if strict else '>= 0'} (got {value})")
    elif value > _MAX_TOKEN_COUNT:
        out.append(f"{label}: must be at most 2**53 (got {value})")


def _validate(value: DomainType, out: list[str]) -> None:
    if isinstance(value, Budget):
        if value.max_tokens is None and value.max_cost_usd is None:
            out.append("Budget: at least one of max_tokens or max_cost_usd must be present")
        if value.max_tokens is not None:
            _check_range("Budget.max_tokens", value.max_tokens, True, out)
        if value.max_cost_usd is not None:
            _check_range("Budget.max_cost_usd", value.max_cost_usd, True, out)
    elif isinstance(value, PolicyEnvelope):
        if value.max_delegation_depth is not None and value.max_delegation_depth < 0:
            out.append(
                "PolicyEnvelope.max_delegation_depth: must be >= 0 "
                f"(got {value.max_delegation_depth})"
            )
        if value.budget is not None:
            _validate(value.budget, out)
    elif isinstance(value, DelegationContract):
        if not value.contract_id:
            out.append("DelegationContract.contract_id: must be non-empty")
        _validate(value.policy, out)
    elif isinstance(value, QualityClaim):
        if not 0.0 <= value.value <= 1.0:
            out.append(f"QualityClaim.value: must be within [0, 1] (got {value.value})")
        if value.claim_type is ClaimType.ISSUER_ATTESTED and not value.issuer:
            out.append("QualityClaim.issuer: required when claim_type is issuer_attested")
    elif isinstance(value, LdpError):
        expected = default_semantics(value.category)
        if value.retryable != expected.retryable:
            out.append(
                f"LdpError.retryable: category {value.category.value!r} requires "
                f"retryable={expected.retryable}"
            )
        if value.severity is not expected.severity:
            out.append(
                f"LdpError.severity: category {value.category.value!r} requires "
                f"severity={expected.severity.value!r}"
            )
    elif isinstance(value, Provenance):
        pass  # standalone provenance has no range rules; see TaskResult
    elif isinstance(value, TaskSubmit):
        if not value.task_id:
            out.append("TaskSubmit.task_id: must be non-empty")
        if value.contract is not None:
            _validate(value.contract, out)
    elif isinstance(value, TaskResult):
        _check_range("TaskResult.tokens_used", value.tokens_used, False, out)
        _check_range("TaskResult.cost_usd", value.cost_usd, False, out)
        if value.provenance is not None:
            if not value.provenance.lineage:
                out.append("Provenance.lineage: must have at least one entry when attached to a result")
            _validate(value.provenance, out)
    else:
        raise TypeError(f"not a protocol domain type: {type(value).__name__}")
