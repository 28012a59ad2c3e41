"""Wire codec for protocol messages, and the one statement of the wire format.

Format rules (README "Wire format" sums them up):

- UTF-8 JSON text (RFC 8259). The decoder refuses as invalid JSON the
  ``NaN``, ``Infinity`` and ``-Infinity`` tokens that :func:`json.loads`
  reads, and a leading byte order mark. Object keys are emitted in sorted
  order with compact separators, so equal values always encode to
  identical bytes and byte counts are reproducible across runs. Keys sort
  by Unicode code point (Python's ``sort_keys``), not by UTF-16 code unit
  as RFC 8785 (JCS) requires, so a key outside the Basic Multilingual
  Plane can sort differently than in JCS; the canonical form is delgov's
  own, not JCS.
  The encoder refuses a NaN or infinite float, which is not JSON.
- Absent optional fields are omitted entirely, never emitted as null.
  An empty list is equivalent to an absent one.
- Timestamps are RFC 3339 UTC strings, e.g. ``"2026-03-15T18:00:00Z"``.
  The decoder reads one grammar on every Python, in ASCII digits:
  ``YYYY-MM-DD``, ``T`` or ``t``, ``HH:MM:SS``, optionally ``.`` and one to
  six digits (microseconds at most), then ``Z``, ``z`` or ``[+-]HH:MM``.
  A timestamp without the offset is rejected as lacking one; any other
  form (an ISO week date, the basic format, a comma fraction, a seventh
  fractional digit, no seconds, a space for ``T``) is invalid.
- Money is carried as a decimal string so roundtrips are exact on every
  platform; it is parsed to :class:`decimal.Decimal` internally. The
  decoder and construction read it with one function, ``types._money``,
  so both refuse the same amounts. A string follows one grammar
  (``types._DECIMAL``) in ASCII digits: an optional sign, digits with an
  optional ``.`` and fraction (or ``.`` and digits), then optionally
  ``e`` or ``E``, an optional sign and digits, so ``"1_0"``, ``" 0.5 "``
  and ``"\u0661"`` are invalid decimals. A JSON number is read as it is.
  No spelling of NaN, sNaN or infinity is an amount.
- Token counts (``tokens_used``, ``max_tokens``) and amounts of money
  (``cost_usd``, ``max_cost_usd``) above 2**53 are invariant violations:
  a contract violation reports its figures as floats, which then stay
  finite, and exact for token counts.
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
limit, non-finite money, a timestamp whose UTC form falls outside the
years 1 to 9999, a string anywhere in the document (keys included)
holding an unpaired surrogate, by a ``\\ud800`` escape or, in ``str``
input, as itself, and an integer too large for a float in a float field
each raise :class:`MalformedMessage`. A paired escape such as
``\\ud83d\\ude00`` reads as its one character. A key that appears twice
in one object is not rejected: the last occurrence wins, as in
:func:`json.loads`.

A message without any governance fields (contract, claims, provenance)
decodes exactly as the base protocol would read it; the governance keys
simply stay absent.

Every wire type is described once, by its dataclass in ``delgov.types``.
``FIELDS`` is derived at import from the field table that construction
reads (``types._fields``): one flat row per field, in declaration order,
holding the wire name (the attribute name), the encoder and decoder of the
kind its annotation gives (``Optional[X]`` as ``X``), and whether it is
required (has no default) and its default, both as ``_fields`` gives them.
The kind of a ``str``, ``int``, ``float``, ``bool`` or money field is
construction's own check, money encoded as its decimal string. The codec
adds only what the wire needs: nested objects, enum values (an unknown one
is an :class:`InvariantViolation`), RFC 3339 text and JSON lists of
strings. Each row ends with the field's normal type from ``types._CHECKS``:
``str``, ``int``, ``float`` or ``bool``, else None. It is the only per-type
table: ``to_wire`` reads each row's encoder, ``from_wire`` its decoder,
requiredness, default and normal type, and ``validate_invariants`` which
rows hold a nested object: it lists a value's own rules, then walks those
objects in declaration order, each by its own rules. Decoding checks the
fields in declaration order, each for presence and then for type, and
reports the first fault. A JSON value whose type is exactly the field's
normal type is kept without calling the decoder, as construction keeps
it; any other value goes through the decoder, so an integer in a float
field still becomes its float and a boolean in an integer field is still
refused. It then builds the value without the dataclass ``__init__``, so
construction's checks do not run a second time. That is safe because each
kind already gives what construction would keep: a scalar passes
construction's own check, an enum value becomes its member, a nested
object is built as its exact type, a list becomes a tuple of strings, a
timestamp aware UTC and money a finite ``Decimal``. An absent optional
field takes the row's default.
"""

from __future__ import annotations

import json
import re
from datetime import datetime, timezone
from decimal import Decimal
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, NoReturn, Optional, Union, get_args

from .errors import default_semantics
from .types import (
    Budget,
    ClaimType,
    DelegationContract,
    DomainType,
    LdpError,
    Message,
    PolicyEnvelope,
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
    value = _utc(value)
    text = "%04d-%02d-%02dT%02d:%02d:%02d" % (
        value.year, value.month, value.day, value.hour, value.minute, value.second
    )
    return text + ".%06dZ" % value.microsecond if value.microsecond else text + "Z"


# The module docstring's grammar: fromisoformat alone reads other forms, varying by version.
_RFC3339 = re.compile(r"\d{4}-\d\d-\d\d[Tt]\d\d:\d\d:\d\d(\.\d{1,6})?([Zz]|[+-]\d\d:[0-5]\d)?", re.ASCII)


def _timestamp(raw: Any) -> datetime:
    if not isinstance(raw, str):
        raise TypeError("expected an RFC 3339 string")
    match = _RFC3339.fullmatch(raw)
    if match is None:
        raise ValueError(f"invalid RFC 3339 timestamp {raw!r}")
    fraction, offset = match.groups()
    offset = "+00:00" if offset in ("Z", "z") else offset or ""
    # every supported fromisoformat reads a six-digit fraction and +00:00, and gives a zero
    # offset as the timezone.utc singleton
    text = raw[:19] + fraction.ljust(7, "0") if fraction else raw[:19]
    try:
        parsed = datetime.fromisoformat(text + offset)
    except ValueError:
        raise ValueError(f"invalid RFC 3339 timestamp {raw!r}") from None
    if parsed.tzinfo is timezone.utc:
        return parsed
    if parsed.tzinfo is None:
        raise ValueError(f"timestamp {raw!r} lacks a UTC offset")
    try:
        return _utc(parsed)
    except ValueError:
        raise ValueError(f"timestamp {raw!r} is out of range in UTC") from None


def parse_timestamp(raw: Any, path: str) -> datetime:
    """The aware UTC instant of RFC 3339 text, as the module docstring's grammar reads it.

    Any other value raises :class:`MalformedMessage`, its message led by ``path``.
    """
    try:
        return _timestamp(raw)
    except (TypeError, ValueError) as exc:
        raise MalformedMessage(f"{path}: {exc}") from None


def _str_list(raw: Any, path: str, name: str) -> tuple[str, ...]:
    if not isinstance(raw, list):
        raise MalformedMessage(f"{path}.{name}: expected a list of strings")
    for item in raw:
        if not isinstance(item, str):
            i = [isinstance(each, str) for each in raw].index(False)
            raise MalformedMessage(f"{path}.{name}[{i}]: expected a string")
    return tuple(raw)


# ---------------------------------------------------------------------------
# the field table


# A kind is how one sort of field crosses the wire: a pair of converters
# (encode, decode). ``encode(value)`` gives the JSON value of an
# attribute, or None to leave the key out; None in its place means the
# value crosses unchanged. ``decode(raw, path, name)`` checks the JSON
# value and converts it back. Each kind is spliced into the flat rows of
# FIELDS, which the per-field loops unpack: a plain tuple unpacks faster
# than a NamedTuple.
_Kind = tuple[Optional[Callable[[Any], Any]], Callable[[Any, str, str], Any]]
_Row = tuple[
    str, Optional[Callable[[Any], Any]], Callable[[Any, str, str], Any], bool, Any, Optional[type]
]


def _scalar(check: Callable[[Any], Any], encode: Optional[Callable[[Any], Any]] = None) -> _Kind:
    """The kind of a scalar field: a check, construction's own or the wire's timestamp
    grammar, with the field path added only on failure."""

    def decode(raw: Any, path: str, name: str) -> Any:
        try:
            return check(raw)
        except (TypeError, ValueError) as exc:
            raise MalformedMessage(f"{path}.{name}: {exc}") from None

    return encode, decode


_STR_LIST: _Kind = (lambda items: list(items) or None, _str_list)
_MONEY = _scalar(_money, str)
_TIMESTAMP = _scalar(_timestamp, format_timestamp)

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
    for name, encode, _, _, _, _ in fields:
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
    :class:`InvariantViolation`) with ``path`` naming where it sits. A
    value of exactly the row's normal type is kept as it is, and any other
    goes through the row's decoder. The value is built from the checked
    fields without ``__init__``, and its invariants are left to
    ``validate_invariants``.
    """
    if not isinstance(raw, dict):
        raise MalformedMessage(f"{path}: expected an object")
    value = object.__new__(cls)
    for name, _, decode, required, default, normal in FIELDS[cls]:
        if required:
            if name not in raw:
                raise MalformedMessage(f"{path}: missing required key {name!r}")
            item = raw[name]
        else:
            item = raw.get(name)
            if item is None:
                _set(value, name, default)
                continue
        _set(value, name, item if type(item) is normal else decode(item, path, name))
    return value


def _enum(cls: type) -> _Kind:
    # a lookup costs a fraction of calling the enum; a str member hashes and compares as its value
    members = {member.value: member for member in cls}

    def decode(raw: Any, path: str, name: str) -> Any:
        if not isinstance(raw, str):
            raise MalformedMessage(f"{path}.{name}: expected a string")
        member = members.get(raw)
        if member is None:
            raise InvariantViolation([f"{path}.{name}: unknown {cls.__name__} value {raw!r}"])
        return member

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


def _rows(cls: type) -> tuple[_Row, ...]:
    """(name, encode, decode, required, default, normal type) per dataclass field, in
    declaration order. Only a plain annotation has a normal type on the wire: a JSON value
    is never a wire type or an enum member, and money, a timestamp and a list have none."""
    rows = []
    for name, hint, required, default, *_ in _fields(cls):
        if hint in _WIRE_TYPES:
            kind = _object(hint)
        elif isinstance(hint, type) and issubclass(hint, Enum):
            kind = _enum(hint)
        elif hint in _KINDS:
            kind = _KINDS[hint]
        else:
            raise TypeError(f"{cls.__name__}.{name}: no wire kind for {hint!r}")
        rows.append((name, *kind, required, default, _CHECKS.get(hint, (None,))[0]))
    return tuple(rows)


FIELDS: dict[type, tuple[_Row, ...]] = {cls: _rows(cls) for cls in _WIRE_TYPES}
# The fields of each wire type that hold a nested wire object, in declaration order.
_NESTED = {cls: tuple(row[0] for row in rows if row[1] is to_wire) for cls, rows in FIELDS.items()}
# Not value.__dict__[name] = item: a filled __dict__ is faster to write, but it makes every
# later attribute read of a decoded value slower than one of a constructed value.
_set = object.__setattr__


# The typed-failure encoder under its earlier name.
# Kept only because perfbench/gateway.py reads it; ROADMAP item 9 frees the name.
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


def _not_json(token: str) -> NoReturn:
    raise json.JSONDecodeError(f"{token} is not JSON", token, 0)


# json.loads reads NaN, Infinity and -Infinity as floats; RFC 8259 has none of them
_JSON = json.JSONDecoder(parse_constant=_not_json)


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
        parsed = _JSON.decode(data)
    except json.JSONDecodeError as exc:
        if data.startswith("\ufeff"):  # as json.loads says; the decoder alone reads no value
            exc.msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
        raise MalformedMessage(f"message: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise MalformedMessage("message: invalid JSON (nested too deeply)") from None
    except ValueError:
        # an integer literal past the interpreter's digit limit
        raise MalformedMessage("message: invalid JSON (integer too long)") from None
    if not isinstance(parsed, dict):
        raise MalformedMessage("message: top-level value must be an object")
    if suspect or "\\" in data:
        # UTF-8 has no form for U+D800 to U+DFFF (RFC 3629), so encoding the
        # parsed value fails on an unpaired surrogate in any string, keys
        # included; a paired escape was parsed as its one character. With
        # ensure_ascii the surrogate would be written as an escape and pass
        try:
            json.dumps(parsed, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedMessage("message: a string holds an unpaired surrogate") from None
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

# the bound on counts and amounts that the module docstring's format rules give
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
    # a count or amount is above 0 (or at 0 unless strict) and at most 2**53
    if value <= 0 if strict else value < 0:
        out.append(f"{label}: must be {'strictly positive' if strict else '>= 0'} (got {value})")
    elif value > _MAX_TOKEN_COUNT:
        out.append(f"{label}: must be at most 2**53 (got {value})")


def _validate(value: DomainType, out: list[str]) -> None:
    nested = _NESTED.get(type(value))
    if nested is None:
        raise TypeError(f"not a protocol domain type: {type(value).__name__}")
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
    elif isinstance(value, DelegationContract):
        if not value.contract_id:
            out.append("DelegationContract.contract_id: must be non-empty")
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
    elif isinstance(value, TaskSubmit):
        if not value.task_id:
            out.append("TaskSubmit.task_id: must be non-empty")
    elif isinstance(value, TaskResult):
        _check_range("TaskResult.tokens_used", value.tokens_used, False, out)
        _check_range("TaskResult.cost_usd", value.cost_usd, False, out)
        if value.provenance is not None and not value.provenance.lineage:
            out.append("Provenance.lineage: must have at least one entry when attached to a result")
    # then every nested object, by its own rules; standalone provenance has none
    for name in nested:
        if (item := getattr(value, name)) is not None:
            _validate(item, out)
