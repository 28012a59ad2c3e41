"""Write the decoder outcome table that ``tests/test_wire.py`` replays.

The replay is ``test_single_fault_outcomes_match_the_pinned_table``.

Four valid documents (a submit whose contract sets every optional field, a
result with provenance, an issuer-attested claim and a standalone
contract) are mutated one fault at a time: at every key and list item,
the value is dropped or replaced by each of eight other JSON values. Each
mutant goes through every decoder that accepts its kind of document, and
each outcome is recorded as ``[exception class, message]``, or as
``["ok", decoded type]`` when it decodes. The replay decodes
``json.dumps(case["input"])``.

The committed ``wire_errors.json`` pins the messages of the hand-written
codec that preceded the table-driven one. Regenerating it with a later
codec would only restate that codec, so do not regenerate it to make the
test pass. Run from the repository root::

    PYTHONPATH=src python tests/data/make_wire_errors.py > tests/data/wire_errors.json
"""

from __future__ import annotations

import copy
import json
import sys

from delgov import wire

CONTRACT = {
    "contract_id": "ctr-7f3a",
    "objective": "Summarize the quarterly report",
    "policy": {
        "failure_policy": "fail_closed",
        "budget": {"max_tokens": 6000, "max_cost_usd": "0.05"},
        "safety_constraints": ["no speculative projections", "cite sources"],
        "max_delegation_depth": 2,
    },
    "success_criteria": ["<=300 words", "include revenue figures"],
    "deadline": "2026-03-15T18:00:00Z",
}
SUBMIT = {"task_id": "t-1", "payload": "Summarize the attached report.", "contract": CONTRACT}
RESULT = {
    "task_id": "t-1",
    "output": "Q3 revenue rose.",
    "tokens_used": 820,
    "cost_usd": "0.01",
    "completed_at": "2026-03-15T17:10:00Z",
    "provenance": {
        "verification_status": "tool_verified",
        "evidence_refs": ["run-99"],
        "lineage": ["orchestrator", "worker-a"],
    },
}
CLAIM = {
    "skill": "summarize",
    "value": 0.82,
    "claim_type": "issuer_attested",
    "issuer": "bench-org",
    "observed_at": "2026-03-01T00:00:00Z",
}
BASES = (
    (SUBMIT, ("decode_message", "decode_any")),
    (RESULT, ("decode_message", "decode_any")),
    (CLAIM, ("decode_any",)),
    (CONTRACT, ("decode_contract", "decode_any")),
)
REPLACEMENTS = (None, True, 7, -1, 0.5, "x", [], {})
DROP = object()


def paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def mutate(doc, path, value):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def mutants(doc):
    yield doc
    for path in paths(doc):
        current = doc
        for key in path:
            current = current[key]
        yield mutate(doc, path, DROP)
        for value in REPLACEMENTS:
            if type(value) is type(current) and value == current:
                continue
            yield mutate(doc, path, value)


def outcome(decoder, text):
    try:
        decoded = getattr(wire, decoder)(text)
    except Exception as exc:  # record whatever escapes, DecodeError or not
        return [type(exc).__name__, str(exc)]
    return ["ok", type(decoded).__name__]


def main() -> None:
    cases = [
        {"input": document, "outcomes": {name: outcome(name, json.dumps(document)) for name in decoders}}
        for doc, decoders in BASES
        for document in mutants(doc)
    ]
    sys.stdout.write("[\n" + ",\n".join(json.dumps(case, sort_keys=True, separators=(",", ":"), ensure_ascii=False) for case in cases) + "\n]\n")


if __name__ == "__main__":
    main()
