"""The ``gateway`` workload: one delegator's message loop, round by round.

A round is what a delegator does for one delegated task:

1. ``decode_message`` on the submit bytes (about 80% carry a contract);
2. ``select`` by issuer-attested claims no older than 48 h, falling back to
   blind routing on ``NoEligibleDelegate``;
3. ``decode_message`` on the result bytes;
4. ``check_result`` and ``apply_policy`` at the round's receipt clock;
5. on rejection, ``default_semantics`` plus an error reply built with
   ``ldp_error_to_wire`` and ``canonical_bytes``; otherwise
   ``encode_message`` of the accepted result.

About every 20th round first decodes a claim-update document with
``decode_any`` and replaces that delegate's record in the pool.

Everything here is generated from the seed with this module's own code:
the wire bytes are built with the stdlib ``json`` module, and each round
carries the outcome the contract's stated limits call for. Nothing that
decides whether the library is right comes from the library.

Planted on purpose (see ``Round.planted``):

- hostile documents the decoder must reject with ``DecodeError``:
  ``"NaN"``/``"sNaN"`` money, a ``0001-01-01T00:00:00+01:00`` timestamp
  and deeply nested JSON;
- results whose lineage exceeds ``max_delegation_depth``.

Every corpus holds the same number of planted rounds of each class,
whatever the seed: only their positions and contents vary.

An operation (a round) fails when its outcome differs from the expected
one or an exception other than ``DecodeError`` escapes. Only planted rounds
may fail; any other failure makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from random import Random
from typing import Optional

UTC = timezone.utc
SKILLS = ("summarize", "translate", "extract")
SKILL_DELEGATES = (25, 22, 3)
ROUND_SKILL_WEIGHTS = (11, 8, 1)
CLAIM_TYPES = ("self_claimed", "runtime_observed", "issuer_attested", "externally_benchmarked")
MIN_RANK = CLAIM_TYPES.index("issuer_attested")
# Delegates of this skill never hold an attested-or-better claim, so its
# rounds (one in twenty) always take the blind fallback.
UNATTESTED_SKILL = "extract"
MAX_STALENESS_S = 48 * 3600
VERIFICATION = ("unverified", "self_verified", "peer_verified", "tool_verified", "human_verified")
CLOCK_START = datetime(2026, 3, 1, tzinfo=UTC)
CLOCK_STEP_S = 45
CORPUS_ROUNDS = 2048
CLAIM_UPDATE_EVERY = 20
LAP_ROUNDS = 128

HOSTILE_CLASSES = ("nan_money", "bad_timestamp", "deep_nesting")
DEPTH_CLASS = "depth_limit"
HOSTILE_TIMESTAMP = "0001-01-01T00:00:00+01:00"

_WORDS = (
    "revenue margin quarterly forecast summary ledger invoice audit risk "
    "delegate contract budget deadline review translate extract figure table "
    "appendix réseau données 報告 résumé cash flow guidance segment"
).split()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _ts(moment: datetime) -> str:
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _text(rng: Random, low: int, high: int) -> str:
    target = rng.randint(low, high)
    words = []
    size = 0
    while size < target:
        word = rng.choice(_WORDS)
        words.append(word)
        size += len(word) + 1
    return " ".join(words)[:target].strip() or "x" * low


def _money(units: int) -> str:
    """A decimal string with four places from an integer count of 1e-4."""
    return f"{units // 10000}.{units % 10000:04d}"


@dataclass(frozen=True)
class ClaimSpec:
    """A claim as the generator knows it, independent of the library's types."""

    skill: str
    value: float
    claim_type: str
    issuer: Optional[str]
    observed_s: Optional[int]  # seconds since the epoch, None when undated

    def wire(self) -> dict:
        out = {"skill": self.skill, "value": self.value, "claim_type": self.claim_type}
        if self.issuer is not None:
            out["issuer"] = self.issuer
        if self.observed_s is not None:
            out["observed_at"] = _ts(datetime.fromtimestamp(self.observed_s, UTC))
        return out


@dataclass(frozen=True)
class Round:
    """One generated round: its documents and what must come out of it."""

    index: int
    skill: str
    now: datetime
    now_s: int
    claim_delegate: Optional[str]
    claim_doc: Optional[bytes]
    claim_update: Optional[ClaimSpec]  # applied to the pool when the doc is valid
    submit_doc: bytes
    result_doc: bytes
    result_output: str
    expected: tuple
    expected_reply: Optional[bytes]  # None when the round is rejected or stops early
    planted: Optional[str]  # hostile class or "depth_limit"; None when it must pass


@dataclass
class Corpus:
    pool: list  # [(delegate_id, [ClaimSpec, ...])]
    rounds: list


def _claim(rng: Random, skill: str, claim_type: str, observed_s: Optional[int]) -> ClaimSpec:
    issuer = None
    if claim_type == "issuer_attested" or (claim_type == "externally_benchmarked" and rng.random() < 0.5):
        issuer = f"issuer-{rng.randrange(5)}"
    return ClaimSpec(skill, round(rng.uniform(0.3, 0.99), 3), claim_type, issuer, observed_s)


def _claim_types(skill: str) -> tuple:
    return CLAIM_TYPES[:MIN_RANK] if skill == UNATTESTED_SKILL else CLAIM_TYPES


def _initial_pool(rng: Random) -> list:
    start = int(CLOCK_START.timestamp())
    pool = []
    index = 0
    for skill, count in zip(SKILLS, SKILL_DELEGATES):
        for _ in range(count):
            delegate_id = f"g{index:02d}"
            index += 1
            allowed = _claim_types(skill)
            types = [t for t in allowed if rng.random() < 0.5] or [rng.choice(allowed)]
            claims = []
            for claim_type in types:
                undated = claim_type == "self_claimed" and rng.random() < 0.5
                observed = None if undated else start - rng.randrange(72 * 3600)
                claims.append(_claim(rng, skill, claim_type, observed))
            if rng.random() < 0.3:
                other = rng.choice([s for s in SKILLS if s != skill])
                claims.append(_claim(rng, other, "self_claimed", None))
            pool.append((delegate_id, claims))
    return pool


def _contract(rng: Random, i: int, now_s: int) -> dict:
    policy: dict = {"failure_policy": rng.choice(("fail_closed", "fail_open"))}
    if rng.random() < 0.85:
        budget = {}
        if rng.random() < 0.8:
            budget["max_tokens"] = rng.randint(500, 8000)
        if rng.random() < 0.7 or not budget:
            budget["max_cost_usd"] = _money(rng.randint(100, 5000))
        policy["budget"] = budget
    if rng.random() < 0.5:
        policy["max_delegation_depth"] = rng.randint(0, 3)
    if rng.random() < 0.3:
        policy["safety_constraints"] = [_text(rng, 10, 40)]
    contract = {
        "contract_id": f"ctr-{i:05d}-{rng.randrange(16**6):06x}",
        "objective": _text(rng, 20, 80),
        "policy": policy,
    }
    if rng.random() < 0.5:
        contract["success_criteria"] = [_text(rng, 10, 30) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.6:
        contract["deadline"] = _ts(datetime.fromtimestamp(now_s + rng.randint(0, 8 * 3600), UTC))
    return contract


def _stated_limits(contract: dict) -> list:
    policy = contract["policy"]
    budget = policy.get("budget", {})
    kinds = []
    if "max_tokens" in budget:
        kinds.append("budget_tokens")
    if "max_cost_usd" in budget:
        kinds.append("budget_cost")
    if "deadline" in contract:
        kinds.append("deadline")
    if policy.get("max_delegation_depth", 3) < 3:
        kinds.append("delegation_depth")
    return kinds


def _result(rng: Random, task_id: str, contract: Optional[dict], now_s: int, breaks: set) -> dict:
    """A result that breaks exactly the limits in ``breaks`` and no other."""
    budget = contract["policy"].get("budget", {}) if contract else {}
    if "max_tokens" in budget:
        limit = budget["max_tokens"]
        tokens = limit + rng.randint(1, 2000) if "budget_tokens" in breaks else rng.choice((limit, rng.randint(0, limit)))
    else:
        tokens = rng.randint(0, 9000)
    if "max_cost_usd" in budget:
        limit = int(budget["max_cost_usd"].replace(".", ""))
        units = limit + rng.randint(1, 500) if "budget_cost" in breaks else rng.choice((limit, rng.randint(0, limit)))
    else:
        units = rng.randint(0, 6000)
    if contract is not None and "max_delegation_depth" in contract["policy"]:
        limit = contract["policy"]["max_delegation_depth"]
        hops = rng.randint(limit + 1, 3) if "delegation_depth" in breaks else rng.randint(0, limit)
    else:
        hops = rng.randint(0, 3)
    provenance: dict = {
        "verification_status": rng.choice(VERIFICATION),
        "lineage": ["gateway"] + [f"agent-{rng.randrange(100):02d}" for _ in range(hops)],
    }
    if rng.random() < 0.4:
        provenance["evidence_refs"] = [f"ev-{rng.randrange(10**6):06d}"]
    return {
        "task_id": task_id,
        "output": _text(rng, 20, 600),
        "tokens_used": tokens,
        "cost_usd": _money(units),
        "completed_at": _ts(datetime.fromtimestamp(now_s - rng.randint(1, 600), UTC)),
        "provenance": provenance,
    }


# Plain invalid documents: each must raise DecodeError, and does today.
def _invalid_submit(rng: Random, doc: dict) -> bytes:
    kind = rng.randrange(7)
    if kind == 0:
        del doc["task_id"]
    elif kind == 1:
        doc["task_id"] = ""
    elif kind == 2:
        doc["output"] = "ambiguous"
    elif kind == 3:
        return _canonical(doc)[:-7]
    elif kind == 4:
        return b"\xff" + _canonical(doc)
    else:
        contract = doc.setdefault("contract", {"contract_id": "ctr-x", "objective": "o", "policy": {"failure_policy": "fail_open"}})
        if kind == 5:
            contract["policy"]["failure_policy"] = "fail_sideways"
        else:
            contract["policy"]["budget"] = {"max_tokens": -10}
    return _canonical(doc)


def _invalid_result(rng: Random, doc: dict) -> bytes:
    kind = rng.randrange(7)
    if kind == 0:
        doc["tokens_used"] = -5
    elif kind == 1:
        doc["tokens_used"] = str(doc["tokens_used"])
    elif kind == 2:
        doc["cost_usd"] = "12abc"
    elif kind == 3:
        doc["completed_at"] = doc["completed_at"][:-1]
    elif kind == 4:
        doc["provenance"]["lineage"] = []
    elif kind == 5:
        doc["provenance"]["verification_status"] = "bogus"
    else:
        del doc["completed_at"]
    return _canonical(doc)


def _invalid_claim(rng: Random, doc: dict) -> bytes:
    kind = rng.randrange(5)
    if kind == 0:
        doc["value"] = 1.5
    elif kind == 1:
        doc["claim_type"] = "issuer_attested"
        doc.pop("issuer", None)
    elif kind == 2:
        doc["claim_type"] = "peer_vouched"
    elif kind == 3:
        doc["observed_at"] = "yesterday"
    else:
        doc["value"] = "high"
    return _canonical(doc)


def _nested(doc: dict, depth: int) -> bytes:
    text = _canonical(doc).decode("utf-8")
    return (text[:-1] + ',"ext":' + "[" * depth + "]" * depth + "}").encode("utf-8")


def _hostile(rng: Random, slot: str, cls: str, doc: dict) -> bytes:
    if cls == "deep_nesting":
        return _nested(doc, 3000 + rng.randrange(1000))
    if cls == "nan_money":
        money = rng.choice(("NaN", "sNaN"))
        if slot == "submit":
            doc["contract"]["policy"]["budget"] = {"max_cost_usd": money}
        else:
            doc["cost_usd"] = money
    elif slot == "submit":
        doc["contract"]["deadline"] = HOSTILE_TIMESTAMP
    elif slot == "result":
        doc["completed_at"] = HOSTILE_TIMESTAMP
    else:
        doc["observed_at"] = HOSTILE_TIMESTAMP
    return _canonical(doc)


def generate(seed: int, rounds: int = CORPUS_ROUNDS, lap=None) -> Corpus:
    """Build the pool and ``rounds`` rounds from ``seed`` alone.

    ``lap``, when given, is called after every ``LAP_ROUNDS`` rounds.
    """
    rng = Random(f"perfbench:gateway:{seed}")
    pool = _initial_pool(rng)
    delegate_skill = {}
    for delegate_id, claims in pool:
        delegate_skill[delegate_id] = claims[0].skill

    # Disjoint planted positions: 1% hostile, 3% plainly invalid and 5% over
    # the delegation-depth limit, the same counts for every seed.
    hostile_n, invalid_n, depth_n = rounds // 100, rounds * 3 // 100, rounds * 5 // 100
    positions = rng.sample(range(rounds), hostile_n + invalid_n + depth_n)
    hostile_at = {}
    slots = ("submit", "result", "claim")
    for n, pos in enumerate(positions[:hostile_n]):
        cls = HOSTILE_CLASSES[n % len(HOSTILE_CLASSES)]
        slot = slots[(n // len(HOSTILE_CLASSES)) % (2 if cls == "nan_money" else 3)]
        hostile_at[pos] = (slot, cls)
    invalid_at = {pos: slots[n % 3] for n, pos in enumerate(positions[hostile_n : hostile_n + invalid_n])}
    depth_at = set(positions[hostile_n + invalid_n :])

    out = []
    for i in range(rounds):
        if lap is not None and i % LAP_ROUNDS == LAP_ROUNDS - 1:
            lap()
        now_s = int(CLOCK_START.timestamp()) + i * CLOCK_STEP_S
        slot, planted = hostile_at.get(i, (None, None))
        invalid = invalid_at.get(i)

        claim_delegate = claim_doc = claim_update = None
        claim_expected = None
        if i % CLAIM_UPDATE_EVERY == CLAIM_UPDATE_EVERY - 1 or "claim" in (slot, invalid):
            claim_delegate = f"g{rng.randrange(len(pool)):02d}"
            claim_type = rng.choice(_claim_types(delegate_skill[claim_delegate]))
            observed = None if claim_type == "self_claimed" and rng.random() < 0.3 else now_s - rng.randrange(6 * 3600)
            spec = _claim(rng, delegate_skill[claim_delegate], claim_type, observed)
            doc = spec.wire()
            if slot == "claim":
                claim_doc, claim_expected = _hostile(rng, "claim", planted, doc), "claim_rejected"
            elif invalid == "claim":
                claim_doc, claim_expected = _invalid_claim(rng, doc), "claim_rejected"
            else:
                claim_doc, claim_expected, claim_update = _canonical(doc), "claim_applied", spec

        skill = rng.choices(SKILLS, ROUND_SKILL_WEIGHTS)[0]
        task_id = f"task-{seed % 10**6:06d}-{i:05d}"
        submit = {"task_id": task_id, "payload": _text(rng, 40, 900)}
        force_contract = (slot == "submit" and planted != "deep_nesting") or i in depth_at
        contract = _contract(rng, i, now_s) if force_contract or rng.random() < 0.8 else None
        if contract is not None:
            submit["contract"] = contract

        breaks: set = set()
        if i in depth_at:
            contract["policy"]["max_delegation_depth"] = rng.randint(0, 2)
            breaks = {"delegation_depth"}
            others = [k for k in _stated_limits(contract) if k != "delegation_depth"]
            if others and rng.random() < 0.2:
                breaks.add(rng.choice(others))
        elif contract is not None and rng.random() < 0.3:
            # The depth limit is broken only at the planted positions above.
            stated = [k for k in _stated_limits(contract) if k != "delegation_depth"]
            if stated:
                breaks = set(rng.sample(stated, 1 if rng.random() < 0.8 or len(stated) == 1 else 2))
        if "deadline" in breaks:
            # the receipt clock runs past the deadline
            contract["deadline"] = _ts(datetime.fromtimestamp(now_s - rng.randint(1, 3 * 3600), UTC))
        result = _result(rng, task_id, contract, now_s, breaks)

        submit_bad = result_bad = False
        if slot == "submit":
            submit_doc, submit_bad = _hostile(rng, "submit", planted, submit), True
        elif invalid == "submit":
            submit_doc, submit_bad = _invalid_submit(rng, submit), True
        else:
            submit_doc = _canonical(submit)
        if slot == "result":
            result_doc, result_bad = _hostile(rng, "result", planted, result), True
        elif invalid == "result":
            result_doc, result_bad = _invalid_result(rng, result), True
        else:
            result_doc = _canonical(result)

        reply = None
        if submit_bad:
            stage: tuple = ("submit_rejected",)
        elif result_bad:
            stage = ("result_rejected",)
        elif contract is None:
            stage, reply = ("no_contract",), result_doc
        else:
            if not breaks:
                disposition = "accepted"
            elif contract["policy"]["failure_policy"] == "fail_closed":
                disposition = "rejected"
            else:
                disposition = "accepted_with_log"
            stage = (disposition, frozenset(breaks))
            reply = None if disposition == "rejected" else result_doc
            if "delegation_depth" in breaks:
                planted = DEPTH_CLASS

        out.append(
            Round(
                index=i,
                skill=skill,
                now=datetime.fromtimestamp(now_s, UTC),
                now_s=now_s,
                claim_delegate=claim_delegate,
                claim_doc=claim_doc,
                claim_update=claim_update,
                submit_doc=submit_doc,
                result_doc=result_doc,
                result_output=result["output"],
                expected=(claim_expected,) + stage,
                expected_reply=reply,
                planted=planted,
            )
        )
    return Corpus(pool=pool, rounds=out)


# ---------------------------------------------------------------------------
# running rounds through the library


class GatewayState:
    """The delegator's mutable state: its delegate pool and blind-routing rng."""

    def __init__(self, lib, corpus: Corpus, seed: int):
        types, routing = lib.types, lib.routing
        self.lib = lib
        self.pool = []
        self.position = {}
        for delegate_id, claims in corpus.pool:
            self.position[delegate_id] = len(self.pool)
            self.pool.append(routing.DelegateRecord(delegate_id, tuple(self._claim(c) for c in claims)))
        attested = types.ClaimType.ISSUER_ATTESTED
        staleness = timedelta(seconds=MAX_STALENESS_S)
        self.policies = {s: routing.RoutingPolicy.by_claims(s, attested, max_staleness=staleness) for s in SKILLS}
        self.blind = routing.RoutingPolicy.blind()
        self.rng = Random(f"perfbench:gateway:{seed}:blind")

    def _claim(self, spec: ClaimSpec):
        observed = None if spec.observed_s is None else datetime.fromtimestamp(spec.observed_s, UTC)
        return self.lib.types.QualityClaim(
            skill=spec.skill,
            value=spec.value,
            claim_type=self.lib.types.ClaimType(spec.claim_type),
            issuer=spec.issuer,
            observed_at=observed,
        )

    def replace_claim(self, delegate_id: str, claim) -> None:
        at = self.position[delegate_id]
        record = self.pool[at]
        kept = tuple(c for c in record.claims if (c.skill, c.claim_type) != (claim.skill, claim.claim_type))
        self.pool[at] = self.lib.routing.DelegateRecord(delegate_id, kept + (claim,))


def run_round(state: GatewayState, rnd: Round) -> tuple:
    """Run one round; returns (outcome, (chosen_id, fell_back) or None, reply)."""
    lib = state.lib
    wire, routing, contracts, errors = lib.wire, lib.routing, lib.contracts, lib.errors
    claim_outcome = None
    if rnd.claim_doc is not None:
        try:
            claim = wire.decode_any(rnd.claim_doc)
        except wire.DecodeError:
            claim_outcome = "claim_rejected"
        except Exception as exc:  # a defect: the decoder must only raise DecodeError
            claim_outcome = "escaped:" + type(exc).__name__
        else:
            state.replace_claim(rnd.claim_delegate, claim)
            claim_outcome = "claim_applied"
    try:
        submit = wire.decode_message(rnd.submit_doc)
    except wire.DecodeError:
        return (claim_outcome, "submit_rejected"), None, None
    except Exception as exc:
        return (claim_outcome, "escaped:submit:" + type(exc).__name__), None, None

    try:
        route = (routing.select(state.pool, state.policies[rnd.skill], state.rng, rnd.now), False)
    except routing.NoEligibleDelegate:
        route = (routing.select(state.pool, state.blind, state.rng), True)

    try:
        result = wire.decode_message(rnd.result_doc)
    except wire.DecodeError:
        return (claim_outcome, "result_rejected"), route, None
    except Exception as exc:
        return (claim_outcome, "escaped:result:" + type(exc).__name__), route, None

    contract = submit.contract
    if contract is None:
        return (claim_outcome, "no_contract"), route, wire.encode_message(result)
    outcome = contracts.check_result(contract, result, rnd.now)
    resolved = contracts.apply_policy(outcome, result)
    if isinstance(resolved, lib.types.LdpError):
        semantics = errors.default_semantics(resolved.category)
        reply = wire.canonical_bytes(
            {"error": wire.ldp_error_to_wire(resolved), "recovery": semantics.action.kind.value}
        )
    else:
        reply = wire.encode_message(resolved.result)
    rules = frozenset(v.rule.value for v in outcome.violations)
    return (claim_outcome, outcome.disposition.value, rules), route, reply


def round_ok(rnd: Round, outcome: tuple, reply: Optional[bytes]) -> bool:
    """Whether a round came out as the generator said it must."""
    if outcome != rnd.expected:
        return False
    if rnd.expected_reply is not None:
        return reply == rnd.expected_reply
    return True


def check_rejection_reply(rnd: Round, reply: Optional[bytes]) -> Optional[str]:
    """Problems with a rejection reply, or None when it is right."""
    if rnd.expected[1] != "rejected":
        return None
    try:
        body = json.loads(reply)
        error = body["error"]
        problems = []
        if error.get("category") != "policy" or error.get("retryable") is not False:
            problems.append("not a non-retryable policy error")
        if error.get("code") != "CONTRACT_VIOLATED":
            problems.append(f"code {error.get('code')!r}")
        if error.get("partial_output") != rnd.result_output:
            problems.append("partial_output differs from the delegate's output")
        if body.get("recovery") != "escalate":
            problems.append(f"recovery {body.get('recovery')!r}")
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        return f"round {rnd.index}: unreadable rejection reply ({exc})"
    return f"round {rnd.index}: " + ", ".join(problems) if problems else None


class RoutingOracle:
    """Argmax over fresh attested-or-better claims, written from the policy text.

    Replays the claim updates in the order the rounds ran them, so it sees
    the same pool the router saw.
    """

    def __init__(self, corpus: Corpus):
        self.order = [delegate_id for delegate_id, _ in corpus.pool]
        self.claims = {
            delegate_id: {(c.skill, c.claim_type): c for c in claims}
            for delegate_id, claims in corpus.pool
        }

    def expected(self, skill: str, now_s: int) -> Optional[str]:
        best_value, best_id = None, None
        for delegate_id in self.order:
            chosen = None
            for (claim_skill, claim_type), claim in self.claims[delegate_id].items():
                rank = CLAIM_TYPES.index(claim_type)
                if claim_skill != skill or rank < MIN_RANK or claim.observed_s is None:
                    continue
                if now_s - claim.observed_s > MAX_STALENESS_S:
                    continue
                if chosen is None or rank > CLAIM_TYPES.index(chosen.claim_type):
                    chosen = claim
            if chosen is None:
                continue
            if best_value is None or chosen.value > best_value or (chosen.value == best_value and delegate_id < best_id):
                best_value, best_id = chosen.value, delegate_id
        return best_id

    def check(self, rounds: list, routes: bytes) -> list:
        """Problems across an executed sequence; ``routes[k]`` ran ``rounds[k % len]``.

        Routes are coded as ``route_code`` makes them.
        """
        problems = []
        for k, code in enumerate(routes):
            rnd = rounds[k % len(rounds)]
            if rnd.claim_update is not None:
                spec = rnd.claim_update
                self.claims[rnd.claim_delegate][(spec.skill, spec.claim_type)] = spec
            if code == 0:
                continue
            chosen, fell_back = self.order[(code & 127) - 1], code >= 128
            want = self.expected(rnd.skill, rnd.now_s)
            if want is None and not fell_back:
                problems.append(f"round {k}: expected a blind fallback, got {chosen}")
            elif want is not None and (fell_back or chosen != want):
                problems.append(f"round {k}: expected {want}, got {chosen} (fallback={fell_back})")
            if len(problems) >= 5:
                break
        return problems


def route_code(state: GatewayState, route: Optional[tuple]) -> int:
    """One byte per round: 0 for no routing, else pool position + 1, +128 on fallback."""
    if route is None:
        return 0
    chosen, fell_back = route
    return state.position[chosen] + 1 + (128 if fell_back else 0)
