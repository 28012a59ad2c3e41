"""Trust-aware delegate selection.

Two strategies:

- ``blind``: uniform random choice over the pool, the uninformed baseline.
- ``by_claims``: deterministic argmax over quality-claim values, after
  filtering claims by skill, minimum claim type on the trust scale, and
  freshness. Delegates without an eligible claim are excluded entirely.

Each ``DelegateRecord`` indexes its claims by skill and trust level when
it is built. One private filter, ``_eligible``, looks each delegate's claim
up, reading the policy and the clock once per call (a naive ``now`` as
UTC, as ``check_result`` does). ``eligible_claim`` applies it to one record
and ``rank`` to a pool, listing the ``(value, delegate_id)`` pairs the
router chooses among. ``select`` then draws: blind uniformly from its rng,
by_claims the highest value in one pass over the filter, ties to the
smallest id. The by_claims draw never touches the rng, so a caller routing
many tasks over one static pool, policy and reference time may select once
and reuse the answer. The blind draw is stated once, in the private
``_blind(pool, rng, n)``: n draws of one ``randrange(len(pool))`` each. A
blind ``select`` is ``_blind`` with n = 1, so a batch of n gives the ids
and the rng state of n blind selects.

Filtering is a hard minimum trust level, not a weighting: a router that
requires issuer_attested or better never reads self-reported numbers, so
inflating claims built in process cannot move it. Wire claims can, as any
non-empty issuer passes: a delegate may label its own claim attested.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum
from random import Random
from typing import Iterable, Iterator, Optional, Sequence

from .types import ClaimType, QualityClaim, _Normalized, _utc


_LEVELS = len(ClaimType)


class Strategy(str, Enum):
    BLIND = "blind"
    BY_CLAIMS = "by_claims"


class NoEligibleDelegate(Exception):
    """No delegate in the pool has a claim passing the policy filters.

    Callers should relax the policy (lower min_claim_type, drop staleness)
    or fall back to blind routing.
    """


@dataclass(frozen=True)
class RoutingPolicy(_Normalized):
    """How to pick a delegate. Blind routing ignores every field but strategy.
    Enum fields take a member or its plain value (``"blind"``), as in the wire types."""

    strategy: Strategy
    min_claim_type: Optional[ClaimType] = None
    skill: Optional[str] = None
    max_staleness: Optional[timedelta] = None

    @classmethod
    def blind(cls) -> "RoutingPolicy":
        return cls(strategy=Strategy.BLIND)

    @classmethod
    def by_claims(
        cls,
        skill: str,
        min_claim_type: ClaimType = ClaimType.SELF_CLAIMED,
        max_staleness: Optional[timedelta] = None,
    ) -> "RoutingPolicy":
        return cls(
            strategy=Strategy.BY_CLAIMS,
            min_claim_type=min_claim_type,
            skill=skill,
            max_staleness=max_staleness,
        )


@dataclass(frozen=True)
class DelegateRecord:
    """A delegate and its advertised quality claims.

    At most one claim per (skill, claim_type) pair; a delegate may well
    hold different claim types for different skills. NaN values, which have
    no order, are refused: routing over one would follow pool order.
    """

    delegate_id: str
    claims: tuple[QualityClaim, ...] = ()

    def __post_init__(self) -> None:
        claims = self.claims
        if type(claims) is not tuple:
            claims = tuple(claims)
            object.__setattr__(self, "claims", claims)
        # the routing index: per skill, one claim slot per ClaimType.level; a plain
        # attribute, not a field, so equality, hashing and repr read the claims alone
        by_skill: dict[str, list[Optional[QualityClaim]]] = {}
        for claim in claims:
            slots = by_skill.get(claim.skill)
            if slots is None:
                slots = by_skill[claim.skill] = [None] * _LEVELS
            level = claim.claim_type.level
            if slots[level] is not None:
                raise ValueError(
                    f"delegate {self.delegate_id!r} has duplicate claim for "
                    f"skill {claim.skill!r} at type {claim.claim_type.value!r}"
                )
            if claim.value != claim.value:
                raise ValueError(
                    f"delegate {self.delegate_id!r} has a NaN claim for skill {claim.skill!r}"
                )
            slots[level] = claim
        object.__setattr__(self, "_by_skill", by_skill)


def _eligible(
    pool: Iterable[DelegateRecord], policy: RoutingPolicy, now: Optional[datetime]
) -> Iterator[tuple[DelegateRecord, QualityClaim]]:
    """``(record, eligible_claim)`` per record that has one. Each record's claims of the
    policy skill are looked up by level, from the top down to the floor, and the first that
    passes the freshness test wins: with one claim per (skill, type) no lower one can."""
    if policy.strategy is not Strategy.BY_CLAIMS:
        raise ValueError("eligible_claim applies only to by_claims policies")
    if policy.skill is None or policy.min_claim_type is None:
        raise ValueError("by_claims policy requires both skill and min_claim_type")
    skill, window = policy.skill, policy.max_staleness
    levels = range(_LEVELS - 1, policy.min_claim_type.level - 1, -1)
    if window is not None and now is not None:
        now = _utc(now)
    for record in pool:
        slots = record._by_skill.get(skill)
        if slots is None:
            continue
        for level in levels:
            claim = slots[level]
            if claim is None:
                continue
            if window is not None:
                if claim.observed_at is None:
                    continue
                if now is None:
                    raise ValueError("freshness filtering requires a reference time")
                if now - claim.observed_at > window:
                    continue
            yield record, claim
            break


def eligible_claim(
    record: DelegateRecord,
    policy: RoutingPolicy,
    now: Optional[datetime] = None,
) -> Optional[QualityClaim]:
    """The claim the router would read for this delegate, if any.

    Claims must match the policy skill, sit at or above the minimum claim
    type, and be fresh enough when a staleness window is set. Claims with
    no observation time pass only when no window is configured. A claim
    observed after ``now`` has a negative age, so it is fresh under any
    window. Among the survivors the highest trust level wins, whatever its
    value.
    """
    return next((claim for _, claim in _eligible((record,), policy, now)), None)


def rank(
    pool: Sequence[DelegateRecord],
    policy: RoutingPolicy,
    now: Optional[datetime] = None,
) -> list[tuple[float, str]]:
    """``(claim value, delegate_id)`` for every delegate the policy admits.

    One pair per delegate whose ``eligible_claim`` is not None, in pool
    order and unsorted; the value is that claim's. ``policy`` must be a
    by_claims policy.
    """
    return [(claim.value, record.delegate_id) for record, claim in _eligible(pool, policy, now)]


def _blind(pool: Sequence[DelegateRecord], rng: Random, n: int) -> list[str]:
    """``n`` blind draws from a non-empty pool, one ``randrange(len(pool))`` each."""
    randrange, size = rng.randrange, len(pool)
    return [pool[randrange(size)].delegate_id for _ in range(n)]


def select(
    pool: Sequence[DelegateRecord],
    policy: RoutingPolicy,
    rng: Random,
    now: Optional[datetime] = None,
) -> str:
    """Pick one delegate id from a non-empty pool.

    Blind draws uniformly from ``rng``. by_claims picks the highest value
    among the pairs ``rank(pool, policy, now)`` lists, without building the
    list, and is a pure function of the pool, policy and reference time:
    the rng is never touched, and ties on claim value go to the
    lexicographically smallest delegate id so runs reproduce.
    """
    if not pool:
        raise ValueError("select requires a non-empty pool")
    if policy.strategy is Strategy.BLIND:
        return _blind(pool, rng, 1)[0]

    winner = None
    for record, claim in _eligible(pool, policy, now):
        value = claim.value
        if winner is None or value > best or (
            value == best and record.delegate_id < winner.delegate_id
        ):
            winner, best = record, value
    if winner is None:
        raise NoEligibleDelegate(
            f"no delegate has an eligible {policy.skill!r} claim at "
            f"{policy.min_claim_type.value!r} or above"
        )
    return winner.delegate_id
