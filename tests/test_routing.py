"""Router tests: claim filtering, selection strategies, immunity."""

from __future__ import annotations

import copy
import dataclasses
import pickle
from datetime import datetime, timedelta, timezone
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delgov.routing import (
    DelegateRecord,
    NoEligibleDelegate,
    RoutingPolicy,
    Strategy,
    _blind,
    eligible_claim,
    rank,
    select,
)
from delgov.types import ClaimType, QualityClaim

UTC = timezone.utc
NOW = datetime(2026, 6, 1, 12, 0, 0, tzinfo=UTC)

# critical value of chi-squared with 9 degrees of freedom at alpha = 0.01
CHI2_9_CRIT_01 = 21.666


def claim(value, claim_type, skill="reasoning", issuer=None, observed_at=None):
    if claim_type is ClaimType.ISSUER_ATTESTED and issuer is None:
        issuer = "eval-service"
    return QualityClaim(
        skill=skill, value=value, claim_type=claim_type, issuer=issuer, observed_at=observed_at
    )


def policy(min_claim_type=ClaimType.SELF_CLAIMED, skill="reasoning", max_staleness=None):
    return RoutingPolicy.by_claims(skill, min_claim_type, max_staleness)


def test_plain_string_claim_type_is_normalized_and_routes():
    claim_a = QualityClaim("reasoning", 0.9, "self_claimed")
    assert claim_a.claim_type is ClaimType.SELF_CLAIMED
    pool = [
        DelegateRecord("d-a", (claim_a,)),
        DelegateRecord("d-b", (QualityClaim("reasoning", 0.7, "issuer_attested", issuer="x"),)),
    ]
    assert select(pool, policy(), Random(0), NOW) == "d-a"
    assert select(pool, policy(ClaimType.ISSUER_ATTESTED), Random(0), NOW) == "d-b"
    with pytest.raises(ValueError, match="duplicate claim"):
        DelegateRecord("d-c", (claim_a, QualityClaim("reasoning", 0.2, "self_claimed")))


def test_policy_from_plain_values_equals_the_member_policy_and_routes_the_same():
    pool = [
        DelegateRecord("d-a", (claim(0.9, ClaimType.SELF_CLAIMED),)),
        DelegateRecord("d-b", (claim(0.7, ClaimType.ISSUER_ATTESTED),)),
    ]
    plain = RoutingPolicy("by_claims", "issuer_attested", "reasoning")
    assert plain == policy(ClaimType.ISSUER_ATTESTED)
    assert plain.strategy is Strategy.BY_CLAIMS
    assert plain.min_claim_type is ClaimType.ISSUER_ATTESTED
    assert select(pool, plain, Random(0), NOW) == "d-b"
    assert RoutingPolicy("blind") == RoutingPolicy.blind()
    assert select(pool, RoutingPolicy("blind"), Random(3)) == select(
        pool, RoutingPolicy.blind(), Random(3)
    )
    with pytest.raises(ValueError, match="is not a valid"):
        RoutingPolicy("cheapest")
    with pytest.raises(ValueError, match="is not a valid"):
        RoutingPolicy("by_claims", "peer_reviewed", "reasoning")


def test_self_claim_filtered_out_by_attested_minimum():
    record = DelegateRecord("d-a", (claim(0.95, ClaimType.SELF_CLAIMED),))
    assert eligible_claim(record, policy(ClaimType.ISSUER_ATTESTED), NOW) is None


def test_higher_trust_level_wins_even_with_lower_value():
    record = DelegateRecord(
        "d-a",
        (
            claim(0.95, ClaimType.SELF_CLAIMED),
            claim(0.85, ClaimType.EXTERNALLY_BENCHMARKED),
        ),
    )
    chosen = eligible_claim(record, policy(), NOW)
    assert chosen.claim_type is ClaimType.EXTERNALLY_BENCHMARKED
    assert chosen.value == 0.85


def test_skill_mismatch_yields_no_claim():
    record = DelegateRecord("d-a", (claim(0.9, ClaimType.SELF_CLAIMED, skill="code"),))
    assert eligible_claim(record, policy(skill="reasoning"), NOW) is None


def test_stale_claims_are_excluded():
    fresh = claim(0.7, ClaimType.RUNTIME_OBSERVED, observed_at=NOW - timedelta(days=2))
    stale = claim(
        0.9, ClaimType.EXTERNALLY_BENCHMARKED, observed_at=NOW - timedelta(days=40)
    )
    record = DelegateRecord("d-a", (fresh, stale))
    chosen = eligible_claim(record, policy(max_staleness=timedelta(days=7)), NOW)
    assert chosen is fresh


def test_a_claim_observed_after_now_counts_as_fresh():
    # its age is negative, so it is inside any window; a claim update replayed at an
    # earlier clock still routes
    ahead = claim(0.6, ClaimType.SELF_CLAIMED, observed_at=NOW + timedelta(days=400))
    behind = claim(0.9, ClaimType.SELF_CLAIMED, observed_at=NOW - timedelta(seconds=1))
    pool = [DelegateRecord("d-a", (ahead,)), DelegateRecord("d-b", (behind,))]
    for window in (timedelta(0), timedelta(seconds=1), timedelta(days=7)):
        assert eligible_claim(pool[0], policy(max_staleness=window), NOW) is ahead
    assert select(pool, policy(max_staleness=timedelta(0)), Random(0), NOW) == "d-a"
    assert select(pool, policy(max_staleness=timedelta(seconds=1)), Random(0), NOW) == "d-b"


def test_undated_claims_pass_only_without_a_staleness_window():
    record = DelegateRecord("d-a", (claim(0.8, ClaimType.SELF_CLAIMED),))
    assert eligible_claim(record, policy(), NOW) is not None
    assert eligible_claim(record, policy(max_staleness=timedelta(days=7)), NOW) is None


def test_freshness_window_without_a_reference_time_raises():
    dated = claim(0.8, ClaimType.SELF_CLAIMED, observed_at=NOW - timedelta(days=1))
    pool = [DelegateRecord("d-a", (dated,))]
    with pytest.raises(ValueError, match="^freshness filtering requires a reference time$"):
        select(pool, policy(max_staleness=timedelta(days=7)), Random(0))


def test_eligible_claim_rejects_blind_policies():
    record = DelegateRecord("d-a", (claim(0.8, ClaimType.SELF_CLAIMED),))
    with pytest.raises(ValueError):
        eligible_claim(record, RoutingPolicy.blind(), NOW)


@pytest.mark.parametrize(
    "partial",
    [RoutingPolicy("by_claims", skill="reasoning"), RoutingPolicy("by_claims", ClaimType.SELF_CLAIMED)],
    ids=["no-floor", "no-skill"],
)
def test_by_claims_policy_needs_a_skill_and_a_floor(partial):
    record = DelegateRecord("d-a", (claim(0.8, ClaimType.SELF_CLAIMED),))
    with pytest.raises(ValueError, match="^by_claims policy requires both skill and min_claim_type$"):
        eligible_claim(record, partial, NOW)


def test_duplicate_claim_per_skill_and_type_is_rejected():
    with pytest.raises(ValueError):
        DelegateRecord(
            "d-a",
            (claim(0.8, ClaimType.SELF_CLAIMED), claim(0.9, ClaimType.SELF_CLAIMED)),
        )


def test_nan_claim_is_rejected_when_the_record_is_built():
    # NaN has no order, so routing over it would follow pool order
    a = DelegateRecord("a", (claim(0.5, ClaimType.SELF_CLAIMED),))
    with pytest.raises(ValueError, match="delegate 'b' has a NaN claim for skill 'reasoning'"):
        DelegateRecord("b", (claim(float("nan"), ClaimType.SELF_CLAIMED),))
    # other out-of-range values are left to validate_invariants and still route by value
    b = DelegateRecord("b", (claim(1.5, ClaimType.SELF_CLAIMED),))
    assert select([a, b], policy(), Random(0), NOW) == select([b, a], policy(), Random(0), NOW) == "b"


_MIXED = (
    claim(0.9, ClaimType.SELF_CLAIMED),
    claim(0.6, ClaimType.ISSUER_ATTESTED),
    claim(0.7, ClaimType.RUNTIME_OBSERVED, skill="code", observed_at=NOW - timedelta(days=1)),
)


@pytest.mark.parametrize("build", [tuple, list, iter], ids=["tuple", "list", "generator"])
def test_a_record_built_from_any_iterable_equals_the_tuple_built_one(build):
    record = DelegateRecord("d-a", build(_MIXED))
    expected = DelegateRecord("d-a", _MIXED)
    assert type(record.claims) is tuple
    assert record == expected and hash(record) == hash(expected)
    assert repr(record) == repr(expected)
    assert "_by_skill" not in repr(record)


@pytest.mark.parametrize(
    "duplicate",
    [
        lambda record: dataclasses.replace(record),
        lambda record: dataclasses.replace(record, claims=list(record.claims)),
        copy.copy,
        copy.deepcopy,
        lambda record: pickle.loads(pickle.dumps(record)),
    ],
    ids=["replace", "replace-list", "copy", "deepcopy", "pickle"],
)
def test_copies_of_a_record_route_the_same(duplicate):
    pool = [
        DelegateRecord("d-a", _MIXED),
        DelegateRecord("d-b", (claim(0.8, ClaimType.SELF_CLAIMED),)),
    ]
    copies = [duplicate(record) for record in pool]
    assert copies == pool
    policies = (
        policy(),
        policy(ClaimType.ISSUER_ATTESTED),
        policy(skill="code", max_staleness=timedelta(days=2)),
    )
    for pol in policies:
        assert rank(copies, pol, NOW) == rank(pool, pol, NOW)
        assert _outcome(lambda: select(copies, pol, Random(0), NOW)) == _outcome(
            lambda: select(pool, pol, Random(0), NOW)
        )
    # the attested claim outranks d-a's higher self-reported one
    assert rank(copies, policy(), NOW) == [(0.6, "d-a"), (0.8, "d-b")]
    assert rank(copies, policy(skill="code", max_staleness=timedelta(days=2)), NOW) == [(0.7, "d-a")]


def _pool(values_by_id, claim_type=ClaimType.SELF_CLAIMED):
    return [
        DelegateRecord(delegate_id, (claim(value, claim_type),))
        for delegate_id, value in values_by_id.items()
    ]


def test_by_claims_selects_the_argmax():
    pool = _pool({"d-a": 0.6, "d-b": 0.9, "d-c": 0.7})
    assert select(pool, policy(), Random(0), NOW) == "d-b"


def test_ties_break_to_the_smallest_id():
    pool = _pool({"d-c": 0.9, "d-a": 0.9, "d-b": 0.9})
    assert select(pool, policy(), Random(0), NOW) == "d-a"


def test_by_claims_never_touches_the_rng():
    pool = _pool({"d-a": 0.6, "d-b": 0.9})
    rng = Random(1234)
    state = rng.getstate()
    select(pool, policy(), rng, NOW)
    assert rng.getstate() == state


def test_delegates_without_eligible_claims_are_excluded():
    pool = _pool({"d-a": 0.99}) + _pool({"d-b": 0.5}, ClaimType.ISSUER_ATTESTED)
    assert select(pool, policy(ClaimType.ISSUER_ATTESTED), Random(0), NOW) == "d-b"


def test_no_eligible_delegate_raises():
    pool = _pool({"d-a": 0.99, "d-b": 0.5})
    with pytest.raises(NoEligibleDelegate):
        select(pool, policy(ClaimType.ISSUER_ATTESTED), Random(0), NOW)


def test_empty_pool_is_a_precondition_failure():
    with pytest.raises(ValueError):
        select([], RoutingPolicy.blind(), Random(0), NOW)


def test_blind_uniformity_chi_squared():
    pool = _pool({f"d-{i}": 0.5 for i in range(10)})
    rng = Random(20260601)
    counts = {record.delegate_id: 0 for record in pool}
    draws = 10000
    for _ in range(draws):
        counts[select(pool, RoutingPolicy.blind(), rng, NOW)] += 1
    expected = draws / len(pool)
    stat = sum((n - expected) ** 2 / expected for n in counts.values())
    assert stat < CHI2_9_CRIT_01


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=50),
)
def test_a_blind_batch_is_successive_blind_selects(size, seed, n):
    pool = _pool({f"d-{i}": 0.5 for i in range(size)})
    rng, reference, by_hand = Random(seed), Random(seed), Random(seed)
    batch = _blind(pool, rng, n)
    assert batch == [select(pool, RoutingPolicy.blind(), reference, NOW) for _ in range(n)]
    # each draw consumes exactly one randrange(len(pool))
    assert batch == [pool[by_hand.randrange(size)].delegate_id for _ in range(n)]
    assert rng.getstate() == reference.getstate() == by_hand.getstate()


def test_attested_filter_is_immune_to_self_claim_perturbations():
    rng = Random(7)
    base = [
        DelegateRecord(
            f"d-{i}",
            (
                claim(rng.random(), ClaimType.SELF_CLAIMED),
                claim(0.1 * i, ClaimType.ISSUER_ATTESTED),
            ),
        )
        for i in range(10)
    ]
    attested_policy = policy(ClaimType.ISSUER_ATTESTED)
    baseline = select(base, attested_policy, Random(0), NOW)
    for _ in range(200):
        perturbed = [
            DelegateRecord(
                record.delegate_id,
                (claim(rng.random(), ClaimType.SELF_CLAIMED), record.claims[1]),
            )
            for record in base
        ]
        assert select(perturbed, attested_policy, Random(0), NOW) == baseline


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.text(alphabet="abcdef", min_size=1, max_size=4).map(lambda s: "d-" + s),
        st.floats(min_value=0.0, max_value=1.0),
        min_size=1,
        max_size=8,
    )
)
def test_argmax_dominance(values_by_id):
    pool = _pool(values_by_id)
    best_value = max(values_by_id.values())
    strict = [d for d, v in values_by_id.items() if v == best_value]
    winner = select(pool, policy(), Random(0), NOW)
    if len(strict) == 1:
        assert winner == strict[0]
    else:
        assert winner == min(strict)


def test_claim_types_carry_their_trust_level():
    assert [member.level for member in ClaimType] == [0, 1, 2, 3]
    assert ClaimType("issuer_attested").level == 2


def _independent_claim(record, pol, now):
    """eligible_claim restated from its docstring, for the property below."""
    survivors = [
        c
        for c in record.claims
        if c.skill == pol.skill
        and c.claim_type.level >= pol.min_claim_type.level
        and (
            pol.max_staleness is None
            or (c.observed_at is not None and now - c.observed_at <= pol.max_staleness)
        )
    ]
    # one claim per (skill, type), so the highest level is unique
    return max(survivors, key=lambda c: c.claim_type.level, default=None)


_SKILLS = ("code", "reasoning", "search")
_observed = st.one_of(st.none(), st.integers(0, 30).map(lambda d: NOW - timedelta(days=d)))


@st.composite
def _record(draw, delegate_id):
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(_SKILLS), st.sampled_from(list(ClaimType))),
            max_size=5,
            unique=True,
        )
    )
    claims = tuple(
        claim(draw(st.sampled_from((0.2, 0.5, 0.8, 0.95))), claim_type, skill, "iss", draw(_observed))
        for skill, claim_type in keys
    )
    # a record built from a list holds the same tuple
    return DelegateRecord(delegate_id, list(claims) if draw(st.booleans()) else claims)


_pools = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=3), min_size=1, max_size=20, unique=True
).flatmap(lambda ids: st.tuples(*(_record("d-" + i) for i in ids)).map(list))
_policies = st.builds(
    policy,
    st.sampled_from(list(ClaimType)),
    st.sampled_from(_SKILLS),
    st.one_of(st.none(), st.integers(0, 30).map(lambda d: timedelta(days=d))),
)


@settings(max_examples=150, deadline=None)
@given(_pools, _policies)
def test_rank_is_the_eligible_claim_filter_and_select_its_argmax(pool, pol):
    expected = []
    for record in pool:
        chosen = _independent_claim(record, pol, NOW)
        assert eligible_claim(record, pol, NOW) == chosen
        if chosen is not None:
            expected.append((chosen.value, record.delegate_id))
    ranked = rank(pool, pol, NOW)
    assert ranked == expected

    rng = Random(99)
    state = rng.getstate()
    if not ranked:
        with pytest.raises(NoEligibleDelegate):
            select(pool, pol, rng, NOW)
    else:
        best = max(value for value, _ in ranked)
        assert select(pool, pol, rng, NOW) == min(d for v, d in ranked if v == best)
    assert rng.getstate() == state


def _outcome(call):
    try:
        return call()
    except NoEligibleDelegate as exc:
        return type(exc), str(exc)


# One instant in three forms: aware UTC, a fixed non-UTC offset, naive UTC wall time.
_OFFSET = timezone(timedelta(hours=5, minutes=30))
_NOW_FORMS = (
    lambda instant: instant,
    lambda instant: instant.astimezone(_OFFSET),
    lambda instant: instant.replace(tzinfo=None),
)


@settings(max_examples=150, deadline=None)
@given(_pools, _policies, st.integers(-3 * 24, 3 * 24), st.sampled_from(_NOW_FORMS))
def test_every_form_of_the_same_now_routes_the_same(pool, pol, hours, form):
    instant = NOW + timedelta(hours=hours)
    now = form(instant)
    for record in pool:
        assert eligible_claim(record, pol, now) == eligible_claim(record, pol, instant)
    assert rank(pool, pol, now) == rank(pool, pol, instant)
    assert _outcome(lambda: select(pool, pol, Random(0), now)) == _outcome(
        lambda: select(pool, pol, Random(0), instant)
    )


_windowed = _policies.filter(lambda pol: pol.max_staleness is not None)


@settings(max_examples=150, deadline=None)
@given(_pools, _windowed)
def test_a_window_without_a_reference_time_raises_only_on_a_dated_candidate(pool, pol):
    dated = any(
        c.skill == pol.skill
        and c.claim_type.level >= pol.min_claim_type.level
        and c.observed_at is not None
        for record in pool
        for c in record.claims
    )
    if dated:
        for call in (lambda: rank(pool, pol), lambda: select(pool, pol, Random(0))):
            with pytest.raises(ValueError, match="^freshness filtering requires a reference time$"):
                call()
    else:
        assert rank(pool, pol) == rank(pool, pol, NOW) == []
        assert _outcome(lambda: select(pool, pol, Random(0))) == _outcome(
            lambda: select(pool, pol, Random(0), NOW)
        )
