"""Simulator tests: pool construction, execution noise, oracles."""

from __future__ import annotations

import math
import re
import struct
from decimal import Decimal
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delgov import simulate
from delgov.simulate import (
    HONEST_JITTER,
    NOISE_SIGMA,
    Q_TRUE_RANGE,
    BadConfig,
    DelegateProfile,
    PoolConfig,
    PoolMetadata,
    _normals,
    best_delegate,
    build_pool_with_metadata,
    dishonest_count,
    execute_task,
    execute_tasks,
)

CANONICAL = PoolConfig(
    pool_size=10,
    dishonest_fraction=0.3,
    inflation_range=(0.35, 0.45),
)

# expected mean of clamp(N(0.95, 0.05), 0, 1): the upper clamp eats
# sigma * (phi(1) - (1 - Phi(1))) = 0.05 * (0.241971 - 0.158655)
CLAMPED_MEAN_95 = 0.95 - 0.05 * (
    math.exp(-0.5) / math.sqrt(2 * math.pi) - 0.5 * math.erfc(1 / math.sqrt(2))
)

# round-half-even of pool_size * fraction, enumerated by hand for the
# whole sensitivity grid
ROUNDING_TABLE = {
    (5, 0.1): 0, (5, 0.3): 2, (5, 0.5): 2, (5, 0.7): 4,
    (10, 0.1): 1, (10, 0.3): 3, (10, 0.5): 5, (10, 0.7): 7,
    (20, 0.1): 2, (20, 0.3): 6, (20, 0.5): 10, (20, 0.7): 14,
}


@pytest.mark.parametrize(("size", "fraction"), sorted(ROUNDING_TABLE))
def test_dishonest_count_rounding_oracle(size, fraction):
    assert dishonest_count(size, fraction) == ROUNDING_TABLE[(size, fraction)]


def test_canonical_pool_structure():
    pool, metadata = build_pool_with_metadata(CANONICAL, Random(42))
    assert len(pool) == 10
    assert [p.delegate_id for p in pool] == [f"d{i}" for i in range(10)]
    dishonest = [p for p in pool if not p.honest]
    honest = [p for p in pool if p.honest]
    assert len(dishonest) == 3 and len(honest) == 7
    assert metadata.dishonest_ids == ("d1", "d2", "d3")
    assert metadata.designated_top_id == "d2"
    assert metadata.dominance_guaranteed is True
    # the top claim of the pool always belongs to an inflator here
    assert max(p.q_claimed for p in dishonest) > max(p.q_claimed for p in honest)
    assert all(p.q_claimed >= p.q_true + 0.35 for p in dishonest)


def test_true_qualities_are_evenly_spaced():
    pool = build_pool_with_metadata(CANONICAL, Random(1))[0]
    expected = [0.45 + i * 0.5 / 9 for i in range(10)]
    assert pool[0].q_true == pytest.approx(0.45)
    assert pool[-1].q_true == pytest.approx(0.95)
    for profile, q in zip(pool, expected):
        assert profile.q_true == pytest.approx(q)


@pytest.mark.parametrize("size", [2, 10, 11, 100, 101])
def test_ids_and_true_qualities_at_the_id_width_boundaries(size):
    config = PoolConfig(size, 0.3, (0.1, 0.2))
    pool, metadata = build_pool_with_metadata(config, Random(size))
    width = len(str(size - 1))
    ids = [p.delegate_id for p in pool]
    assert ids == [f"d{i:0{width}d}" for i in range(size)]
    assert sorted(ids) == ids
    lo, hi = Q_TRUE_RANGE
    assert [p.q_true.hex() for p in pool] == [(lo + i * (hi - lo) / (size - 1)).hex() for i in range(size)]
    assert build_pool_with_metadata(config, Random(size)) == (pool, metadata)
    # the layout does not depend on the seed
    other = build_pool_with_metadata(config, Random(size + 1))[0]
    assert [(p.delegate_id, p.q_true.hex()) for p in other] == [(p.delegate_id, p.q_true.hex()) for p in pool]


# any fraction and any inflation range a pool can be built from: a floor above zero, so every
# inflator's claim rises above its true quality
pool_configs = st.builds(
    lambda size, fraction, low, width: PoolConfig(size, fraction, (low, low + width)),
    st.integers(2, 30),
    st.floats(0.0, 1.0),
    st.floats(1e-6, 1.0),
    st.floats(0.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(pool_configs, st.integers(0, 2**32))
def test_honest_claims_stay_inside_the_honesty_band(config, seed):
    pool, metadata = build_pool_with_metadata(config, Random(seed))
    n = config.pool_size
    k = dishonest_count(n, config.dishonest_fraction)
    # the lower-middle block 1..k, or the whole pool when every delegate inflates
    block = list(range(n)) if k == n else list(range(1, k + 1))
    assert [i for i, p in enumerate(pool) if not p.honest] == block
    assert metadata.dishonest_ids == tuple(pool[i].delegate_id for i in block)
    for profile in pool:
        if profile.honest:
            # unclamped, and inside [0, 1] all the same: Q_TRUE_RANGE leaves room for the jitter
            assert profile.q_true - HONEST_JITTER <= profile.q_claimed <= profile.q_true + HONEST_JITTER
            assert 0.0 <= profile.q_claimed <= 1.0
        else:
            assert profile.q_true < profile.q_claimed <= 1.0
    if k >= 3 and k % 2 == 1:
        middle = pool[block[k // 2]]
        assert metadata.designated_top_id == middle.delegate_id
        assert middle.q_claimed == min(middle.q_true + config.inflation_range[1], 1.0)
    else:
        assert metadata.designated_top_id is None


def _fresh_build(config, rng):
    """The pool and metadata by the module docstring's rules, derived with no cache."""
    simulate._validate_config(config)
    n = config.pool_size
    low, high = config.inflation_range
    k = dishonest_count(n, config.dishonest_fraction)
    dishonest = range(1, k + 1) if k < n else range(n)
    designated = dishonest[k // 2] if k >= 3 and k % 2 == 1 else None
    lo, hi = Q_TRUE_RANGE
    pool = []
    for i in range(n):
        delegate_id, q_true = f"d{i:0{len(str(n - 1))}d}", lo + i * (hi - lo) / (n - 1)
        if i not in dishonest:
            q_claimed = q_true + rng.uniform(-HONEST_JITTER, HONEST_JITTER)
        else:
            q_claimed = min(q_true + (high if i == designated else rng.uniform(low, high)), 1.0)
            if q_claimed <= q_true:
                raise BadConfig(
                    f"delegate {delegate_id} cannot inflate: q_true {q_true} "
                    f"with inflation_range {config.inflation_range}"
                )
        pool.append(DelegateProfile(delegate_id, q_true, q_claimed, i not in dishonest))
    top_q = pool[dishonest[-1]].q_true if dishonest else None
    honest_q = max((p.q_true for p in pool if p.honest), default=-math.inf)
    dominance = top_q is not None and min(top_q + low, 1.0) > min(honest_q + HONEST_JITTER, 1.0)
    designated_id = pool[designated].delegate_id if designated is not None else None
    return pool, PoolMetadata(tuple(pool[i].delegate_id for i in dishonest), designated_id, dominance)


def _outcome(build, config, seed):
    """The pool and metadata, or the exception's type and text, and the rng's state after."""
    rng = Random(seed)
    try:
        result = build(config, rng)
    except Exception as exc:
        result = (type(exc), str(exc))
    return result, rng.getstate()


# valid and invalid configurations alike: sizes below 2, fractions outside [0, 1] or of
# another type, ranges upside down, below zero, at zero, as a list or of Decimals
any_configs = st.builds(
    PoolConfig,
    st.integers(0, 25),
    st.one_of(st.floats(-0.2, 1.2), st.sampled_from([0.0, -0.0, 1.0, 1, True, math.nan])),
    st.one_of(
        st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 0.6)),
        st.sampled_from(
            [(0.0, 0.0), (-0.1, 0.2), [0.1, 0.2], (0, 1), (Decimal("0.1"), Decimal("0.2"))]
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(any_configs, st.integers(0, 2**32))
def test_the_planned_pool_is_the_pool_derived_afresh(config, seed):
    fresh = _outcome(_fresh_build, config, seed)
    simulate._plan.cache_clear()
    cold = _outcome(build_pool_with_metadata, config, seed)
    warm = _outcome(build_pool_with_metadata, config, seed)
    assert cold == fresh
    assert warm == cold
    if isinstance(cold[0][1], PoolMetadata):
        # the warm call hands back the planned metadata itself, as it does for every seed
        assert warm[0][1] is cold[0][1]


def _drawn_claims(config, rng):
    return [q.hex() for q in simulate._draw(config, rng)[0]]


def _built_claims(build):
    return lambda config, rng: [p.q_claimed.hex() for p in build(config, rng)[0]]


@settings(max_examples=300, deadline=None)
@given(any_configs, st.integers(0, 2**32))
def test_the_draw_alone_gives_the_pool_builders_claims_errors_and_rng_state(config, seed):
    # the claimed values' bits, or the exception's type and text, and the rng's state after
    drawn = _outcome(_drawn_claims, config, seed)
    assert drawn == _outcome(_built_claims(build_pool_with_metadata), config, seed)
    assert drawn == _outcome(_built_claims(_fresh_build), config, seed)


# True == 1.0 and 4.0 == 4, and each pair hashes alike, but a bool fraction and a float size
# are of the wrong type: the twin is refused as a BadConfig, not served the planned pool
@pytest.mark.parametrize(
    ("planned", "twin"),
    [
        (PoolConfig(4, 1.0, (0.1, 0.2)), PoolConfig(4, True, (0.1, 0.2))),
        (PoolConfig(4, 0.5, (0.1, 0.2)), PoolConfig(4.0, 0.5, (0.1, 0.2))),
    ],
)
def test_a_config_equal_to_a_planned_one_but_of_another_type_fails_as_before(planned, twin):
    assert len(build_pool_with_metadata(planned, Random(0))[0]) == 4
    fresh = _outcome(_fresh_build, twin, 0)
    assert fresh[0][0] is BadConfig
    assert _outcome(build_pool_with_metadata, twin, 0) == fresh


@pytest.mark.parametrize(
    ("config", "twin"),
    [
        (PoolConfig(4, 1, (0, 1)), PoolConfig(4, 1.0, (0.0, 1.0))),
        (PoolConfig(10, 0.3, [0.1, 0.2]), PoolConfig(10, 0.3, (0.1, 0.2))),
        (PoolConfig(10, 0.3, (0, 0.5)), PoolConfig(10, 0.3, (0.0, 0.5))),
    ],
)
def test_int_fractions_int_bounds_and_list_ranges_stay_accepted(config, twin):
    assert build_pool_with_metadata(config, Random(5)) == build_pool_with_metadata(twin, Random(5))


def test_designated_middle_inflator_holds_the_top_claim():
    for seed in range(50):
        pool = build_pool_with_metadata(CANONICAL, Random(seed))[0]
        top = max(pool, key=lambda p: (p.q_claimed, p.delegate_id >= "d2"))
        best_claim = max(p.q_claimed for p in pool)
        holders = sorted(p.delegate_id for p in pool if p.q_claimed == best_claim)
        assert holders[0] == "d2", (seed, top)


def test_pool_determinism():
    assert build_pool_with_metadata(CANONICAL, Random(99))[0] == build_pool_with_metadata(CANONICAL, Random(99))[0]


def test_all_honest_when_fraction_zero():
    config = PoolConfig(10, 0.0, (0.35, 0.45))
    pool = build_pool_with_metadata(config, Random(3))[0]
    assert all(p.honest for p in pool)
    assert all(abs(p.q_claimed - p.q_true) < 0.02 for p in pool)


def test_even_dishonest_blocks_draw_uniform_offsets():
    # pool 5 at fraction 0.5 rounds to two inflators: no designated member
    config = PoolConfig(5, 0.5, (0.25, 0.35))
    _, metadata = build_pool_with_metadata(config, Random(5))
    assert metadata.designated_top_id is None
    assert metadata.dishonest_ids == ("d1", "d2")


def test_rounded_to_zero_dishonest_gives_an_honest_pool():
    config = PoolConfig(5, 0.1, (0.40, 0.50))
    pool, metadata = build_pool_with_metadata(config, Random(0))
    assert metadata.dishonest_ids == ()
    assert metadata.dominance_guaranteed is False
    assert all(p.honest for p in pool)


def test_fraction_one_makes_every_delegate_dishonest():
    pool, metadata = build_pool_with_metadata(PoolConfig(4, 1.0, (0.1, 0.2)), Random(0))
    assert metadata.dishonest_ids == ("d0", "d1", "d2", "d3")
    assert metadata.dominance_guaranteed is True
    assert not any(p.honest for p in pool)


BAD_CONFIGS = {
    PoolConfig(1, 0.3, (0.35, 0.45)): "pool_size must be >= 2 (got 1)",
    PoolConfig(10, -0.1, (0.35, 0.45)): "dishonest_fraction must be within [0, 1] (got -0.1)",
    PoolConfig(10, 1.2, (0.35, 0.45)): "dishonest_fraction must be within [0, 1] (got 1.2)",
    PoolConfig(10, 0.3, (0.45, 0.35)): "inflation_range must satisfy 0 <= low <= high (got (0.45, 0.35))",
    PoolConfig(10, 0.3, (-0.1, 0.45)): "inflation_range must satisfy 0 <= low <= high (got (-0.1, 0.45))",
    # valid fields, but some inflator's claim cannot rise above its q_true
    PoolConfig(3, 0.5, (0.0, 0.0)): "delegate d1 cannot inflate: q_true 0.7 with inflation_range (0.0, 0.0)",
    # fields of the wrong type, each checked before any range: a bool is not a number here
    PoolConfig(4.0, 0.5, (0.1, 0.2)): "pool_size must be an int (got 4.0)",
    PoolConfig(True, 0.5, (0.1, 0.2)): "pool_size must be an int (got True)",
    PoolConfig("10", 0.3, (0.35, 0.45)): "pool_size must be an int (got '10')",
    PoolConfig(4, True, (0.1, 0.2)): (
        "dishonest_fraction and inflation_range must be ints or floats "
        "(got PoolConfig(pool_size=4, dishonest_fraction=True, inflation_range=(0.1, 0.2)))"
    ),
    PoolConfig(4, Decimal("0.4"), (0.1, 0.2)): (
        "dishonest_fraction and inflation_range must be ints or floats "
        "(got PoolConfig(pool_size=4, dishonest_fraction=Decimal('0.4'), inflation_range=(0.1, 0.2)))"
    ),
    PoolConfig(4, 0.5, (Decimal("0.1"), Decimal("0.2"))): (
        "dishonest_fraction and inflation_range must be ints or floats "
        "(got PoolConfig(pool_size=4, dishonest_fraction=0.5, "
        "inflation_range=(Decimal('0.1'), Decimal('0.2'))))"
    ),
    PoolConfig(4, 0.5, (0.1, True)): (
        "dishonest_fraction and inflation_range must be ints or floats "
        "(got PoolConfig(pool_size=4, dishonest_fraction=0.5, inflation_range=(0.1, True)))"
    ),
    # the type is checked first: a size of 1.5 is not reported as below 2
    PoolConfig(1.5, 0.3, (0.35, 0.45)): "pool_size must be an int (got 1.5)",
}
# a config equal to another hashes alike, so each case must differ from every other in ==
assert len(BAD_CONFIGS) == 14


@pytest.mark.parametrize("config", list(BAD_CONFIGS))
def test_bad_configs_are_rejected(config):
    with pytest.raises(BadConfig, match=f"^{re.escape(BAD_CONFIGS[config])}$"):
        build_pool_with_metadata(config, Random(0))[0]


def test_clamped_mean_matches_the_analytic_oracle():
    # frozen oracle: E[min(1, N(0.95, 0.05))] = 0.945834...
    assert CLAMPED_MEAN_95 == pytest.approx(0.9458342, abs=1e-6)
    pool = build_pool_with_metadata(CANONICAL, Random(10))[0]
    top = next(p for p in pool if p.delegate_id == "d9")
    rng = Random(77)
    outcomes = [execute_task(top, rng) for _ in range(10000)]
    mean = sum(outcomes) / len(outcomes)
    assert abs(mean - CLAMPED_MEAN_95) < 0.0015  # 3 sigma of the MC estimate
    assert 0.935 <= mean <= 0.955


def test_noise_scale_in_the_unclamped_region():
    pool = build_pool_with_metadata(CANONICAL, Random(11))[0]
    mid = next(p for p in pool if abs(p.q_true - 0.5611) < 0.001)
    rng = Random(5)
    outcomes = [execute_task(mid, rng) for _ in range(10000)]
    mean = sum(outcomes) / len(outcomes)
    std = math.sqrt(sum((x - mean) ** 2 for x in outcomes) / (len(outcomes) - 1))
    assert abs(std - 0.05) < 0.002
    assert all(0.0 <= x <= 1.0 for x in outcomes)


def _gaussian(rng):
    """One standard normal sample, the one-element view of the batch."""
    return _normals(rng, 1)[0]


def test_gaussian_moments_pass_a_normality_check():
    rng = Random(123)
    n = 100000
    samples = [_gaussian(rng) for _ in range(n)]
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / n
    skew = sum((x - mean) ** 3 for x in samples) / n / var**1.5
    kurt = sum((x - mean) ** 4 for x in samples) / n / var**2
    assert abs(mean) < 0.02
    assert abs(var - 1.0) < 0.02
    assert abs(skew) < 0.05
    assert abs(kurt - 3.0) < 0.1


def test_gaussian_draw_sequence_is_reproducible():
    a = [_gaussian(Random(5)) for _ in range(3)]
    b = [_gaussian(Random(5)) for _ in range(3)]
    assert a[0] == b[0]
    # one call consumes exactly two uniforms
    rng1, rng2 = Random(9), Random(9)
    _gaussian(rng1)
    rng2.random(), rng2.random()
    assert rng1.random() == rng2.random()


def _bits(values):
    return [struct.pack("<d", value) for value in values]


def _box_muller(rng):
    """The per-task draw written out step by step: u1, then u2."""
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            # near [0, 1], so noise lands on both sides of each clamp bound
            st.floats(min_value=-0.2, max_value=1.2),
            # anything, negatives, values above 1, -0.0, the infinities and NaN among them
            st.floats(),
            st.sampled_from([-0.0, 0.0, 1.0, math.inf, -math.inf, math.nan]),
        ),
        max_size=40,
    ),
    st.integers(min_value=0, max_value=2**64),
)
def test_a_noise_batch_is_bit_identical_to_per_task_draws(qs, seed):
    reference, written_out, rng = Random(seed), Random(seed), Random(seed)
    expected = [min(max(q + NOISE_SIGMA * _gaussian(reference), 0.0), 1.0) for q in qs]
    assert _bits(execute_tasks(qs, _normals(rng, len(qs)))) == _bits(expected)
    assert rng.getstate() == reference.getstate()
    # the per-task draw is itself the two-uniform transform, u1 before u2
    by_hand = [min(max(q + NOISE_SIGMA * _box_muller(written_out), 0.0), 1.0) for q in qs]
    assert _bits(expected) == _bits(by_hand)


def test_the_caches_hold_at_most_what_the_module_docstring_states():
    assert simulate._layout.cache_info().maxsize == 8
    assert simulate._plan.cache_info().maxsize == 64


def test_a_task_at_negative_zero_keeps_its_sign():
    # the docstring's "-0.0 ... included": min(max(-0.0, 0.0), 1.0) is -0.0
    assert _bits(execute_tasks([-0.0], [-0.0])) == _bits([-0.0])


@pytest.mark.parametrize("qs, normals", [([0.5, 0.5], [0.0]), ([0.5], [0.0, 0.0])])
def test_execute_tasks_refuses_a_length_mismatch(qs, normals):
    with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer) than argument 1$"):
        execute_tasks(qs, normals)


def test_best_delegate_argmax_and_ties():
    pool = build_pool_with_metadata(CANONICAL, Random(2))[0]
    assert best_delegate(pool) == "d9"
    from delgov.simulate import DelegateProfile

    tied = [
        DelegateProfile("d-b", 0.7, 0.7, True),
        DelegateProfile("d-a", 0.7, 0.7, True),
    ]
    assert best_delegate(tied) == "d-a"
    two = [DelegateProfile("d-a", 0.6, 0.6, True), DelegateProfile("d-b", 0.7, 0.7, True)]
    assert best_delegate(two) == "d-b"
    with pytest.raises(ValueError, match="^best_delegate requires a non-empty pool$"):
        best_delegate([])


@pytest.mark.parametrize(
    "config",
    [
        # its inflator claims 0.9522 at the least, its best honest delegate 0.965 at most
        PoolConfig(3, 0.1967, (0.2522, 0.2716)),
        # grid cell (0.5, medium, 20): 0.9632 at the least, against 0.965 at most
        PoolConfig(20, 0.5, (0.25, 0.35)),
        # 0.7 + 0.265 and 0.95 + 0.015 are one float: the least inflated claim must exceed it
        PoolConfig(5, 0.4, (0.265, 0.265)),
    ],
)
def test_dominance_is_not_guaranteed_when_an_honest_claim_can_outbid(config):
    for seed in range(5):
        assert build_pool_with_metadata(config, Random(seed))[1].dominance_guaranteed is False
