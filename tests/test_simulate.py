"""Simulator tests: pool construction, execution noise, oracles."""

from __future__ import annotations

import math
import struct
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delgov.simulate import (
    NOISE_SIGMA,
    BadConfig,
    PoolConfig,
    best_delegate,
    build_pool_with_metadata,
    dishonest_count,
    execute_task,
    execute_tasks,
    gaussian,
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


def test_honest_claims_stay_inside_the_honesty_band():
    for seed in range(20):
        for profile in build_pool_with_metadata(CANONICAL, Random(seed))[0]:
            if profile.honest:
                assert abs(profile.q_claimed - profile.q_true) < 0.02
            else:
                assert profile.q_claimed > profile.q_true
                assert profile.q_claimed <= 1.0


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
    assert not any(p.honest for p in pool)


@pytest.mark.parametrize(
    "config",
    [
        PoolConfig(1, 0.3, (0.35, 0.45)),
        PoolConfig(10, -0.1, (0.35, 0.45)),
        PoolConfig(10, 1.2, (0.35, 0.45)),
        PoolConfig(10, 0.3, (0.45, 0.35)),
        PoolConfig(10, 0.3, (-0.1, 0.45)),
        # valid fields, but some inflator's claim cannot rise above its q_true
        PoolConfig(3, 0.5, (0.0, 0.0)),
    ],
)
def test_bad_configs_are_rejected(config):
    with pytest.raises(BadConfig):
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


def test_gaussian_moments_pass_a_normality_check():
    rng = Random(123)
    n = 100000
    samples = [gaussian(rng) for _ in range(n)]
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / n
    skew = sum((x - mean) ** 3 for x in samples) / n / var**1.5
    kurt = sum((x - mean) ** 4 for x in samples) / n / var**2
    assert abs(mean) < 0.02
    assert abs(var - 1.0) < 0.02
    assert abs(skew) < 0.05
    assert abs(kurt - 3.0) < 0.1


def test_gaussian_draw_sequence_is_reproducible():
    a = [gaussian(Random(5)) for _ in range(3)]
    b = [gaussian(Random(5)) for _ in range(3)]
    assert a[0] == b[0]
    # one call consumes exactly two uniforms
    rng1, rng2 = Random(9), Random(9)
    gaussian(rng1)
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
    expected = [min(max(q + NOISE_SIGMA * gaussian(reference), 0.0), 1.0) for q in qs]
    assert _bits(execute_tasks(qs, rng)) == _bits(expected)
    assert rng.getstate() == reference.getstate()
    # the per-task draw is itself the two-uniform transform, u1 before u2
    by_hand = [min(max(q + NOISE_SIGMA * _box_muller(written_out), 0.0), 1.0) for q in qs]
    assert _bits(expected) == _bits(by_hand)


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
