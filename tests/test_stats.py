"""Statistics tests against hand computations and brute-force oracles."""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delgov.stats import (
    InsufficientData,
    cohens_d,
    descriptive,
    mann_whitney_u,
)


def exact_u(a, b) -> float:
    """Oracle: U_a by direct pair counting (wins plus half the ties)."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def exact_two_sided_p(a, b) -> float:
    """Oracle: exact permutation two-sided p, P(|U - mu| >= |u_obs - mu|)."""
    pooled = list(a) + list(b)
    n_a = len(a)
    mu = n_a * len(b) / 2.0
    observed = abs(exact_u(a, b) - mu)
    hits = total = 0
    for picks in combinations(range(len(pooled)), n_a):
        chosen = [pooled[i] for i in picks]
        rest = [pooled[i] for i in range(len(pooled)) if i not in picks]
        total += 1
        if abs(exact_u(chosen, rest) - mu) >= observed - 1e-12:
            hits += 1
    return hits / total


def bisect_mann_whitney_u(a, b) -> tuple[float, float]:
    """Oracle: the rank test with one bisect pair per value of a.

    Each value x of a has the midrank (bisect_left(x) + bisect_right(x) + 1) / 2
    in the sorted pooled sample, and the tie sizes are the counts of equal values.
    The arithmetic after the rank sum is ``mann_whitney_u``'s, step for step.
    """
    n_a, n_b = len(a), len(b)
    pooled = sorted([*a, *b])
    r_a = sum(bisect_left(pooled, x) + bisect_right(pooled, x) + 1 for x in a) / 2
    u_a = r_a - n_a * (n_a + 1) / 2.0
    n = n_a + n_b
    tie_term = sum(t**3 - t for t in Counter(pooled).values())
    variance = (n_a * n_b / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return u_a, 1.0
    diff = u_a - n_a * n_b / 2.0
    correction = 0.5 * (1 if diff > 0 else -1 if diff < 0 else 0)
    z = (diff - correction) / math.sqrt(variance)
    return u_a, min(1.0, 2.0 * (0.5 * math.erfc(abs(z) / math.sqrt(2.0))))


# ---------------------------------------------------------------------------
# descriptive


def test_descriptive_hand_example():
    assert descriptive([1, 2, 3]) == (2.0, 1.0)


def test_descriptive_constant_sample():
    mean, std = descriptive([4.2, 4.2, 4.2])
    assert mean == 4.2 and std == 0.0


def test_descriptive_needs_two_samples():
    with pytest.raises(InsufficientData):
        descriptive([1.0])


# ---------------------------------------------------------------------------
# cohens_d, frozen hand computations


def test_cohens_d_identical_samples_is_zero():
    assert cohens_d([3, 1, 2], [3, 1, 2]) == 0.0


@pytest.mark.parametrize(
    ("a", "b", "expected"),
    [
        ([1, 2, 3], [2, 3, 4], -1.0),  # pooled std 1 by hand
        ([2, 3, 4], [1, 2, 3], 1.0),
        ([1, 2, 3, 4], [5, 6, 7, 8], -4.0 * math.sqrt(0.6)),  # var 5/3 each
        ([10, 14], [6, 8], math.sqrt(5.0)),  # vars 8 and 2, pooled sqrt(5)
        ([1, 1, 2, 2], [1, 2], 0.0),  # equal means, nonzero variance
    ],
)
def test_cohens_d_hand_values(a, b, expected):
    assert cohens_d(a, b) == pytest.approx(expected, abs=1e-12)


def test_cohens_d_degenerate_variance_markers():
    assert cohens_d([0, 0, 0], [1, 1, 1]) == -math.inf
    assert cohens_d([2, 2], [1, 1]) == math.inf
    assert cohens_d([5, 5], [5, 5]) == 0.0


def test_cohens_d_needs_two_per_side():
    with pytest.raises(InsufficientData):
        cohens_d([1], [2, 3])


# ---------------------------------------------------------------------------
# mann_whitney_u


def test_complete_separation_small_n():
    u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert u == 0.0
    # frozen: z = (0 - 4.5 + 0.5) / sqrt(5.25), two-sided with continuity
    # correction; the exact permutation p here is 0.10, documenting how far
    # the approximation sits from exact at this tiny n
    assert p == pytest.approx(0.0808555983700523, abs=1e-12)
    assert exact_two_sided_p([1, 2, 3], [4, 5, 6]) == pytest.approx(0.10)


def test_identical_multisets():
    u, p = mann_whitney_u([1, 2, 3], [1, 2, 3])
    assert u == 4.5  # n^2 / 2
    assert p == 1.0


def test_all_values_tied():
    u, p = mann_whitney_u([5, 5, 5], [5, 5, 5])
    assert u == 4.5
    assert p == 1.0


def test_tie_handling_matches_pair_counting():
    a, b = [1, 2, 2], [2, 3, 4]
    u, _ = mann_whitney_u(a, b)
    assert u == exact_u(a, b) == 1.0


def test_needs_three_per_side():
    with pytest.raises(InsufficientData):
        mann_whitney_u([1, 2], [3, 4, 5])


_NAN = math.nan


@pytest.mark.parametrize(
    "call",
    [
        # at any position in either sample: sorting gives a NaN no place
        lambda: mann_whitney_u([0.1, _NAN, 0.5, 0.9], [0.2, 0.3, 0.4]),
        lambda: mann_whitney_u([0.1, 0.5, 0.9, _NAN], [0.2, 0.3, 0.4]),
        lambda: mann_whitney_u([0.2, 0.3, 0.4], [_NAN, 0.1, 0.5]),
        lambda: descriptive([0.1, _NAN]),
        lambda: cohens_d([0.1, 0.2], [0.3, _NAN]),
    ],
    ids=["mwu-a-middle", "mwu-a-last", "mwu-b-first", "descriptive", "cohens-d"],
)
def test_a_nan_sample_raises_value_error(call):
    with pytest.raises(ValueError, match="^a NaN sample has no (mean|rank)$"):
        call()


def test_u_matches_pair_counting_oracle_on_an_alphabet_sample():
    # exhaustive over multisets of sizes 3 and 4 from a 4-value alphabet;
    # the acceptance suite extends this to sizes up to 6
    from itertools import combinations_with_replacement

    alphabet = (0, 1, 2, 3)
    multisets = [
        list(m)
        for size in (3, 4)
        for m in combinations_with_replacement(alphabet, size)
    ]
    for a in multisets:
        for b in multisets:
            u, p = mann_whitney_u(a, b)
            assert u == exact_u(a, b), (a, b)
            assert 0.0 <= p <= 1.0


def test_p_decreases_as_separation_grows():
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    previous = 1.0
    for shift in (0.0, 1.0, 3.0, 6.0):
        _, p = mann_whitney_u([x + shift for x in base], base)
        assert p <= previous + 1e-12
        previous = p


def _sample_pairs(values):
    return st.tuples(*[st.lists(values, min_size=3, max_size=150)] * 2)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        # signed zeros tie with each other, so a tie group can mix them
        _sample_pairs(st.sampled_from([0.0, -0.0, 1.0, 0.5])),
        _sample_pairs(_FINITE),
        _sample_pairs(st.integers()),
        st.builds(
            lambda x, n_a, n_b: ([x] * n_a, [x] * n_b),
            _FINITE,
            st.integers(3, 150),
            st.integers(3, 150),
        ),
    )
)
def test_rank_test_matches_the_bisect_form_bit_for_bit(samples):
    a, b = samples
    got, expected = mann_whitney_u(a, b), bisect_mann_whitney_u(a, b)
    assert [struct.pack("<d", x) for x in got] == [struct.pack("<d", x) for x in expected]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=10),
    st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=10),
)
def test_antisymmetry_and_u_sum(a, b):
    u_a, p_a = mann_whitney_u(a, b)
    u_b, p_b = mann_whitney_u(b, a)
    assert u_a + u_b == pytest.approx(len(a) * len(b))
    assert p_a == pytest.approx(p_b)
    assert cohens_d(a, b) == pytest.approx(-cohens_d(b, a), nan_ok=False)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=10),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=10),
    st.floats(min_value=0.1, max_value=50),
)
def test_shift_monotonicity(a, b, shift):
    u_before, _ = mann_whitney_u(a, b)
    u_after, _ = mann_whitney_u([x + shift for x in a], b)
    assert u_after >= u_before - 1e-9
    if len(set(a)) > 1 or len(set(b)) > 1:
        d_before = cohens_d(a, b)
        d_after = cohens_d([x + shift for x in a], b)
        if math.isfinite(d_before) and math.isfinite(d_after):
            assert d_after > d_before - 1e-9
