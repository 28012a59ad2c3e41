"""Descriptive statistics, Cohen's d, and the Mann-Whitney U test.

Cohen's d uses the pooled-variance form

    d = (mean_a - mean_b) / sqrt(((n_a-1) s_a^2 + (n_b-1) s_b^2) / (n_a+n_b-2))

and is signed (a minus b). The Mann-Whitney U statistic is the rank-sum
form U_a = R_a - n_a (n_a + 1) / 2 with midranks for ties. The pooled
sample is sorted once: the ties of a value x fill the 0-based positions
bisect_left(x) to bisect_right(x) - 1, so its midrank is
(bisect_left(x) + bisect_right(x) + 1) / 2, and the tie sizes are the
counts of equal values. The two-sided p-value uses the normal
approximation with a continuity correction and the tie-corrected
variance. The approximation is meant for the sample sizes the
experiments use (around 100 per side); at tiny n it diverges from the
exact permutation distribution, which the tests document against a
brute-force oracle. A NaN sample has no mean and no rank, so all three
raise ValueError for one.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from operator import ne
from typing import Sequence


class InsufficientData(ValueError):
    """Fewer samples than the statistic requires."""


def descriptive(samples: Sequence[float]) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n-1 denominator)."""
    n = len(samples)
    if n < 2:
        raise InsufficientData(f"descriptive needs at least 2 samples (got {n})")
    mean = math.fsum(samples) / n
    if math.isnan(mean):  # fsum is NaN exactly when a sample is
        raise ValueError("a NaN sample has no mean")
    var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, math.sqrt(var)


def cohens_d(a: Sequence[float], b: Sequence[float]) -> float:
    """Signed pooled-variance effect size of a versus b.

    Degenerate variance is handled by value: equal means with zero pooled
    spread give 0.0, unequal means give a signed infinity marker.
    """
    if len(a) < 2 or len(b) < 2:
        raise InsufficientData("cohens_d needs at least 2 samples per side")
    mean_a, std_a = descriptive(a)
    mean_b, std_b = descriptive(b)
    n_a, n_b = len(a), len(b)
    pooled = math.sqrt(
        ((n_a - 1) * std_a**2 + (n_b - 1) * std_b**2) / (n_a + n_b - 2)
    )
    diff = mean_a - mean_b
    if pooled == 0.0:
        if diff == 0.0:
            return 0.0
        return math.copysign(math.inf, diff)
    return diff / pooled


def _normal_sf(x: float) -> float:
    """Survival function of the standard normal."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """U statistic for sample a and the two-sided approximate p-value.

    Identities that always hold: U_a + U_b = n_a * n_b, and U_a equals the
    count of (a_i, b_j) pairs with a_i > b_j plus half the ties.
    """
    n_a, n_b = len(a), len(b)
    if n_a < 3 or n_b < 3:
        raise InsufficientData("mann_whitney_u needs at least 3 samples per side")
    pooled = sorted([*a, *b])
    if any(map(ne, pooled, pooled)):  # only NaN is unequal to itself, and it sorts anywhere
        raise ValueError("a NaN sample has no rank")
    # twice the rank sum of a, an integer, so halving it is exact
    r_a = sum(bisect_left(pooled, x) + bisect_right(pooled, x) + 1 for x in a) / 2
    u_a = r_a - n_a * (n_a + 1) / 2.0

    n = n_a + n_b
    tie_term = sum(t**3 - t for t in Counter(pooled).values())
    variance = (n_a * n_b / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        # every value tied with every other: no evidence either way
        return u_a, 1.0

    mu = n_a * n_b / 2.0
    diff = u_a - mu
    correction = 0.5 * (1 if diff > 0 else -1 if diff < 0 else 0)
    z = (diff - correction) / math.sqrt(variance)
    p = min(1.0, 2.0 * _normal_sf(abs(z)))
    return u_a, p
