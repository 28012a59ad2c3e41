"""Simulated delegate pools with known true quality and configurable inflation.

A ``PoolConfig`` is one cell of the sensitivity grid: pool size, dishonest
fraction and inflation range. The rest of the model is fixed: true
qualities span ``Q_TRUE_RANGE`` and task noise is ``NOISE_SIGMA``.
Pool construction is fully deterministic given (config, seed):

- True qualities are evenly spaced across ``Q_TRUE_RANGE``; with n
  delegates, delegate i gets ``lo + i * (hi - lo) / (n - 1)``. Delegate ids
  are zero-padded so lexicographic order equals quality order.
- The dishonest count is ``round(pool_size * dishonest_fraction)`` with
  banker's rounding, computed in decimal so 5 * 0.3 lands on 1.5 exactly.
- Dishonest delegates occupy the lower-middle of the quality order
  (positions 1..k). Each inflates its claim by a uniform draw from
  ``inflation_range``, capped at 1.0. When the dishonest block has a
  unique middle member (odd count of three or more), that delegate takes
  the top of the range instead of a draw, so the largest inflated claim
  lands on a mid-quality inflator rather than drifting to whichever one
  sits highest; blocks without a unique middle draw all offsets uniformly.
  Claims stay fixed for the life of the pool.
- Honest delegates report within 0.015 of their true quality (uniform
  jitter), comfortably inside the 0.02 honesty band.

Task execution returns the output quality as a plain float: the
delegate's true quality plus ``NOISE_SIGMA`` times a standard normal,
clamped to [0, 1]. ``_normals`` is the one statement of the draw, a basic
Box-Muller transform over ``random.Random`` uniforms, so seeded runs
reproduce across platforms and interpreter versions. ``execute_tasks``
runs a batch of tasks over one such batch of normals. ``execute_task``
and ``gaussian`` are the one-element views of the two batches, and a
batch of n draws the same floats as n successive single calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from random import Random
from typing import Optional, Sequence


class BadConfig(ValueError):
    """Pool configuration that cannot produce a valid delegate pool."""


@dataclass(frozen=True)
class DelegateProfile:
    """A simulated delegate: true quality, advertised quality, honesty flag."""

    delegate_id: str
    q_true: float
    q_claimed: float
    honest: bool


Q_TRUE_RANGE = (0.45, 0.95)
NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class PoolConfig:
    """The grid's three axes; ``Q_TRUE_RANGE`` and ``NOISE_SIGMA`` are fixed."""

    pool_size: int
    dishonest_fraction: float
    inflation_range: tuple[float, float]


@dataclass(frozen=True)
class PoolMetadata:
    """Audit facts about a constructed pool.

    ``dominance_guaranteed`` records whether the configuration forces the
    top dishonest claim above every possible honest claim: true when the
    inflation floor exceeds the gap between the quality ceiling and the
    best dishonest delegate's true quality.
    """

    dishonest_ids: tuple[str, ...]
    designated_top_id: Optional[str]
    dominance_guaranteed: bool


def dishonest_count(pool_size: int, dishonest_fraction: float) -> int:
    """round(pool_size * fraction) with half-to-even, free of float artifacts."""
    product = Decimal(repr(dishonest_fraction)) * pool_size
    return int(product.to_integral_value(rounding=ROUND_HALF_EVEN))


def _normals(rng: Random, n: int) -> list[float]:
    """``n`` standard normal samples, N(0, 1), via the basic Box-Muller transform.

    Each sample consumes exactly two uniforms, u1 before u2, and no state is
    kept, so the draw sequence is a pure function of the rng stream.
    """
    random, sqrt, log, cos, two_pi = rng.random, math.sqrt, math.log, math.cos, 2.0 * math.pi
    # 1 - u1 lies in (0, 1], which keeps the log finite
    return [sqrt(-2.0 * log(1.0 - random())) * cos(two_pi * random()) for _ in range(n)]


def gaussian(rng: Random) -> float:
    """One standard normal sample: ``_normals(rng, 1)[0]``."""
    return _normals(rng, 1)[0]


def _validate_config(config: PoolConfig) -> None:
    if config.pool_size < 2:
        raise BadConfig(f"pool_size must be >= 2 (got {config.pool_size})")
    if not 0.0 <= config.dishonest_fraction <= 1.0:
        raise BadConfig(f"dishonest_fraction must be within [0, 1] (got {config.dishonest_fraction})")
    low, high = config.inflation_range
    if not 0.0 <= low <= high:
        raise BadConfig(f"inflation_range must satisfy 0 <= low <= high (got {config.inflation_range})")


def build_pool_with_metadata(
    config: PoolConfig,
    rng: Random,
) -> tuple[list[DelegateProfile], PoolMetadata]:
    """Construct a delegate pool and its audit metadata.

    See the module docstring for the rules. Callers that need only the
    pool take element ``[0]``.
    """
    _validate_config(config)
    n = config.pool_size
    lo, hi = Q_TRUE_RANGE
    low, high = config.inflation_range

    k = min(dishonest_count(n, config.dishonest_fraction), n)
    if k <= n - 1:
        dishonest_idx = list(range(1, k + 1))
    else:
        dishonest_idx = list(range(n))
    designated = dishonest_idx[(k - 1) // 2] if k >= 3 and k % 2 == 1 else None

    width = len(str(n - 1))
    profiles: list[DelegateProfile] = []
    for i in range(n):
        q_true = lo + i * (hi - lo) / (n - 1)
        delegate_id = f"d{i:0{width}d}"
        if i in dishonest_idx:
            offset = high if i == designated else rng.uniform(low, high)
            q_claimed = min(q_true + offset, 1.0)
            if q_claimed <= q_true:
                raise BadConfig(
                    f"delegate {delegate_id} cannot inflate: q_true {q_true} "
                    f"with inflation_range {config.inflation_range}"
                )
            profiles.append(DelegateProfile(delegate_id, q_true, q_claimed, honest=False))
        else:
            jitter = rng.uniform(-0.015, 0.015)
            q_claimed = min(max(q_true + jitter, 0.0), 1.0)
            profiles.append(DelegateProfile(delegate_id, q_true, q_claimed, honest=True))

    dishonest_ids = tuple(profiles[i].delegate_id for i in dishonest_idx)
    top_dishonest_q = max((profiles[i].q_true for i in dishonest_idx), default=None)
    dominance = top_dishonest_q is not None and low > (hi - top_dishonest_q)
    metadata = PoolMetadata(
        dishonest_ids=dishonest_ids,
        designated_top_id=profiles[designated].delegate_id if designated is not None else None,
        dominance_guaranteed=dominance,
    )
    return profiles, metadata


def execute_tasks(q_trues: Sequence[float], rng: Random) -> list[float]:
    """Output quality of one task per true quality: q plus gaussian noise, clamped to [0, 1].

    Draws exactly one standard normal per task from ``rng``, scaled by
    ``NOISE_SIGMA``. The clamp returns the same float as
    ``min(max(x, 0.0), 1.0)`` for every x, -0.0 and NaN included.
    """
    sigma = NOISE_SIGMA
    return [
        0.0 if x < 0.0 else 1.0 if x > 1.0 else x
        for q, z in zip(q_trues, _normals(rng, len(q_trues)))
        for x in [q + sigma * z]
    ]


def execute_task(profile: DelegateProfile, rng: Random) -> float:
    """Output quality of one task: ``execute_tasks((profile.q_true,), rng)[0]``."""
    return execute_tasks((profile.q_true,), rng)[0]


def best_delegate(pool: Sequence[DelegateProfile]) -> str:
    """Id of the delegate with the highest true quality; ties take the smallest id."""
    if not pool:
        raise ValueError("best_delegate requires a non-empty pool")
    best_q = max(p.q_true for p in pool)
    return min(p.delegate_id for p in pool if p.q_true == best_q)
