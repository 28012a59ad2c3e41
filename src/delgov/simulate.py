"""Simulated delegate pools with known true quality and configurable inflation.

A ``PoolConfig`` is one cell of the sensitivity grid: pool size, dishonest
fraction and inflation range. The rest of the model is fixed: true
qualities span ``Q_TRUE_RANGE`` and task noise is ``NOISE_SIGMA``.
Pool construction is fully deterministic given (config, seed):

- True qualities are evenly spaced across ``Q_TRUE_RANGE``; with n
  delegates, delegate i gets ``lo + i * (hi - lo) / (n - 1)``. Delegate ids
  are zero-padded so lexicographic order equals quality order. The ids
  and true qualities depend on the pool size alone, so each size's
  layout is built once and shared, from a cache of at most 8 sizes (the
  grid uses 3): the same strings and floats a fresh build would give.
- The dishonest count is ``round(pool_size * dishonest_fraction)`` with
  banker's rounding, computed in decimal so 5 * 0.3 lands on 1.5 exactly.
- Dishonest delegates occupy the lower-middle of the quality order
  (positions 1..k), or every position when k is the pool size. Each
  inflates its claim by a uniform draw from ``inflation_range``, capped
  at 1.0. When the dishonest block has a unique middle member (odd count
  of three or more), that designated delegate takes the top of the range
  instead of a draw: it claims ``q + high``. It holds the top inflated
  claim only when no other inflator can claim as much: one above it in
  quality may draw past it, and one below it that also reaches the 1.0
  cap ties it and wins on its smaller id. Blocks without a unique middle
  draw all offsets uniformly. Claims stay fixed for the life of the pool.
- Honest delegates report within ``HONEST_JITTER`` (0.015) of their true
  quality (uniform jitter), comfortably inside the 0.02 honesty band.
  Their claims need no clamp: every true quality lies in
  ``Q_TRUE_RANGE``, so an honest claim lies in [0.435, 0.965].
- Everything but the draws depends on the configuration alone: each
  position's role (honest, drawn inflator or designated inflator), the
  id, true quality and honesty columns of the profiles, and the finished
  ``PoolMetadata``. It is planned once per ``(pool_size,
  dishonest_fraction, low, high)`` and shared, as tuples and frozen
  values, from a cache of at most 64 configurations (the grid uses 36,
  ``e3`` one), so a seed pays only for its draws, taken in position
  order. The private ``_draw`` is the draws alone: it validates the
  configuration on every call, reads the plan and returns each position's
  claimed quality. ``build_pool_with_metadata`` is ``_draw`` plus the
  profiles; the sensitivity grid, which reports no pool, calls ``_draw``.

Task execution returns the output quality as a plain float: the
delegate's true quality plus ``NOISE_SIGMA`` times a standard normal,
clamped to [0, 1]. ``_normals`` is the one statement of the draw, a basic
Box-Muller transform over ``random.Random`` uniforms, so seeded runs
reproduce across platforms and interpreter versions. ``execute_tasks``
runs a batch of tasks over a batch of normals it is handed, one per
task, so a caller that runs several batches over one noise stream draws
it once. ``execute_task`` is its one-element view, and a batch of n
draws the same floats as n successive single calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from functools import lru_cache
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
HONEST_JITTER = 0.015


@dataclass(frozen=True)
class PoolConfig:
    """The grid's three axes; ``Q_TRUE_RANGE`` and ``NOISE_SIGMA`` are fixed.

    ``pool_size`` is an int, the fraction and both bounds ints or floats, of exactly
    those types, so a bool is neither. A pool build raises ``BadConfig`` for any other
    type, as for a value out of range.
    """

    pool_size: int
    dishonest_fraction: float
    inflation_range: tuple[float, float]


@dataclass(frozen=True)
class PoolMetadata:
    """Audit facts about a constructed pool.

    ``designated_top_id`` is the dishonest block's middle member, which
    claims the top of the inflation range (see the module docstring), or
    None when the block has no unique middle. It need not hold the pool's
    top claim.

    ``dominance_guaranteed`` records whether the configuration forces the
    top claim onto a dishonest delegate, whatever the draws: true when the
    best inflator's lowest possible claim, ``min(q + low, 1.0)``, exceeds
    the highest claim any honest delegate can make, ``min(q +
    HONEST_JITTER, 1.0)`` for the best honest one. With no honest
    delegate it is true whenever an inflator exists.
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


def _validate_config(config: PoolConfig) -> None:
    # the exact types before the ranges: a bool (an int subclass), a Decimal or a float size
    # would otherwise fail deep inside the build, with an error that names none of the fields
    if type(config.pool_size) is not int:
        raise BadConfig(f"pool_size must be an int (got {config.pool_size!r})")
    if not {type(config.dishonest_fraction), *map(type, config.inflation_range)} <= {int, float}:
        raise BadConfig(f"dishonest_fraction and inflation_range must be ints or floats (got {config})")
    if config.pool_size < 2:
        raise BadConfig(f"pool_size must be >= 2 (got {config.pool_size})")
    if not 0.0 <= config.dishonest_fraction <= 1.0:
        raise BadConfig(f"dishonest_fraction must be within [0, 1] (got {config.dishonest_fraction})")
    low, high = config.inflation_range
    if not 0.0 <= low <= high:
        raise BadConfig(f"inflation_range must satisfy 0 <= low <= high (got {config.inflation_range})")


@lru_cache(maxsize=8)
def _layout(n: int) -> tuple[tuple[str, float], ...]:
    """``(delegate_id, q_true)`` per position of a pool of ``n``, built once per size."""
    lo, hi = Q_TRUE_RANGE
    width = len(str(n - 1))
    return tuple((f"d{i:0{width}d}", lo + i * (hi - lo) / (n - 1)) for i in range(n))


@lru_cache(maxsize=64)
def _plan(n: int, fraction: float, low: float, high: float) -> tuple[tuple, tuple, PoolMetadata]:
    """What a configuration alone fixes, built once per configuration: the draw's
    ``(delegate_id, q_true, honest, designated)`` per ``_layout(n)`` position, the
    profiles' ``(ids, q_trues, honest)`` columns, and the pool's metadata.
    """
    k = dishonest_count(n, fraction)
    dishonest = range(1, k + 1) if k < n else range(n)
    designated = dishonest[k // 2] if k >= 3 and k % 2 == 1 else None
    layout = _layout(n)
    roles = tuple((d, q, i not in dishonest, i == designated) for i, (d, q) in enumerate(layout))
    # the best inflator's lowest claim against the best honest delegate's highest;
    # q_true rises with position, so each is the last of its kind
    top_q = layout[dishonest[-1]][1] if dishonest else None
    honest_q = next((q for _, q, honest, _ in reversed(roles) if honest), -math.inf)
    dominance = top_q is not None and min(top_q + low, 1.0) > min(honest_q + HONEST_JITTER, 1.0)
    metadata = PoolMetadata(
        dishonest_ids=tuple(layout[i][0] for i in dishonest),
        designated_top_id=layout[designated][0] if designated is not None else None,
        dominance_guaranteed=dominance,
    )
    ids, q_trues, honest, _ = zip(*roles)
    return roles, (ids, q_trues, honest), metadata


def _draw(config: PoolConfig, rng: Random) -> tuple[list[float], tuple]:
    """Each position's claimed quality, drawn in position order, and the configuration's plan.

    This is all of a pool that depends on the seed: ``build_pool_with_metadata``
    adds only the profiles.
    """
    _validate_config(config)
    low, high = config.inflation_range
    plan = _plan(config.pool_size, config.dishonest_fraction, low, high)
    uniform = rng.uniform
    claims = []
    for delegate_id, q_true, honest, designated in plan[0]:
        if honest:
            q_claimed = q_true + uniform(-HONEST_JITTER, HONEST_JITTER)
        else:
            q_claimed = min(q_true + (high if designated else uniform(low, high)), 1.0)
            if q_claimed <= q_true:
                raise BadConfig(
                    f"delegate {delegate_id} cannot inflate: q_true {q_true} "
                    f"with inflation_range {config.inflation_range}"
                )
        claims.append(q_claimed)
    return claims, plan


def build_pool_with_metadata(
    config: PoolConfig,
    rng: Random,
) -> tuple[list[DelegateProfile], PoolMetadata]:
    """Construct a delegate pool and its audit metadata.

    See the module docstring for the rules. Callers that need only the
    pool take element ``[0]``.
    """
    claims, (_, (ids, q_trues, honest), metadata) = _draw(config, rng)
    return list(map(DelegateProfile, ids, q_trues, claims, honest)), metadata


def execute_tasks(q_trues: Sequence[float], normals: Sequence[float]) -> list[float]:
    """Output quality of one task per true quality: q plus gaussian noise, clamped to [0, 1].

    Task i takes ``normals[i]``, a standard normal, scaled by
    ``NOISE_SIGMA``; the two sequences must have the same length, or
    ``ValueError`` is raised. The clamp returns the same float as
    ``min(max(x, 0.0), 1.0)`` for every x, -0.0 and NaN included.
    """
    sigma = NOISE_SIGMA
    return [
        0.0 if x < 0.0 else 1.0 if x > 1.0 else x
        for q, z in zip(q_trues, normals, strict=True)
        for x in [q + sigma * z]
    ]


# Kept only as a name perfbench/tracer.py spans and the tests' oracle; ROADMAP item 9 frees it.
def execute_task(profile: DelegateProfile, rng: Random) -> float:
    """Output quality of one task: ``execute_tasks((profile.q_true,), _normals(rng, 1))[0]``."""
    return execute_tasks((profile.q_true,), _normals(rng, 1))[0]


def best_delegate(pool: Sequence[DelegateProfile]) -> str:
    """Id of the delegate with the highest true quality; ties take the smallest id."""
    if not pool:
        raise ValueError("best_delegate requires a non-empty pool")
    best_q = max(p.q_true for p in pool)
    return min(p.delegate_id for p in pool if p.q_true == best_q)
