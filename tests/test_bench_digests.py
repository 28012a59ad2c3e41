"""Bench-sized seeded runs produce the same floats as the commit that pinned them."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
PINNED = json.loads((DATA / "bench_digests.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("make_bench_digests", DATA / "make_bench_digests.py")
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)


def test_every_pinned_seed_is_replayed():
    assert sorted(PINNED) == sorted(str(seed) for seed in generator.SEEDS)


@pytest.mark.parametrize("seed", generator.SEEDS)
def test_bench_sized_runs_are_bit_identical(seed):
    assert generator.digests(seed) == PINNED[str(seed)]
