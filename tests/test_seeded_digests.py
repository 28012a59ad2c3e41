"""Seeded commands write the same bytes as the commit that pinned them."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
PINNED = json.loads((DATA / "seeded_digests.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("make_seeded_digests", DATA / "make_seeded_digests.py")
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)


def test_every_pinned_command_is_replayed():
    assert sorted(PINNED) == sorted(" ".join(argv) for argv in generator.COMMANDS)


@pytest.mark.parametrize("argv", generator.COMMANDS, ids=" ".join)
def test_seeded_command_output_is_byte_identical(argv):
    assert generator.digests(argv) == PINNED[" ".join(argv)]
