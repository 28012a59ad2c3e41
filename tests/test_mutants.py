"""The mutation sweep in tools/: which mutants it writes, and how it judges them."""

from __future__ import annotations

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

_FIXTURE = Path(__file__).resolve().parent / "data" / "mutants"

SOURCE = '''x = 'é' if a < b <= c else "q"  # 'kept' < kept
if not (a is not None and b in c) or d == -1:
    while True:
        break
y = f"{a < 1}"
'''


def test_each_operator_gives_one_mutant_written_over_its_own_span():
    found = mutants.mutants(SOURCE)
    assert [str(m) for m in found] == [
        "1:14 < -> <=",
        "1:18 <= -> <",
        "2:4 not -> (dropped)",
        "2:11 is not -> is",
        "2:23 and -> or",
        "2:29 in -> not in",
        "2:35 or -> and",
        "2:40 == -> !=",
        "2:44 1 -> 2",
        "3:11 True -> False",
        "4:9 break -> continue",
    ]
    for m in found:
        mutated = m.apply(SOURCE)
        # every byte outside the span is the source's own: quotes, comments and the f-string
        assert mutated[: m.start] == SOURCE[: m.start]
        assert mutated[m.start + len(m.new) :] == SOURCE[m.end :]


def test_the_sweep_gives_each_verdict_and_leaves_the_checkout_as_it_was(tmp_path):
    root = tmp_path / "checkout"
    shutil.copytree(_FIXTURE, root)
    before = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}
    subsets = {"src/sample.py": ("checks_subset.py",)}
    swept = dict(mutants.sweep(root, subsets, ("checks_subset.py", "checks_more.py"), jobs=2))
    assert [(str(m), verdict) for m, verdict in swept["src/sample.py"]] == [
        ("8:20 8 -> 9", "survived"),
        ("10:14 > -> >=", "tier-1"),
        ("10:16 0 -> 1", "subset"),
    ]
    assert {path: path.read_bytes() for path in root.rglob("*") if path.is_file()} == before


def test_an_unmutated_checkout_that_fails_is_not_swept(tmp_path):
    root = tmp_path / "checkout"
    shutil.copytree(_FIXTURE, root)
    (root / "checks_subset.py").write_text("def test_fails():\n    assert False\n", encoding="utf-8")
    subsets = {"src/sample.py": ("checks_subset.py",)}
    with pytest.raises(RuntimeError, match="^the unmutated checkout fails checks_subset.py$"):
        dict(mutants.sweep(root, subsets, ("checks_subset.py", "checks_more.py")))


def test_a_module_without_a_test_subset_is_refused(capsys):
    with pytest.raises(SystemExit) as refused:
        mutants.main(["routing"])
    assert refused.value.code == 2
    assert "no test subset for routing" in capsys.readouterr().err
