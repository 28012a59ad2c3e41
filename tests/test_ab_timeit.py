"""The side-by-side timer in tools/: it compares seeded outputs before it times."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_timeit", _ROOT / "tools" / "ab_timeit.py")
ab_timeit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_timeit)

SRC = str(_ROOT / "src")


def test_one_tree_against_itself_is_timed_per_experiment(capsys):
    assert ab_timeit.main([SRC, SRC, "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seeded outputs identical for seeds [0, 1, 2, 3]"
    assert [line.split(":")[0] for line in lines[1:]] == list(ab_timeit.EXPERIMENTS)


def test_trees_whose_seeded_outputs_differ_are_not_timed(tmp_path, capsys):
    shutil.copytree(
        _ROOT / "src" / "delgov", tmp_path / "delgov", ignore=shutil.ignore_patterns("__pycache__")
    )
    module = tmp_path / "delgov" / "experiments.py"
    source = module.read_text(encoding="utf-8")
    module.write_text(source.replace(':e3:pool"', ':e3:other-pool"'), encoding="utf-8")
    assert ab_timeit.main([SRC, str(tmp_path), "--rounds", "1"]) == 1
    assert capsys.readouterr().out == "seeded outputs differ for seeds [0, 1, 2, 3]\n"
