"""The side-by-side timer in tools/: it compares seeded and layer outputs before it times."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_timeit", _ROOT / "tools" / "ab_timeit.py")
ab_timeit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_timeit)

SRC = str(_ROOT / "src")


# one round reads its single ratio as every quartile; two take statistics.quantiles
@pytest.mark.parametrize("rounds", ["1", "2"])
def test_one_tree_against_itself_is_timed_per_experiment(capsys, rounds):
    assert ab_timeit.main([SRC, SRC, "--rounds", rounds]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seeded outputs identical for seeds [0, 1, 2, 3]"
    assert lines[1] == (
        "layer outputs identical for decode_message submit, decode_message submit \\n, "
        "decode_message result, decode_message result \\n, decode_message result provenance, "
        "encode_message submit, encode_message result, encode_message result provenance, "
        "canonical_bytes submit, parse_timestamp completed_at, format_timestamp completed_at, "
        "check_result accepted, check_result breach, apply_policy accepted, select 50 records, "
        "build_pool_with_metadata grid configs, _normals 100 tasks, execute_tasks 100 tasks"
    )
    rows = [*ab_timeit.EXPERIMENTS, *ab_timeit.LAYERS]
    assert [line.split(":")[0] for line in lines[2:]] == [
        label for row in rows for label in (row, f"{row} A/A")
    ]
    assert rows[:2] == ["grid", "e3"]
    assert all(" change/parent median " in line for line in lines[2::2])
    assert all(" parent again/parent median " in line for line in lines[3::2])


def _copy_of_src(tmp_path: Path) -> Path:
    shutil.copytree(
        _ROOT / "src" / "delgov", tmp_path / "delgov", ignore=shutil.ignore_patterns("__pycache__")
    )
    return tmp_path / "delgov"


def _edit(module: Path, old: str, new: str) -> None:
    source = module.read_text(encoding="utf-8")
    assert old in source
    module.write_text(source.replace(old, new), encoding="utf-8")


def test_trees_whose_seeded_outputs_differ_are_not_timed(tmp_path, capsys):
    _edit(_copy_of_src(tmp_path) / "experiments.py", ':e3:pool"', ':e3:other-pool"')
    assert ab_timeit.main([SRC, str(tmp_path), "--rounds", "1"]) == 1
    assert capsys.readouterr().out == "seeded outputs differ for seeds [0, 1, 2, 3]\n"


def test_trees_whose_layer_outputs_differ_are_not_timed(tmp_path, capsys):
    # the canonical result's token count feeds the result rows, not the seeded experiments
    _edit(_copy_of_src(tmp_path) / "experiments.py", "tokens_used: int = 5400", "tokens_used: int = 5401")
    assert ab_timeit.main([SRC, str(tmp_path), "--rounds", "1"]) == 1
    assert capsys.readouterr().out == (
        "seeded outputs identical for seeds [0, 1, 2, 3]\n"
        "decode_message result: the trees' outputs differ\n"
    )


def test_a_tree_without_a_layer_is_not_timed(tmp_path, capsys):
    _edit(_copy_of_src(tmp_path) / "experiments.py", "def canonical_result(", "def canonical_reply(")
    assert ab_timeit.main([str(tmp_path), SRC, "--rounds", "1"]) == 1
    assert capsys.readouterr().out == (
        "seeded outputs identical for seeds [0, 1, 2, 3]\n"
        "decode_message result: the parent tree lacks this layer\n"
    )


def test_an_error_inside_a_layer_is_not_read_as_a_missing_layer(tmp_path):
    # the AttributeError comes from the change tree's decoder, not from a missing name
    _edit(
        _copy_of_src(tmp_path) / "wire.py",
        "def decode_message(data: Union[bytes, str]) -> Message:\n",
        "def decode_message(data: Union[bytes, str]) -> Message:\n    None.fault\n",
    )
    with pytest.raises(AttributeError, match="'NoneType' object has no attribute 'fault'"):
        ab_timeit.main([SRC, str(tmp_path), "--rounds", "1"])
