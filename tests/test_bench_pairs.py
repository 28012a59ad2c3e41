"""The alternating benchmark-pair runner in tools/: its summary and claim rule, on fixed numbers."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", _ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

THROUGHPUT = ("throughput_ops_s", "1/s", "higher")
LATENCY = ("latency_p50_us", "us", "lower")


def _runs(name, values):
    return [{name: value} for value in values]


def test_the_metrics_are_the_benchmarks_end_to_end_ones():
    assert bench_pairs.metrics_of(_ROOT) == [
        ("setup_s", "s", "lower"),
        ("throughput_ops_s", "1/s", "higher"),
        ("latency_p50_us", "us", "lower"),
        ("peak_rss_mb", "MB", "lower"),
    ]


@pytest.mark.parametrize(("pairs", "needed"), [(2, 2), (5, 5), (10, 9), (11, 10), (20, 18)])
def test_the_change_must_win_nine_of_every_ten_pairs(pairs, needed):
    assert bench_pairs.wins_needed(pairs) == needed


def test_a_change_ahead_in_every_pair_by_more_than_the_parent_iqr_meets_the_rule():
    parent = _runs("throughput_ops_s", [100.0 + i for i in range(10)])
    change = _runs("throughput_ops_s", [110.0 + i for i in range(10)])
    assert bench_pairs.summarize([THROUGHPUT], parent, change) == [
        "throughput_ops_s (1/s, higher is better): parent median 104.5 (q1 102.25, q3 106.75), "
        "change median 114.5 (q1 112.25, q3 116.75), +9.6%; change better in 10 of 10 pairs; "
        "claim rule holds: 10 wins against 9 needed, median gain 10 against parent IQR 4.5"
    ]


def test_ties_count_for_neither_side_and_lower_can_be_better():
    parent = _runs("latency_p50_us", [300.0 - i for i in range(10)])
    # two ties, then eight pairs 3 us lower: 8 wins, one short of the rule
    change = _runs("latency_p50_us", [300.0 - i if i < 2 else 297.0 - i for i in range(10)])
    assert bench_pairs.summarize([LATENCY], parent, change) == [
        "latency_p50_us (us, lower is better): parent median 295.5 (q1 293.25, q3 297.75), "
        "change median 292.5 (q1 290.25, q3 294.75), -1.0%; change better in 8 of 10 pairs; "
        "claim rule does not hold: 8 wins against 9 needed, median gain 3 against parent IQR 4.5"
    ]


def test_winning_every_pair_by_less_than_the_parent_iqr_does_not_meet_the_rule():
    parent = _runs("throughput_ops_s", [100.0 + i for i in range(10)])
    change = _runs("throughput_ops_s", [101.0 + i for i in range(10)])
    (line,) = bench_pairs.summarize([THROUGHPUT], parent, change)
    assert "change better in 10 of 10 pairs; claim rule does not hold" in line
    assert line.endswith("median gain 1 against parent IQR 4.5")


def _result(throughput, correct=True):
    metrics = {name: {"value": 1.0, "unit": unit} for name, unit, _ in bench_pairs.metrics_of(_ROOT)}
    metrics["throughput_ops_s"]["value"] = throughput
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1, "metrics": metrics}


def test_the_sides_alternate_and_an_incorrect_run_stops_the_pairs(monkeypatch, capsys, tmp_path):
    # two checkouts that are only their names: run_once is replaced, so nothing is started
    for side in ("a", "b"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()
    contract = (_ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    (tmp_path / "b" / "BENCHMARK.json").write_text(contract, encoding="utf-8")
    calls = []

    def fake(root, workload, seed, seconds):
        calls.append(root.name)
        if len(calls) == 6:
            result = _result(0.0, correct=False)
            result["problem"] = "not correct: 1 of 10 failed"
            return result
        return _result(100.0 if root.name == "a" else 110.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake)
    argv = [str(tmp_path / "a"), str(tmp_path / "b"), "--workload", "grid", "--seed", "3", "--seconds", "1"]
    assert bench_pairs.main([*argv, "--pairs", "3"]) == 1
    assert calls == ["a", "b", "b", "a", "a", "b"]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("pair 1 (parent first): setup_s 1 -> 1, throughput_ops_s 100 -> 110")
    assert out[1].startswith("pair 2 (change first): ")
    assert out[2:] == ["pair 3, change: not correct: 1 of 10 failed"]

    calls.clear()
    assert bench_pairs.main([*argv, "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "grid seed 3, 2 pairs of 1 s runs, every run correct"
    assert [line.split(" (")[0] for line in out[3:]] == [m[0] for m in bench_pairs.metrics_of(_ROOT)]
    assert "change better in 2 of 2 pairs; claim rule holds" in out[4]


def test_a_run_writes_no_bytecode_and_reads_the_standard_librarys_caches(monkeypatch, tmp_path):
    seen = {}

    def fake(command, **kwargs):
        seen.update(kwargs, command=command)
        line = json.dumps(_result(100.0))
        return subprocess.CompletedProcess(command, 0, stdout=f"setup\n{line}\n", stderr="")

    # an inherited prefix would send every import to an empty cache and compile the stdlib
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path))
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake)
    result = bench_pairs.run_once(tmp_path, "grid", 3, 1.5)
    assert result == _result(100.0)
    assert seen["command"][1:] == [
        "perfbench/run.py", "--workload", "grid", "--seed", "3", "--seconds", "1.5", "--trace", "0"
    ]
    assert seen["cwd"] == tmp_path
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "PYTHONPYCACHEPREFIX" not in seen["env"]
    assert {k: v for k, v in seen["env"].items() if k != "PYTHONDONTWRITEBYTECODE"} == {
        k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    }


@pytest.mark.parametrize("cache", ["src/delgov/__pycache__", "perfbench/__pycache__"])
@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_checkout_holding_bytecode_is_refused(monkeypatch, capsys, tmp_path, cache, side):
    roots = {"parent": tmp_path / "a", "change": tmp_path / "b"}
    for root in roots.values():
        (root / "src" / "delgov").mkdir(parents=True)
        (root / "perfbench").mkdir()
        (root / "perfbench" / "run.py").touch()
    (roots[side] / cache).mkdir()

    def fake(*args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(bench_pairs, "run_once", fake)
    argv = [str(roots["parent"]), str(roots["change"]), "--workload", "e3", "--seed", "1", "--seconds", "1"]
    assert bench_pairs.main([*argv, "--pairs", "2"]) == 1
    assert capsys.readouterr().out == (
        f"{side} checkout holds {roots[side] / cache}: delete it, so both sides import from source\n"
    )
