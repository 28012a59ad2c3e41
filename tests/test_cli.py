"""CLI tests: exit codes, output files, end-to-end trace."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

import pytest

from delgov import experiments
from delgov.cli import demo_trace, main
from delgov.types import (
    Budget,
    DelegationContract,
    FailurePolicy,
    PolicyEnvelope,
    TaskResult,
)
from delgov.wire import canonical_bytes, decode_message, to_wire

UTC = timezone.utc
DATA = Path(__file__).resolve().parent / "data"


def write_contract(path, failure_policy=FailurePolicy.FAIL_CLOSED):
    contract = DelegationContract(
        contract_id="ctr-cli",
        objective="summarize",
        policy=PolicyEnvelope(
            failure_policy=failure_policy,
            budget=Budget(max_tokens=6000, max_cost_usd=Decimal("0.05")),
        ),
        deadline=datetime(2026, 3, 15, 18, 0, 0, tzinfo=UTC),
    )
    path.write_bytes(canonical_bytes(to_wire(contract)))


def write_result(path, tokens=8200):
    result = TaskResult(
        task_id="t-cli",
        output="partial text",
        tokens_used=tokens,
        cost_usd=Decimal("0.01"),
        completed_at=datetime(2026, 3, 15, 17, 0, 0, tzinfo=UTC),
    )
    path.write_bytes(canonical_bytes(to_wire(result)))


def run_cli(*argv) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, so a traceback would show on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "delgov.cli", *argv],
        capture_output=True, text=True, encoding="utf-8", env=env,
    )


def test_validate_legacy_message_exits_zero(tmp_path, capsys):
    doc = tmp_path / "legacy.json"
    doc.write_bytes(b'{"task_id": "t-1", "payload": "do the thing"}')
    assert main(["validate", str(doc)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_malformed_exits_one(tmp_path, capsys):
    doc = tmp_path / "broken.json"
    doc.write_bytes(b"{nope")
    assert main(["validate", str(doc)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_validate_invariant_breaker_exits_one(tmp_path, capsys):
    doc = tmp_path / "claim.json"
    doc.write_bytes(
        json.dumps({"skill": "s", "value": 1.3, "claim_type": "self_claimed"}).encode()
    )
    assert main(["validate", str(doc)]) == 1


_RESULT_DOC = {
    "task_id": "t",
    "output": "o",
    "tokens_used": 1,
    "cost_usd": "0.01",
    "completed_at": "2026-01-01T00:00:00Z",
}
HOSTILE = {
    "deep_array.json": '{"ext":' + "[" * 100000 + "]" * 100000 + "}",
    "deep_object.json": '{"ext":' + '{"a":' * 100000 + "1" + "}" * 100001,
    "long_int.json": '{"ext":' + "7" * 5000 + "}",
    "nan_money.json": json.dumps(dict(_RESULT_DOC, cost_usd="NaN")),
    "snan_money.json": json.dumps(dict(_RESULT_DOC, cost_usd="sNaN")),
    "year_one.json": json.dumps(dict(_RESULT_DOC, completed_at="0001-01-01T00:00:00+01:00")),
    "lone_surrogate.json": json.dumps(dict(_RESULT_DOC, output="ok \ud800")),
    "huge_claim_value.json": json.dumps({"skill": "s", "value": 10**400, "claim_type": "self_claimed"}),
}


def test_validate_hostile_documents_exit_one_without_traceback(tmp_path):
    paths = []
    for name, text in HOSTILE.items():
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(text, encoding="utf-8")
    proc = run_cli("validate", *paths)
    assert proc.returncode == 1
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == len(paths)
    assert all(line.startswith(f"{path}: INVALID ") for line, path in zip(lines, paths))


@pytest.mark.parametrize(
    ("max_tokens", "tokens_used"),
    [(10, 10**400), (10**400, 10**400 + 1)],
    ids=["huge-tokens-used", "huge-max-tokens"],
)
def test_check_contract_on_huge_token_counts_exits_one_without_traceback(
    tmp_path, max_tokens, tokens_used
):
    contract_path, result_path = tmp_path / "c.json", tmp_path / "r.json"
    write_contract(contract_path)
    contract = json.loads(contract_path.read_text(encoding="utf-8"))
    contract["policy"]["budget"]["max_tokens"] = max_tokens
    contract_path.write_text(json.dumps(contract), encoding="utf-8")
    result_path.write_text(json.dumps(dict(_RESULT_DOC, tokens_used=tokens_used)), encoding="utf-8")
    proc = run_cli(
        "check-contract", str(contract_path), str(result_path),
        "--received-at", "2026-01-01T00:00:00Z",
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("invalid input: ")
    assert "must be at most 2**53" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_contract_on_huge_cost_exits_one_without_output(tmp_path):
    # float(Decimal("1e400")) is inf, which used to reach stdout as Infinity
    contract_path, result_path = tmp_path / "c.json", tmp_path / "r.json"
    write_contract(contract_path, failure_policy=FailurePolicy.FAIL_OPEN)
    contract = json.loads(contract_path.read_text(encoding="utf-8"))
    assert contract["policy"]["budget"]["max_cost_usd"] == "0.05"
    result_path.write_text(json.dumps(dict(_RESULT_DOC, cost_usd="1e400")), encoding="utf-8")
    proc = run_cli(
        "check-contract", str(contract_path), str(result_path),
        "--received-at", "2026-01-01T00:00:00Z",
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "invalid input: TaskResult.cost_usd: must be at most 2**53 (got 1E+400)\n"
    )


def test_check_contract_on_a_lone_surrogate_exits_one_without_output(tmp_path):
    # the result used to decode, print its disposition, then fail to encode
    contract_path, result_path = tmp_path / "c.json", tmp_path / "r.json"
    write_contract(contract_path)
    result = dict(_RESULT_DOC, output="ok \ud800", tokens_used=8200)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    assert "\\ud800" in result_path.read_text(encoding="utf-8")
    proc = run_cli(
        "check-contract", str(contract_path), str(result_path),
        "--received-at", "2026-01-01T00:00:00Z",
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "invalid input: message: a string holds an unpaired surrogate\n"


def test_validate_on_a_missing_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["validate", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{missing}: unreadable (")
    assert captured.err.endswith(")\n")


def test_check_contract_on_a_missing_file_exits_one(tmp_path, capsys):
    contract_path = tmp_path / "c.json"
    write_contract(contract_path)
    missing = tmp_path / "missing.json"
    assert main(["check-contract", str(contract_path), str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unreadable input: ")
    assert str(missing) in captured.err


def test_check_contract_on_a_submit_exits_one(tmp_path, capsys):
    contract_path, submit_path = tmp_path / "c.json", tmp_path / "s.json"
    write_contract(contract_path)
    submit_path.write_text(json.dumps({"task_id": "t", "payload": "p"}), encoding="utf-8")
    assert main(["check-contract", str(contract_path), str(submit_path)]) == 1
    assert capsys.readouterr() == (
        "", "invalid input: RESULT_FILE does not hold a task result\n"
    )


@pytest.mark.parametrize(
    ("tasks", "statistic"),
    [("1", "cohens_d needs at least 2"), ("2", "mann_whitney_u needs at least 3")],
    ids=["one-task", "two-tasks"],
)
def test_e3_too_few_tasks_for_the_summary_writes_nothing(tmp_path, capsys, tasks, statistic):
    out = tmp_path / "e3" / "e3.csv"
    out.parent.mkdir()
    assert main(["e3", "--tasks", tasks, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"bad arguments: {statistic} samples per side\n"
    assert list(out.parent.iterdir()) == []


def test_bad_arguments_exit_two(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()
    assert main(["sensitivity", "--seeds", "1,x", "--out", str(tmp_path / "g.csv")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "delgov sensitivity: error: argument --seeds: "
        "expected comma-separated integers, got '1,x'"
    )
    assert main(["check-contract", "c.json", "r.json", "--received-at", "yesterday"]) == 2
    assert capsys.readouterr().err == (
        "bad arguments: received_at: invalid RFC 3339 timestamp 'yesterday'\n"
    )
    # an empty value is a bad timestamp, not the absent flag's wall clock
    assert main(["check-contract", "c.json", "r.json", "--received-at", ""]) == 2
    assert capsys.readouterr().err == "bad arguments: received_at: invalid RFC 3339 timestamp ''\n"
    assert main(["e3", "--tasks", "0", "--out", str(tmp_path / "e.csv")]) == 2
    assert main(["bench", "--iterations", "10", "--out", str(tmp_path / "b.csv")]) == 2
    capsys.readouterr()


_QUICK_RUNS = {
    "e3": ["e3", "--tasks", "3"],
    "sensitivity": ["sensitivity", "--seeds", "1", "--tasks", "3"],
    "bench": ["bench", "--iterations", "1000"],
}


@pytest.mark.parametrize("command", sorted(_QUICK_RUNS))
def test_an_out_path_ending_in_json_is_refused_at_parsing(tmp_path, capsys, command):
    # the JSON summary is written beside the CSV as .json, so it would overwrite it
    out = tmp_path / "r.json"
    assert main([*_QUICK_RUNS[command], "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"delgov {command}: error: argument --out: "
        f"{str(out)!r} is where the .json summary goes; name the CSV"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(_QUICK_RUNS))
def test_an_out_path_in_a_missing_directory_exits_two_on_one_line(tmp_path, capsys, command):
    out = tmp_path / "missing" / "r.csv"
    assert main([*_QUICK_RUNS[command], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"bad arguments: cannot write output ([Errno 2] No such file or directory: {str(out)!r})\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    ("command", "blocked"),
    [("e3", ".json"), ("e3", ".pool.jsonl"), ("sensitivity", ".json"), ("bench", ".json")],
)
def test_a_failed_write_leaves_no_new_file_and_no_staging_file(tmp_path, capsys, command, blocked):
    # a directory holds the name of one output: the command writes every file or none
    out = tmp_path / "r.csv"
    out.write_bytes(b"kept\n")
    directory = out.with_suffix(blocked)
    directory.mkdir()
    assert main([*_QUICK_RUNS[command], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"bad arguments: cannot write output "
        f"([Errno {errno.EISDIR}] Is a directory: {str(directory)!r})\n"
    )
    assert sorted(tmp_path.iterdir()) == sorted([out, directory])
    assert out.read_bytes() == b"kept\n"


def test_bench_names_both_files_it_writes(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["bench", "--iterations", "1000", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}, {tmp_path / 'b.json'}"
    assert sorted(tmp_path.iterdir()) == [out, tmp_path / "b.json"]


def test_bench_summary_document(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--iterations", "1000", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "bench.json").read_text(encoding="utf-8"))
    assert sorted(summary) == [
        "bytes_with_contract",
        "bytes_without_contract",
        "experiment",
        "iterations",
        "serialization_ns_mean",
        "validation_ns_mean",
    ]
    assert summary["experiment"] == "overhead"
    assert summary["bytes_with_contract"] > summary["bytes_without_contract"]
    capsys.readouterr()


def test_check_contract_rejection_exits_three(tmp_path, capsys):
    contract_path, result_path = tmp_path / "c.json", tmp_path / "r.json"
    write_contract(contract_path)
    write_result(result_path, tokens=8200)
    code = main(
        [
            "check-contract",
            str(contract_path),
            str(result_path),
            "--received-at",
            "2026-03-15T17:05:00Z",
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "CONTRACT_VIOLATED" in captured.out
    assert "partial text" in captured.out  # partial_output rides along
    assert "budget_tokens" in captured.err  # violation log on stderr


def test_check_contract_acceptance_exits_zero(tmp_path, capsys):
    contract_path, result_path = tmp_path / "c.json", tmp_path / "r.json"
    write_contract(contract_path)
    write_result(result_path, tokens=1000)
    code = main(
        [
            "check-contract",
            str(contract_path),
            str(result_path),
            "--received-at",
            "2026-03-15T17:05:00Z",
        ]
    )
    assert code == 0
    assert '"disposition":"accepted"' in capsys.readouterr().out


def test_check_contract_fail_open_logs_and_accepts(tmp_path, capsys):
    contract_path, result_path = tmp_path / "c.json", tmp_path / "r.json"
    write_contract(contract_path, failure_policy=FailurePolicy.FAIL_OPEN)
    write_result(result_path, tokens=8200)
    code = main(
        [
            "check-contract",
            str(contract_path),
            str(result_path),
            "--received-at",
            "2026-03-15T17:05:00Z",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert '"disposition":"accepted_with_log"' in captured.out
    assert "budget_tokens" in captured.err


def test_check_contract_over_depth_output_is_unchanged(tmp_path, capsys):
    # Golden output recorded when the CLI still added the depth check itself.
    golden = json.loads((DATA / "check_contract_over_depth.json").read_text(encoding="utf-8"))
    contract_path, result_path = tmp_path / "c.json", tmp_path / "r.json"
    contract_path.write_text(json.dumps(golden["contract"]), encoding="utf-8")
    result_path.write_text(json.dumps(golden["result"]), encoding="utf-8")
    code = main(
        [
            "check-contract",
            str(contract_path),
            str(result_path),
            "--received-at",
            golden["received_at"],
        ]
    )
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        golden["exit"],
        golden["stdout"],
        golden["stderr"],
    )


def test_emitted_error_objects_validate(tmp_path, capsys):
    contract_path, result_path = tmp_path / "c.json", tmp_path / "r.json"
    write_contract(contract_path)
    write_result(result_path, tokens=8200)
    received_at = "2026-03-15T17:05:00Z"
    main(["check-contract", str(contract_path), str(result_path), "--received-at", received_at])
    main(["demo-trace"])
    errors = [line for line in capsys.readouterr().out.splitlines() if '"category"' in line]
    assert len(errors) == 2
    for i, line in enumerate(errors):
        doc = tmp_path / f"error{i}.json"
        doc.write_text(line, encoding="utf-8")
        assert main(["validate", str(doc)]) == 0
        assert capsys.readouterr().out == f"{doc}: OK LdpError\n"


def test_validate_rejects_error_breaking_category_semantics(tmp_path, capsys):
    doc = tmp_path / "error.json"
    error = {"category": "policy", "severity": "warning", "retryable": True}
    doc.write_text(json.dumps(dict(error, code="X", message="m")), encoding="utf-8")
    assert main(["validate", str(doc)]) == 1
    out = capsys.readouterr().out
    assert "LdpError.retryable" in out and "LdpError.severity" in out


def test_e3_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "e3.csv"
    assert main(["e3", "--seed", "42", "--tasks", "50", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "condition,quality_mean,quality_std,accuracy_pct,"
        "inflation_selected_pct,d_vs_blind,p_vs_blind,std_defined"
    )
    assert len(lines) == 4
    summary = json.loads((tmp_path / "e3.json").read_text(encoding="utf-8"))
    assert summary["experiment"] == "routing_conditions"
    pool_dump = (tmp_path / "e3.pool.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(pool_dump) == 10
    assert "condition" in capsys.readouterr().out


def test_same_command_line_gives_byte_identical_outputs(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["e3", "--seed", "7", "--tasks", "30", "--out", str(out_a)]) == 0
    assert main(["e3", "--seed", "7", "--tasks", "30", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_sensitivity_writes_36_rows(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(["sensitivity", "--seeds", "1,2", "--tasks", "20", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "dishonest_fraction,inflation_level,pool_size,"
        "blind_mean,self_claimed_mean,attested_mean,paradox"
    )
    assert len(lines) == 37
    summary = json.loads((tmp_path / "grid.json").read_text(encoding="utf-8"))
    assert len(summary["cells"]) == 36


def test_bench_writes_report(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--iterations", "1000", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "bytes_without_contract,bytes_with_contract,validation_ns_mean,serialization_ns_mean"
    )
    assert len(lines) == 2
    assert "validation" in capsys.readouterr().out


def test_demo_trace_prints_the_pinned_lifecycle_bytes(capsys):
    # demo_trace.jsonl is the committed stdout; never regenerate it to make this pass
    assert main(["demo-trace"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (DATA / "demo_trace.jsonl").read_bytes()


def test_demo_trace_error_is_fully_typed():
    steps, error, result = demo_trace()
    assert error.code == "CONTRACT_VIOLATED"
    assert error.category.value == "policy"
    assert error.severity.value == "fatal"
    assert error.retryable is False
    assert error.partial_output == result.output
    assert any(step.get("disposition") == "rejected" for step in steps)


def test_demo_trace_prints_the_lifecycle_as_canonical_wire_documents(capsys):
    assert main(["demo-trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines:
        assert canonical_bytes(json.loads(line)).decode("utf-8") == line
    assert decode_message(lines[0]) == experiments.canonical_submit(True)
    assert decode_message(lines[1]) == experiments.canonical_result(tokens_used=8200)
    assert lines[-1] == '{"recovery":"escalate"}'
