"""Command-line interface.

Commands:

- ``validate FILE...``: decode each wire document, print violations.
- ``check-contract CONTRACT RESULT``: validate a result against a
  contract and print the outcome (and error, if rejected) in wire format.
- ``e3``: run the three routing conditions and write the per-condition CSV.
- ``sensitivity``: run the 36-cell grid and write the per-cell CSV.
- ``bench``: measure protocol overhead and write the report CSV.
- ``demo-trace``: replay the contract lifecycle end to end on the
  canonical over-budget example and print each step as a wire document:
  the submit and the result as sent, the disposition and error documents
  ``check-contract`` prints, then the recovery action. The two commands
  share one path from a received result to its disposition (``_resolve``).

Exit codes: 0 success, 1 malformed or invalid input, 2 bad arguments,
3 contract rejected (distinct so scripts can branch on fail_closed).

Every seeded command produces byte-identical output files for identical
arguments; ``bench`` output depends on the host clock by nature.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence, TextIO, Union

from . import experiments
from .contracts import Accepted, apply_policy, check_result
from .errors import default_semantics
from .types import DelegationContract, LdpError, TaskResult
from .wire import (
    DecodeError,
    canonical_bytes,
    decode_any,
    decode_contract,
    decode_message,
    encode_message,
    parse_timestamp,
    to_wire,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_BAD_ARGS = 2
EXIT_REJECTED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delgov",
        description="Governed delegation: validate protocol documents and run the experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="decode wire documents and report violations")
    p_validate.add_argument("inputs", nargs="+", metavar="FILE")
    p_validate.set_defaults(run=_cmd_validate)

    p_check = sub.add_parser("check-contract", help="validate a result against a contract")
    p_check.add_argument("contract", metavar="CONTRACT_FILE")
    p_check.add_argument("result", metavar="RESULT_FILE")
    p_check.add_argument(
        "--received-at",
        default=None,
        help="RFC 3339 receipt time (defaults to the current time)",
    )
    p_check.set_defaults(run=_cmd_check_contract)

    p_e3 = sub.add_parser("e3", help="run the three routing conditions")
    p_e3.add_argument("--seed", type=int, default=42)
    p_e3.add_argument("--tasks", type=int, default=100)
    p_e3.add_argument("--out", type=_out_path, default="e3.csv")
    p_e3.set_defaults(run=_cmd_e3)

    p_sens = sub.add_parser("sensitivity", help="run the 36-cell sensitivity grid")
    p_sens.add_argument(
        "--seeds", type=_seed_list, default=[42], help="comma-separated seed list"
    )
    p_sens.add_argument("--tasks", type=int, default=100)
    p_sens.add_argument("--out", type=_out_path, default="sensitivity.csv")
    p_sens.set_defaults(run=_cmd_sensitivity)

    p_bench = sub.add_parser("bench", help="measure protocol overhead")
    p_bench.add_argument("--iterations", type=int, default=10000)
    p_bench.add_argument("--out", type=_out_path, default="bench.csv")
    p_bench.set_defaults(run=_cmd_bench)

    p_demo = sub.add_parser("demo-trace", help="replay the contract lifecycle on the canonical example")
    p_demo.set_defaults(run=_cmd_demo_trace)
    return parser


def _seed_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        message = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _out_path(text: str) -> Path:
    # the CSV goes to --out and the JSON summary beside it, with the suffix .json
    if Path(text).suffix.lower() == ".json":
        raise argparse.ArgumentTypeError(f"{text!r} is where the .json summary goes; name the CSV")
    return Path(text)


def _write_all(files: Sequence[tuple[Path, bytes]]) -> None:
    """Write every file or none: stage each beside its target, then rename them all.

    On failure the staged files are removed, files that already existed are
    left untouched, and the error names the target, not the staging file.
    """
    staged: list[Path] = []
    try:
        for path, data in files:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            try:
                with open(temp, "wb") as fh:
                    staged.append(temp)
                    fh.write(data)
            except OSError as exc:
                exc.filename = str(path)
                raise
        for (path, _), temp in zip(files, staged):
            os.replace(temp, path)
    finally:
        for temp in staged:
            temp.unlink(missing_ok=True)


def _write_reports(
    out: Path, rows: Sequence[object], summary: dict, *extra: tuple[str, bytes]
) -> str:
    """Write an experiment's report files through ``_write_all``, all or nothing.

    The CSV of ``rows`` goes to ``out``, the JSON ``summary`` beside it with
    the suffix ``.json``, and each ``(suffix, data)`` of ``extra`` beside it
    with its suffix. Returns the ``wrote`` line that names them in that order.
    """
    files = [(out, experiments.csv_bytes(rows))]
    files += [(out.with_suffix(".json"), experiments.summary_bytes(summary))]
    files += [(out.with_suffix(suffix), data) for suffix, data in extra]
    _write_all(files)
    return "wrote " + ", ".join(str(path) for path, _ in files)


def _print_wire(obj: dict, file: Optional[TextIO] = None) -> None:
    print(canonical_bytes(obj).decode("utf-8"), file=file)


def _resolve(
    contract: DelegationContract, result: TaskResult, received_at: datetime
) -> tuple[list[dict], Union[Accepted, LdpError]]:
    """Check a result at receipt and apply the contract's failure policy.

    Returns the wire documents that report the outcome (the disposition,
    with its violation records, then the error on a rejection) and the
    resolution itself. A violation record is the ``Violation``'s fields,
    the rule as its value, plus the contract and task ids.
    """
    outcome = check_result(contract, result, received_at)
    ids = {"contract_id": contract.contract_id, "task_id": result.task_id}
    records = [{**asdict(v), "rule": v.rule.value, **ids} for v in outcome.violations]
    resolved = apply_policy(outcome, result)
    documents = [{"disposition": outcome.disposition.value, "violations": records}]
    if isinstance(resolved, LdpError):
        documents.append(to_wire(resolved))
    return documents, resolved


def _cmd_validate(args: argparse.Namespace) -> int:
    status = EXIT_OK
    for path in args.inputs:
        try:
            decoded = decode_any(Path(path).read_bytes())
        except OSError as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            status = EXIT_INVALID_INPUT
        except DecodeError as exc:
            print(f"{path}: INVALID {exc}")
            status = EXIT_INVALID_INPUT
        else:
            print(f"{path}: OK {type(decoded).__name__}")
    return status


def _cmd_check_contract(args: argparse.Namespace) -> int:
    # Only an absent --received-at means now. A bad one (empty too) raises DecodeError,
    # a ValueError: main reports it as bad arguments before any file is read.
    if args.received_at is not None:
        received_at = parse_timestamp(args.received_at, "received_at")
    else:
        received_at = datetime.now(timezone.utc)
    try:
        contract = decode_contract(Path(args.contract).read_bytes())
        message = decode_message(Path(args.result).read_bytes())
    except OSError as exc:
        print(f"unreadable input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except DecodeError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if not isinstance(message, TaskResult):
        print("invalid input: RESULT_FILE does not hold a task result", file=sys.stderr)
        return EXIT_INVALID_INPUT

    documents, resolved = _resolve(contract, message, received_at)
    for record in documents[0]["violations"]:
        _print_wire(record, sys.stderr)
    for document in documents:
        _print_wire(document)
    return EXIT_REJECTED if isinstance(resolved, LdpError) else EXIT_OK


def _cmd_e3(args: argparse.Namespace) -> int:
    run = experiments.run_routing_conditions_detailed(args.seed, args.tasks)
    # the summary needs more samples than the run does: build it before
    # writing anything, so a bad --tasks leaves no partial output
    summary = experiments.routing_summary([run])
    pool = b"".join(experiments.summary_bytes(asdict(profile)) for profile in run.pool)
    wrote = _write_reports(args.out, run.reports, summary, (".pool.jsonl", pool))
    print(f"{'condition':<14}{'quality':>18}{'accuracy%':>11}{'inflated%':>11}{'d':>9}{'p':>12}")
    for report in run.reports:
        quality = f"{report.quality_mean:.3f} +/- {report.quality_std:.3f}"
        print(
            f"{report.condition:<14}{quality:>18}{report.accuracy_pct:>11.1f}"
            f"{report.inflation_selected_pct:>11.1f}{report.d_vs_blind:>9.2f}"
            f"{report.p_vs_blind:>12.2g}"
        )
    print(wrote)
    return EXIT_OK


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    cells = experiments.run_sensitivity(args.seeds, args.tasks)
    paradox_cells = [c for c in cells if c.paradox]
    summary = {
        "experiment": "sensitivity",
        "seeds": args.seeds,
        "tasks_per_condition": args.tasks,
        "cells": [asdict(cell) for cell in cells],
        "paradox_count": len(paradox_cells),
    }
    wrote = _write_reports(args.out, cells, summary)
    print(f"{len(cells)} cells, paradox in {len(paradox_cells)}")
    for cell in paradox_cells:
        print(
            f"  paradox: fraction={cell.dishonest_fraction} "
            f"inflation={cell.inflation_level} pool={cell.pool_size} "
            f"(self {cell.self_claimed_mean:.3f} < blind {cell.blind_mean:.3f})"
        )
    print(wrote)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    report = experiments.run_overhead(args.iterations)
    summary = {"experiment": "overhead", "iterations": args.iterations, **asdict(report)}
    wrote = _write_reports(args.out, [report], summary)
    delta = report.bytes_with_contract - report.bytes_without_contract
    pct = 100.0 * delta / report.bytes_without_contract
    print(f"message bytes: {report.bytes_without_contract} bare, "
          f"{report.bytes_with_contract} with contract (+{delta}, +{pct:.0f}%)")
    print(f"validation:    {report.validation_ns_mean / 1000.0:.2f} us/result")
    print(f"serialization: {report.serialization_ns_mean / 1000.0:.2f} us/message")
    print(wrote)
    return EXIT_OK


def demo_trace() -> tuple[list[dict], LdpError, TaskResult]:
    """Replay the contract lifecycle on the canonical over-budget example.

    The canonical submit, under a fail_closed contract with a 6000-token
    budget, and a result that consumed 8200 tokens are encoded and decoded
    again. The decoded pair goes through ``check-contract``'s path: the
    delegator detects the breach at receipt, rejects, and hands back a
    CONTRACT_VIOLATED error that preserves the delegate's output as
    partial_output. Each step is a wire document: the two messages, the
    disposition and error documents, then the recovery action.
    """
    sent = [
        encode_message(experiments.canonical_submit(True)),
        encode_message(experiments.canonical_result(tokens_used=8200)),
    ]
    submit, result = map(decode_message, sent)
    documents, resolved = _resolve(submit.contract, result, experiments.CANONICAL_RECEIVED_AT)
    recovery = {"recovery": default_semantics(resolved.category).action.kind.value}
    return [to_wire(submit), to_wire(result), *documents, recovery], resolved, result


def _cmd_demo_trace(args: argparse.Namespace) -> int:
    for step in demo_trace()[0]:
        _print_wire(step)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_BAD_ARGS
    try:
        return args.run(args)
    except ValueError as exc:
        # covers out-of-range knobs like --tasks 0 or --iterations 10
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OSError as exc:
        # an --out path that cannot be written, such as one in a missing directory
        print(f"bad arguments: cannot write output ({exc})", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
