"""A mutation sweep: the single-token changes to a module that its tests do not notice.

    python tools/mutants.py                       # cli, experiments, simulate, stats, errors
    python tools/mutants.py simulate stats        # some of them, in the order given
    python tools/mutants.py --jobs 2              # two mutants at a time

Each mutant changes one node of one module of ``src/delgov``:

- a comparison operator: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in``, each made the other
- ``and`` made ``or``, and ``or`` made ``and``
- a ``not`` dropped
- ``True`` made ``False``, and ``False`` made ``True``
- an integer constant made one larger
- ``break`` made ``continue``

A mutant is written by replacing only the source span of the node it
changes, so every other byte of the module (quotes, comments, layout) is
the module's own. It runs the module's named test subset, ``SUBSETS``;
one that passes it is run again against all of tier-1, ``TIER_1``, and is
reported as a survivor only if that passes too. Any nonzero pytest exit
counts as a kill, and so does a run that takes more than five times the
unmutated run (30 s at least).

Every run happens in a temporary copy of the checkout, deleted at the
end, so the checkout itself is never edited. Each run gets
``PYTHONDONTWRITEBYTECODE=1``, ``PYTHONHASHSEED=0``, ``-p
no:cacheprovider`` and ``--hypothesis-seed=0``, and the copy's hypothesis
database is deleted after it, so a verdict repeats and no bytecode cache
or pytest cache is written. The unmutated copy must pass each subset and
tier-1 first.

The output is each survivor, as ``module:line:column old -> new``, then
one count per module. Nothing is gated on it: the exit status is 0
whatever survives, and 1 only when the unmutated copy fails a run.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

# each module of src/delgov the sweep covers, in sweep order, and the tests that run its mutants
SUBSETS = {
    "cli": ("tests/test_cli.py", "tests/test_seeded_digests.py"),
    "experiments": (
        "tests/test_experiments.py", "tests/test_bench_digests.py", "tests/test_seeded_digests.py",
    ),
    "simulate": ("tests/test_simulate.py",),
    "stats": ("tests/test_stats.py",),
    "errors": ("tests/test_error_model.py",),
}
TIER_1 = ("tests",)

_COMPARISONS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"), ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
}
_BOOLEANS = {ast.And: ("and", "or"), ast.Or: ("or", "and")}
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


class Mutant(NamedTuple):
    """``source[start:end]``, which reads ``old``, replaced by ``new``; ``line`` and
    ``column`` (both from 1) are where ``old`` starts."""

    line: int
    column: int
    start: int
    end: int
    old: str
    new: str

    def apply(self, source: str) -> str:
        return source[: self.start] + self.new + source[self.end :]

    def __str__(self) -> str:
        return f"{self.line}:{self.column} {self.old.strip()} -> {self.new or '(dropped)'}"


def mutants(source: str) -> list[Mutant]:
    """Every mutant of ``source``, in source order. A node inside an f-string is skipped,
    as is any mutant whose span does not read as expected or whose result does not parse."""
    tree = ast.parse(source)
    lines = source.split("\n")
    starts = [0]
    for line in lines[:-1]:
        starts.append(starts[-1] + len(line) + 1)

    def offset(lineno: int, byte_column: int) -> int:
        # ast columns count UTF-8 bytes; tokenize columns and str indexes count characters
        return starts[lineno - 1] + len(lines[lineno - 1].encode("utf-8")[:byte_column].decode("utf-8"))

    tokens = [
        (starts[t.start[0] - 1] + t.start[1], starts[t.end[0] - 1] + t.end[1], t.string)
        for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type not in _NOT_CODE
    ]

    def between(low: int, high: int) -> list[tuple[int, int, str]]:
        # the operator tokens between two operands, without the brackets around them
        return [t for t in tokens if low <= t[0] and t[1] <= high and t[2] not in "()"]

    def span(node: ast.AST) -> tuple[int, int]:
        return offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)

    found = []

    def add(start: int, end: int, old: str, new: str) -> None:
        # the span must read as the node it claims to be, whatever the spaces inside it
        if " ".join(source[start:end].split()) == old:
            found.append((start, end, new))

    def operators(before: ast.AST, after: ast.AST, old: str, new: str) -> None:
        ops = between(span(before)[1], span(after)[0])
        if ops:
            add(ops[0][0], ops[-1][1], old, new)

    skip = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for before, op, after in zip([node.left, *node.comparators], node.ops, node.comparators):
                operators(before, after, *_COMPARISONS[type(op)])
        elif isinstance(node, ast.BoolOp):
            for before, after in zip(node.values, node.values[1:]):
                operators(before, after, *_BOOLEANS[type(node.op)])
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            # the keyword and the space after it, up to the next token
            start = span(node)[0]
            add(start, next(t[0] for t in tokens if t[0] > start), "not", "")
        elif isinstance(node, ast.Constant) and type(node.value) in (bool, int):
            start, end = span(node)
            if type(node.value) is bool:
                add(start, end, str(node.value), str(not node.value))
            elif ast.literal_eval(source[start:end]) == node.value:
                found.append((start, end, str(node.value + 1)))
        elif isinstance(node, ast.Break):
            add(*span(node), "break", "continue")

    result = []
    for start, end, new in sorted(found):
        line = source.count("\n", 0, start) + 1
        mutant = Mutant(line, start - starts[line - 1] + 1, start, end, source[start:end], new)
        try:
            ast.parse(mutant.apply(source))
        except SyntaxError:
            continue
        result.append(mutant)
    return result


def _passes(tree: Path, tests: Sequence[str], limits: dict[tuple[str, ...], float]) -> bool:
    """Whether pytest exits 0 over ``tests`` in ``tree`` within the limit in ``limits``,
    which the first run of each test list sets."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env.pop("PYTHONPYCACHEPREFIX", None)
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests,
    ]
    began = time.perf_counter()
    with subprocess.Popen(
        command, cwd=tree, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True,
    ) as run:
        try:
            code = run.wait(limits.get(tuple(tests)))
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            code = run.wait()
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    limits.setdefault(tuple(tests), max(30.0, 5 * (time.perf_counter() - began)))
    return code == 0


def sweep(
    root: Path,
    subsets: Mapping[str, Sequence[str]],
    full: Sequence[str],
    jobs: int = 1,
) -> Iterator[tuple[str, list[tuple[Mutant, str]]]]:
    """Per module of ``subsets`` (a path under ``root``), in order, each of its mutants
    and the verdict: ``"subset"`` when its test subset kills it, ``"tier-1"`` when only
    ``full`` does, and ``"survived"`` when neither does.

    Runs in ``jobs`` temporary copies of ``root``, which is only read. Raises
    RuntimeError when the unmutated copy fails a subset or ``full``.
    """
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        trees = [Path(scratch) / str(i) for i in range(jobs)]
        for tree in trees:
            shutil.copytree(root, tree, ignore=_NOT_COPIED)
        sources = {module: (trees[0] / module).read_text(encoding="utf-8") for module in subsets}
        limits: dict[tuple[str, ...], float] = {}
        for tests in dict.fromkeys(map(tuple, [*subsets.values(), full])):
            if not _passes(trees[0], tests, limits):
                raise RuntimeError(f"the unmutated checkout fails {' '.join(tests)}")
        # each copy serves one mutant at a time
        idle: queue.Queue[Path] = queue.Queue()
        for tree in trees:
            idle.put(tree)

        with ThreadPoolExecutor(jobs) as pool:
            for module, subset in subsets.items():
                source = sources[module]

                def verdict(mutant: Mutant) -> str:
                    tree = idle.get()
                    try:
                        (tree / module).write_text(mutant.apply(source), encoding="utf-8")
                        if not _passes(tree, subset, limits):
                            return "subset"
                        return "survived" if _passes(tree, full, limits) else "tier-1"
                    finally:
                        (tree / module).write_text(source, encoding="utf-8")
                        idle.put(tree)

                found = mutants(source)
                yield module, list(zip(found, pool.map(verdict, found)))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", metavar="MODULE", help=f"any of {', '.join(SUBSETS)}")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    unknown = [name for name in args.modules if name not in SUBSETS]
    if unknown:
        parser.error(f"no test subset for {', '.join(unknown)}")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    root = Path(__file__).resolve().parent.parent
    subsets = {f"src/delgov/{name}.py": SUBSETS[name] for name in args.modules or SUBSETS}
    counts = [f"{'module':<16}{'mutants':>8}{'subset':>9}{'tier-1':>9}{'survived':>9}"]
    try:
        for module, verdicts in sweep(root, subsets, TIER_1, args.jobs):
            name = Path(module).name
            for mutant, verdict in verdicts:
                if verdict == "survived":
                    print(f"{name}:{mutant}", flush=True)
            tally = [sum(v == kind for _, v in verdicts) for kind in ("subset", "tier-1", "survived")]
            counts.append(f"{name:<16}{len(verdicts):>8}" + "".join(f"{n:>9}" for n in tally))
    except RuntimeError as exc:
        print(f"error: {exc}")
        return 1
    for line in counts:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
