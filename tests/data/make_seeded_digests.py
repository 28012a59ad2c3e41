"""Write the SHA-256 table replayed by ``tests/test_seeded_digests.py``.

Two seeded commands run in an empty directory, through ``delgov.cli.main``:

- ``e3 --seed 42 --tasks 100``, which writes ``e3.csv``, ``e3.json`` and
  ``e3.pool.jsonl``;
- ``sensitivity --seeds 1,2 --tasks 50``, which writes
  ``sensitivity.csv`` and ``sensitivity.json``.

The table maps each command line to the digest of every file it wrote and
of its standard output. The committed ``seeded_digests.json`` pins the
bytes of the simulator as it was before routing was resolved once per
condition; any change to a digest is a change in the published results,
so do not regenerate it to make the test pass. Run from the repository
root::

    PYTHONPATH=src python tests/data/make_seeded_digests.py > tests/data/seeded_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from delgov.cli import main as cli_main

COMMANDS = (
    ("e3", "--seed", "42", "--tasks", "100"),
    ("sensitivity", "--seeds", "1,2", "--tasks", "50"),
)


def digests(argv) -> dict:
    """Run ``argv`` in a fresh directory; digest its files and stdout."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = cli_main(list(argv))
            if status != 0:
                raise SystemExit(f"{' '.join(argv)} exited {status}")
            table = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(tmp).iterdir())
            }
        finally:
            os.chdir(cwd)
    table["<stdout>"] = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
    return table


def main() -> None:
    table = {" ".join(argv): digests(argv) for argv in COMMANDS}
    sys.stdout.write(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
