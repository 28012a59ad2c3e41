"""Write the SHA-256 table replayed by ``tests/test_bench_digests.py``.

The seeded commands pinned in ``seeded_digests.json`` run the grid at 50
tasks per condition; the benchmark runs both experiments at 100. This table
pins the ``repr`` of ``run_sensitivity([seed], 100)`` and of
``run_routing_conditions_detailed(seed, 100)`` for each seed in ``SEEDS``,
so every float of the bench-sized runs is covered, raw samples included.
The committed table was written before the simulator loop was batched; do
not regenerate it to make the test pass. Run from the repository root::

    PYTHONPATH=src python tests/data/make_bench_digests.py > tests/data/bench_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys

from delgov.experiments import run_routing_conditions_detailed, run_sensitivity

SEEDS = (1, 7, 42)
TASKS = 100


def digests(seed: int) -> dict:
    """Digest the repr of both bench-sized experiments for one seed."""
    return {
        "sensitivity": hashlib.sha256(repr(run_sensitivity([seed], TASKS)).encode()).hexdigest(),
        "routing_conditions": hashlib.sha256(
            repr(run_routing_conditions_detailed(seed, TASKS)).encode()
        ).hexdigest(),
    }


def main() -> None:
    table = {str(seed): digests(seed) for seed in SEEDS}
    sys.stdout.write(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
