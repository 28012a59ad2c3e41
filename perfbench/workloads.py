"""The three workloads behind one interface, plus their correctness checks.

Every workload builds its inputs from the seed in ``__init__`` (that is
set-up; a long build calls ``lap`` now and then so set-up time can be scaled
piecewise), and then offers:

- ``warm_up()``: run a little of the same work before timing;
- ``planned_ops(seconds)`` and ``planned_reps(seconds)``: how many
  operations the timed phase runs and how many repetition pairs the traced
  run makes, or None to run until ``seconds`` have passed;
- ``run_block(budget_ns, limit)``: closed-loop operations until ``budget_ns``
  has passed or ``limit`` operations have run, returning per-sample
  latencies in ns;
- ``rep(tracer)``: one fixed, seeded set of operations, the unit of the
  traced run, returning a digest of everything it produced;
- ``finish()``: checks that need the whole run, returning problems found.

``attempted``, ``failed`` and ``problems`` accumulate over everything run.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from random import Random

import gateway

# gateway runs whole corpus passes, a number set by --seconds alone, so that
# its attempted and failed counts depend on neither host speed nor seed. The
# rates make a whole run, calibration and set-up included, last a little over
# --seconds on a 2-vCPU x86-64 host with Python 3.11.
GATEWAY_PASSES_PER_S = 1.6
GATEWAY_REP_PAIRS_PER_S = 0.6
GRID_TASKS = 100
E3_TASKS = 100
GRID_CELLS = 36
CONDITIONS = ("blind", "self_claimed", "attested")
# Timed seeds whose digests are kept and checked again after timing.
REPEAT_CHECKS = 2


def _distinct_seeds(seed: int, name: str):
    """Library seeds for a workload: a seeded base, then consecutive values."""
    base = Random(f"perfbench:{name}:{seed}").randrange(10**8)
    return base, (base + k for k in range(1, 10**9))


class Gateway:
    name = "gateway"
    ops_per_sample = 1

    def __init__(self, lib, seed: int, lap=None):
        self.lib = lib
        self.seed = seed
        self.corpus = gateway.generate(seed, lap=lap)
        self.rounds = self.corpus.rounds
        self.attempted = 0
        self.failed = 0
        self.failed_by_class: Counter = Counter()
        self.planted_passed: Counter = Counter()
        self.problems: list = []
        self._fresh()

    def _fresh(self):
        self.state = gateway.GatewayState(self.lib, self.corpus, self.seed)
        self.routes = bytearray()
        self.next_round = 0

    def _record(self, rnd, outcome, reply) -> None:
        self.attempted += 1
        if gateway.round_ok(rnd, outcome, reply):
            if rnd.planted:
                self.planted_passed[rnd.planted] += 1
            return
        self.failed += 1
        self.failed_by_class[rnd.planted or "unplanted"] += 1
        if rnd.planted is None and len(self.problems) < 5:
            got = "a reply that differs from the expected bytes" if outcome == rnd.expected else outcome
            self.problems.append(f"round {rnd.index}: expected {rnd.expected}, got {got}")

    def _one(self, rnd):
        try:
            return gateway.run_round(self.state, rnd)
        except Exception as exc:  # any escape is a failed operation, not a crash
            return ("escaped:round:" + type(exc).__name__,), None, None

    def warm_up(self) -> None:
        for rnd in self.rounds[:200]:
            self._one(rnd)
        self._fresh()

    def planned_ops(self, seconds: float) -> int:
        return max(1, round(seconds * GATEWAY_PASSES_PER_S)) * len(self.rounds)

    def planned_reps(self, seconds: float) -> int:
        return max(2, round(seconds * GATEWAY_REP_PAIRS_PER_S))

    def run_block(self, budget_ns: int, limit=None):
        clock = time.perf_counter_ns
        rounds, n = self.rounds, len(self.rounds)
        stop = self.next_round + (limit if limit is not None else 1 << 62)
        latencies = []
        start = clock()
        end = start
        while end - start < budget_ns and self.next_round < stop:
            rnd = rounds[self.next_round % n]
            self.next_round += 1
            t0 = clock()
            outcome, route, reply = self._one(rnd)
            end = clock()
            latencies.append(end - t0)
            self.routes.append(gateway.route_code(self.state, route))
            self._record(rnd, outcome, reply)
        return latencies

    def rep(self, tracer=None) -> str:
        """One pass over the corpus from a fresh pool."""
        self._fresh()
        digest = hashlib.sha256()
        for rnd in self.rounds:
            if tracer is not None:
                tracer.op = rnd.index
            outcome, route, reply = self._one(rnd)
            self.routes.append(gateway.route_code(self.state, route))
            self._record(rnd, outcome, reply)
            digest.update(repr((outcome, route)).encode())
            digest.update(reply or b"-")
        if len(self.problems) < 5:
            self.problems += gateway.RoutingOracle(self.corpus).check(self.rounds, self.routes)
        return digest.hexdigest()

    def finish(self) -> list:
        """Routing oracle over the timed sequence, then one checked pass."""
        problems = gateway.RoutingOracle(self.corpus).check(self.rounds, self.routes)
        self._fresh()
        for rnd in self.rounds:
            outcome, _, reply = self._one(rnd)
            if outcome == rnd.expected:
                problem = gateway.check_rejection_reply(rnd, reply)
                if problem and len(problems) < 10:
                    problems.append(problem)
        return self.problems + problems

    def details(self) -> dict:
        planted = Counter(r.planted for r in self.rounds if r.planted)
        return {
            "failed_by_class": dict(sorted(self.failed_by_class.items())),
            "planted_passed_by_class": dict(sorted(self.planted_passed.items())),
            "planted_per_corpus_pass": dict(sorted(planted.items())),
            "corpus_rounds": len(self.rounds),
        }


class _Batch:
    """Shared shape of ``grid`` and ``e3``: one library call per sample."""

    ops_per_sample = 1

    def __init__(self, lib, seed: int, lap=None):
        self.lib = lib
        base, self.seeds = _distinct_seeds(seed, self.name)
        self.warm_seed = base
        self.rep_seed_list = [base - k for k in range(1, self.rep_seeds + 1)]
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def _problem(self, text: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(text)

    def _tally(self, library_seed: int, output) -> str:
        digest, problem = self.check(output)
        self.attempted += self.ops_per_sample
        if problem:
            self.failed += self.ops_per_sample
            self._problem(f"seed {library_seed}: {problem}")
        return digest

    def _call_and_check(self, library_seed: int) -> str:
        digest = self._tally(library_seed, self.call(library_seed))
        if self.digests.setdefault(library_seed, digest) != digest:
            self._problem(f"seed {library_seed}: output differs between repeats")
        return digest

    def warm_up(self) -> None:
        self.check(self.call(self.warm_seed))

    def planned_ops(self, seconds: float):
        return None

    def planned_reps(self, seconds: float):
        return None

    def run_block(self, budget_ns: int, limit=None):
        clock = time.perf_counter_ns
        latencies = []
        start = clock()
        end = start
        while end - start < budget_ns:
            library_seed = next(self.seeds)
            t0 = clock()
            output = self.call(library_seed)
            end = clock()
            latencies.append((end - t0) / self.ops_per_sample)
            digest = self._tally(library_seed, output)
            if len(self.digests) < REPEAT_CHECKS:
                self.digests[library_seed] = digest
        return latencies

    def rep(self, tracer=None) -> str:
        digest = hashlib.sha256()
        for op, library_seed in enumerate(self.rep_seed_list):
            if tracer is not None:
                tracer.op = op
            digest.update(self._call_and_check(library_seed).encode())
        return digest.hexdigest()

    def finish(self) -> list:
        """Re-run the seeds seen first: their outputs must repeat exactly."""
        for library_seed in list(self.digests):
            self._call_and_check(library_seed)
        return self.problems

    def details(self) -> dict:
        return {"seeds_checked_for_repeats": len(self.digests)}


class Grid(_Batch):
    """``run_sensitivity([seed], 100)``: one sample is one seed, 36 cell-seeds."""

    name = "grid"
    ops_per_sample = GRID_CELLS
    rep_seeds = 2

    def call(self, library_seed: int):
        return self.lib.experiments.run_sensitivity([library_seed], GRID_TASKS)

    def check(self, cells):
        digest = hashlib.sha256(repr([
            (c.dishonest_fraction, c.inflation_level, c.pool_size, c.blind_mean, c.self_claimed_mean, c.attested_mean, c.paradox)
            for c in cells
        ]).encode()).hexdigest()
        if len(cells) != GRID_CELLS:
            return digest, f"{len(cells)} cells, expected {GRID_CELLS}"
        for c in cells:
            if c.attested_mean < c.blind_mean or c.attested_mean < c.self_claimed_mean:
                return digest, f"attested does not dominate in cell {c.dishonest_fraction}/{c.inflation_level}/{c.pool_size}"
        return digest, None


class E3(_Batch):
    """``run_routing_conditions_detailed(seed, 100)``: one operation per seed."""

    name = "e3"
    rep_seeds = 60

    def call(self, library_seed: int):
        return self.lib.experiments.run_routing_conditions_detailed(library_seed, E3_TASKS)

    def check(self, run):
        digest = hashlib.sha256(repr((
            [tuple(vars(p).values()) for p in run.pool],
            [tuple(vars(r).values()) for r in run.reports],
            [(c.condition, c.samples, c.selections) for c in run.runs],
        )).encode()).hexdigest()
        by = {r.condition: r for r in run.reports}
        if tuple(r.condition for r in run.reports) != CONDITIONS:
            return digest, f"conditions {tuple(by)}"
        if any(len(c.samples) != E3_TASKS for c in run.runs):
            return digest, "wrong sample count"
        # Exact by construction of the routing pool: the self_claimed router
        # always picks the designated inflator, the attested one the best.
        exact = (
            by["self_claimed"].accuracy_pct == 0.0,
            by["self_claimed"].inflation_selected_pct == 100.0,
            by["attested"].accuracy_pct == 100.0,
            by["attested"].inflation_selected_pct == 0.0,
        )
        if not all(exact):
            return digest, f"routing accuracy/inflation off: {exact}"
        return digest, None


WORKLOADS = {w.name: w for w in (Gateway, Grid, E3)}
