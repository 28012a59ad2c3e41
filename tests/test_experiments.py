"""Experiment harness tests: structure, determinism, degenerate cases."""

from __future__ import annotations

import math
import os
import statistics
import struct
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delgov import experiments, simulate, stats
from delgov.routing import DelegateRecord, NoEligibleDelegate, select
from delgov.simulate import (
    DelegateProfile,
    PoolConfig,
    _layout,
    _normals,
    best_delegate,
    build_pool_with_metadata,
    dishonest_count,
    execute_task,
)
from delgov.types import ClaimType, QualityClaim
from test_simulate import pool_configs


def test_seed42_routing_exactness():
    reports = experiments.run_routing_conditions_detailed(42, 100).reports
    assert [r.condition for r in reports] == ["blind", "self_claimed", "attested"]
    by = {r.condition: r for r in reports}
    assert by["self_claimed"].accuracy_pct == 0.0
    assert by["self_claimed"].inflation_selected_pct == 100.0
    assert by["attested"].accuracy_pct == 100.0
    assert by["attested"].inflation_selected_pct == 0.0
    assert by["blind"].d_vs_blind == 0.0 and by["blind"].p_vs_blind == 1.0
    assert 0.63 <= by["blind"].quality_mean <= 0.73


def test_self_claimed_condition_routes_every_task_to_one_delegate():
    run = experiments.run_routing_conditions_detailed(7, 50)
    self_run = run.runs[1]
    assert len(set(self_run.selections)) == 1
    assert set(self_run.selections) == {run.metadata.designated_top_id}


def test_attested_condition_routes_to_the_true_best():
    run = experiments.run_routing_conditions_detailed(3, 50)
    attested = run.runs[2]
    assert set(attested.selections) == {"d9"}


def test_conservation_of_routing_mass():
    run = experiments.run_routing_conditions_detailed(5, 200)
    for condition_run, report in zip(run.runs, run.reports):
        best_share = sum(1 for s in condition_run.selections if s == "d9")
        other_share = sum(1 for s in condition_run.selections if s != "d9")
        assert best_share + other_share == 200
        assert report.accuracy_pct == pytest.approx(100.0 * best_share / 200)


def test_runs_are_reproducible():
    first = experiments.run_routing_conditions_detailed(11, 100).reports
    second = experiments.run_routing_conditions_detailed(11, 100).reports
    assert first == second
    assert experiments.csv_bytes(first) == experiments.csv_bytes(second)


def test_condition_streams_are_independent_of_each_other():
    # changing how many tasks blind runs must not change attested samples
    full = experiments.run_routing_conditions_detailed(13, 40)
    again = experiments.run_routing_conditions_detailed(13, 40)
    assert full.runs[2].samples == again.runs[2].samples


def test_single_task_reports_flagged_std():
    reports = experiments.run_routing_conditions_detailed(9, 1).reports
    for report in reports:
        assert report.quality_std == 0.0
        assert report.std_defined is False
    assert math.isnan(reports[1].d_vs_blind)
    assert math.isnan(reports[1].p_vs_blind)


def test_blind_mean_spread_across_ten_seeds():
    means = [
        experiments.run_routing_conditions_detailed(seed, 100).reports[0].quality_mean
        for seed in range(1, 11)
    ]
    assert statistics.stdev(means) <= 0.04


def test_grid_has_36_cells_in_fixed_order():
    cells = experiments.run_sensitivity([1], 10)
    assert len(cells) == 36
    assert [c.dishonest_fraction for c in cells[:9]] == [0.1] * 9
    assert [c.inflation_level for c in cells[:3]] == ["low", "low", "low"]
    assert [c.pool_size for c in cells[:3]] == [5, 10, 20]


def test_rounded_out_cell_cannot_be_paradoxical():
    # pool 5 at fraction 0.1 rounds to zero inflators
    assert dishonest_count(5, 0.1) == 0
    cells = experiments.run_sensitivity([2, 3], 50)
    for cell in cells:
        if cell.pool_size == 5 and cell.dishonest_fraction == 0.1:
            assert cell.paradox is False


def test_attested_dominates_in_every_cell():
    cells = experiments.run_sensitivity([4], 50)
    for cell in cells:
        assert cell.attested_mean >= cell.blind_mean
        assert cell.attested_mean >= cell.self_claimed_mean


def test_grid_is_reproducible():
    cells_a = experiments.run_sensitivity([5, 6], 20)
    cells_b = experiments.run_sensitivity([5, 6], 20)
    assert cells_a == cells_b
    assert experiments.csv_bytes(cells_a) == experiments.csv_bytes(cells_b)


def test_paradox_flag_is_consistent_with_stored_means():
    for cell in experiments.run_sensitivity([7], 30):
        assert cell.paradox == (cell.self_claimed_mean < cell.blind_mean)


@pytest.mark.parametrize(("self_claimed", "paradox"), [(0.25, True), (0.5, False), (0.75, False)])
def test_the_paradox_is_a_self_claimed_mean_strictly_below_the_blind_mean(monkeypatch, self_claimed, paradox):
    means = {"blind": 0.5, "self_claimed": self_claimed, "attested": 0.875}

    def runs(claims, stream_seeds, tasks):
        return tuple(experiments.ConditionRun(c, (q,), ("d0",)) for c, q in means.items())

    monkeypatch.setattr(experiments, "_run_conditions", runs)
    cells = experiments.run_sensitivity([1], 1)
    assert {(cell.self_claimed_mean, cell.blind_mean, cell.paradox) for cell in cells} == {
        (self_claimed, 0.5, paradox)
    }


def test_csv_columns_and_values():
    data = experiments.csv_bytes(experiments.run_routing_conditions_detailed(1, 10).reports)
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == (
        "condition,quality_mean,quality_std,accuracy_pct,"
        "inflation_selected_pct,d_vs_blind,p_vs_blind,std_defined"
    )
    assert len(lines) == 4
    assert lines[1].startswith("blind,")


def test_overhead_report_shape_and_bounds():
    report = experiments.run_overhead(2000)
    delta = report.bytes_with_contract - report.bytes_without_contract
    assert report.bytes_with_contract > report.bytes_without_contract
    assert 300 <= delta <= 1100
    assert report.validation_ns_mean < 10_000
    assert report.serialization_ns_mean < 100_000


def test_overhead_times_the_serialization_of_the_submit_that_carries_a_contract(monkeypatch):
    encoded, encode = [], experiments.encode_message

    def spy(message):
        encoded.append(message)
        return encode(message)

    monkeypatch.setattr(experiments, "encode_message", spy)
    experiments.run_overhead(10_000)
    # the two byte sizes, bare then with the contract, and then the warm-up and timed calls
    assert encoded[:2] == [experiments.canonical_submit(False), experiments.canonical_submit(True)]
    assert set(encoded[2:]) == {experiments.canonical_submit(True)}
    assert len(encoded[2:]) >= 11_000  # at least ten percent warm-up


def test_overhead_iteration_stability():
    small = experiments.run_overhead(1000)
    large = experiments.run_overhead(100_000)
    ratio = small.validation_ns_mean / large.validation_ns_mean
    assert 1 / 3 <= ratio <= 3


@pytest.mark.parametrize(
    ("seeds", "tasks", "message"),
    [
        ([], 10, "run_sensitivity requires at least one seed"),
        ([1], 0, "tasks_per_condition must be >= 1"),
    ],
    ids=["no-seeds", "no-tasks"],
)
def test_sensitivity_rejects_empty_inputs(seeds, tasks, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        experiments.run_sensitivity(seeds, tasks)


def test_overhead_rejects_tiny_iteration_counts():
    with pytest.raises(ValueError):
        experiments.run_overhead(10)


def test_summary_document_reports_both_effect_pairings():
    run = experiments.run_routing_conditions_detailed(1, 50)
    summary = experiments.routing_summary(run)
    assert summary["seeds"] == [1]
    assert [report["seed"] for report in summary["reports"]] == [1, 1, 1]
    assert len(summary["d_attested_vs_self_claimed"]) == 1
    assert summary["d_attested_vs_self_claimed"][0] > 0
    assert len(summary["p_attested_vs_self_claimed"]) == 1
    assert summary["pool_metadata"]["dominance_guaranteed"] is True
    data = experiments.summary_bytes(summary)
    assert data.endswith(b"}\n")
    assert data == experiments.summary_bytes(experiments.routing_summary(run))


def _self_claimed_only(records):
    # records_for_pool lists each delegate's self-reported claim first
    return [DelegateRecord(r.delegate_id, r.claims[:1]) for r in records]


def _delegates(pool):
    # what run_condition reads of a pool: each delegate's true quality by id
    return {p.delegate_id: p.q_true for p in pool}


def _claims(pool):
    # what _run_conditions reads of a pool: each delegate's claimed quality
    return [p.q_claimed for p in pool]


def _routing_pool(seed):
    pool, _ = build_pool_with_metadata(experiments.ROUTING_POOL, Random(f"{seed}:e3:pool"))
    return pool


@pytest.mark.parametrize("condition", ["self_claimed", "attested"])
def test_by_claims_condition_matches_a_per_task_select_loop(condition):
    pool = _routing_pool(11)
    records = experiments.records_for_pool(pool)
    if condition == "self_claimed":
        records = _self_claimed_only(records)
    run = experiments.run_condition(
        _delegates(pool), records, condition, "select", _normals(Random("noise"), 40)
    )

    policy = experiments.CONDITIONS[condition]
    by_id = {p.delegate_id: p for p in pool}
    loop_rng, noise_rng = Random("select"), Random("noise")
    selections, samples = [], []
    for _ in range(40):
        delegate_id = select(records, policy, loop_rng)
        selections.append(delegate_id)
        samples.append(execute_task(by_id[delegate_id], noise_rng))
    assert run.selections == tuple(selections)
    assert run.samples == tuple(samples)


@pytest.mark.parametrize("tasks", [0, -1])
def test_routing_conditions_reject_a_run_without_tasks(tasks):
    with pytest.raises(ValueError, match="^tasks_per_condition must be >= 1$"):
        experiments.run_routing_conditions_detailed(42, tasks)


def test_by_claims_condition_without_an_eligible_claim_raises():
    pool = _routing_pool(11)
    self_only = _self_claimed_only(experiments.records_for_pool(pool))
    with pytest.raises(NoEligibleDelegate):
        experiments.run_condition(_delegates(pool), self_only, "attested", "0", _normals(Random(1), 5))


# the e3 pool and the grid's corner fractions and inflation levels, at every pool size
_CONFIGS = [experiments.ROUTING_POOL] + [
    PoolConfig(size, fraction, inflation)
    for fraction in (experiments.GRID_FRACTIONS[0], experiments.GRID_FRACTIONS[-1])
    for _, inflation in (experiments.GRID_INFLATION[0], experiments.GRID_INFLATION[-1])
    for size in experiments.GRID_POOL_SIZES
]


def _claims_of_type(records, claim_type):
    return [
        DelegateRecord(r.delegate_id, tuple(c for c in r.claims if c.claim_type is claim_type))
        for r in records
    ]


@pytest.mark.parametrize("config", _CONFIGS)
def test_each_condition_routes_over_the_records_for_its_pool(monkeypatch, config):
    routed, read = {}, []

    def spy(q_true, records, condition, *rest):
        routed[condition] = records
        read.append(q_true)
        return run_condition(q_true, records, condition, *rest)

    run_condition = experiments.run_condition
    monkeypatch.setattr(experiments, "run_condition", spy)
    for seed in range(3):
        pool, _ = build_pool_with_metadata(config, Random(f"{seed}:records"))
        streams = {c: (f"{seed}:{c}:select", f"{seed}:{c}:noise") for c in experiments.CONDITIONS}
        read.clear()
        runs = experiments._run_conditions(_claims(pool), streams.__getitem__, 20)
        full = experiments.records_for_pool(pool)
        q_true, attested, _ = experiments._per_size(len(pool))
        # every condition reads the pool size's one map of its layout's true qualities by id
        assert len(read) == 3 and all(map_read is q_true for map_read in read)
        assert q_true == dict(_layout(len(pool))) == _delegates(pool)
        assert list(q_true) == [p.delegate_id for p in pool]
        # blind and attested share one tuple per pool size, holding the attested claims alone
        assert routed["blind"] is routed["attested"] is attested
        assert list(routed["attested"]) == _claims_of_type(full, ClaimType.ISSUER_ATTESTED)
        # self_claimed routes over the self-reported records of the top claim's holders alone
        top = max(_claims(pool))
        holders = [r for r in _claims_of_type(full, ClaimType.SELF_CLAIMED) if r.claims[0].value == top]
        assert routed["self_claimed"] == holders
        # and every condition picks what it picks over the full records
        for run in runs:
            select_seed, noise_seed = streams[run.condition]
            records = _self_claimed_only(full) if run.condition == "self_claimed" else full
            normals = _normals(Random(noise_seed), 20)
            assert run == run_condition(_delegates(pool), records, run.condition, select_seed, normals)


def test_a_grid_cell_draws_one_noise_batch_and_e3_one_per_condition(monkeypatch):
    batches = []

    def spy(rng, n):
        batches.append(n)
        return normals(rng, n)

    normals = experiments._normals
    monkeypatch.setattr(experiments, "_normals", spy)
    experiments.run_sensitivity([5], 100)
    assert batches == [100] * 36
    batches.clear()
    experiments.run_routing_conditions_detailed(5, 100)
    assert batches == [100] * 3


def test_only_blind_conditions_seed_a_selection_stream(monkeypatch):
    seeded = []

    def spy(seed):
        seeded.append(seed)
        return Random(seed)

    monkeypatch.setattr(experiments, "Random", spy)
    experiments.run_routing_conditions_detailed(5, 100)
    assert [s for s in seeded if "select" in s] == ["5:e3:blind:select"]
    seeded.clear()
    experiments.run_sensitivity([5], 100)
    selects = [s for s in seeded if "select" in s]
    assert len(selects) == 36 and all(s.endswith(":select:blind") for s in selects)


def test_e3_summarises_each_sample_once(monkeypatch):
    summarised = []

    def spy(samples):
        summarised.append(tuple(samples))
        return descriptive(samples)

    descriptive = stats.descriptive
    # cohens_d would reach it through stats, the reports through experiments
    monkeypatch.setattr(stats, "descriptive", spy)
    monkeypatch.setattr(experiments, "descriptive", spy)
    for seed in range(3):
        summarised.clear()
        run = experiments.run_routing_conditions_detailed(seed, 100)
        assert summarised == [condition_run.samples for condition_run in run.runs]


def _bits(values):
    return [struct.pack("<d", value) for value in values]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6))
def test_each_e3_row_equals_its_definition(seed, tasks):
    run = experiments.run_routing_conditions_detailed(seed, tasks)
    blind = run.runs[0].samples
    best_id = best_delegate(run.pool)
    assert [r.condition for r in run.reports] == [r.condition for r in run.runs]
    for condition_run, report in zip(run.runs, run.reports, strict=True):
        samples, selections = condition_run.samples, condition_run.selections
        summary = stats.descriptive(samples) if tasks >= 2 else (samples[0], 0.0)
        if report.condition == "blind":
            d, p = 0.0, 1.0
        else:
            # Cohen's d needs two samples a side and the rank test three: NaN below that
            d = stats.cohens_d(samples, blind) if tasks >= 2 else math.nan
            p = stats.mann_whitney_u(samples, blind)[1] if tasks >= 3 else math.nan
        assert _bits([report.quality_mean, report.quality_std]) == _bits(summary)
        assert _bits([report.d_vs_blind, report.p_vs_blind]) == _bits([d, p])
        assert report.std_defined is (tasks >= 2)
        best = sum(1 for s in selections if s == best_id)
        inflated = sum(1 for s in selections if s in run.metadata.dishonest_ids)
        assert _bits([report.accuracy_pct, report.inflation_selected_pct]) == _bits(
            [100.0 * best / tasks, 100.0 * inflated / tasks]
        )


# three names for three conditions, so conditions often share a stream and sometimes do not
_stream_names = st.tuples(*[st.sampled_from("abc")] * 3)


@settings(max_examples=100, deadline=None)
@given(pool_configs, st.integers(0, 2**32), _stream_names, _stream_names, st.integers(1, 30))
def test_conditions_naming_one_noise_seed_run_over_its_fresh_draw(
    config, seed, select_names, noise_names, tasks
):
    pool, _ = build_pool_with_metadata(config, Random(seed))
    seeds = {
        condition: (f"{s}:select", f"{n}:noise")
        for condition, s, n in zip(experiments.CONDITIONS, select_names, noise_names)
    }
    runs = experiments._run_conditions(_claims(pool), seeds.__getitem__, tasks)

    full = experiments.records_for_pool(pool)
    expected = [
        experiments.run_condition(
            _delegates(pool),
            _self_claimed_only(full) if condition == "self_claimed" else full,
            condition,
            select_seed,
            _normals(Random(noise_seed), tasks),
        )
        for condition, (select_seed, noise_seed) in seeds.items()
    ]
    assert [run.condition for run in runs] == list(experiments.CONDITIONS)
    assert [run.selections for run in runs] == [run.selections for run in expected]
    assert [_bits(run.samples) for run in runs] == [_bits(run.samples) for run in expected]


@settings(max_examples=300, deadline=None)
@given(pool_configs, st.integers(0, 2**32))
# the old rule's counterexample: the inflator d1 claims 0.9575, the honest d2 0.9616
@example(PoolConfig(3, 0.1967, (0.2522, 0.2716)), 3846)
def test_a_guaranteed_dominance_hands_the_self_claimed_pick_to_an_inflator(config, seed):
    pool, metadata = build_pool_with_metadata(config, Random(seed))
    self_only = _self_claimed_only(experiments.records_for_pool(pool))
    picked = select(self_only, experiments.CONDITIONS["self_claimed"], None)
    # the argmax of the claims, ties to the smallest id
    assert picked == min(pool, key=lambda p: (-p.q_claimed, p.delegate_id)).delegate_id
    if metadata.dominance_guaranteed:
        assert picked in metadata.dishonest_ids


@settings(max_examples=100, deadline=None)
@given(pool_configs, st.integers(0, 2**32), st.integers(1, 30))
def test_attested_takes_the_best_and_never_trails_on_any_task_of_a_cell_seed(
    config, seed, tasks
):
    pool, _ = build_pool_with_metadata(config, Random(f"{seed}:pool"))
    # the grid's stream shape: one selection stream per condition, one noise stream for all
    runs = experiments._run_conditions(
        _claims(pool), lambda c: (f"{seed}:select:{c}", f"{seed}:noise"), tasks
    )
    assert set(runs[2].selections) == {best_delegate(pool)}
    blind, self_claimed, attested = (run.samples for run in runs)
    assert all(a >= max(b, s) for a, b, s in zip(attested, blind, self_claimed, strict=True))


def _explicit_records(pool):
    return [
        DelegateRecord(
            delegate_id=p.delegate_id,
            claims=(
                QualityClaim(
                    skill=experiments.EXPERIMENT_SKILL,
                    value=p.q_claimed,
                    claim_type=ClaimType.SELF_CLAIMED,
                ),
                QualityClaim(
                    skill=experiments.EXPERIMENT_SKILL,
                    value=p.q_true,
                    claim_type=ClaimType.ISSUER_ATTESTED,
                    issuer=experiments.ATTESTATION_ISSUER,
                ),
            ),
        )
        for p in pool
    ]


def _outcome(build, pool):
    """The records with their repr and value bits, or the exception's type and message."""
    try:
        records = build(pool)
    except Exception as exc:
        return type(exc), str(exc)
    return records, repr(records), [c.value.hex() for r in records for c in r.claims]


def _profile(q_true, q_claimed=0.5):
    return DelegateProfile("d0", q_true, q_claimed, True)


# true qualities that compare equal but differ in type, sign or bits, or that the claim's
# constructor converts or rejects: the two zeros, NaN, an int or bool equal to a float, a
# number too large for a float, and non-numbers
_q_trues = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, 1.0, 1, True, 0, False, 0.5, 2**1024, None, "0.5", [0.5]]),
    st.floats(),
    st.integers(),
)
_pools = st.lists(
    st.builds(DelegateProfile, st.sampled_from(["d0", "d1"]), _q_trues, st.floats(), st.booleans()),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(_pools, _pools)
@example([_profile(0.0)], [_profile(-0.0)])
@example([_profile(1.0)], [_profile(True)])
@example([_profile(1.0)], [_profile(1)])
def test_records_for_pool_matches_an_explicit_two_claim_build(first, second):
    # equal in ==, repr, value bits and exception text, with the pools in both orders
    for pool in (first, second, second, first):
        assert _outcome(experiments.records_for_pool, pool) == _outcome(_explicit_records, pool)


def test_a_second_grid_seed_builds_only_self_reported_claims(monkeypatch):
    built, records = [], []

    def spy(*args, **kwargs):
        claim = QualityClaim(*args, **kwargs)
        built.append(claim.claim_type)
        return claim

    def record_spy(*args, **kwargs):
        record = DelegateRecord(*args, **kwargs)
        records.append((record.delegate_id, [c.claim_type for c in record.claims]))
        return record

    experiments.run_sensitivity([1], 5)
    monkeypatch.setattr(experiments, "QualityClaim", spy)
    monkeypatch.setattr(experiments, "DelegateRecord", record_spy)
    experiments.run_sensitivity([2], 5)
    # one self-reported claim, in a record of its own, per holder of each cell's top claim, in
    # pool order: the attested records of each size were built by the first seed
    holders = []
    for _, _, size, config, key in experiments._GRID:
        claims, _ = simulate._draw(config, Random(f"2:{key}:pool"))
        holders += [d for (d, _), c in zip(_layout(size), claims) if c == max(claims)]
    assert built == [ClaimType.SELF_CLAIMED] * len(holders)
    assert records == [(d, [ClaimType.SELF_CLAIMED]) for d in holders]
    # some cells tie at the top, so select still breaks ties among the records it is given
    assert 36 < len(holders) < 12 * sum(experiments.GRID_POOL_SIZES)


def test_the_per_size_cache_holds_at_most_what_the_module_docstring_states():
    assert experiments._per_size.cache_info().maxsize == 8


@settings(max_examples=200, deadline=None)
@given(pool_configs.filter(lambda config: config.pool_size <= 25), st.integers(0, 2**32))
def test_the_cached_attested_route_is_selects_answer_over_a_built_pool(config, seed):
    experiments._per_size.cache_clear()
    _, _, route = experiments._per_size(config.pool_size)
    pool, _ = build_pool_with_metadata(config, Random(seed))
    assert route == best_delegate(pool)
    assert route == select(experiments.records_for_pool(pool), experiments.CONDITIONS["attested"], None)


# finite claims in [0, 1], with ties at the 1.0 cap and at zero of either sign
_claim_values = st.one_of(st.sampled_from([1.0, 1.0, 0.0, -0.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 25).flatmap(lambda n: st.lists(_claim_values, min_size=n, max_size=n)))
def test_the_self_claimed_route_over_the_top_holders_is_selects_route_over_every_record(claims):
    routed = []

    def spy(pool, policy, *rest):
        routed.append(pool)
        return select(pool, policy, *rest)

    policy = experiments.CONDITIONS["self_claimed"]
    every = [
        DelegateRecord(d, (QualityClaim(experiments.EXPERIMENT_SKILL, c, ClaimType.SELF_CLAIMED),))
        for (d, _), c in zip(_layout(len(claims)), claims)
    ]
    experiments._per_size(len(claims))  # so the spy sees no select of a cold size's attested route
    original, experiments.select = experiments.select, spy
    try:
        runs = experiments._run_conditions(claims, lambda c: (f"{c}:select", "noise"), 1)
    finally:
        experiments.select = original
    # one select call, over the records whose claim equals the top one, in pool order
    assert routed == [[r for r in every if r.claims[0].value == max(claims)]]
    assert runs[1].condition == "self_claimed"
    assert runs[1].selections == (select(every, policy, None),)


@pytest.mark.parametrize("nans", [(0,), (2,), (9,), (3, 7), (0, 9)])
@pytest.mark.parametrize("tie", [False, True])
def test_a_nan_claim_raises_as_a_build_of_every_record_does(nans, tie):
    claims, _ = simulate._draw(experiments.ROUTING_POOL, Random(0))
    if tie:
        claims = [1.0] * len(claims)
    for i in nans:
        claims[i] = math.nan
    ids = [d for d, _ in _layout(len(claims))]
    message = f"delegate {ids[nans[0]]!r} has a NaN claim for skill 'general'"
    with pytest.raises(ValueError) as every:
        [DelegateRecord(d, (experiments._self_claim(c),)) for d, c in zip(ids, claims)]
    assert str(every.value) == message
    with pytest.raises(ValueError) as routed:
        experiments._run_conditions(claims, lambda c: (f"{c}:select", "noise"), 5)
    assert str(routed.value) == message


def test_warm_seeds_call_select_for_the_self_claimed_condition_alone(monkeypatch):
    policies = []

    def spy(pool, policy, *rest):
        policies.append(policy)
        return select(pool, policy, *rest)

    experiments.run_sensitivity([1], 5)
    monkeypatch.setattr(experiments, "select", spy)
    experiments.run_sensitivity([2], 5)
    # the attested route of each pool size was cached by the first seed; blind draws no select
    assert policies == [experiments.CONDITIONS["self_claimed"]] * 36
    policies.clear()
    experiments.run_routing_conditions_detailed(2, 5)
    assert policies == [experiments.CONDITIONS["self_claimed"]]


def test_a_grid_seed_builds_no_profile_and_an_e3_seed_its_reported_pool(monkeypatch):
    built = []

    def spy(*args):
        built.append(args[0])
        return DelegateProfile(*args)

    monkeypatch.setattr(simulate, "DelegateProfile", spy)
    experiments.run_sensitivity([1], 5)
    assert built == []
    run = experiments.run_routing_conditions_detailed(1, 5)
    assert built == [p.delegate_id for p in run.pool]


_SEEDED_REPRS = (
    "from delgov import experiments; "
    "print(repr(experiments.run_sensitivity([1, 2], 50))); "
    "print(repr(experiments.run_routing_conditions_detailed(42, 100)))"
)


def test_seeded_runs_do_not_depend_on_what_ran_before_them():
    def reprs():
        return (
            f"{experiments.run_sensitivity([1, 2], 50)!r}\n"
            f"{experiments.run_routing_conditions_detailed(42, 100)!r}\n"
        )

    # a fresh interpreter starts with every cache cold; this process has run the same before
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    cold = subprocess.run(
        [sys.executable, "-c", _SEEDED_REPRS],
        capture_output=True, text=True, encoding="utf-8", env=env, check=True,
    ).stdout
    reprs()
    assert reprs() == cold
