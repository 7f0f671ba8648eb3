import dataclasses
import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustnet.experiment
import robustnet.robustness
from robustnet import (
    MAX_EXACT_N,
    ExperimentConfig,
    check_structural_lemmas,
    derive_seed,
    edge_lower_bound,
    erdos_renyi,
    max_robustness,
    records_to_csv_text,
    robustness_levels,
    run_experiment,
    summary_to_csv_text,
)
from robustnet.experiment import NODE_OFFSET_CHOICES, RECORD_COLUMNS, SUMMARY_COLUMNS
from robustnet.robustness import _subset_tables

from oracles import DEFAULT_SWEEP_SHA256, loop_run_experiment


def test_derive_seed_is_stable():
    # frozen values: the seed-splitting scheme is a compatibility contract
    assert derive_seed(0, 3, 5, 0.8, 0) == 13826723168442681628
    assert derive_seed(42, 1, 2, 0.7, 5) == 5687978679161025003
    assert derive_seed(0, 3, 5, 0.8, 0) != derive_seed(0, 3, 5, 0.8, 1)
    assert derive_seed(0, 3, 5, 0.8, 0) != derive_seed(1, 3, 5, 0.8, 0)
    assert derive_seed(0, 3, 5, 0.75, 0) != derive_seed(0, 3, 5, 0.8, 0)


def test_config_validation():
    ExperimentConfig()
    ExperimentConfig(r_values=(MAX_EXACT_N // 2,))  # 2r = MAX_EXACT_N
    with pytest.raises(ValueError, match=f"capability limit {MAX_EXACT_N}"):
        ExperimentConfig(r_values=(MAX_EXACT_N // 2 + 1,))
    ExperimentConfig(master_seed=-3, p_values=(1,))


_BAD_CONFIG_FIELDS = [
    dict(r_values=()),
    dict(r_values=(0,)),
    dict(r_values=(MAX_EXACT_N // 2 + 1,)),
    dict(p_values=(0.0,)),
    dict(p_values=(1.2,)),
    dict(node_offsets=("3r",)),
    dict(samples_per_p=0),
    dict(max_attempts=0),
    dict(r_values=(True,)),
    dict(p_values=(True,)),
    dict(p_values=("0.9",)),
    dict(p_values=(float("inf"),)),
    dict(p_values=(np.float64(0.9),)),
    dict(p_values=(Fraction(9, 10),)),
    dict(p_values=(1, 1.0)),
    dict(samples_per_p=True),
    dict(max_attempts=True),
    dict(master_seed="x"),
    dict(master_seed=True),
    dict(master_seed=1.0),
    dict(output_dir=5),
    dict(p_values=0.5),
    dict(r_values=3),
    dict(p_values=()),
    dict(node_offsets=()),
]


@pytest.mark.parametrize("bad", _BAD_CONFIG_FIELDS, ids=repr)
def test_config_is_checked_however_it_is_made(bad):
    with pytest.raises(ValueError):
        ExperimentConfig(**bad)
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict({k: list(v) if isinstance(v, tuple) else v
                                         for k, v in bad.items()})
    with pytest.raises(ValueError):
        dataclasses.replace(ExperimentConfig(), **bad)


def test_config_arrays_may_be_lists_and_are_stored_as_tuples():
    config = ExperimentConfig(r_values=[1, 2], p_values=[0.8], node_offsets=["2r"])
    twin = ExperimentConfig(r_values=(1, 2), p_values=(0.8,), node_offsets=("2r",))
    assert config == twin and hash(config) == hash(twin)
    assert dataclasses.replace(twin, p_values=[0.8]) == twin


def _configs():
    """Hypothesis strategy: experiment configs that validate."""
    return st.builds(
        ExperimentConfig,
        r_values=st.lists(st.integers(1, MAX_EXACT_N // 2), min_size=1, max_size=6).map(tuple),
        samples_per_p=st.integers(1, 10**6),
        p_values=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=6).map(tuple),
        node_offsets=st.lists(st.sampled_from(NODE_OFFSET_CHOICES), min_size=1, max_size=3).map(tuple),
        master_seed=st.integers(-2**70, 2**70),
        max_attempts=st.integers(1, 10**6),
        output_dir=st.text(),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_configs())
def test_config_json_round_trip_property(config):
    assert ExperimentConfig.from_json_dict(json.loads(json.dumps(dataclasses.asdict(config)))) == config


def test_config_json_round_trip():
    config = ExperimentConfig(r_values=(1, 2), p_values=(0.8,), master_seed=9)
    data = dataclasses.asdict(config)
    assert ExperimentConfig.from_json_dict(data) == config
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict({"r_values": [1], "bogus": True})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict([1, 2])
    for key in ("r_values", "p_values", "node_offsets"):
        for bad in (data[key][0], []):
            with pytest.raises(ValueError, match=f"{key} must be a JSON array"):
                ExperimentConfig.from_json_dict({key: bad})


def small_config(**overrides):
    base = dict(
        r_values=(1, 2),
        samples_per_p=3,
        p_values=(0.8, 0.9),
        node_offsets=("2r-1", "2r"),
        master_seed=5,
        max_attempts=200,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_records_and_summary():
    records, summary = run_experiment(small_config())
    # canonical ordering: ascending (r, n, p), attempts in draw order
    keys = [(rec.r, rec.n, rec.p) for rec in records]
    assert keys == sorted(keys)
    for rec in records:
        assert rec.accepted == (rec.r_max == rec.r)
        assert rec.seed == derive_seed(5, rec.r, rec.n, rec.p, _attempt_index(records, rec))
        if rec.accepted:
            assert rec.edge_count >= edge_lower_bound(rec.n, rec.r).bound
    assert [(row.r, row.n) for row in summary] == [(1, 1), (1, 2), (2, 3), (2, 4)]
    for row in summary:
        cell = [rec for rec in records if rec.accepted and (rec.r, rec.n) == (row.r, row.n)]
        assert row.accepted == len(cell) == row.requested == 6
        assert row.min_edges_found == min(rec.edge_count for rec in cell)
        assert row.gap == row.min_edges_found - row.bound
        assert not row.shortfall


def _attempt_index(records, target):
    # records within one (r, n, p) cell appear in attempt order
    cell = [rec for rec in records if (rec.r, rec.n, rec.p) == (target.r, target.n, target.p)]
    return cell.index(target)


def test_run_experiment_is_replayable_byte_for_byte():
    records1, summary1 = run_experiment(small_config())
    records2, summary2 = run_experiment(small_config())
    assert records_to_csv_text(records1) == records_to_csv_text(records2)
    assert summary_to_csv_text(summary1) == summary_to_csv_text(summary2)
    # a different master seed gives different draws
    records3, _ = run_experiment(small_config(master_seed=6))
    assert records_to_csv_text(records1) != records_to_csv_text(records3)


def _shortfall_config():
    # sparse draws at p=0.1 essentially never form a triangle in 4 attempts
    return ExperimentConfig(
        r_values=(2,), samples_per_p=3, p_values=(0.1,),
        node_offsets=("2r-1",), master_seed=0, max_attempts=4,
    )


def test_run_experiment_flags_shortfall():
    records, summary = run_experiment(_shortfall_config())
    assert len(records) == 4
    (row,) = summary
    assert row.shortfall
    assert row.accepted == 0
    assert row.min_edges_found is None and row.gap is None
    csv_text = summary_to_csv_text(summary)
    assert csv_text.splitlines()[1] == "2,3,,3,,0,3,true"


def test_csv_headers_are_frozen():
    assert ",".join(RECORD_COLUMNS) == "r,n,p,seed,edge_count,r_max,accepted"
    assert (
        ",".join(SUMMARY_COLUMNS)
        == "r,n,min_edges_found,bound,gap,accepted,requested,shortfall"
    )
    records, summary = run_experiment(
        ExperimentConfig(r_values=(1,), samples_per_p=1, p_values=(0.9,),
                         node_offsets=("2r",), master_seed=1, max_attempts=50)
    )
    record_lines = records_to_csv_text(records).splitlines()
    assert record_lines[0] == "r,n,p,seed,edge_count,r_max,accepted"
    assert record_lines[1].startswith("1,2,0.9,")
    assert summary_to_csv_text(summary).splitlines()[0] == ",".join(SUMMARY_COLUMNS)


def test_unsorted_config_values_still_run_in_canonical_order():
    config = ExperimentConfig(
        r_values=(2, 1), samples_per_p=1, p_values=(0.9, 0.8),
        node_offsets=("2r", "2r-1"), master_seed=3, max_attempts=100,
    )
    records, summary = run_experiment(config)
    keys = [(rec.r, rec.n, rec.p) for rec in records]
    assert keys == sorted(keys)
    assert [(row.r, row.n) for row in summary] == [(1, 1), (1, 2), (2, 3), (2, 4)]


@pytest.mark.parametrize("config", [
    small_config(),
    small_config(max_attempts=2),  # fewer attempts than samples_per_p
    small_config(max_attempts=1),
    small_config(samples_per_p=1),
    small_config(samples_per_p=1, max_attempts=1),
    _shortfall_config(),
    small_config(r_values=(3, 4), p_values=(0.9, 0.5, 0.75, 0.6), samples_per_p=4, max_attempts=60),
    ExperimentConfig(r_values=(5, 1, 3), p_values=(0.85, 0.7), node_offsets=("2r", "2r-1"),
                     samples_per_p=2, master_seed=11, max_attempts=40),
    ExperimentConfig(r_values=(6,), p_values=(0.7,), node_offsets=("2r-1",),
                     samples_per_p=10, master_seed=0, max_attempts=300),
])
def test_run_experiment_matches_loop_oracle(config):
    assert run_experiment(config) == loop_run_experiment(config)


def test_default_sweep_goldens():
    records, summary = run_experiment(ExperimentConfig())
    assert len(records) == 10421
    assert [(row.r, row.n, row.accepted, row.requested) for row in summary if row.shortfall] \
        == [(6, 11, 45, 50)]
    assert hashlib.sha256(records_to_csv_text(records).encode()).hexdigest() \
        == DEFAULT_SWEEP_SHA256["records.csv"]
    assert hashlib.sha256(summary_to_csv_text(summary).encode()).hexdigest() \
        == DEFAULT_SWEEP_SHA256["summary.csv"]
    # the paper's necessary conditions hold on every accepted random graph
    for row in records:
        if row.accepted:
            g = erdos_renyi(row.n, row.p, row.seed)
            assert g.edge_count == row.edge_count >= edge_lower_bound(row.n, row.r).bound
            assert row.r < 2 or check_structural_lemmas(g).all_passed


def test_slices_stay_within_one_certification_at_n_20(monkeypatch):
    # chunks double, capped only by the attempts left; robustness_levels then
    # slices each chunk to at most 2^20 table entries, one certification at n = 20
    chunks, slices = [], []

    def chunk_spy(graphs):
        chunks.append((len(graphs), graphs[0].n))
        return robustness_levels(graphs)

    def slice_spy(rows):
        slices.append((len(rows), len(rows[0])))
        return _subset_tables(rows)

    monkeypatch.setattr(robustnet.experiment, "robustness_levels", chunk_spy)
    monkeypatch.setattr(robustnet.robustness, "_subset_tables", slice_spy)
    config = ExperimentConfig(r_values=(6,), p_values=(0.1,), node_offsets=("2r",),
                              samples_per_p=300, master_seed=2, max_attempts=700)
    records, _ = run_experiment(config)
    assert len(records) == 700  # p = 0.1 never gives a 6-robust graph
    assert chunks == [(300, 12), (400, 12)]
    assert slices == [(256, 12), (44, 12), (256, 12), (144, 12)]
    chunks.clear()
    slices.clear()
    run_experiment(ExperimentConfig(r_values=(10,), p_values=(0.8,), node_offsets=("2r-1",),
                                    samples_per_p=10, master_seed=0, max_attempts=3))
    assert chunks == [(3, 19)]
    assert slices == [(2, 19), (1, 19)]
    assert all(size << n <= 1 << 20 for size, n in slices)


def _peak_bytes(run):
    run()  # first calls may fill interpreter caches
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_at_the_limit_is_one_certification():
    # robustness_levels slices to 2^20 table entries, one certification at n = 20
    single = _peak_bytes(lambda: max_robustness(erdos_renyi(20, 0.8, 1)))
    for offset in ("2r", "2r-1"):  # one graph at n = 20, two at n = 19
        config = ExperimentConfig(r_values=(10,), p_values=(0.8,), node_offsets=(offset,),
                                  samples_per_p=10, master_seed=0, max_attempts=3)
        # the slack covers the cell's graphs and records; one more table
        # of 2^20 entries would take 1 MiB
        assert _peak_bytes(lambda: run_experiment(config)) <= single + (1 << 16)
