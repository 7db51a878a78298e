"""Tests of the benchmark's own code: the row gate, the tracer's
restore contract, and BENCHMARK.json against what a run reports."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from campaign_bench.gate import canonical_results, failed_units, store_duplicates
from campaign_bench.run import (
    ROOT,
    end_to_end_metrics,
    layer_metrics,
    traced_pass,
)
from campaign_bench.tracing import Tracer, instrument
from campaign_bench.workloads import LAYER_MAP, WORKLOADS, Workload
from repro.experiments import harness, online
from repro.experiments.registry import SCHEDULERS
from repro.experiments.store import open_store

#: a few-second stand-in for tiny-socket: same shape, inline, 20 units
TINY = Workload(
    name="tiny-test",
    why="test",
    spec_file="figure1.json",
    overrides={
        "graphs": 2,
        "config.task_range": [4, 6],
        "config.num_procs": 4,
        "config.algorithms": ["caft", "ftbar"],
    },
)
#: the figure-1 campaign at one graph per granularity (10 units)
FIG1_SMALL = Workload(
    name="fig1-test",
    why="test",
    spec_file="figure1.json",
    overrides={"graphs": 1},
)
ONLINE_TINY = Workload(
    name="online-test",
    why="test",
    spec_file="figure_online.json",
    overrides={"graphs": 1, "config.task_range": [4, 6]},
)


def _program_state() -> tuple:
    entries = {name: SCHEDULERS.get(name) for name in SCHEDULERS.names()}
    attrs = {
        (module.__name__, attr): getattr(module, attr)
        for module, attrs in (
            (harness, ("run_rep", "generate_instance", "min_critical_path", "replay")),
            (online, ("OnlineHarness", "min_critical_path", "replay")),
        )
        for attr in attrs
    }
    return entries, attrs


@pytest.fixture(scope="module")
def tiny_pass(tmp_path_factory):
    return traced_pass(TINY, 7, tmp_path_factory.mktemp("tiny") / "store")


# ---------------------------------------------------------------- gate


def _rewrite_rows(store_dir: Path, edit) -> None:
    rows = store_dir / "rows.jsonl"
    lines = rows.read_text().splitlines(keepends=True)
    rows.write_text("".join(edit(lines)))


def _failed_after(tiny_pass, store_dir: Path, edit) -> int:
    _rewrite_rows(store_dir, edit)
    store = open_store(store_dir)
    try:
        return failed_units(
            tiny_pass.reference, canonical_results(store), store_duplicates(store)
        )
    finally:
        store.close()


def _altered(line: str) -> str:
    record = json.loads(line)
    metrics = next(iter(record["result"]["metrics"].values()))
    metrics["norm_latency"] += 1e-12
    return json.dumps(record) + "\n"


@pytest.mark.parametrize(
    "edit, failed",
    [
        pytest.param(lambda lines: lines, 0, id="intact"),
        pytest.param(lambda lines: lines[:-1], 1, id="dropped"),
        pytest.param(lambda lines: lines + lines[-1:], 1, id="duplicated"),
        pytest.param(lambda lines: lines[:-1] + [_altered(lines[-1])], 1, id="altered"),
    ],
)
def test_gate_counts_dropped_duplicated_and_altered_rows(tiny_pass, tmp_path, edit, failed):
    store_dir = tmp_path / "store"
    spec = TINY.spec(7, store_dir, executor="serial")
    grid = spec.grid()
    store = spec.store.build()
    try:
        store.ensure_manifest(grid)
        for unit in grid.units():
            store.append(unit, unit.run())
    finally:
        store.close()
    assert _failed_after(tiny_pass, store_dir, edit) == failed


def test_gate_counts_extra_units_and_live_duplicates():
    reference = {"a": "1", "b": "2"}
    assert failed_units(reference, {"a": "1", "b": "2"}, 0) == 0
    assert failed_units(reference, {"a": "1", "b": "2", "c": "3"}, 0) == 1
    assert failed_units(reference, {"a": "1", "b": "2"}, 1) == 1


def test_gate_never_fails_more_units_than_the_campaign_has():
    reference = {"a": "1", "b": "2"}
    assert failed_units(reference, {"a": "x", "c": "3"}, 5) == 2


# -------------------------------------------------------------- tracing


def test_traced_pass_restores_registry_and_module_attributes(tmp_path):
    before = _program_state()
    traced_pass(TINY, 3, tmp_path / "offline")
    traced_pass(ONLINE_TINY, 3, tmp_path / "online")
    after = _program_state()
    assert before[0].keys() == after[0].keys()
    assert all(before[0][k] is after[0][k] for k in before[0])
    assert all(before[1][k] is after[1][k] for k in before[1])


def test_instrument_restores_on_error():
    before = _program_state()
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            raise RuntimeError
    after = _program_state()
    assert all(before[0][k] is after[0][k] for k in before[0])
    assert all(before[1][k] is after[1][k] for k in before[1])


def test_paused_time_is_in_no_span():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.paused():
                time.sleep(0.05)
    durations = tracer.durations()
    assert durations["outer"][0] < 0.05
    assert durations["inner"][0] < 0.05


def test_layer_self_times_account_for_run_rep_on_figure1(tmp_path):
    traced = traced_pass(FIG1_SMALL, 5, tmp_path / "store")
    total = sum(traced.tracer.durations()["harness.run_rep"])
    untraced = sum(traced.tracer.self_times()["harness.run_rep"])
    # the traced layers cover all but a sliver of each rep ...
    assert 0 < untraced < 0.05 * total
    # ... and fault-free references take about the ROADMAP's 37%
    faultfree = layer_metrics(traced, [_sample(traced.units)], 1.0, 1.0)[
        "schedulers.faultfree_share"
    ][0]
    assert 0.25 < faultfree < 0.5


def test_traced_pass_validates_every_schedule_and_replay(tiny_pass):
    counts = tiny_pass.tracer.counts
    # per unit: caft reference + ftbar fault-free, then two placements
    assert counts["schedules_checked"] == 4 * tiny_pass.units
    assert counts["executions_checked"] + counts["replay_failed"] == 2 * tiny_pass.units
    assert counts["invalid_schedules"] == counts["invalid_executions"] == 0


# ------------------------------------------------------- BENCHMARK.json


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _sample(units: int) -> dict:
    return {
        "units": units, "wall_s": 1.0, "setup_s": 0.5, "master_cpu_s": 1.0,
        "children_cpu_s": 0.0, "factor": 1.0, "peak_rss_kb": 50_000, "worker_exit_codes": [0],
        "stolen_units": 0, "speculative_attempts": 0, "worker_restarts": 0,
        "duplicate_appends": 0,
    }


def test_benchmark_json_names_what_a_run_reports(tiny_pass):
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    samples = [_sample(tiny_pass.units)]
    e2e = end_to_end_metrics(samples, tiny_pass.units, 0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: unit for name, (_value, unit) in e2e.items()
    }
    layers = layer_metrics(tiny_pass, samples, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (_value, unit) in layers.items()
    }


def test_layer_map_covers_every_per_layer_metric():
    prefixes = [entry["layer"] for entry in LAYER_MAP] + [
        name for entry in LAYER_MAP for name in entry.get("also", ())
    ]
    for metric in _benchmark()["per_layer"]:
        assert any(metric["name"].startswith(prefix) for prefix in prefixes), metric
