"""Perf-guard smoke target: tiny figure-1 campaign through the full fast
path (kernel + 2 workers), timed, appended to ``BENCH_fastpath.json``
and checked against a regression threshold derived from the recorded
series — so a hot-path regression fails CI loudly instead of only
drifting in the JSON numbers.

Runs as its own pytest tier (marker registered in ``pytest.ini``)::

    PYTHONPATH=src python -m pytest benchmarks -m guard -s

The threshold is the **median** of the most recent comparable guard
runs (same per-point graph count and CPU budget), times ``GUARD_SLACK``
— generous enough for shared-box noise (a single anomalously fast run
cannot ratchet the ceiling down for good), tight enough that an
accidental return to reserve-and-rollback trials (historically a 2-5x
hit) trips it.  The first run on a fresh series just records a
baseline.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from datetime import datetime, timezone

import pytest

from benchmarks.bench_fastpath import BENCH_LOG, append_bench_record
from repro.experiments.campaign import run_campaign
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import check_shape, run_figure

GUARD_GRAPHS = max(1, int(os.environ.get("REPRO_GRAPHS", "1")))
GUARD_WORKERS = 2
#: fail when slower than GUARD_SLACK x the median recent comparable run
GUARD_SLACK = 3.0
#: how many of the most recent comparable runs feed the median
GUARD_WINDOW = 5


def guard_threshold(
    path: str = BENCH_LOG,
    graphs: int = GUARD_GRAPHS,
    slack: float = GUARD_SLACK,
    bench: str = "guard",
) -> float | None:
    """Regression ceiling (seconds) from the recorded guard series.

    Median over the last ``GUARD_WINDOW`` comparable records of the
    ``bench`` series — the series is append-only, so a min() would let
    one anomalously fast run tighten the ceiling forever.  ``None``
    when no comparable record exists (first run, different graph count,
    or a different CPU budget — wall clock is only comparable on a
    same-shaped box).
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            series = json.load(fh)
    except json.JSONDecodeError:
        return None
    comparable = [
        rec["fast_s"]
        for rec in series
        if rec.get("bench") == bench
        and rec.get("graphs_per_point") == graphs
        and rec.get("cpus") == os.cpu_count()
        and isinstance(rec.get("fast_s"), (int, float))
        # runs that tripped the guard must not feed the window, or a
        # sustained regression would ratchet itself into the median and
        # start passing after a few failing runs
        and not rec.get("regression")
    ]
    if not comparable:
        return None
    return statistics.median(comparable[-GUARD_WINDOW:]) * slack


@pytest.mark.guard
def test_fastpath_guard():
    threshold = guard_threshold()

    t0 = time.perf_counter()
    result = run_figure(1, num_graphs=GUARD_GRAPHS, workers=GUARD_WORKERS)
    elapsed = time.perf_counter() - t0

    shape = check_shape(result)
    assert shape.ok, f"shape checks failed: {shape.failed()}"

    regressed = threshold is not None and elapsed > threshold
    record = {
        "bench": "guard",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "graphs_per_point": GUARD_GRAPHS,
        "workers": GUARD_WORKERS,
        "cpus": os.cpu_count(),
        "fast_s": round(elapsed, 3),
    }
    if regressed:
        record["regression"] = True
    append_bench_record(record)
    print(f"\nguard: figure1 x{GUARD_GRAPHS} graphs in {elapsed:.2f}s (workers=2)")

    # The record is appended *before* the assertion so a regression run
    # still lands in the series (the trend break stays visible), flagged
    # so it never feeds future thresholds.
    if regressed:
        raise AssertionError(
            f"fast-path regression: guard campaign took {elapsed:.2f}s, "
            f"threshold {threshold:.2f}s ({GUARD_SLACK}x median of the last "
            f"{GUARD_WINDOW} comparable runs in {os.path.basename(BENCH_LOG)})"
        )


#: within-2x-of-dense acceptance for the vectorized evaluators (m=40)
MODEL_GUARD_RATIO = 2.0


def _model_guard(bench: str, model: str, topology: str | None, policy: str):
    """m=40 FTBAR campaign for one contention model, gated two ways.

    Absolute: ``fast_s`` against ``GUARD_SLACK`` x the median of this
    bench's own recorded series (same ratchet-proof scheme as the
    figure-1 guard).  Relative: within ``MODEL_GUARD_RATIO`` of a
    dense-model run timed in the same process — the acceptance floor
    for the routed/insertion vectorization, immune to box speed.

    Both sides are min-of-2 with collection disabled inside the timed
    region: these are sub-2s campaigns on a shared (often single-CPU)
    box, where one stray GC pass over the heap left by earlier guard
    campaigns — or a scheduler hiccup — can double a single rep and
    turn the ratio gate into a coin flip.
    """
    import gc

    threshold = guard_threshold(bench=bench)

    def campaign(model, topology, policy):
        config = ExperimentConfig(
            name=f"{bench}-m40",
            granularities=(1.0,),
            num_procs=40,
            epsilon=2,
            crashes=1,
            num_graphs=GUARD_GRAPHS,
            algorithms=("ftbar",),
            model=model,
            topology=topology,
            port_policy=policy,
        )
        best = float("inf")
        for _ in range(2):
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                run_campaign(config)
                best = min(best, time.perf_counter() - t0)
            finally:
                gc.enable()
        return best

    dense_s = campaign("oneport", None, "append")
    fast_s = campaign(model, topology, policy)
    ratio = fast_s / dense_s

    regressed = threshold is not None and fast_s > threshold
    record = {
        "bench": bench,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "num_procs": 40,
        "graphs_per_point": GUARD_GRAPHS,
        "cpus": os.cpu_count(),
        "fast_s": round(fast_s, 3),
        "dense_s": round(dense_s, 3),
        "ratio_vs_dense": round(ratio, 2),
    }
    if regressed:
        record["regression"] = True
    append_bench_record(record)
    print(
        f"\n{bench}: ftbar m=40 x{GUARD_GRAPHS} graphs in {fast_s:.2f}s "
        f"(dense {dense_s:.2f}s, {ratio:.2f}x)"
    )

    if regressed:
        raise AssertionError(
            f"fast-path regression: {bench} campaign took {fast_s:.2f}s, "
            f"threshold {threshold:.2f}s ({GUARD_SLACK}x median of the last "
            f"{GUARD_WINDOW} comparable runs in {os.path.basename(BENCH_LOG)})"
        )
    assert ratio < MODEL_GUARD_RATIO, (
        f"{bench}: m=40 campaign at {ratio:.2f}x the dense-model fast path "
        f"(floor {MODEL_GUARD_RATIO}x) — the vectorized evaluator lost its "
        f"edge over the dense kernel"
    )


@pytest.mark.guard
def test_routed_m40_guard():
    """Routed evaluator: ring m=40 within 2x of the dense fast path."""
    _model_guard("guard-routed-m40", "routed-oneport", "ring", "append")


@pytest.mark.guard
def test_insertion_m40_guard():
    """Insertion evaluator: gap timelines m=40 within 2x of dense."""
    _model_guard("guard-insertion-m40", "oneport", None, "insertion")
