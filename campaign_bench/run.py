"""Run one benchmark workload and print its metrics as one JSON line.

    python3 campaign_bench/run.py --workload fig1-serial --seed 1 \\
        --seconds 30 --trace 0

Every run does the same three things:

1. a traced pass: the workload's units run inline in this process with
   every layer boundary timed and every schedule and replay validated
   (:mod:`campaign_bench.tracing`); its stored results are the reference;
2. timed campaigns, untraced, each in a fresh process
   (:mod:`campaign_bench.child`), while the next one still fits in
   ``--seconds`` counted from the start of the run, traced pass
   included (at least ``MIN_CAMPAIGNS``); each one's stored results must
   equal the reference unit for unit (:mod:`campaign_bench.gate`);
3. the result line: end-to-end metrics (medians over the timed
   campaigns) with ``--trace 0``, per-layer metrics with ``--trace 1``.

Every end-to-end time is in reference seconds: measured seconds, less
the host's steal, scaled by the host speed the calibration probes saw
during the same campaign (:mod:`campaign_bench.calibrate`).  The run
and every process it starts share one vCPU.  Per-layer span times are as
measured; the executor metrics and the tracing overhead, which set
spans beside campaign times, are in reference seconds too.

Stores and scratch files live under ``.bench_work/`` next to this
directory and are removed at exit; ``--trace 1`` also writes every span
to ``.bench_out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"campaign benchmark: no program sources at {ROOT / 'src'}")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.experiments.executors import SerialExecutor  # noqa: E402
from repro.experiments.harness import CampaignResult  # noqa: E402
from repro.experiments.report import render_figure, render_online  # noqa: E402
from repro.experiments.store import open_store  # noqa: E402

from campaign_bench.calibrate import (  # noqa: E402
    REFERENCE_S,
    Calibrator,
    pin_to_one_cpu,
    steal_s,
)
from campaign_bench.gate import canonical_results, failed_units, store_duplicates  # noqa: E402
from campaign_bench.tracing import Tracer, instrument, trace_store  # noqa: E402
from campaign_bench.workloads import WORKLOADS, Workload  # noqa: E402

#: fewest timed campaigns per run, whatever ``--seconds`` says
MIN_CAMPAIGNS = 2
#: a timed campaign that takes longer than this is killed and the run fails
CAMPAIGN_TIMEOUT_S = 60.0
#: names the per-layer metrics split by algorithm
ALGORITHMS = ("caft", "caft-paper", "ftsa", "ftbar")
ONLINE_ALGORITHMS = ("caft", "ftsa")


@dataclass
class TracedPass:
    tracer: Tracer
    #: unit id -> canonical result (the gate's reference)
    reference: dict
    units: int
    #: first dispatch to last append on the tracer's clock, like the
    #: spans (validation and probes excluded, host steal included)
    wall_s: float
    duplicates: int
    #: reference seconds per measured second during the pass
    factor: float


def traced_pass(workload: Workload, seed: int, store_dir: Path) -> TracedPass:
    """Run the workload's units inline with every layer traced."""
    tracer = Tracer()
    spec = workload.spec(seed, store_dir, executor="serial")
    with instrument(tracer):
        grid = spec.grid()
        with tracer.span("grid.units"):
            units = grid.units()
        store = spec.store.build()
        untrace = trace_store(tracer, store)
        try:
            store.ensure_manifest(grid)
            calibrator = Calibrator()

            def progress(_line) -> None:
                with tracer.paused():
                    calibrator.tick()

            start = tracer.clock()
            SerialExecutor().run(units, store, progress=progress)
            wall = tracer.clock() - start
            reference = canonical_results(store)
            duplicates = store_duplicates(store)
        finally:
            store.close()
            untrace()
        with tracer.span("query.open"):
            opened = open_store(store_dir)
        try:
            with tracer.span("query.results"):
                results = opened.results()
        finally:
            opened.close()
        config = grid.configs[0]
        render = render_online if config.arrival is not None else render_figure
        with tracer.span("report.render"):
            render(CampaignResult(config, [results[u.unit_id] for u in units]))
    return TracedPass(
        tracer, reference, len(units), wall, duplicates, calibrator.factor()
    )


def timed_campaign(
    workload: Workload,
    seed: int,
    store_dir: Path,
    reference: dict,
    executor: str | None = None,
) -> dict:
    """One untraced campaign in a fresh process: its timings, and in
    ``failed`` the units whose stored results differ from ``reference``
    (all of them when a spawned worker exited uncleanly)."""
    cmd = [sys.executable, "-m", "campaign_bench.child",
           "--workload", workload.name, "--seed", str(seed),
           "--store", str(store_dir)]
    if executor is not None:
        cmd += ["--executor", executor]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
    start, stolen = time.monotonic(), steal_s()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CAMPAIGN_TIMEOUT_S, check=True,
    )
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["setup_s"] = sample["dispatch"] - start - (sample["dispatch_steal"] - stolen)
    sample["elapsed_s"] = time.monotonic() - start
    store = open_store(store_dir)
    try:
        stored = canonical_results(store)
        duplicates = store_duplicates(store) + sample["duplicate_appends"]
    finally:
        store.close()
    shutil.rmtree(store_dir)
    if any(code != 0 for code in sample["worker_exit_codes"]):
        sample["failed"] = len(reference)
    else:
        sample["failed"] = failed_units(reference, stored, duplicates)
    return sample


def timed_campaigns(
    workload: Workload, seed: int, work: Path, reference: dict, deadline: float
) -> list[dict]:
    """Closed loop of timed campaigns while the next one still ends
    before the monotonic ``deadline`` (and at least ``MIN_CAMPAIGNS``)."""
    samples: list[dict] = []
    while True:
        samples.append(
            timed_campaign(workload, seed, work / f"timed-{len(samples)}", reference)
        )
        longest = max(s["elapsed_s"] for s in samples)
        if len(samples) >= MIN_CAMPAIGNS and time.monotonic() + longest > deadline:
            return samples


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-(-len(ordered) * 9 // 10) - 1]


def _timing(metrics: dict, name: str, seconds: list[float]) -> None:
    ms = [1000.0 * s for s in seconds]
    metrics[f"{name}.p50"] = (statistics.median(ms) if ms else 0.0, "ms")
    metrics[f"{name}.p90"] = (p90(ms), "ms")
    metrics[f"{name}.calls"] = (len(ms), "count")


def end_to_end_metrics(samples: list[dict], attempted: int, failed: int) -> dict:
    """Medians over the timed campaigns, times in reference seconds."""
    def median(fn) -> float:
        return statistics.median(fn(s) for s in samples)

    return {
        "setup_s": (median(lambda s: s["setup_s"] * s["factor"]), "s"),
        "units_per_s": (
            median(lambda s: s["units"] / (s["wall_s"] * s["factor"])), "1/s"
        ),
        "cpu_ms_per_unit": (
            median(lambda s: 1000.0 * s["factor"]
                   * (s["master_cpu_s"] + s["children_cpu_s"]) / s["units"]),
            "ms",
        ),
        "peak_rss_mb": (median(lambda s: s["peak_rss_kb"] / 1024.0), "MB"),
        "intact_frac": ((attempted - failed) / attempted, "ratio"),
    }


def layer_metrics(
    traced: TracedPass,
    samples: list[dict],
    executor_wall_s: float,
    untraced_wall_s: float,
) -> dict:
    """Per-layer metrics of one run: ``name -> (value, unit)``.

    ``executor_wall_s`` is the workload's own executor draining the
    units (first dispatch to last append); its excess over the traced
    ``run_rep`` time is the executor layer's overhead.
    ``untraced_wall_s`` is an untraced inline run of the same units,
    the base of the tracing overhead.  Both are in reference seconds,
    and so are the traced times compared with them.  Worker CPU is read
    when the worker is reaped, so it includes the worker's own start-up.
    """
    tracer = traced.tracer
    dur = tracer.durations()
    counts = tracer.counts
    units = traced.units
    run_rep_s = sum(dur["harness.run_rep"])
    m: dict = {}

    faultfree = [d for a in ALGORITHMS for d in dur[f"schedulers.faultfree.{a}"]]
    for algo in ALGORITHMS:
        _timing(m, f"schedulers.faultfree_ms.{algo}", dur[f"schedulers.faultfree.{algo}"])
        _timing(m, f"schedulers.place_ms.{algo}", dur[f"schedulers.place.{algo}"])
    m["schedulers.faultfree_calls"] = (len(faultfree) / units, "count/unit")
    m["schedulers.faultfree_share"] = (sum(faultfree) / run_rep_s, "ratio")
    m["schedulers.messages"] = (counts["messages"] / units, "count/unit")

    _timing(m, "harness.run_rep_ms", dur["harness.run_rep"])
    run_rep_self = [1000.0 * s for s in tracer.self_times()["harness.run_rep"]]
    m["harness.run_rep.self_ms.p50"] = (statistics.median(run_rep_self), "ms")
    m["harness.run_rep.self_ms.p90"] = (p90(run_rep_self), "ms")
    _timing(m, "platform.instance_ms", dur["platform.instance"])
    _timing(m, "dag.critical_path_ms", dur["dag.critical_path"])

    _timing(m, "fault.replay_ms", dur["fault.replay"])
    attempts = len(dur["fault.replay"])
    m["fault.replay_failed"] = (counts["replay_failed"], "count")
    m["fault.replay_failed_frac"] = (
        counts["replay_failed"] / attempts if attempts else 0.0, "ratio"
    )

    _timing(m, "online.harness_init_ms", dur["online.harness_init"])
    for algo in ONLINE_ALGORITHMS:
        _timing(m, f"online.run_ms.{algo}", dur[f"online.run.{algo}"])

    def per_unit_ms(key: str) -> float:
        return statistics.median(
            1000.0 * s[key] * s["factor"] / s["units"] for s in samples
        )

    m["executors.overhead_ms_per_unit"] = (
        1000.0 * (executor_wall_s - run_rep_s * traced.factor) / units, "ms"
    )
    m["executors.master_cpu_ms_per_unit"] = (per_unit_ms("master_cpu_s"), "ms")
    m["executors.worker_cpu_ms_per_unit"] = (per_unit_ms("children_cpu_s"), "ms")
    for key in ("stolen_units", "speculative_attempts", "worker_restarts"):
        m[f"executors.{key}"] = (sum(s[key] for s in samples), "count")
    m["executors.worker_exit_nonzero"] = (
        sum(1 for s in samples for code in s["worker_exit_codes"] if code != 0),
        "count",
    )

    _timing(m, "store.append_ms", dur["store.append"])
    m["store.close_ms"] = (1000.0 * sum(dur["store.close"]), "ms")
    m["store.duplicates"] = (
        traced.duplicates + sum(s["duplicate_appends"] for s in samples), "count"
    )
    for metric, span in (("grid.units_ms", "grid.units"),
                         ("query.open_ms", "query.open"),
                         ("query.results_ms", "query.results"),
                         ("report.render_ms", "report.render")):
        m[metric] = (1000.0 * sum(dur[span]), "ms")

    for key in ("invalid_schedules", "invalid_executions",
                "schedules_checked", "executions_checked"):
        m[f"check.{key}"] = (counts[key], "count")
    m["trace.overhead_frac"] = (
        traced.wall_s * traced.factor / untraced_wall_s - 1.0, "ratio"
    )
    m["host.probe_ms"] = (
        statistics.median(1000.0 * REFERENCE_S / s["factor"] for s in samples), "ms"
    )
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="campaign benchmark: one workload run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + args.seconds
    pin_to_one_cpu()

    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        traced = traced_pass(workload, args.seed, work / "traced")
        samples = timed_campaigns(
            workload, args.seed, work, traced.reference, deadline
        )
        checked = list(samples)
        if args.trace:
            timed_wall = statistics.median(s["wall_s"] * s["factor"] for s in samples)
            if workload.executor == "serial":
                # The traced pass ran this executor on the same clock as
                # its spans, which keeps machine drift out of the overhead.
                executor_wall = traced.wall_s * traced.factor
                untraced = timed_wall
            else:
                # The traced pass is inline; its overhead is measured
                # against an untraced inline campaign of the same units.
                serial = timed_campaign(
                    workload, args.seed, work / "serial", traced.reference, "serial"
                )
                checked.append(serial)
                executor_wall = timed_wall
                untraced = serial["wall_s"] * serial["factor"]
            values = layer_metrics(traced, samples, executor_wall, untraced)
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            traced.tracer.dump(out / f"spans-{workload.name}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = traced.units * len(checked)
    failed = sum(s["failed"] for s in checked)
    if not args.trace:
        values = end_to_end_metrics(samples, attempted, failed)
    invalid = (traced.tracer.counts["invalid_schedules"]
               + traced.tracer.counts["invalid_executions"])
    correct = failed == 0 and invalid == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
