"""Tests for the experiment harness (small repetition counts)."""

import math

import numpy as np
import pytest

from repro.dag.analysis import degree_stats
from repro.experiments.config import (
    FIGURES,
    GRANULARITY_SWEEP_A,
    GRANULARITY_SWEEP_B,
    ExperimentConfig,
    default_num_graphs,
)
from repro.experiments.campaign import run_campaign
from repro.experiments.executors.process import ProcessExecutor, effective_workers
from repro.experiments.harness import (
    ALGORITHM_RUNNERS,
    generate_instance,
    run_point,
    run_rep,
)
from repro.platform.heterogeneity import granularity


@pytest.fixture(scope="module")
def small_cfg() -> ExperimentConfig:
    return FIGURES[1].with_graphs(2)


class TestConfig:
    def test_sweeps_match_paper(self):
        assert GRANULARITY_SWEEP_A == (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
        assert GRANULARITY_SWEEP_B == tuple(float(i) for i in range(1, 11))

    def test_figures_cover_paper_grid(self):
        assert FIGURES[1].num_procs == 10 and FIGURES[1].epsilon == 1
        assert FIGURES[2].num_procs == 10 and FIGURES[2].epsilon == 3
        assert FIGURES[3].num_procs == 20 and FIGURES[3].epsilon == 5
        assert FIGURES[4].granularities == GRANULARITY_SWEEP_B
        assert FIGURES[5].crashes == 2
        assert FIGURES[6].crashes == 3

    def test_with_graphs(self):
        cfg = FIGURES[1].with_graphs(5)
        assert cfg.num_graphs == 5
        assert FIGURES[1].num_graphs == 60  # original untouched
        assert FIGURES[1].with_graphs(None).num_graphs == 60

    def test_default_num_graphs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPHS", "7")
        assert default_num_graphs() == 7
        monkeypatch.delenv("REPRO_GRAPHS")
        assert default_num_graphs() == 60


class TestGenerateInstance:
    def test_deterministic(self, small_cfg):
        a = generate_instance(small_cfg, 1.0, 0)
        b = generate_instance(small_cfg, 1.0, 0)
        assert a.graph == b.graph
        assert np.array_equal(a.exec_cost, b.exec_cost)
        assert np.array_equal(a.platform.delay_matrix, b.platform.delay_matrix)

    def test_reps_differ(self, small_cfg):
        a = generate_instance(small_cfg, 1.0, 0)
        b = generate_instance(small_cfg, 1.0, 1)
        assert a.graph != b.graph

    def test_task_count_in_range(self, small_cfg):
        for rep in range(5):
            inst = generate_instance(small_cfg, 0.4, rep)
            assert 80 <= inst.num_tasks <= 120

    def test_granularity_exact(self, small_cfg):
        for g in (0.2, 1.0, 2.0):
            inst = generate_instance(small_cfg, g, 0)
            assert granularity(inst.graph, inst.platform, inst.exec_cost) == pytest.approx(g)

    def test_degree_band(self, small_cfg):
        inst = generate_instance(small_cfg, 1.0, 2)
        stats = degree_stats(inst.graph)
        assert stats["max_in"] <= 3

    def test_platform_size(self, small_cfg):
        assert generate_instance(small_cfg, 1.0, 0).num_procs == 10

    def test_delay_range(self, small_cfg):
        inst = generate_instance(small_cfg, 1.0, 0)
        d = inst.platform.delay_matrix
        off = d[~np.eye(10, dtype=bool)]
        assert (off >= 0.5).all() and (off <= 1.0).all()


class TestRunPoint:
    @pytest.fixture(scope="class")
    def point(self):
        cfg = FIGURES[1].with_graphs(2)
        return run_point(cfg, 1.0)

    def test_all_algorithms_present(self, point):
        assert set(point.per_algorithm) == set(FIGURES[1].algorithms)

    def test_metrics_populated(self, point):
        for algo, ap in point.per_algorithm.items():
            assert len(ap.norm_latency) == 2
            assert all(x >= 1.0 for x in ap.norm_latency)
            assert all(u >= l - 1e-9 for u, l in zip(ap.norm_upper, ap.norm_latency))
            assert all(m > 0 for m in ap.messages)

    def test_overhead_nonnegative_for_replicated(self, point):
        # replication cannot beat the fault-free reference by construction
        # (same algorithm with eps=0); allow tiny numerical slack
        for algo in ("caft", "ftsa"):
            assert all(o > -5.0 for o in point.per_algorithm[algo].overhead_0crash)

    def test_faultfree_reference(self, point):
        assert point.faultfree_norm["caft"] >= 1.0

    def test_row_flattening(self, point):
        row = point.row()
        assert row["granularity"] == 1.0
        assert "caft_latency0" in row and "ftbar_overhead_crash" in row
        assert "faultfree_caft" in row

    def test_crash_failure_accounting(self, point):
        # failures only possible for the non-robust literal variant
        for algo in ("caft", "ftsa", "ftbar"):
            assert point.per_algorithm[algo].crash_failures == 0
        cp = point.per_algorithm["caft-paper"]
        assert cp.crash_failures + len(cp.norm_crash) == 2


class TestCampaign:
    def test_two_point_campaign(self):
        cfg = ExperimentConfig(
            name="mini",
            granularities=(0.5, 1.5),
            num_procs=6,
            epsilon=1,
            crashes=1,
            num_graphs=2,
            task_range=(15, 20),
        )
        result = run_campaign(cfg)
        assert len(result.points) == 2
        rows = result.rows()
        assert rows[0]["granularity"] == 0.5
        series = result.series("caft_latency0")
        assert len(series) == 2 and all(s >= 1 for s in series)

    def test_progress_callback(self):
        cfg = ExperimentConfig(
            name="mini2",
            granularities=(1.0,),
            num_procs=5,
            epsilon=1,
            crashes=1,
            num_graphs=2,
            task_range=(10, 12),
        )
        messages = []
        run_campaign(cfg, progress=messages.append)
        assert len(messages) == 2


class TestParallelHarness:
    """The process-pool campaign path and its CPU clamp."""

    @pytest.fixture(scope="class")
    def cfg(self):
        return ExperimentConfig(
            name="par",
            granularities=(0.5, 1.5),
            num_procs=6,
            epsilon=1,
            crashes=1,
            num_graphs=2,
            task_range=(12, 16),
        )

    def test_rep_is_pure_function_of_labels(self, cfg):
        a = run_rep(cfg, 0.5, 0)
        b = run_rep(cfg, 0.5, 0)
        assert a == b

    def test_workers_do_not_change_results(self, cfg):
        serial = run_campaign(cfg)
        parallel = run_campaign(cfg, executor=ProcessExecutor(2, clamp=False))
        assert serial.rows() == parallel.rows()

    def test_parallel_progress_covers_all_jobs(self, cfg):
        messages = []
        run_campaign(
            cfg,
            progress=messages.append,
            executor=ProcessExecutor(2, clamp=False),
        )
        assert len(messages) == len(cfg.granularities) * cfg.num_graphs

    def test_workers_one_is_serial(self, cfg):
        assert effective_workers(1) <= 1
        assert effective_workers(None) == 0
        assert ProcessExecutor(1).workers <= 1
        assert ProcessExecutor(None).workers == 0

    def test_workers_clamped_to_cpus(self):
        import os

        cpus = os.cpu_count() or 1
        assert effective_workers(cpus + 7) <= cpus
        assert effective_workers(cpus + 7, clamp=False) == cpus + 7
        assert ProcessExecutor(cpus + 7).workers <= cpus
        assert ProcessExecutor(cpus + 7, clamp=False).workers == cpus + 7

    def test_fast_flag_does_not_change_results(self, cfg):
        from dataclasses import replace

        fast = run_campaign(replace(cfg, fast=True))
        slow = run_campaign(replace(cfg, fast=False))
        assert fast.rows() == slow.rows()
