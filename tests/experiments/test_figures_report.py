"""Tests for figure drivers, shape checks and reporting."""

import csv
import math

import pytest

from repro.experiments.campaign import run_campaign
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import check_shape, run_figure
from repro.experiments.report import (
    messages_table,
    panel_a,
    panel_b,
    panel_c,
    render_figure,
    write_csv,
)


@pytest.fixture(scope="module")
def mini_result():
    """A fast, fully-featured campaign used by all report tests."""
    cfg = ExperimentConfig(
        name="figure-mini",
        granularities=(0.4, 1.2),
        num_procs=8,
        epsilon=1,
        crashes=1,
        num_graphs=3,
        task_range=(25, 35),
    )
    return run_campaign(cfg)


class TestRunFigure:
    def test_bad_number(self):
        with pytest.raises(ValueError, match="figures 1-6"):
            run_figure(9)

    def test_figure_config_used(self):
        # run only the tiniest slice to keep tests fast
        result = run_figure(1, num_graphs=1)
        assert result.config.name == "figure1"
        assert len(result.points) == 10


class TestShapeChecks:
    def test_mini_shape(self, mini_result):
        report = check_shape(mini_result)
        assert report.ok, report.failed()

    def test_failed_lists_names(self, mini_result):
        report = check_shape(mini_result)
        report.checks["caft_beats_ftsa_latency"] = False
        assert "caft_beats_ftsa_latency" in report.failed()
        assert not report.ok


class TestPanels:
    def test_panel_a_contains_bounds(self, mini_result):
        text = panel_a(mini_result)
        assert "caft-UB" in text and "FF-caft" in text
        assert "0.40" in text

    def test_panel_b_crash_columns(self, mini_result):
        text = panel_b(mini_result)
        assert "caft-1c" in text and "ftsa-0c" in text

    def test_panel_c_overheads(self, mini_result):
        text = panel_c(mini_result)
        assert "%" in text

    def test_messages_table(self, mini_result):
        assert "message counts" in messages_table(mini_result)

    def test_render_figure_concatenates(self, mini_result):
        text = render_figure(mini_result)
        for piece in ("(a)", "(b)", "(c)", "message counts"):
            assert piece in text


class TestCsv:
    def test_write_csv_roundtrip(self, mini_result, tmp_path):
        path = write_csv(mini_result, tmp_path / "out" / "mini.csv")
        assert path.exists()
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["granularity"]) == 0.4
        assert float(rows[0]["caft_latency0"]) >= 1.0
        # no NaNs for the robust algorithms
        for key in ("caft_crash", "ftsa_crash", "ftbar_crash"):
            assert not math.isnan(float(rows[0][key]))
