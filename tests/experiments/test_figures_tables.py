"""Tests for figure/table rendering on a tiny suite run."""

import pytest

from repro.experiments import figures, tables
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def tiny_results():
    cfg = ExperimentConfig(
        benchmarks=("bt", "ep"), scale=0.12, os_runs=2, mapped_runs=1,
        sm_sample_threshold=3, hm_period_cycles=40_000, seed=9,
    )
    runner = ExperimentRunner(cfg)
    return {name: runner.run_benchmark(name) for name in cfg.benchmarks}


class TestHeatmapFigures:
    def test_fig4_one_heatmap_per_benchmark(self, tiny_results):
        maps = figures.fig4(tiny_results)
        assert set(maps) == {"bt", "ep"}
        assert "BT (SM)" in maps["bt"]

    def test_fig5_uses_hm(self, tiny_results):
        assert "HM" in figures.fig5(tiny_results)["bt"]

    def test_invalid_mechanism(self, tiny_results):
        with pytest.raises(ValueError):
            figures.communication_heatmaps(tiny_results, "XX")


class TestBarFigures:
    @pytest.mark.parametrize("number", [6, 7, 8, 9])
    def test_figure_data_normalized(self, tiny_results, number):
        data = figures.figure_data(tiny_results, number)
        for bench, row in data.items():
            assert row["OS"] == pytest.approx(1.0)
            assert set(row) == {"OS", "SM", "HM"}

    def test_render_contains_benchmarks(self, tiny_results):
        text = figures.render_figure(tiny_results, 6)
        assert "Figure 6" in text
        assert "BT" in text and "EP" in text

    def test_unknown_figure(self, tiny_results):
        with pytest.raises(ValueError):
            figures.figure_data(tiny_results, 3)


class TestTables:
    def test_table1_static(self):
        text = tables.table1()
        assert "Θ(P)" in text and "Θ(P²·S)" in text
        assert "231" in text and "84297" in text

    def test_table2_static(self):
        text = tables.table2()
        assert "6144 KiB" in text
        assert "write-through" in text

    def test_table3_rows(self, tiny_results):
        text = tables.table3(tiny_results)
        assert "BT" in text and "EP" in text
        assert "%" in text

    def test_table4_blocks(self, tiny_results):
        text = tables.table4(tiny_results)
        assert "Execution time" in text
        assert "Invalidations / s" in text
        assert "OS" in text and "SM" in text and "HM" in text

    def test_table5_stddevs(self, tiny_results):
        data = tables.table5_data(tiny_results)
        assert "Execution time (s)" in data
        # OS has 2 varied runs → nonzero spread is possible; SM has 1 run
        # → zero by construction.
        assert data["Execution time (s)"]["bt"]["SM"] == 0.0
        text = tables.table5(tiny_results)
        assert "std dev" in text


class TestReport:
    def test_report_sections(self, tiny_results):
        from repro.experiments.report import generate_report
        text = generate_report(tiny_results)
        assert "# Reproduction report" in text
        assert "## Headline claims" in text
        assert "Figure 6" in text
        assert "Table V" in text

    def test_detection_accuracy_table(self, tiny_results):
        from repro.experiments.report import detection_accuracy_section
        text = detection_accuracy_section(tiny_results)
        assert "| BT |" in text


class TestSVGFigures:
    def test_heatmap_svgs(self, tiny_results):
        from repro.experiments.figures import heatmap_svgs
        svgs = heatmap_svgs(tiny_results, "SM")
        assert set(svgs) == {"bt", "ep"}
        assert svgs["bt"].startswith("<svg")
        assert "BT (SM)" in svgs["bt"]

    def test_figure_svg(self, tiny_results):
        from repro.experiments.figures import figure_svg
        svg = figure_svg(tiny_results, 6)
        assert svg.startswith("<svg")
        assert "Figure 6" in svg
        assert ">OS<" in svg and ">SM<" in svg and ">HM<" in svg

    def test_heatmap_svgs_bad_mechanism(self, tiny_results):
        from repro.experiments.figures import heatmap_svgs
        with pytest.raises(ValueError):
            heatmap_svgs(tiny_results, "XX")
