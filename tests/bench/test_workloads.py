"""Benchmark workload definitions and sweep machinery."""

import pytest

from repro.bench import (
    Experiment,
    LARGE_CARDINALITY,
    LARGE_PROCESSORS,
    PAPER_FIGURE_14,
    SMALL_CARDINALITY,
    SMALL_PROCESSORS,
    all_paper_experiments,
    paper_experiments,
    run_sweep,
)


class TestDefinitions:
    def test_paper_sizes(self):
        assert SMALL_CARDINALITY == 5_000
        assert LARGE_CARDINALITY == 40_000

    def test_processor_ranges(self):
        """Section 4.2: 20-80 for 5K; the 40K query was too large to
        run on fewer than 30 processors."""
        assert SMALL_PROCESSORS[0] == 20 and SMALL_PROCESSORS[-1] == 80
        assert LARGE_PROCESSORS[0] == 30 and LARGE_PROCESSORS[-1] == 80

    def test_ten_experiments(self):
        experiments = all_paper_experiments()
        assert len(experiments) == 10
        assert {e.size_label for e in experiments} == {"5K", "40K"}

    def test_figure_numbers(self):
        small, large = paper_experiments("wide_bushy")
        assert small.figure == large.figure == 11
        assert "Figure 11" in small.title

    def test_experiment_builds_tree_and_catalog(self):
        experiment = Experiment("right_bushy", 100, (5, 10))
        from repro.core import num_joins

        assert num_joins(experiment.tree()) == 9
        assert experiment.catalog().cardinality_of("R0") == 100

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            paper_experiments("diagonal")

    def test_figure14_covers_all_cells(self):
        assert len(PAPER_FIGURE_14) == 10


class TestSweep:
    @pytest.fixture(scope="class")
    def tiny_sweep(self, fast_config):
        experiment = Experiment("wide_bushy", 400, (10, 16))
        return run_sweep(experiment, config=fast_config)

    def test_all_strategies_present(self, tiny_sweep):
        assert set(tiny_sweep.series) == {"SP", "SE", "RD", "FP"}

    def test_series_lengths(self, tiny_sweep):
        for series in tiny_sweep.series.values():
            assert len(series.response_times) == 2

    def test_series_at_and_best(self, tiny_sweep):
        series = tiny_sweep.series["SP"]
        assert series.at(10) == series.response_times[0]
        best_time, best_procs = series.best()
        assert best_time == min(series.response_times)
        assert best_procs in (10, 16)

    def test_best_cell(self, tiny_sweep):
        seconds, strategy, procs = tiny_sweep.best_cell()
        assert strategy in tiny_sweep.series
        assert seconds == tiny_sweep.series[strategy].best()[0]

    def test_table_text(self, tiny_sweep):
        table = tiny_sweep.table()
        assert "procs" in table
        assert "SP" in table and "FP" in table


class TestRunnerCache:
    def test_sweep_memoized(self, fast_config, tmp_path, monkeypatch):
        """The runner's disk cache is the only memo: a repeated sweep
        runs no job and returns an equal (not the same) result."""
        from repro.bench import sweep
        from repro.runner import execute

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        experiment = Experiment("left_linear", 300, (10,))
        first = sweep(experiment, fast_config)

        def recomputed(job):
            raise AssertionError(f"cached job ran again: {job.label()}")

        monkeypatch.setattr(execute, "run_job", recomputed)
        second = sweep(experiment, fast_config)
        assert second == first
        assert second is not first
