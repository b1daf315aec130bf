"""The parallel sweep runner: spec expansion, content-addressed caching,
process fan-out, and bitwise-deterministic JSONL output."""

import json

import pytest

from repro.runner import (
    CACHE_VERSION,
    Job,
    JobFailed,
    ResultCache,
    SweepSpec,
    default_workers,
    jsonl_line,
    read_jsonl,
    run_job,
    run_sweep,
    to_sweep_result,
)
from repro.sim import MachineConfig

#: Coarse batches: every job finishes in milliseconds.
FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)


def small_spec(**overrides):
    defaults = dict(
        shapes=("wide_bushy",),
        strategies=("SP", "SE"),
        processors=(8, 12),
        cardinalities=(400,),
        configs=(FAST,),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSpec:
    def test_expansion_is_deterministic_and_ordered(self):
        spec = small_spec()
        jobs = spec.expand()
        assert jobs == spec.expand()
        assert len(jobs) == len(spec) == 4
        # Processors vary innermost, strategies next.
        assert [(j.strategy, j.processors) for j in jobs] == [
            ("SP", 8), ("SP", 12), ("SE", 8), ("SE", 12)
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown shape"):
            SweepSpec(shapes=("pear_shaped",))
        with pytest.raises(ValueError, match="unknown strategy"):
            SweepSpec(strategies=("XX",))
        with pytest.raises(ValueError, match="positive"):
            SweepSpec(processors=(0,))
        with pytest.raises(ValueError, match="empty"):
            SweepSpec(strategies=())

    def test_paper_spec_matches_figure_grids(self):
        small = SweepSpec.paper("left_linear", 5000)
        large = SweepSpec.paper("left_linear", 40000)
        assert small.processors == (20, 30, 40, 50, 60, 70, 80)
        assert large.processors == (30, 40, 50, 60, 70, 80)
        assert len(small) == 28

    def test_job_key_is_content_addressed(self):
        job = small_spec().expand()[0]
        twin = small_spec().expand()[0]
        assert job.key() == twin.key()
        other_config = small_spec(configs=(FAST.scaled(handshake=0.5),))
        assert other_config.expand()[0].key() != job.key()
        # The version tag participates in the key.
        canonical = json.dumps(
            {"v": CACHE_VERSION, **job.payload()},
            sort_keys=True, separators=(",", ":"),
        )
        import hashlib

        assert job.key() == hashlib.sha256(canonical.encode()).hexdigest()

    def test_pinned_cache_keys_unchanged(self):
        """Paper points keep their pinned content addresses, so every
        existing cache entry stays valid."""
        assert Job("wide_bushy", "FP", 40, 5_000).key() == (
            "ea60f30754a8ceda3e747417010a2a6afa41438c74da13154cce097f42ea8878"
        )
        assert Job(
            "left_linear", "SE", 20, 2_000, skew_theta=0.7
        ).key() == (
            "d9728d43b21c50bcb0c0bb05a9a3d9b2d207ad92e1b6adf01144185fb5a67746"
        )


class TestCache:
    def test_roundtrip_and_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = small_spec().expand()[0]
        row = {"hello": [1, 2.5, None], "inf": float("inf")}
        assert cache.get(job.key()) is None
        cache.put(job.key(), row)
        assert cache.get(job.key()) == row
        assert job.key() in cache
        assert len(cache) == 1
        # A corrupt entry reads as a miss, not an exception.
        (path,) = tmp_path.rglob(f"{job.key()}.json")
        path.write_text("{truncated")
        assert cache.get(job.key()) is None
        cache.clear()
        assert len(cache) == 0


class TestRunSweep:
    def test_parallel_equals_serial_bitwise(self, tmp_path):
        spec = small_spec()
        serial = run_sweep(
            spec, workers=1, cache_dir=tmp_path / "a", timeout=120
        )
        parallel = run_sweep(
            spec, workers=2, cache_dir=tmp_path / "b", timeout=120
        )
        assert serial.jsonl() == parallel.jsonl()
        assert parallel.workers == 2
        assert serial.cached_count() == 0

    def test_cache_hits_on_second_run(self, tmp_path):
        spec = small_spec()
        cold = run_sweep(spec, workers=2, cache_dir=tmp_path, timeout=120)
        warm = run_sweep(spec, workers=2, cache_dir=tmp_path, timeout=120)
        assert cold.computed_count() == len(spec)
        assert warm.cached_count() == len(spec)
        assert warm.computed_count() == 0
        assert cold.jsonl() == warm.jsonl()

    def test_rows_have_full_provenance_and_metrics(self, tmp_path):
        spec = small_spec(strategies=("SE",), processors=(8,))
        run = run_sweep(spec, cache_dir=tmp_path, timeout=120)
        (row,) = run.rows()
        assert row["strategy"] == "SE"
        assert row["config"]["batches"] == 8
        assert row["cost_model"]
        assert row["metrics"]["response_time"] > 0
        assert row["metrics"]["result_tuples"] == pytest.approx(400.0)
        # Wall-clock and pids stay on the outcome, never in the rows.
        assert "elapsed" not in row and "pid" not in row

    def test_progress_callback_sees_every_job(self, tmp_path):
        spec = small_spec()
        seen = []
        run_sweep(
            spec, cache_dir=tmp_path, timeout=120,
            progress=lambda outcome, done, total: seen.append((done, total)),
        )
        assert seen == [(i + 1, len(spec)) for i in range(len(spec))]

    def test_infeasible_job_raises_jobfailed(self, tmp_path):
        # FP cannot give 9 joins one processor each on a 4-node machine.
        spec = small_spec(strategies=("FP",), processors=(4,))
        with pytest.raises(JobFailed, match="FP@4p"):
            run_sweep(spec, cache_dir=tmp_path, timeout=120, retries=0)

    def test_no_cache_recomputes(self, tmp_path):
        spec = small_spec(strategies=("SP",), processors=(8,))
        run_sweep(spec, cache_dir=tmp_path, timeout=120)
        fresh = run_sweep(spec, cache=False, cache_dir=tmp_path, timeout=120)
        assert fresh.cached_count() == 0
        assert fresh.cache_dir is None

    def test_jsonl_roundtrip(self, tmp_path):
        spec = small_spec(strategies=("SP",), processors=(8,))
        run = run_sweep(spec, cache_dir=tmp_path, timeout=120)
        path = tmp_path / "out.jsonl"
        run.write_jsonl(path)
        assert read_jsonl(path) == run.rows()
        assert path.read_text() == "".join(
            jsonl_line(row) + "\n" for row in run.rows()
        )


class TestBridges:
    def test_to_sweep_result(self, tmp_path):
        from repro.bench import Experiment

        spec = small_spec()
        run = run_sweep(spec, cache_dir=tmp_path, timeout=120)
        sweep = to_sweep_result(
            run.rows(), Experiment("wide_bushy", 400, (8, 12))
        )
        assert set(sweep.series) == {"SP", "SE"}
        assert sweep.series["SP"].processor_counts == (8, 12)
        assert all(t > 0 for t in sweep.series["SE"].response_times)

    def test_run_job_matches_facade(self):
        from repro import api

        job = small_spec(strategies=("SE",), processors=(8,)).expand()[0]
        row, meta = run_job(job)
        direct = api.run(
            "wide_bushy", "SE", 8, config=FAST, cardinality=400
        )
        assert row["metrics"]["response_time"] == direct.response_time
        assert meta["pid"] > 0

    def test_default_workers_fans_out(self):
        assert default_workers(8) >= 2
        assert default_workers(1) == 1
        assert default_workers(0) == 1
