"""Cluster routing: the 1-shard golden identity, worker-count replay
invariance, and result aggregation."""

import importlib.util
import pathlib

import pytest

from repro import api
from repro.cluster import (
    SHARD_SEED_STRIDE,
    Trace,
    shard_seed,
    split_clients,
    synthesize_trace,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"


@pytest.fixture(scope="module")
def generators():
    """The golden fixture-generator module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "golden_fixture_generators", GOLDEN_DIR / "generate_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_bytes(name: str) -> bytes:
    data = (GOLDEN_DIR / f"{name}.jsonl").read_bytes()
    assert data
    return data


class TestSingleShardGoldenIdentity:
    """A 1-shard static cluster IS run_workload: same knobs, same
    bytes, pinned against the pre-cluster golden fixtures."""

    def test_workload_open_identical(self, tmp_path):
        out = tmp_path / "cluster_open.jsonl"
        api.run_cluster(
            "wide_bushy",
            shards=1,
            arrivals="poisson",
            rate=0.4,
            duration=40.0,
            seed=7,
            machine_size=40,
            policy="exclusive",
            strategy="FP",
            cardinality=2_000,
        ).write_jsonl(out)
        assert out.read_bytes() == fixture_bytes("workload_open")

    def test_workload_closed_identical(self, tmp_path):
        out = tmp_path / "cluster_closed.jsonl"
        api.run_cluster(
            "paper",
            shards=1,
            arrivals="closed",
            clients=3,
            think_time=5.0,
            queries_per_client=4,
            duration=500.0,
            seed=11,
            machine_size=40,
            policy="round_robin",
            share=16,
            strategy="SE",
            cardinality=1_000,
            deadline=400.0,
        ).write_jsonl(out)
        assert out.read_bytes() == fixture_bytes("workload_closed")

    def test_single_shard_rows_carry_no_shard_key(self):
        result = api.run_cluster(
            "wide_bushy", shards=1, rate=0.3, duration=10.0, seed=2,
        )
        assert all("shard" not in row for row in result.rows())


class TestReplayInvariance:
    def test_workers_do_not_change_the_bytes(self, fast_config, tmp_path):
        trace = synthesize_trace(
            "wide_bushy", rate=0.8, duration=40.0, seed=9
        )
        outputs = []
        for workers in (1, 4):
            result = api.run_cluster(
                trace=trace, shards=4, placement="hash", seed=9,
                machine_size=12, policy="exclusive", share=12,
                config=fast_config, workers=workers,
            )
            out = tmp_path / f"replay_w{workers}.jsonl"
            result.write_jsonl(out)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_replaying_the_same_trace_twice_is_identical(self, fast_config):
        trace = synthesize_trace(
            "wide_bushy", rate=0.8, duration=30.0, seed=4
        )
        runs = [
            api.run_cluster(
                trace=trace, shards=2, seed=4, machine_size=12,
                policy="exclusive", share=12, config=fast_config,
            ).rows()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestAggregation:
    def run(self, fast_config, **overrides):
        options = dict(
            rate=0.5, duration=30.0, seed=3, shards=3,
            machine_size=12, policy="exclusive", share=12,
            config=fast_config,
        )
        options.update(overrides)
        return api.run_cluster("wide_bushy", **options)

    def test_rows_tag_their_shard(self, fast_config):
        result = self.run(fast_config)
        shards = {row["shard"] for row in result.rows()}
        assert shards <= {0, 1, 2} and len(shards) > 1

    def test_counts_sum_over_shards(self, fast_config):
        result = self.run(fast_config)
        assert result.submitted_count() == sum(
            len(report.rows) for report in result.shards
        )
        assert result.machine_size() == 36
        assert result.makespan == max(
            report.makespan for report in result.shards
        )

    def test_latency_stats_cover_all_shards(self, fast_config):
        result = self.run(fast_config)
        merged = result.latency_stats()
        assert merged["p50"] is not None
        per_shard = [
            result.latency_stats(shard=report.shard)["p50"]
            for report in result.shards
        ]
        assert min(p for p in per_shard if p is not None) <= merged["p50"]

    def test_trace_and_closed_are_exclusive(self, fast_config):
        trace = synthesize_trace("wide_bushy", rate=0.5, duration=10.0, seed=1)
        with pytest.raises(ValueError):
            api.run_cluster(
                trace=trace, arrivals="closed", clients=2,
                config=fast_config,
            )


class TestClosedLoopShards:
    def test_zero_clients_is_rejected_like_run_workload(self, fast_config):
        with pytest.raises(ValueError, match="need at least one client"):
            api.run_workload(arrivals="closed", clients=0, config=fast_config)
        with pytest.raises(ValueError, match="need at least one client"):
            api.run_cluster(arrivals="closed", clients=0, config=fast_config)

    def test_idle_shards_still_report(self, fast_config):
        result = api.run_cluster(
            "wide_bushy", arrivals="closed", clients=1, shards=3,
            queries_per_client=2, machine_size=12, share=12,
            cardinality=300, config=fast_config,
        )
        assert len(result.shards) == 3
        assert [report.shard for report in result.shards] == [0, 1, 2]
        assert result.machine_size() == 36
        assert result.summary().startswith("cluster 3x12p")
        assert len(result.per_shard()) == 3
        assert result.completed_count() == 2
        for shard in (1, 2):
            assert result.shards[shard].rows == []
            assert result.shards[shard].makespan == 0.0
            assert set(result.latency_stats(shard=shard).values()) == {None}


class TestShardSeeds:
    def test_shard_zero_keeps_the_caller_seed(self):
        assert shard_seed(7, 0) == 7

    def test_other_shards_stride(self):
        assert shard_seed(7, 2) == 7 + 2 * SHARD_SEED_STRIDE
        assert len({shard_seed(7, s) for s in range(16)}) == 16


class TestSplitClients:
    def test_round_robin_split(self):
        assert split_clients(7, 3) == [3, 2, 2]
        assert sum(split_clients(10, 4)) == 10
        assert split_clients(2, 4) == [1, 1, 0, 0]


class TestTraceFromFile:
    def test_run_cluster_reads_a_trace_path(self, fast_config, tmp_path):
        trace = synthesize_trace("wide_bushy", rate=0.5, duration=20.0, seed=6)
        path = trace.write(tmp_path / "trace.json")
        from_path = api.run_cluster(
            trace=path, shards=2, seed=6, machine_size=12,
            policy="exclusive", share=12, config=fast_config,
        )
        in_memory = api.run_cluster(
            trace=trace, shards=2, seed=6, machine_size=12,
            policy="exclusive", share=12, config=fast_config,
        )
        assert from_path.rows() == in_memory.rows()


class TestTraceRecording:
    def test_from_workload_replays_identically(self, fast_config):
        """Recording a run's arrivals and replaying the trace through a
        1-shard static cluster reproduces the run."""
        knobs = dict(
            arrivals="poisson", rate=0.5, duration=30.0, seed=5,
            machine_size=12, policy="exclusive", share=12,
            strategy="FP", cardinality=1_000, config=fast_config,
        )
        original = api.run_workload("wide_bushy", **knobs)
        trace = Trace.from_workload(original, seed=5)
        replayed = api.run_cluster(
            trace=trace, shards=1, seed=5, machine_size=12,
            policy="exclusive", share=12, config=fast_config,
        )
        assert replayed.rows() == original.rows()
