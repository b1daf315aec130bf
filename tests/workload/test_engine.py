"""The shared-machine engine: golden equivalence with the single-query
simulation, admission gates, determinism, and the closed loop."""

import pytest

from repro.api import run
from repro.workload import (
    AllocationPolicy,
    ExclusivePolicy,
    QueryMix,
    QuerySpec,
    RoundRobinPolicy,
    WorkloadEngine,
)
from repro.workload.engine import REJECTED_RETRY_DELAY

SMALL = QuerySpec("wide_bushy", 200, "SE", 4)


def small_engine(fast_config, **kwargs):
    return WorkloadEngine(8, config=fast_config, **kwargs)


class TestGoldenEquivalence:
    """A one-query workload with an exclusive whole-machine allocation
    IS the paper's single-query regime: the hosted simulation must
    reproduce ``repro.api.run(..., "sim")`` exactly, bit for bit."""

    def test_single_query_reproduces_the_simulation(self):
        single = run("wide_bushy", "FP", 40, "sim")
        engine = WorkloadEngine(40, ExclusivePolicy())
        result = engine.run_open([(0.0, QuerySpec("wide_bushy", 5_000, "FP"))])
        record = result.records[0]
        assert record.service_time == single.response_time
        assert record.result.response_time == single.response_time
        assert record.result.busy_time() == single.busy_time()
        assert record.result.result_tuples == single.result_tuples

    def test_late_arrival_same_service_time(self, fast_config):
        """Start-time translation: a query admitted at t>0 takes exactly
        as long as the same query at t=0."""
        single = run(SMALL.tree(), "SE", 8, "sim",
                     cardinality=200, config=fast_config)
        engine = small_engine(fast_config)
        result = engine.run_open([(123.5, SMALL)])
        assert result.records[0].service_time == pytest.approx(
            single.response_time, abs=1e-9
        )


class TestAdmission:
    def test_exclusive_whole_machine_serializes(self, fast_config):
        engine = small_engine(fast_config)
        result = engine.run_open([(0.0, SMALL), (0.0, SMALL)])
        first, second = result.records
        assert result.peak_in_flight == 1
        assert second.admitted == first.completed
        assert second.queue_delay > 0

    def test_partitions_overlap(self, fast_config):
        engine = small_engine(fast_config, policy=ExclusivePolicy(4))
        result = engine.run_open([(0.0, SMALL), (0.0, SMALL)])
        assert result.peak_in_flight == 2
        assert result.records[1].queue_delay == 0
        assert result.records[0].processors == (0, 1, 2, 3)
        assert result.records[1].processors == (4, 5, 6, 7)

    def test_max_concurrent_bounds_in_flight(self, fast_config):
        engine = small_engine(
            fast_config, policy=RoundRobinPolicy(2), max_concurrent=2
        )
        result = engine.run_open([(0.0, SMALL)] * 6)
        assert result.peak_in_flight == 2
        assert len(result.completed()) == 6

    def test_queue_limit_rejects_the_overflow(self, fast_config):
        engine = small_engine(fast_config, queue_limit=1)
        result = engine.run_open([(0.0, SMALL), (0.0, SMALL), (0.0, SMALL)])
        assert result.rejected_count() == 1
        assert result.records[2].rejected
        assert result.records[2].completed is None
        assert len(result.completed()) == 2

    def test_memory_budget_throttles_concurrency(self, fast_config):
        open_loop = [(0.0, SMALL), (0.0, SMALL)]
        free = small_engine(fast_config, policy=ExclusivePolicy(4))
        gated = small_engine(
            fast_config, policy=ExclusivePolicy(4), memory_budget_bytes=1.0
        )
        assert free.run_open(open_loop).peak_in_flight == 2
        result = gated.run_open(open_loop)
        # The budget is below even one query's demand: each still runs
        # (the gate never starves), but strictly one at a time.
        assert result.peak_in_flight == 1
        assert len(result.completed()) == 2

    def test_infeasible_query_is_rejected_not_fatal(self, fast_config):
        """An FP query on a 1-processor share can never run; it must be
        shed as a rejection, not abort the whole workload mid-simulation
        (regression: the feasibility check used to raise out of the
        event loop)."""
        feasible = QuerySpec("wide_bushy", 200, "SE", 4)
        infeasible = QuerySpec("wide_bushy", 200, "FP", 4)
        engine = small_engine(fast_config, policy=RoundRobinPolicy(1))
        result = engine.run_open([(0.0, feasible), (0.0, infeasible)])
        assert len(result.completed()) == 1
        bad = result.records[1]
        assert bad.rejected
        assert bad.completed is None
        assert "FP" in bad.error

    def test_stuck_queue_is_an_error(self, fast_config):
        class NeverPolicy(AllocationPolicy):
            name = "never"

            def allocate(self, spec, tree, catalog, machine, cost_model):
                return None

        engine = small_engine(fast_config, policy=NeverPolicy())
        with pytest.raises(RuntimeError, match="still queued"):
            engine.run_open([(0.0, SMALL)])

    def test_engines_are_single_use(self, fast_config):
        engine = small_engine(fast_config)
        engine.run_open([(0.0, SMALL)])
        with pytest.raises(RuntimeError, match="fresh"):
            engine.run_open([(0.0, SMALL)])


class TestDeterminism:
    def test_jsonl_byte_identical_across_runs(self, fast_config, tmp_path):
        def run_once(path):
            mix = QueryMix.paper(
                cardinalities=(200,), strategies=("SP", "SE"), relations=4
            )
            from repro.workload import make_arrivals, sample_specs

            times = make_arrivals("poisson", 0.4, 60, seed=1)
            specs = sample_specs(mix, len(times), seed=1)
            engine = small_engine(fast_config, policy=ExclusivePolicy(4))
            engine.run_open(list(zip(times, specs))).write_jsonl(path)
            return path.read_bytes()

        assert run_once(tmp_path / "a.jsonl") == run_once(tmp_path / "b.jsonl")


class TestClosedLoop:
    def test_think_time_separates_a_client_s_queries(self, fast_config):
        mix = QueryMix.single(SMALL)
        engine = small_engine(fast_config)
        result = engine.run_closed(
            mix, 1, think_time=5.0, queries_per_client=3, seed=0
        )
        assert len(result.records) == 3
        for before, after in zip(result.records, result.records[1:]):
            assert after.arrival == pytest.approx(before.completed + 5.0)

    def test_duration_horizon_stops_submission(self, fast_config):
        mix = QueryMix.single(SMALL)
        engine = small_engine(fast_config)
        result = engine.run_closed(mix, 2, duration=10.0, seed=0)
        assert all(r.arrival < 10.0 for r in result.records)
        assert all(r.completed is not None for r in result.records)

    def test_rejection_does_not_stall_the_client(self, fast_config):
        """A closed-loop client whose query is bounced keeps going —
        rejection feeds the think-time continuation too."""
        mix = QueryMix.single(SMALL)
        engine = small_engine(fast_config, queue_limit=0)
        result = engine.run_closed(
            mix, 4, queries_per_client=2, seed=0
        )
        assert len(result.records) == 8
        assert result.rejected_count() > 0

    def test_rejecting_loop_with_zero_think_time_terminates(
        self, fast_config
    ):
        """Regression (livelock): queue_limit + think_time=0 used to
        resubmit a bounced query at the same simulated instant, be
        bounced again, and spin forever without advancing the clock.
        Rejected retries now wait a positive minimum delay, so the
        duration horizon is always reached."""
        mix = QueryMix.single(SMALL)
        engine = small_engine(fast_config, queue_limit=0)
        result = engine.run_closed(mix, 3, duration=10.0, seed=0)
        assert result.rejected_count() > 0
        assert all(r.arrival < 10.0 for r in result.records)
        assert result.makespan >= 10.0 - REJECTED_RETRY_DELAY

    def test_rejected_retry_waits_the_minimum_delay(self, fast_config):
        """A think_time=0 client's retry after a rejection lands
        strictly later in simulated time."""
        mix = QueryMix.single(SMALL)
        engine = small_engine(fast_config, queue_limit=0)
        result = engine.run_closed(mix, 2, queries_per_client=2, seed=0)
        by_client = {}
        for r in result.records:
            by_client.setdefault(r.client, []).append(r)
        for records in by_client.values():
            for before, after in zip(records, records[1:]):
                if before.rejected:
                    assert (
                        after.arrival
                        >= before.arrival + REJECTED_RETRY_DELAY - 1e-12
                    )

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"clients": 0, "queries_per_client": 1}, "client"),
            ({"clients": 1}, "stop"),
            ({"clients": 1, "queries_per_client": 0}, "positive"),
            ({"clients": 1, "queries_per_client": 1, "think_time": -1.0},
             "think_time"),
        ],
    )
    def test_validation(self, fast_config, kwargs, match):
        clients = kwargs.pop("clients")
        with pytest.raises(ValueError, match=match):
            small_engine(fast_config).run_closed(
                QueryMix.single(SMALL), clients, **kwargs
            )


class TestEngineValidation:
    def test_negative_memory_budget_rejected(self):
        """It used to pass silently: every query "exceeded" it, so each
        one ran alone."""
        from repro.api import run_workload

        with pytest.raises(ValueError, match="memory_budget_bytes must be non-negative"):
            run_workload(
                memory_budget_bytes=-1.0, policy="guideline", machine_size=80,
                rate=1.0, duration=30, seed=1,
            )

    def test_gate_arguments(self, fast_config):
        with pytest.raises(ValueError):
            WorkloadEngine(8, config=fast_config, max_concurrent=0)
        with pytest.raises(ValueError):
            WorkloadEngine(8, config=fast_config, queue_limit=-1)
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            WorkloadEngine(8, config=fast_config, memory_budget_bytes=-1.0)
        with pytest.raises(ValueError):
            WorkloadEngine(0, config=fast_config)
