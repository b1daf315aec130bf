"""Latency-versus-load curves and the saturation knee.

The closed-loop acceptance property lives here: past the knee, p95
latency never goes back down — queueing only ever gets worse.
"""

import pytest

from repro.workload import (
    ExclusivePolicy,
    LoadPoint,
    QueryMix,
    QuerySpec,
    WorkloadEngine,
    closed_loop_curve,
    curve_knee,
    open_loop_curve,
)

MIX = QueryMix.single(QuerySpec("wide_bushy", 200, "SE", 4))


@pytest.fixture(scope="module")
def closed_points(fast_config):
    return closed_loop_curve(
        [1, 2, 4, 8, 16],
        MIX,
        lambda: WorkloadEngine(8, ExclusivePolicy(), config=fast_config),
        queries_per_client=3,
        seed=0,
    )


class TestClosedLoopCurve:
    def test_one_point_per_population(self, closed_points):
        assert [p.load for p in closed_points] == [1, 2, 4, 8, 16]
        assert all(p.completed == p.load * 3 for p in closed_points)

    def test_machine_saturates(self, closed_points):
        """Whole-machine exclusive allocation serializes everything, so
        piling on clients must find the knee."""
        assert curve_knee(closed_points) is not None

    def test_p95_monotone_past_the_knee(self, closed_points):
        """Past saturation the latency curve only climbs: p95 is
        non-decreasing from the knee onward."""
        knee = curve_knee(closed_points)
        tail = [p.latency_p95 for p in closed_points if p.load >= knee]
        assert len(tail) >= 2
        for before, after in zip(tail, tail[1:]):
            assert after >= before

    def test_utilization_bounded(self, closed_points):
        assert all(0.0 < p.utilization <= 1.0 for p in closed_points)


class TestOpenLoopCurve:
    def test_throughput_tracks_offered_load_until_saturation(
        self, fast_config
    ):
        points = open_loop_curve(
            [0.02, 0.05],
            MIX,
            lambda: WorkloadEngine(8, ExclusivePolicy(4), config=fast_config),
            duration=200,
            seed=3,
        )
        assert len(points) == 2
        assert points[1].throughput > points[0].throughput
        for point in points:
            assert point.rejected == 0
            assert point.throughput == pytest.approx(
                point.completed / point.makespan
            )


class TestLoadPoint:
    def test_row_round_trips_the_fields(self, closed_points):
        row = closed_points[0].row()
        assert row["load"] == closed_points[0].load
        assert set(row) == {
            "load", "throughput", "utilization", "latency_mean",
            "latency_p50", "latency_p95", "latency_p99",
            "queue_delay_mean", "completed", "rejected", "makespan",
        }
        assert type(closed_points[0])(**row) == closed_points[0]

    def test_of_copies_the_stats(self, fast_config):
        engine = WorkloadEngine(8, config=fast_config)
        result = engine.run_open([(0.0, MIX.specs[0])])
        point = LoadPoint.of(1.0, result)
        assert point.latency_mean == result.latency_stats()["mean"]
        assert point.completed == 1
