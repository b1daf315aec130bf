"""Pluggable schedulers: policy ordering, the visibility pool,
costed decisions, and byte-identity of ``fifo`` with the legacy queue."""

import pytest

from repro.workload import (
    EdfScheduler,
    ExclusivePolicy,
    FifoScheduler,
    PriorityScheduler,
    QuerySpec,
    SjfScheduler,
    WfqScheduler,
    WorkloadEngine,
    make_scheduler,
)
from repro.workload.metrics import QueryRecord

SMALL = QuerySpec("wide_bushy", 200, "SE", 4)
BIG = QuerySpec("wide_bushy", 2_000, "SE", 4)


def small_engine(fast_config, **kwargs):
    return WorkloadEngine(8, config=fast_config, **kwargs)


def record(index, *, arrival=0.0, deadline=None, spec=SMALL, tenant=None):
    return QueryRecord(
        index=index, spec=spec, arrival=arrival, deadline=deadline,
        tenant=tenant,
    )


class TestSchedulerUnits:
    def test_make_scheduler_names(self):
        assert make_scheduler(None) is None
        assert isinstance(make_scheduler("fifo"), FifoScheduler)
        assert isinstance(make_scheduler("edf"), EdfScheduler)
        assert isinstance(make_scheduler("sjf"), SjfScheduler)
        assert isinstance(make_scheduler("priority"), PriorityScheduler)
        assert isinstance(make_scheduler("wfq"), WfqScheduler)
        ready = EdfScheduler()
        assert make_scheduler(ready) is ready

    def test_make_scheduler_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("lifo")

    def test_empty_pool_picks_none(self):
        scheduler = EdfScheduler()
        scheduler.attach(None)
        assert scheduler.pick([], None, 0.0) is None

    def test_fifo_keeps_enqueue_order(self):
        scheduler = FifoScheduler()
        scheduler.attach(None)
        first, second = record(0), record(1)
        assert scheduler.pick([first, second], None, 0.0) is first

    def test_edf_prefers_earliest_absolute_deadline(self):
        scheduler = EdfScheduler()
        scheduler.attach(None)
        late = record(0, arrival=0.0, deadline=100.0)
        urgent = record(1, arrival=5.0, deadline=20.0)
        free = record(2)  # deadline-free ranks last
        assert scheduler.pick([free, late, urgent], None, 0.0) is urgent

    def test_edf_ties_resolve_to_enqueue_order(self):
        scheduler = EdfScheduler()
        scheduler.attach(None)
        first = record(0, deadline=50.0)
        second = record(1, deadline=50.0)
        assert scheduler.pick([first, second], None, 0.0) is first

    def test_pool_size_bounds_visibility(self):
        scheduler = EdfScheduler()
        scheduler.attach(None, pool_size=2)
        hidden_urgent = record(2, deadline=1.0)
        visible = [record(0, deadline=90.0), record(1, deadline=80.0)]
        queue = visible + [hidden_urgent]
        assert scheduler.pick(queue, None, 0.0) is visible[1]

    def test_attach_rejects_bad_pool_size(self):
        with pytest.raises(ValueError, match="pool_size"):
            EdfScheduler().attach(None, pool_size=0)


class TestEngineValidation:
    def test_pool_size_needs_a_scheduler(self, fast_config):
        with pytest.raises(ValueError, match="pool_size needs a scheduler"):
            small_engine(fast_config, pool_size=4)

    def test_scheduling_cost_needs_a_scheduler(self, fast_config):
        with pytest.raises(
            ValueError, match="scheduling_cost needs a scheduler"
        ):
            small_engine(fast_config, scheduling_cost=0.1)

    def test_negative_scheduling_cost_rejected(self, fast_config):
        with pytest.raises(ValueError, match="non-negative"):
            small_engine(
                fast_config, scheduler="fifo", scheduling_cost=-1.0
            )


class TestFifoIdentity:
    """``scheduler="fifo"`` is the legacy queue with a name: same rows,
    same floats, same order."""

    ARRIVALS = [(0.0, SMALL), (0.0, BIG), (0.1, SMALL), (2.0, SMALL)]

    def test_rows_identical_to_legacy(self, fast_config):
        legacy = small_engine(fast_config).run_open(self.ARRIVALS)
        named = small_engine(fast_config, scheduler="fifo").run_open(
            self.ARRIVALS
        )
        legacy_rows = legacy.rows()
        named_rows = named.rows()
        assert legacy_rows == named_rows
        assert legacy.makespan == named.makespan
        assert named.scheduler == "fifo"
        assert legacy.scheduler is None

    def test_rows_identical_under_deadlines(self, fast_config):
        legacy = small_engine(fast_config, deadline=1.5).run_open(
            self.ARRIVALS
        )
        named = small_engine(
            fast_config, deadline=1.5, scheduler="fifo"
        ).run_open(self.ARRIVALS)
        assert legacy.rows() == named.rows()


class TestPolicyOrdering:
    """End-to-end ordering on a serialized (whole-machine) engine: the
    first query admits immediately, the rest queue, and the scheduler
    decides who goes next."""

    def test_edf_admits_most_urgent_first(self, fast_config):
        engine = small_engine(fast_config, scheduler="edf")
        relaxed = QuerySpec("wide_bushy", 200, "SE", 4, deadline=500.0)
        urgent = QuerySpec("wide_bushy", 200, "SE", 4, deadline=300.0)
        result = engine.run_open(
            [(0.0, SMALL), (0.0, relaxed), (0.0, urgent)]
        )
        running, second, third = result.records
        assert third.admitted < second.admitted
        assert len(result.completed()) == 3

    def test_sjf_admits_shortest_first(self, fast_config):
        engine = small_engine(fast_config, scheduler="sjf")
        result = engine.run_open([(0.0, BIG), (0.0, BIG), (0.0, SMALL)])
        _, queued_big, queued_small = result.records
        assert queued_small.admitted < queued_big.admitted
        assert len(result.completed()) == 3

    def test_pool_size_hides_the_better_candidate(self, fast_config):
        relaxed = QuerySpec("wide_bushy", 200, "SE", 4, deadline=500.0)
        urgent = QuerySpec("wide_bushy", 200, "SE", 4, deadline=300.0)
        arrivals = [(0.0, SMALL), (0.0, relaxed), (0.0, urgent)]
        blinkered = small_engine(
            fast_config, scheduler="edf", pool_size=1
        ).run_open(arrivals)
        _, second, third = blinkered.records
        # With only the queue head visible, EDF degenerates to FIFO and
        # the urgent query waits its turn.
        assert second.admitted < third.admitted

    def test_wfq_is_deterministic(self, fast_config):
        arrivals = [
            (0.0, SMALL), (0.0, BIG), (0.2, SMALL), (0.2, BIG),
            (1.0, SMALL),
        ]
        first = small_engine(fast_config, scheduler="wfq").run_open(arrivals)
        second = small_engine(fast_config, scheduler="wfq").run_open(arrivals)
        assert first.rows() == second.rows()
        assert first.makespan == second.makespan


class TestCostedDecisions:
    COST = 0.05

    def test_makespan_grows_by_decisions_times_cost(self, fast_config):
        """Serialized machine: every admission is preceded by exactly
        one costed decision, so the makespan grows by exactly
        ``decisions x cost``."""
        arrivals = [(0.0, SMALL)] * 3
        base = small_engine(fast_config, scheduler="fifo").run_open(arrivals)
        costed = small_engine(
            fast_config, scheduler="fifo", scheduling_cost=self.COST
        ).run_open(arrivals)
        assert costed.scheduling_decisions == 3
        assert costed.makespan == pytest.approx(
            base.makespan + 3 * self.COST
        )
        assert len(costed.completed()) == 3

    def test_zero_cost_counts_decisions_synchronously(self, fast_config):
        result = small_engine(fast_config, scheduler="fifo").run_open(
            [(0.0, SMALL)] * 3
        )
        assert result.scheduling_decisions == 3

    def test_legacy_path_never_counts(self, fast_config):
        result = small_engine(fast_config).run_open([(0.0, SMALL)] * 3)
        assert result.scheduling_decisions == 0
        assert result.scheduler is None


class TestExpiredPicks:
    def test_all_queued_expired_sheds_everything(self, fast_config):
        """White-box: every queued query's deadline has already passed
        when the pump runs — each pick sheds one as ``expired`` and the
        queue drains without an admission."""
        engine = small_engine(fast_config, scheduler="edf")
        stale = [
            record(index, arrival=0.0, deadline=5.0) for index in range(3)
        ]
        for entry in stale:
            engine.records.append(entry)
            engine._enqueue(entry)
        engine.machine.clock.now = 10.0
        engine._pump()
        assert not engine._queue
        assert all(entry.shed == "expired" for entry in stale)
        assert all(entry.deadline_missed for entry in stale)
        assert engine.scheduling_decisions == 3
        assert engine.peak_in_flight == 0


class TestEngineQueue:
    def test_remove_queued_is_by_identity(self, fast_config):
        """The engine's queue is the only queue: removal scans it by
        identity (records equal by value stay distinct) and a pick
        sees what remains."""
        engine = small_engine(fast_config, scheduler="fifo")
        twin_a = record(0)
        twin_b = record(0)  # equal by value, distinct by identity
        engine._enqueue(twin_a)
        engine._enqueue(twin_b)
        assert engine._remove_queued(twin_b)
        assert len(engine._queue) == 1
        assert engine._queue[0] is twin_a
        assert engine.scheduler.pick(engine._queue, None, 0.0) is twin_a
        assert not engine._remove_queued(twin_b)


class TestFairnessPoint:
    def test_row_round_trips_the_point(self, fast_config):
        from repro.workload import fairness_sweep

        points = fairness_sweep(
            schedulers=("wfq",),
            abuse_factors=(2.0,),
            good_rate=0.1,
            deadline=30.0,
            duration=20.0,
            machine_size=8,
            seed=3,
            strategy="SE",
            cardinality=200,
            config=fast_config,
        )
        assert sorted(p.tenant for p in points) == ["abuse", "good"]
        for point in points:
            assert list(point.row())[:3] == ["scheduler", "abuse_factor", "tenant"]
            assert type(point)(**point.row()) == point
