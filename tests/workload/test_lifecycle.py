"""Request lifecycle: deadlines, load shedding, cancellation, and the
livelock watchdog — on the shared-machine workload engine."""

import pytest

from repro import api
from repro.sim import WatchdogError
from repro.workload import (
    DeadlineAwarePolicy,
    DropNewestPolicy,
    DropOldestPolicy,
    OverloadPoint,
    QueryMix,
    QuerySpec,
    SHED_POLICY_NAMES,
    WorkloadEngine,
    make_shed_policy,
    overload_sweep,
)

SMALL = QuerySpec("wide_bushy", 200, "SE", 4)


def small_engine(fast_config, **kwargs):
    return WorkloadEngine(8, config=fast_config, **kwargs)


def burst(n, spacing=0.0):
    return [(index * spacing, SMALL) for index in range(n)]


class TestDeadlineIdentity:
    """deadline=None and a deadline every query beats must be
    bit-for-bit invisible: same rows, same makespan."""

    def test_none_and_generous_deadline_rows_identical(self, fast_config):
        arrivals = burst(6, spacing=2.0)
        plain = small_engine(fast_config).run_open(arrivals)
        explicit = small_engine(fast_config, deadline=None).run_open(arrivals)
        generous = small_engine(fast_config, deadline=1e9).run_open(arrivals)
        assert explicit.rows() == plain.rows()
        assert generous.rows() == plain.rows()
        assert generous.makespan == plain.makespan
        assert generous.goodput() == plain.throughput()

    def test_row_omits_the_deadline_value(self, fast_config):
        """The deadline is configuration (like queue_limit), not an
        outcome — it must not appear in the emitted JSONL."""
        result = small_engine(fast_config, deadline=1e9).run_open(burst(1))
        row = result.records[0].row()
        assert "deadline" not in row
        assert row["shed"] is None
        assert row["cancelled"] is False
        assert row["deadline_missed"] is False


class TestDeadlineEnforcement:
    def test_running_query_aborted_at_deadline(self, fast_config):
        baseline = small_engine(fast_config).run_open(burst(1))
        service = baseline.records[0].service_time
        engine = small_engine(fast_config, deadline=service / 2)
        record = engine.run_open(burst(1)).records[0]
        assert record.failed
        assert record.deadline_missed
        assert record.shed is None
        assert record.completed is None
        assert "deadline" in record.error
        assert record.wasted_seconds > 0
        # ``aborts`` tracks crash-retry attempts only; a deadline abort
        # is terminal, not retried.
        assert record.aborts == []

    def test_queued_query_expires_at_deadline(self, fast_config):
        """Exclusive whole machine: the second query sits queued past
        its deadline and is expired, never admitted."""
        baseline = small_engine(fast_config).run_open(burst(1))
        service = baseline.records[0].service_time
        engine = small_engine(fast_config, deadline=service / 2)
        result = engine.run_open([(0.0, SMALL), (0.0, SMALL)])
        second = result.records[1]
        assert second.shed == "expired"
        assert second.deadline_missed
        assert second.admitted is None
        assert second.wasted_seconds == 0
        assert result.expired_count() == 1
        # Both missed: one aborted mid-run, one expired in the queue.
        assert result.deadline_missed_count() == 2
        assert result.deadline_aborted_count() == 1
        assert result.goodput() == 0.0

    def test_spec_deadline_overrides_engine_default(self, fast_config):
        tight = QuerySpec("wide_bushy", 200, "SE", 4, deadline=0.001)
        engine = small_engine(fast_config, deadline=1e9)
        result = engine.run_open([(0.0, SMALL), (5_000.0, tight)])
        assert result.records[0].completed is not None
        assert result.records[1].deadline_missed

    def test_deadline_range_is_deterministic_per_seed(self, fast_config):
        def run(seed):
            engine = small_engine(
                fast_config, deadline=(0.5, 500.0), deadline_seed=seed
            )
            return engine.run_open(burst(8, spacing=1.0))

        first, second = run(3), run(3)
        assert first.rows() == second.rows()
        assert [r.deadline for r in first.records] == [
            r.deadline for r in second.records
        ]
        other = run(4)
        assert [r.deadline for r in other.records] != [
            r.deadline for r in first.records
        ]

    def test_closed_loop_with_deadline_terminates(self, fast_config):
        engine = small_engine(fast_config, deadline=1.0)
        mix = QueryMix.single(SMALL)
        result = engine.run_closed(mix, 2, queries_per_client=3, seed=1)
        assert len(result.records) == 6
        assert all(
            r.completed is not None or r.deadline_missed
            for r in result.records
        )

    def test_validation(self, fast_config):
        with pytest.raises(ValueError, match="deadline"):
            small_engine(fast_config, deadline=0.0)
        with pytest.raises(ValueError, match="deadline"):
            small_engine(fast_config, deadline=-2.0)
        with pytest.raises(ValueError, match="lo <= hi"):
            small_engine(fast_config, deadline=(3.0, 1.0))
        with pytest.raises(ValueError, match="lo <= hi"):
            small_engine(fast_config, deadline=(0.0, 1.0))


class TestShedPolicies:
    def test_make_shed_policy(self):
        assert make_shed_policy(None) is None
        assert isinstance(make_shed_policy("drop_newest"), DropNewestPolicy)
        assert isinstance(make_shed_policy("drop_oldest"), DropOldestPolicy)
        assert isinstance(
            make_shed_policy("deadline_aware"), DeadlineAwarePolicy
        )
        policy = DropOldestPolicy()
        assert make_shed_policy(policy) is policy
        with pytest.raises(ValueError, match="drop_newest"):
            make_shed_policy("drop_oldish")
        assert set(SHED_POLICY_NAMES) == {
            "drop_newest", "drop_oldest", "deadline_aware"
        }

    def test_drop_newest_is_a_strict_noop(self, fast_config):
        """Explicit drop_newest IS the bare queue_limit bounce — one
        code path, bit-for-bit identical rows."""
        arrivals = burst(6)
        plain = small_engine(fast_config, queue_limit=1).run_open(arrivals)
        explicit = small_engine(
            fast_config, queue_limit=1, shed="drop_newest"
        ).run_open(arrivals)
        assert explicit.rows() == plain.rows()
        assert plain.shed_counts() == {"drop_newest": 4}

    def test_drop_oldest_evicts_the_queue_head(self, fast_config):
        engine = small_engine(fast_config, queue_limit=1, shed="drop_oldest")
        result = engine.run_open(burst(3))
        first, second, third = result.records
        # First runs; second queues; the third arrival evicts it.
        assert second.shed == "drop_oldest"
        assert second.rejected
        assert third.completed is not None
        assert result.shed_counts() == {"drop_oldest": 1}

    def test_deadline_aware_sheds_doomed_arrivals(self, fast_config):
        baseline = small_engine(fast_config).run_open(burst(1))
        service = baseline.records[0].service_time
        deadline = 1.5 * service
        admit_all = small_engine(fast_config, deadline=deadline)
        collapsed = admit_all.run_open(burst(8))
        aware = small_engine(
            fast_config, deadline=deadline, shed="deadline_aware"
        ).run_open(burst(8))
        # Without shedding every queued query blows its deadline.
        assert collapsed.deadline_missed_count() > 0
        # Predictive admission sheds the doomed ones up front instead.
        assert aware.shed_counts().get("deadline_aware", 0) > 0
        shed = [r for r in aware.records if r.shed == "deadline_aware"]
        assert all(r.admitted is None for r in shed)
        assert all("shed at admission" in r.error for r in shed)
        assert aware.deadline_miss_rate() in (None, 0.0)
        assert aware.goodput() >= collapsed.goodput()

    def test_deadline_aware_without_deadlines_admits_everything(
        self, fast_config
    ):
        """No deadline → nothing is doomed → the policy never sheds."""
        arrivals = burst(5)
        plain = small_engine(fast_config).run_open(arrivals)
        aware = small_engine(fast_config, shed="deadline_aware").run_open(
            arrivals
        )
        assert aware.rows() == plain.rows()


class TestCancellation:
    def test_cancel_queued_query(self, fast_config):
        engine = small_engine(fast_config)
        engine.cancel_at(0.01, 1, "caller changed its mind")
        result = engine.run_open(burst(2))
        second = result.records[1]
        assert second.cancelled
        assert second.admitted is None
        assert second.error == "caller changed its mind"
        assert result.cancelled_count() == 1
        # The machine is not left wedged: the first query completed.
        assert result.records[0].completed is not None

    def test_cancel_active_query_unwinds_the_simulation(self, fast_config):
        baseline = small_engine(fast_config).run_open(burst(1))
        service = baseline.records[0].service_time
        engine = small_engine(fast_config)
        engine.cancel_at(service / 2, 0)
        result = engine.run_open(burst(2))
        first, second = result.records
        assert first.cancelled
        assert first.completed is None
        assert first.wasted_seconds > 0
        # Its slot was released: the second query still completes.
        assert second.completed is not None
        assert result.makespan == pytest.approx(service / 2 + service)

    def test_cancel_terminal_is_a_false_noop(self, fast_config):
        engine = small_engine(fast_config)
        result = engine.run_open(burst(1))
        assert result.records[0].completed is not None
        assert engine.cancel(0) is False
        assert not engine.records[0].cancelled

    def test_cancel_out_of_range_index_is_ignored(self, fast_config):
        engine = small_engine(fast_config)
        engine.cancel_at(0.5, 99)
        result = engine.run_open(burst(1))
        assert result.records[0].completed is not None

    def test_cancelled_query_frees_its_deadline_event(self, fast_config):
        """Cancelling must disarm the pending deadline: the record may
        not be double-terminated when the deadline instant passes."""
        engine = small_engine(fast_config, deadline=1e9)
        engine.cancel_at(0.01, 0)
        result = engine.run_open(burst(1))
        record = result.records[0]
        assert record.cancelled
        assert not record.deadline_missed
        assert result.makespan < 1e9

    def test_api_run_workload_cancellations(self, fast_config):
        result = api.run_workload(
            "wide_bushy",
            arrivals="poisson",
            rate=0.05,
            duration=100.0,
            seed=3,
            machine_size=8,
            strategy="SE",
            cardinality=200,
            config=fast_config,
            cancellations=[(0.01, 0)],
        )
        assert result.records[0].cancelled
        assert result.cancelled_count() == 1


class TestWatchdogRegression:
    def test_zero_retry_delay_livelock_aborts_with_diagnostic(
        self, fast_config
    ):
        """The PR 2 livelock class: zero-think-time closed-loop clients
        bouncing off a full queue and resubmitting at the rejection
        instant.  With the retry-delay fix reverted, the watchdog must
        abort with an engine-state diagnostic instead of hanging."""
        engine = small_engine(
            fast_config, queue_limit=0, watchdog_limit=500
        )
        engine.rejected_retry_delay = 0.0  # revert the fix, in-test only
        mix = QueryMix.single(SMALL)
        with pytest.raises(WatchdogError) as excinfo:
            engine.run_closed(mix, 2, think_time=0.0, duration=50.0)
        message = str(excinfo.value)
        assert "livelock" in message
        assert "engine state at trip" in message
        assert "in flight" in message

    def _livelocked(self, fast_config, fast_path=False):
        """The pinned diagnostic is the classic loop's: a fast-pathed
        query 0 never dispatches its two release events, which shifts
        the trailing ring by two arrivals."""
        engine = small_engine(
            fast_config, queue_limit=0, watchdog_limit=500,
            fast_path=fast_path,
        )
        engine.rejected_retry_delay = 0.0  # revert the fix, in-test only
        with pytest.raises(WatchdogError) as excinfo:
            engine.run_closed(
                QueryMix.single(SMALL), 2, think_time=0.0, duration=50.0
            )
        return excinfo.value

    def test_zero_retry_delay_livelock_diagnostic_is_pinned(
        self, fast_config
    ):
        """The whole diagnostic, character for character, as the eager
        per-event formatter produced it before formatting moved to
        ``Watchdog.dump()``."""
        error = self._livelocked(fast_config)
        assert error.at == 0.0
        assert str(error).splitlines()[0] == (
            "simulation livelock: 501 events dispatched at simulated "
            "t=0.000000s without the clock advancing (a callback keeps "
            "rescheduling itself at the current instant)"
        )
        assert error.diagnostic == "\n".join(
            ["last 20 events before the watchdog tripped:"]
            + [
                "  t=0.000000s  WorkloadEngine._arrive"
                f"(QueryRecord(index={index}))"
                for index in range(479, 499)
            ]
            + [
                "engine state at trip: 0 queued [], 1 in flight [0], "
                "499 submitted"
            ]
        )

    def test_fast_path_livelock_trips_at_the_same_instant(self, fast_config):
        """The watchdog counts *dispatched* events and a fast-pathed
        epoch dispatches one, so the trip instant and message stand;
        only the trailing ring may differ."""
        error = self._livelocked(fast_config, fast_path=True)
        assert error.at == 0.0
        assert str(error).splitlines()[0] == (
            "simulation livelock: 501 events dispatched at simulated "
            "t=0.000000s without the clock advancing (a callback keeps "
            "rescheduling itself at the current instant)"
        )
        assert "1 in flight [0]" in error.diagnostic

    def test_events_are_described_only_when_the_dump_is_read(
        self, fast_config, monkeypatch
    ):
        """An armed, quiet watchdog formats nothing; a trip formats at
        most the ring it shows."""
        from repro.sim import watchdog

        calls = []
        describe = watchdog._describe

        def counting(fn, args):
            calls.append(fn)
            return describe(fn, args)

        monkeypatch.setattr(watchdog, "_describe", counting)
        result = api.run_workload(
            "paper",
            arrivals="poisson",
            rate=0.5,
            duration=20.0,
            seed=2,
            machine_size=40,
            policy="guideline",
            cardinality=300,
        )
        assert result.peak_in_flight > 1  # overlapped: the classic loop
        assert calls == []
        self._livelocked(fast_config)
        assert 0 < len(calls) <= watchdog.DEFAULT_TRACE_EVENTS

    def test_watchdog_can_be_disarmed(self, fast_config):
        engine = small_engine(fast_config, watchdog_limit=None)
        assert engine.machine.clock.watchdog is None
        result = engine.run_open(burst(2))
        assert len(result.completed()) == 2

    def test_armed_watchdog_leaves_results_identical(self, fast_config):
        arrivals = burst(4)
        armed = small_engine(fast_config).run_open(arrivals)
        disarmed = small_engine(fast_config, watchdog_limit=None).run_open(
            arrivals
        )
        assert armed.rows() == disarmed.rows()
        assert armed.makespan == disarmed.makespan


    def test_disarmed_and_armed_overlapped_runs_are_byte_identical(self):
        """Beyond a four-query burst: tenants, wfq, a deadline abort
        and a crash + restart, several queries in flight — the armed
        default and ``watchdog_limit=None`` must emit the same bytes."""
        import json

        from repro.faults import CrashFault, FaultSchedule

        def run(**watchdog):
            return api.run_workload(
                "paper",
                arrivals="poisson",
                rate=0.5,
                duration=30.0,
                seed=3,
                machine_size=48,
                policy="guideline",
                cardinality=300,
                scheduler="wfq",
                tenants=[
                    {"name": "a", "weight": 2, "rate": 0.3, "deadline": 8.3},
                    {"name": "b", "weight": 1, "rate": 0.2},
                ],
                faults=FaultSchedule(crashes=(CrashFault(3, 8.0, 13.0),)),
                recovery="restart",
                **watchdog,
            )

        armed, disarmed = run(), run(watchdog_limit=None)
        assert armed.peak_in_flight > 2
        assert any(r.deadline_missed for r in armed.records)
        assert any(r.aborts for r in armed.records)
        assert json.dumps(armed.rows()) == json.dumps(disarmed.rows())
        assert armed.makespan == disarmed.makespan


class TestLifecycleMetrics:
    def test_lifecycle_summary_keys(self, fast_config):
        result = small_engine(fast_config).run_open(burst(2))
        summary = result.lifecycle_summary()
        for key in ("shed", "expired", "cancelled", "deadline_missed",
                    "deadline_aborted", "miss_rate_completed", "goodput"):
            assert key in summary
        assert summary["shed"] == 0
        assert summary["miss_rate_completed"] is None
        assert summary["goodput"] == result.throughput()

    def test_miss_rate_counts_only_completed_queries(self, fast_config):
        """deadline_miss_rate is the service-quality lens: of the
        queries that *completed*, how many blew their bound.  Enforced
        deadlines abort instead, so the rate is 0, not None."""
        baseline = small_engine(fast_config).run_open(burst(1))
        service = baseline.records[0].service_time
        engine = small_engine(fast_config, deadline=2.0 * service)
        result = engine.run_open(burst(2))
        assert len(result.completed()) >= 1
        assert result.deadline_miss_rate() == 0.0

    def test_summary_mentions_lifecycle_activity(self, fast_config):
        engine = small_engine(fast_config, deadline=0.001)
        result = engine.run_open(burst(1))
        assert "lifecycle:" in result.summary()
        plain = small_engine(fast_config).run_open(burst(1))
        assert "lifecycle:" not in plain.summary()


class TestOverloadSweep:
    def test_sweep_grid_and_point_rows(self, fast_config):
        points = overload_sweep(
            strategies=("SE",),
            loads=(0.05, 0.2),
            sheds=(None, "deadline_aware"),
            deadline=30.0,
            duration=60.0,
            machine_size=8,
            seed=5,
            queue_limit=4,
            cardinality=200,
            config=fast_config,
        )
        assert len(points) == 4
        assert all(isinstance(p, OverloadPoint) for p in points)
        by_key = {(p.load, p.shed): p for p in points}
        assert set(by_key) == {
            (0.05, None), (0.05, "deadline_aware"),
            (0.2, None), (0.2, "deadline_aware"),
        }
        row = points[0].row()
        for key in ("strategy", "load", "shed", "offered", "completed",
                    "goodput", "miss_rate", "utilization"):
            assert key in row
