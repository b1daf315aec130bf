"""The no-advance livelock watchdog and cancellable clock events."""

import pytest

from repro.sim import SimulationClock, Watchdog, WatchdogError
from repro.sim.machine import Processor


def _noop():
    pass


def _respin(clock, *args):
    clock.at(clock.now, _respin, clock, *args)


class TestCancellableEvents:
    def test_cancelled_event_never_fires(self):
        clock = SimulationClock()
        fired = []
        handle = clock.at_cancellable(1.0, fired.append, "late")
        clock.at(0.5, fired.append, "early")
        handle.cancel()
        clock.run()
        assert fired == ["early"]

    def test_cancelled_event_leaves_no_trace(self):
        """A cancelled entry is skipped entirely: not counted, and the
        clock never advances to its time — the property deadline
        identity rests on."""
        plain = SimulationClock()
        plain.at(1.0, lambda: None)
        plain.run()

        cancelled = SimulationClock()
        cancelled.at(1.0, lambda: None)
        handle = cancelled.at_cancellable(50.0, lambda: None)
        handle.cancel()
        cancelled.run()

        assert cancelled.now == plain.now == 1.0
        assert cancelled.events_dispatched == plain.events_dispatched == 1

    def test_uncancelled_handle_fires_normally(self):
        clock = SimulationClock()
        fired = []
        clock.at_cancellable(2.0, fired.append, "x")
        clock.run()
        assert fired == ["x"]
        assert clock.now == 2.0

    def test_cannot_schedule_into_the_past(self):
        clock = SimulationClock()
        clock.at(1.0, lambda: None)
        clock.run()
        with pytest.raises(ValueError, match="past"):
            clock.at_cancellable(0.5, lambda: None)


class TestWatchdog:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Watchdog(max_events_per_instant=0)
        with pytest.raises(ValueError, match="positive"):
            Watchdog(trace_events=0)

    def test_trips_on_same_instant_flood(self):
        clock = SimulationClock()
        clock.watchdog = watchdog = Watchdog(max_events_per_instant=5)
        for _ in range(5):
            clock.at(1.0, _noop)
        clock.run()
        assert not watchdog.tripped
        clock.at(1.0, _noop)
        with pytest.raises(WatchdogError) as excinfo:
            clock.run()
        assert watchdog.tripped
        assert excinfo.value.at == 1.0
        assert "livelock" in str(excinfo.value)

    def test_advancing_time_resets_the_count(self):
        clock = SimulationClock()
        clock.watchdog = watchdog = Watchdog(max_events_per_instant=3)
        for step in range(100):
            for _ in range(3):
                clock.at(float(step), _noop)
        clock.run()
        assert clock.events_dispatched == 300
        assert not watchdog.tripped

    def test_diagnostic_names_the_spinning_callback(self):
        def spinning_callback():
            pass

        clock = SimulationClock()
        clock.watchdog = Watchdog(max_events_per_instant=2, trace_events=4)
        for _ in range(5):
            clock.at(2.5, spinning_callback)
        with pytest.raises(WatchdogError) as excinfo:
            clock.run()
        assert "spinning_callback" in excinfo.value.diagnostic
        assert "t=2.500000s" in excinfo.value.diagnostic

    def test_clock_integration_aborts_livelock(self):
        """A callback rescheduling itself at the current instant is the
        exact livelock class; the armed clock raises instead of
        spinning toward the 50M-event runaway guard."""
        clock = SimulationClock()
        clock.watchdog = Watchdog(max_events_per_instant=100)

        def respin():
            clock.at(clock.now, respin)

        clock.at(0.0, respin)
        with pytest.raises(WatchdogError):
            clock.run()
        assert clock.watchdog.tripped

    def test_armed_watchdog_is_invisible_when_quiet(self):
        """Pure observation: an armed watchdog that never trips changes
        nothing about the run."""
        def advance(clock, depth):
            if depth:
                clock.after(1.0, advance, clock, depth - 1)

        plain = SimulationClock()
        plain.at(0.0, advance, plain, 10)
        plain.run()

        armed = SimulationClock()
        armed.watchdog = Watchdog(max_events_per_instant=2)
        armed.at(0.0, advance, armed, 10)
        armed.run()

        assert armed.now == plain.now
        assert armed.events_dispatched == plain.events_dispatched
        assert not armed.watchdog.tripped

    def test_bare_clock_respin_diagnostic_is_pinned(self):
        """The full message, character for character, as the eager
        per-event formatter produced it before formatting moved to
        ``dump()``: callback qualname, the first three arguments
        summarised by type (and ``index``/``name``/``ident`` when they
        carry one), ``...`` for the rest."""
        clock = SimulationClock()
        clock.watchdog = Watchdog(max_events_per_instant=2, trace_events=4)
        clock.at(0.25, _noop)
        clock.at(1.5, _respin, clock, Processor(3), "x", 7)
        with pytest.raises(WatchdogError) as excinfo:
            clock.run()
        assert excinfo.value.at == 1.5
        assert str(excinfo.value) == (
            "simulation livelock: 3 events dispatched at simulated "
            "t=1.500000s without the clock advancing (a callback keeps "
            "rescheduling itself at the current instant)\n"
            "last 4 events before the watchdog tripped:\n"
            "  t=0.250000s  _noop()\n"
            "  t=1.500000s  _respin(SimulationClock, Processor(ident=3), str, ...)\n"
            "  t=1.500000s  _respin(SimulationClock, Processor(ident=3), str, ...)\n"
            "  t=1.500000s  _respin(SimulationClock, Processor(ident=3), str, ...)"
        )
        assert excinfo.value.diagnostic == clock.watchdog.dump()

    def test_same_instant_count_carries_across_run_calls(self):
        """The engine drains its clock more than once (stranded-queue
        shedding re-runs it); a livelock split over two ``run`` calls
        is still one instant to the watchdog."""
        clock = SimulationClock()
        clock.watchdog = Watchdog(max_events_per_instant=3)
        for _ in range(2):
            clock.at(1.0, _noop)
        clock.run()
        for _ in range(2):
            clock.at(1.0, _noop)
        with pytest.raises(WatchdogError, match="4 events"):
            clock.run()


class TestCompaction:
    def test_a_queue_dominated_by_tombstones_is_reaped(self):
        """Watched or not, the heap is compacted as soon as dead
        entries outnumber live ones (past a small threshold) —
        far-future tombstones must not pin memory until their
        never-dispatched time comes."""
        for watchdog in (None, Watchdog()):
            clock = SimulationClock()
            clock.watchdog = watchdog
            handles = [
                clock.at_cancellable(1000.0 + i, _noop) for i in range(200)
            ]
            sizes = []

            def cancel_all():
                for handle in handles:
                    handle.cancel()

            clock.at(1.0, cancel_all)
            clock.at(2.0, lambda: sizes.append(clock.pending()))
            clock.run()
            assert sizes[0] <= SimulationClock.COMPACT_THRESHOLD
            assert clock.now == 2.0 and clock.events_dispatched == 2
