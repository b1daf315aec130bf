"""The discrete-event core."""

import pytest

from repro.sim import SimulationClock


class TestScheduling:
    def test_time_order(self):
        clock = SimulationClock()
        fired = []
        clock.at(2.0, lambda: fired.append("b"))
        clock.at(1.0, lambda: fired.append("a"))
        clock.at(3.0, lambda: fired.append("c"))
        clock.run()
        assert fired == ["a", "b", "c"]
        assert clock.now == 3.0

    def test_fifo_at_same_time(self):
        clock = SimulationClock()
        fired = []
        for name in "abc":
            clock.at(1.0, fired.append, name)
        clock.run()
        assert fired == ["a", "b", "c"]

    def test_after_is_relative(self):
        clock = SimulationClock()
        times = []
        clock.at(5.0, lambda: clock.after(2.0, lambda: times.append(clock.now)))
        clock.run()
        assert times == [7.0]

    def test_cannot_schedule_into_past(self):
        clock = SimulationClock()
        clock.at(5.0, lambda: None)
        clock.run()
        with pytest.raises(ValueError, match="past"):
            clock.at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimulationClock().after(-1.0, lambda: None)

    def test_args_passed(self):
        clock = SimulationClock()
        out = []
        clock.at(0.0, out.append, 42)
        clock.run()
        assert out == [42]


class TestRun:
    def test_events_generated_during_run(self):
        clock = SimulationClock()
        fired = []

        def cascade(depth):
            fired.append(depth)
            if depth < 3:
                clock.after(1.0, cascade, depth + 1)

        clock.at(0.0, cascade, 0)
        clock.run()
        assert fired == [0, 1, 2, 3]

    def test_runaway_guard(self):
        clock = SimulationClock()

        def forever():
            clock.after(1.0, forever)

        clock.at(0.0, forever)
        with pytest.raises(RuntimeError, match="exceeded"):
            clock.run(max_events=100)

    def test_event_count(self):
        clock = SimulationClock()
        for i in range(5):
            clock.at(float(i), lambda: None)
        clock.run()
        assert clock.events_dispatched == 5

    def test_determinism(self):
        def build():
            clock = SimulationClock()
            order = []
            clock.at(1.0, lambda: (order.append("x"), clock.after(0.5, order.append, "y")))
            clock.at(1.5, order.append, "z")
            clock.run()
            return order

        assert build() == build()
