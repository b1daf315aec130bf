"""Totals that reach an output row add left to right on every interpreter.

Builtin ``sum()`` over ``[1e16, 1.0, 1.0]`` is ``1e16`` up to Python
3.11 (each ``+ 1.0`` is lost to rounding) and ``1.0000000000000002e16``
from 3.12 (compensated).  The goldens and expected digests hold the
former, so the pin works without a second interpreter: on 3.12+ it
fails wherever a builtin ``sum()`` is left on the path.
"""

import dataclasses

from repro.core.numeric import ordered_sum
from repro.sim.machine import MachineConfig, Processor
from repro.sim.metrics import SimulationResult

DURATIONS = [1e16, 1.0, 1.0]


def spans():
    """Busy intervals with exactly these durations, in this order (a
    trace need not be contiguous for the totals to be defined)."""
    out = [(0.0, 1e16, "J0"), (0.0, 1.0, "J0"), (1.0, 2.0, "J0")]
    assert [end - begin for begin, end, _ in out] == DURATIONS
    return out


def test_ordered_sum_adds_left_to_right():
    assert ordered_sum(DURATIONS) == 1e16
    assert ordered_sum(iter(DURATIONS)) == 1e16
    assert ordered_sum(reversed(DURATIONS)) == 1.0000000000000002e16


def test_ordered_sum_of_nothing_is_the_integer_zero():
    total = ordered_sum([])
    assert total == 0 and isinstance(total, int)


def test_processor_busy_time_adds_left_to_right():
    processor = Processor(0)
    processor.intervals.extend(spans())
    assert processor.busy_time() == 1e16
    assert processor.busy_time_for("J0") == 1e16
    assert processor.busy_time_between(0.0, 2e16) == 1e16


def test_result_busy_time_adds_left_to_right():
    result = SimulationResult(
        strategy="SP", processors=1, response_time=2e16,
        config=MachineConfig.paper(), task_timings=[], intervals={0: spans()},
        operation_processes=1, stream_count=0, events=0, result_tuples=0.0,
    )
    assert result.busy_time() == 1e16
    assert result.utilization() == 1e16 / 2e16
    assert result.utilization(result.busy_time()) == result.utilization()
    assert dataclasses.replace(result, processors=0).utilization(5.0) == 0.0
