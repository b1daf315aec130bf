"""Simulation progress watchdog.

A discrete-event run can only hang in one way: events keep firing at
the same simulated instant without the clock ever advancing (the PR 2
reviewer livelock — a zero-think-time closed loop resubmitting at the
exact instant of its rejection).  The generic ``max_events`` guard in
:meth:`~repro.sim.events.SimulationClock.run` does eventually trip,
but only after tens of millions of wasted dispatches and with no clue
about *what* was spinning.

A :class:`Watchdog` attaches to a clock
(``clock.watchdog = Watchdog(...)``) and raises :class:`WatchdogError`
as soon as more than ``max_events_per_instant`` events fire without the
clock advancing — carrying a diagnostic dump of the most recent events
so the offending callback loop is visible in the traceback instead of
requiring a debugger on a wedged process.

The watchdog **records, and formats only when read**.  Its ring holds
the raw heap entries the clock dispatched (no allocation, no string
work); :meth:`Watchdog.dump` turns them into text, which happens once
per trip and never on a healthy run.  The per-instant counter is two
compares and an add, and it lives in the clock's dispatch loop alone:
:meth:`~repro.sim.events.SimulationClock.run` loads the watchdog's
state when it starts, counts inline, and stores the state back when it
ends, so a watchdog is fed only by running its clock.

The watchdog is pure observation: it never changes event order,
timing, or counts, so an armed watchdog that does not trip is
invisible to results (the workload engine arms one by default).

It counts *dispatched* events.  A hosted query on the turbo fast path
(:func:`repro.sim.turbo.execute_hosted`) dispatches its first build
event and one completion event instead of its whole run, so a livelock
beside it trips at the same instant with the same message; only the
trailing ring of recent events may differ from the classic loop's.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List

#: Default trip threshold.  Legitimate workloads dispatch at most a few
#: thousand events at one instant (bounded by machine size × concurrent
#: queries); a livelock blows past this within milliseconds of wall
#: time instead of spinning toward the 50M-event runaway guard.
DEFAULT_MAX_EVENTS_PER_INSTANT = 100_000

#: How many recent events the diagnostic dump shows.
DEFAULT_TRACE_EVENTS = 20


class WatchdogError(RuntimeError):
    """The simulation stopped making progress (no-advance livelock)."""

    def __init__(self, message: str, at: float, diagnostic: str):
        super().__init__(f"{message}\n{diagnostic}")
        self.at = at
        self.diagnostic = diagnostic


def _describe(fn: Callable, args: tuple) -> str:
    """One compact line for one event: callback name plus a bounded
    argument summary (reprs can be huge for simulator internals)."""
    name = getattr(fn, "__qualname__", None) or getattr(
        fn, "__name__", repr(fn)
    )
    parts = []
    for arg in args[:3]:
        text = type(arg).__name__
        for attr in ("index", "name", "ident"):
            value = getattr(arg, attr, None)
            if value is not None and not callable(value):
                text = f"{text}({attr}={value})"
                break
        parts.append(text)
    if len(args) > 3:
        parts.append("...")
    return f"{name}({', '.join(parts)})"


class Watchdog:
    """No-advance livelock detector for one :class:`SimulationClock`.

    ``max_events_per_instant``
        Trip threshold: the number of consecutive events dispatched at
        one simulated time before the run is declared livelocked.
    ``trace_events``
        Ring-buffer size of the diagnostic event dump.
    """

    def __init__(
        self,
        max_events_per_instant: int = DEFAULT_MAX_EVENTS_PER_INSTANT,
        trace_events: int = DEFAULT_TRACE_EVENTS,
    ):
        if max_events_per_instant < 1:
            raise ValueError("max_events_per_instant must be positive")
        if trace_events < 1:
            raise ValueError("trace_events must be positive")
        self.max_events_per_instant = max_events_per_instant
        self._instant: float = float("-inf")
        self._count_at_instant = 0
        #: Raw ``(time, seq, handle, fn, args)`` heap entries, newest last.
        self._recent: Deque[tuple] = deque(maxlen=trace_events)
        self.tripped = False

    def trip(self, time: float, count: int) -> None:
        """Declare the instant ``time`` livelocked after ``count`` events."""
        self.tripped = True
        raise WatchdogError(
            f"simulation livelock: {count} events dispatched at simulated "
            f"t={time:.6f}s without the clock advancing (a callback keeps "
            "rescheduling itself at the current instant)",
            at=time,
            diagnostic=self.dump(),
        )

    # -- diagnostics ------------------------------------------------------

    def dump(self) -> str:
        """The recent-event trace as a readable diagnostic block."""
        lines: List[str] = [
            f"last {len(self._recent)} events before the watchdog tripped:"
        ]
        for time, _seq, _handle, fn, args in self._recent:
            lines.append(f"  t={time:.6f}s  {_describe(fn, args)}")
        return "\n".join(lines)


__all__ = [
    "DEFAULT_MAX_EVENTS_PER_INSTANT",
    "DEFAULT_TRACE_EVENTS",
    "Watchdog",
    "WatchdogError",
]
