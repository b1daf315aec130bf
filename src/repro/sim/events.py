"""Discrete-event core.

A tiny, deterministic event loop: events are ``(time, seq, handle, fn,
args)`` entries in a heap; ``seq`` makes simultaneous events fire in
schedule order so runs are exactly reproducible.  Everything in the
machine simulation — scheduler initialization, batch deliveries, CPU
chunk completions — is an event here.

:meth:`SimulationClock.run` is the one dispatch loop, shared by every
caller (owned runs that fall off the analytic path, the workload
engine, the coordinated cluster); it runs until the queue drains.  Per
event it pops, skips a tombstone, stores ``now``, calls the callback
and bumps a local counter; two optional facilities ride on it without
perturbing runs that do not use them:

* :meth:`SimulationClock.at_cancellable` returns an
  :class:`EventHandle`; a cancelled entry is *skipped* by :meth:`run`
  — it is not dispatched, not counted in ``events_dispatched``, and
  does not advance ``now``.  A deadline that never fires therefore
  leaves no trace at all (bit-for-bit identity with a deadline-free
  run).  Cancelling is also what compacts: once tombstones outnumber
  live entries the heap is rebuilt, in place, from inside
  :meth:`EventHandle.cancel` — the loop carries no per-event check.
* :attr:`SimulationClock.watchdog` (see :mod:`repro.sim.watchdog`)
  aborts no-advance livelocks with a diagnostic instead of spinning
  until the ``max_events`` guard.  Armed, it costs the loop a
  same-instant compare and a ``deque.append`` of the entry it already
  holds; nothing is formatted unless it trips.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .watchdog import Watchdog


class EventHandle:
    """Cancellation token for one scheduled event.

    The heap cannot remove arbitrary entries, so cancellation marks
    the entry instead (lazy deletion); :meth:`SimulationClock.run`
    drops marked entries without dispatching or counting them, and the
    owning clock keeps a dead-entry count so a queue dominated by
    cancelled work is compacted in one pass, here, as it becomes so.
    """

    __slots__ = ("cancelled", "_clock")

    def __init__(self, clock: Optional["SimulationClock"] = None) -> None:
        self.cancelled = False
        self._clock = clock

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            clock = self._clock
            if clock is not None:
                clock._dead = dead = clock._dead + 1
                if (
                    dead > clock.COMPACT_THRESHOLD
                    and dead * 2 > len(clock._queue)
                ):
                    clock.compact()


class SimulationClock:
    """The event queue and clock of one simulation run."""

    __slots__ = ("now", "_queue", "_seq", "events_dispatched", "_dead", "watchdog")

    #: Compact the heap (drop cancelled entries, re-heapify) once at
    #: least this many dead entries make up over half the queue.
    COMPACT_THRESHOLD = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Optional[EventHandle], Callable, tuple]] = []
        self._seq = 0
        self.events_dispatched = 0
        self._dead = 0  # cancelled entries still sitting in the heap
        #: Optional progress monitor (:class:`repro.sim.watchdog.Watchdog`).
        self.watchdog: Optional["Watchdog"] = None

    def at(self, time: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute ``time`` (≥ now)."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule into the past: {time} < {self.now}")
        heapq.heappush(self._queue, (time, self._seq, None, fn, args))
        self._seq += 1

    def at_cancellable(self, time: float, fn: Callable, *args: Any) -> EventHandle:
        """Like :meth:`at`, but returns a handle that can cancel the
        event before it fires.  A cancelled event is skipped entirely:
        never dispatched, never counted, never advances the clock."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule into the past: {time} < {self.now}")
        handle = EventHandle(self)
        heapq.heappush(self._queue, (time, self._seq, handle, fn, args))
        self._seq += 1
        return handle

    def after(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.at(self.now + delay, fn, *args)

    def run(self, max_events: int = 50_000_000) -> float:
        """Dispatch events until the queue drains.

        Returns the final clock value.  ``max_events`` is a runaway
        guard: a correct simulation of this model always terminates.
        """
        # All loop state in locals, the watchdog's included: its
        # same-instant counter is loaded here and stored back on every
        # way out.
        queue = self._queue
        pop = heapq.heappop
        watchdog = self.watchdog
        if watchdog is None:
            record = None
        else:
            record = watchdog._recent.append
            limit = watchdog.max_events_per_instant
            instant = watchdog._instant
            burst = watchdog._count_at_instant
        dispatched = 0
        try:
            while queue:
                entry = pop(queue)
                handle = entry[2]
                if handle is not None and handle.cancelled:
                    self._dead -= 1
                    continue  # skipped: no dispatch, no count, no advance
                self.now = time = entry[0]
                if record is not None:
                    if time != instant:
                        instant = time
                        burst = 1
                    else:
                        burst += 1
                    record(entry)
                    if burst > limit:
                        watchdog.trip(time, burst)
                entry[3](*entry[4])
                dispatched += 1
                if dispatched > max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events; "
                        "likely a wiring bug (cyclic deliveries)"
                    )
        finally:
            if watchdog is not None:
                watchdog._instant = instant
                watchdog._count_at_instant = burst
        self.events_dispatched += dispatched
        return self.now

    def compact(self) -> int:
        """Drop cancelled entries and re-heapify, in place (a running
        dispatch loop keeps its reference to the list); returns how
        many entries were reaped.  Pop order of live entries is
        unchanged (same entries, same sort keys), so compaction is
        invisible to the simulation."""
        queue = self._queue
        live = [e for e in queue if e[2] is None or not e[2].cancelled]
        reaped = len(queue) - len(live)
        if reaped:
            queue[:] = live
            heapq.heapify(queue)
        self._dead = 0
        return reaped

    def pending(self) -> int:
        """Number of events still queued (cancelled entries included
        until the dispatch loop reaps them)."""
        return len(self._queue)
