"""Wiring a :class:`FaultSchedule` into a simulation or an engine.

The injector is the only component that touches simulator internals:
it appends straggler windows to :class:`~repro.sim.machine.Processor`
traces, installs a :class:`LinkFaultState` on the shared
:class:`~repro.sim.machine.NetworkLink`, and schedules crash (and, for
an engine, repair) events on the simulated clock.  An empty schedule
installs nothing at all — every hot path keeps its exact fault-free
float arithmetic and event sequence, which is what makes empty-schedule
injection a bit-for-bit no-op (golden identity test).

Two attachment modes mirror the two execution fronts:

``attach_simulation``
    A single owned :class:`~repro.sim.run.ScheduleSimulation`; a crash
    of any processor the query uses aborts the whole query, and
    :meth:`~repro.sim.run.ScheduleSimulation.run` raises
    :class:`~repro.sim.run.QueryAbortedError`.  There is nothing to
    recover *to* on a dedicated machine.

``attach_engine``
    A :class:`~repro.workload.engine.WorkloadEngine`; crashes and
    repairs are delivered to the engine's fault handlers, which apply
    the configured recovery policy (``fail`` / ``restart`` /
    ``reassign``) to the victims.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence

from .schedule import CrashFault, FaultSchedule, LinkFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.run import ScheduleSimulation
    from ..workload.engine import WorkloadEngine


class LinkFaultState:
    """Per-run interconnect perturbation, consulted by
    :class:`~repro.sim.streams.ConsumerGroup` at every delivery.

    Loss draws come from a dedicated seeded RNG.  The DES delivery
    order is deterministic, so the draw sequence — and therefore which
    batches drop — replays exactly for a fixed schedule seed.
    """

    __slots__ = ("windows", "dropped", "delayed", "_rng")

    def __init__(self, windows: Sequence[LinkFault], seed: int):
        self.windows = tuple(windows)
        self.dropped = 0
        self.delayed = 0
        self._rng = random.Random(seed * 4 + 3)

    def extra_delay(self, now: float) -> float:
        """Additional latency for a delivery sent at ``now``."""
        delay = 0.0
        for window in self.windows:
            if window.start <= now < window.end:
                delay += window.extra_delay
        if delay > 0:
            self.delayed += 1
        return delay

    def drops(self, now: float) -> bool:
        """Whether a pipelined data batch sent at ``now`` is lost.

        Overlapping loss windows compound as independent drop chances.
        The RNG is consulted only when some loss probability is active,
        so loss-free (or delay-only) runs never advance the stream.
        """
        keep = 1.0
        for window in self.windows:
            if window.loss > 0 and window.start <= now < window.end:
                keep *= 1.0 - window.loss
        if keep >= 1.0:
            return False
        if self._rng.random() < 1.0 - keep:
            self.dropped += 1
            return True
        return False


class FaultInjector:
    """Deterministically replays one :class:`FaultSchedule` into one
    simulation or one workload engine (single-use, like the engine)."""

    def __init__(self, schedule: FaultSchedule):
        if not isinstance(schedule, FaultSchedule):
            raise TypeError("FaultInjector needs a FaultSchedule")
        self.schedule = schedule
        self.link_state: LinkFaultState | None = None
        self.crashes_fired = 0
        self.repairs_fired = 0
        self._attached = False

    # -- attachment -------------------------------------------------------

    def _claim(self) -> None:
        if self._attached:
            raise RuntimeError(
                "a FaultInjector attaches once; build a fresh one per run"
            )
        self._attached = True

    def attach_simulation(self, sim: "ScheduleSimulation") -> None:
        """Arm the schedule against one owned single-query simulation."""
        self._claim()
        if self.schedule.is_empty:
            return
        # Any armed perturbation — even one that never fires — must
        # keep the run on the event loop (repro.sim.turbo stands down).
        sim.perturbed = True
        # Reading the processors builds an owned run's process graph, so
        # its events go on the clock ahead of the crashes below.
        processors = sim.processors
        for stall in self.schedule.stalls:
            processor = processors.get(stall.processor)
            if processor is not None:
                processor.stalls.append(
                    (stall.start, stall.end, stall.factor)
                )
        if self.schedule.link_faults:
            self.link_state = LinkFaultState(
                self.schedule.link_faults, self.schedule.seed
            )
            sim.network.faults = self.link_state
        for crash in self.schedule.crashes:
            if crash.processor in processors:
                sim.clock.at(crash.at, self._crash_simulation, sim, crash)

    def attach_engine(self, engine: "WorkloadEngine") -> None:
        """Arm the schedule against a shared-machine workload engine."""
        self._claim()
        if self.schedule.is_empty:
            return
        machine = engine.machine
        for stall in self.schedule.stalls:
            processor = machine.processors.get(stall.processor)
            if processor is not None:
                processor.stalls.append(
                    (stall.start, stall.end, stall.factor)
                )
        if self.schedule.link_faults:
            self.link_state = LinkFaultState(
                self.schedule.link_faults, self.schedule.seed
            )
            machine.network.faults = self.link_state
        for crash in self.schedule.crashes:
            if crash.processor not in machine.processors:
                continue
            machine.clock.at(crash.at, self._crash_engine, engine, crash)
            if crash.repair_at is not None:
                machine.clock.at(
                    crash.repair_at, self._repair_engine, engine, crash
                )

    # -- event handlers ---------------------------------------------------

    def _crash_simulation(
        self, sim: "ScheduleSimulation", crash: CrashFault
    ) -> None:
        if sim.finished_at is not None or sim.aborted_reason is not None:
            return  # the query outran the fault
        processor = sim.processors.get(crash.processor)
        if processor is not None and processor.failed_at is None:
            processor.failed_at = sim.clock.now
        self.crashes_fired += 1
        sim.abort(f"processor {crash.processor} crashed")

    def _crash_engine(self, engine: "WorkloadEngine", crash: CrashFault) -> None:
        self.crashes_fired += 1
        engine._handle_crash(crash)

    def _repair_engine(self, engine: "WorkloadEngine", crash: CrashFault) -> None:
        self.repairs_fired += 1
        engine._handle_repair(crash)


__all__ = ["FaultInjector", "LinkFaultState"]
