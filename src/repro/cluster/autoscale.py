"""Elastic shard capacity in simulated time.

A shard's processor pool grows and shrinks by reusing the fault
machinery of :class:`~repro.workload.engine.SharedMachine`: scale-up
is a repair (the processor rejoins the allocatable pool and admission
re-pumps), scale-down is a crash-stop *drain* (the processor stops
being allocatable; a query already running on it finishes undisturbed
and the processor simply never comes back).  No query is ever aborted
by a scale event.

The :class:`ElasticEngine` is built at ``scale_max`` capacity with the
surplus processors marked failed from t=0, so capacity changes are
pure repair/fail transitions on one fixed machine — the simulated
clock, event order, and therefore the JSONL rows stay deterministic.

Policies (:data:`AUTOSCALE_NAMES`):

``static``
    No autoscaler at all — the engine is a plain
    :class:`~repro.workload.WorkloadEngine`, byte-identical to
    :func:`repro.api.run_workload` by construction.

``reactive``
    Threshold stepping: queue depth above ``up_queue`` grows the pool
    by one ``step``; an empty queue with a fully idle step shrinks by
    one.  A ``cooldown`` (simulated seconds) separates scale events.

``predictive``
    Jumps straight to the forecasted need: the analytic Section 3
    model prices every queued and running query (the router's
    :class:`~repro.cluster.placement.LoadForecast` estimate), and the
    target capacity is what clears that backlog within one cooldown
    window.

Decisions fire only at event instants (arrivals and completions), so
they are deterministic; when a needed scale-up is blocked by the
cooldown, a re-check is armed on the clock at the cooldown's expiry so
a backlogged queue can never strand (the horizon stays reachable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.numeric import ordered_sum
from ..workload.engine import WorkloadEngine
from .placement import LoadForecast

#: The autoscaling policies :func:`make_autoscaler` accepts.
AUTOSCALE_NAMES = ("static", "reactive", "predictive")

#: Default simulated seconds between scale events.
DEFAULT_COOLDOWN = 10.0


@dataclass(frozen=True)
class ScaleEvent:
    """One capacity change, recorded for the report."""

    time: float
    capacity_from: int
    capacity_to: int
    reason: str
    queued: int
    in_flight: int

    def to_payload(self) -> Dict:
        return {
            "time": self.time,
            "from": self.capacity_from,
            "to": self.capacity_to,
            "reason": self.reason,
            "queued": self.queued,
            "in_flight": self.in_flight,
        }


class Autoscaler:
    """Decides a target capacity from observable engine state only."""

    name = "base"

    def prepare(self, engine: "ElasticEngine") -> None:
        """Called once before the run starts."""

    def desired(
        self, engine: "ElasticEngine", now: float
    ) -> Optional[Tuple[int, str]]:
        """``(target_capacity, reason)``, or ``None`` to hold."""
        raise NotImplementedError


class ReactiveAutoscaler(Autoscaler):
    """Step on queue-depth / idle-capacity thresholds."""

    name = "reactive"

    def __init__(self, step: Optional[int] = None, up_queue: int = 1):
        if step is not None and step < 1:
            raise ValueError("step must be positive")
        if up_queue < 1:
            raise ValueError("up_queue must be positive")
        self.step = step
        self.up_queue = up_queue

    def prepare(self, engine: "ElasticEngine") -> None:
        if self.step is None:
            self.step = engine.share_hint

    def desired(
        self, engine: "ElasticEngine", now: float
    ) -> Optional[Tuple[int, str]]:
        queued = len(engine._queue)
        if queued >= self.up_queue and engine.capacity < engine.scale_max:
            target = min(engine.scale_max, engine.capacity + self.step)
            return target, f"queue depth {queued} >= {self.up_queue}"
        if (
            queued == 0
            and engine.capacity > engine.scale_min
            and len(engine.machine.free_ids()) >= self.step
        ):
            target = max(engine.scale_min, engine.capacity - self.step)
            return target, "idle step reclaimed"
        return None


class PredictiveAutoscaler(Autoscaler):
    """Target the capacity that clears the forecasted backlog within
    one ``window`` of simulated seconds."""

    name = "predictive"

    def __init__(self, window: Optional[float] = None):
        if window is not None and window <= 0:
            raise ValueError("window must be positive")
        self.window = window

    def prepare(self, engine: "ElasticEngine") -> None:
        if self.window is None:
            self.window = engine.scale_cooldown
        self.forecast = LoadForecast(
            machine_size=engine.scale_max,
            config=engine.machine.config,
            cost_model=engine.cost_model,
        )

    def desired(
        self, engine: "ElasticEngine", now: float
    ) -> Optional[Tuple[int, str]]:
        estimate = self.forecast.estimate
        backlog = ordered_sum(estimate(r.spec) for r in engine._queue)
        running = ordered_sum(
            estimate(record.spec) for record, *_ in engine._active.values()
        )
        forecast = backlog + running
        slots = math.ceil(forecast / self.window) if forecast > 0 else 0
        slots = max(slots, engine._in_flight)
        target = max(
            engine.scale_min,
            min(engine.scale_max, slots * engine.share_hint),
        )
        if target == engine.capacity:
            return None
        direction = "up" if target > engine.capacity else "down"
        return target, (
            f"forecast {forecast:.1f}s backlog -> {slots} slots ({direction})"
        )


def make_autoscaler(policy, **options) -> Optional[Autoscaler]:
    """Resolve a policy name; ``"static"`` (and ``None``) mean *no*
    autoscaler — the caller should use a plain engine."""
    if policy is None or policy == "static":
        return None
    if isinstance(policy, Autoscaler):
        return policy
    if policy == "reactive":
        return ReactiveAutoscaler(**options)
    if policy == "predictive":
        return PredictiveAutoscaler(**options)
    raise ValueError(
        f"unknown autoscale policy {policy!r}; expected one of "
        f"{AUTOSCALE_NAMES}"
    )


class ElasticEngine(WorkloadEngine):
    """A workload engine whose allocatable capacity moves between
    ``scale_min`` and ``scale_max`` under an :class:`Autoscaler`.

    The machine is built at ``scale_max``; processors above the base
    capacity start failed (drained).  ``share_hint`` is the per-query
    processor share the policy grants — the autoscalers' capacity
    quantum.
    """

    def __init__(
        self,
        base_capacity: int,
        policy=None,
        *,
        autoscaler: Autoscaler,
        scale_max: int,
        scale_min: Optional[int] = None,
        scale_cooldown: float = DEFAULT_COOLDOWN,
        **kwargs,
    ):
        if scale_max < base_capacity:
            raise ValueError(
                f"scale_max ({scale_max}) must be >= the base capacity "
                f"({base_capacity})"
            )
        scale_min = base_capacity if scale_min is None else scale_min
        if not 1 <= scale_min <= base_capacity:
            raise ValueError(
                "need 1 <= scale_min <= base capacity, got "
                f"scale_min={scale_min} base={base_capacity}"
            )
        if scale_cooldown < 0:
            raise ValueError("scale_cooldown must be non-negative")
        super().__init__(scale_max, policy, **kwargs)
        if self.policy.name == "round_robin":
            raise ValueError(
                "autoscaling requires a claiming allocation policy "
                "('exclusive' or 'guideline'); 'round_robin' time-shares "
                "the whole pool without claiming processors, so capacity "
                "changes would be a silent no-op"
            )
        self.scale_min = scale_min
        self.scale_max = scale_max
        self.scale_cooldown = scale_cooldown
        self.capacity = base_capacity
        self.base_capacity = base_capacity
        # The capacity quantum: the policy's per-query share when it
        # has one, else the whole base capacity (exclusive runs).
        share = getattr(self.policy, "share", None)
        self.share_hint = min(
            share if share else base_capacity, base_capacity
        )
        self.scale_events: List[ScaleEvent] = []
        self._last_scale = -scale_cooldown  # first decision is free
        self._recheck_armed = False
        self.autoscaler = autoscaler
        # Drain the surplus from t=0: scale-up is a plain repair.
        for ident in range(base_capacity, scale_max):
            self.machine.fail(ident)
        autoscaler.prepare(self)

    # -- observation hooks (every arrival and completion) -----------------

    def _arrive(self, record) -> None:
        super()._arrive(record)
        self._observe()

    def _finish(self, record, sim) -> None:
        super()._finish(record, sim)
        self._observe()

    def _observe(self) -> None:
        now = self.machine.clock.now
        decision = self.autoscaler.desired(self, now)
        if decision is None:
            return
        target, reason = decision
        target = max(self.scale_min, min(self.scale_max, target))
        if target == self.capacity:
            return
        ready = self._last_scale + self.scale_cooldown
        if now < ready:
            if target > self.capacity and not self._recheck_armed:
                # A backlogged queue must never strand behind the
                # cooldown: re-check the moment it expires.  (Blocked
                # scale-downs just wait for the next natural event —
                # arming a timer for them would stretch the makespan.)
                self._recheck_armed = True
                self.machine.clock.at(ready, self._recheck)
            return
        self._scale_to(target, reason)

    def _recheck(self) -> None:
        self._recheck_armed = False
        self._observe()

    def _scale_to(self, target: int, reason: str) -> None:
        now = self.machine.clock.now
        self.scale_events.append(
            ScaleEvent(
                time=now,
                capacity_from=self.capacity,
                capacity_to=target,
                reason=reason,
                queued=len(self._queue),
                in_flight=self._in_flight,
            )
        )
        if target > self.capacity:
            # Repair the lowest drained processors first (stable ids).
            for ident in sorted(self.machine.failed_ids()):
                if self.capacity >= target:
                    break
                self.machine.repair(ident)
                self.capacity += 1
            self._pump()
        else:
            # Drain the highest healthy processors first.  A drained
            # processor that is mid-query keeps running; it just never
            # becomes allocatable again.
            healthy = sorted(
                set(range(self.machine.size)) - self.machine.failed_ids(),
                reverse=True,
            )
            for ident in healthy:
                if self.capacity <= target:
                    break
                self.machine.fail(ident)
                self.capacity -= 1
        self._last_scale = now

    # -- telemetry --------------------------------------------------------

    def scale_ups(self) -> int:
        return sum(
            1 for e in self.scale_events if e.capacity_to > e.capacity_from
        )

    def scale_downs(self) -> int:
        return sum(
            1 for e in self.scale_events if e.capacity_to < e.capacity_from
        )
