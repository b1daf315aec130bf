"""Request-lifecycle policies: load shedding and overload sweeps.

Deadlines turn an overloaded workload from "slow" into "wasteful": an
engine that admits every arrival spends machine time on queries that
are already doomed to miss their deadline, and the paper-style
goodput-vs-load curve collapses past the saturation knee.  A
:class:`ShedPolicy` decides *which* arrivals not to serve:

* :class:`DropNewestPolicy` — the classic bounded-queue bounce: a
  newcomer that finds the admission queue full is rejected.  This is
  exactly what the engine's bare ``queue_limit`` has always done, so
  configuring it explicitly is a strict no-op.
* :class:`DropOldestPolicy` — on overflow evict the queue *head*
  instead: the query that has already burnt the most of its deadline
  budget waiting is the least worth keeping.
* :class:`DeadlineAwarePolicy` — predictive shedding at arrival: using
  the Section 3 analytic cost model (:func:`repro.model.analytic.predict`)
  and the current queue occupancy, estimate the newcomer's completion
  time; if the estimate already misses its deadline, shed it *before*
  it consumes queue space or machine time.

:func:`overload_sweep` drives the load axis past the knee for each
strategy and shedding configuration and reduces every cell to an
:class:`OverloadPoint` — the input of the report's overload section
and of the goodput table ``benchmarks/bench_overload.py`` writes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import WorkloadEngine
    from .metrics import QueryRecord, WorkloadResult
    from .mix import QuerySpec
    from .sched import TenantSpec

#: Shed-policy names the engine, API, and CLI accept.
SHED_POLICY_NAMES = ("drop_newest", "drop_oldest", "deadline_aware")


class ShedPolicy:
    """Decides which queries an overloaded engine refuses to serve.

    Two hooks, both deterministic and side-effect free with respect to
    the simulation clock:

    ``shed_on_arrival(engine, record)``
        Called before the newcomer joins the queue.  Return ``True``
        to shed it immediately (predictive policies).
    ``overflow_victim(engine, newcomer)``
        Called when the queue exceeds ``queue_limit`` after an arrival
        failed to start.  Return the queued record to evict — the
        newcomer itself for drop-newest semantics, another queued
        record otherwise.  ``overflow_reason`` labels the eviction.
    """

    name = "abstract"
    #: Row label applied to overflow victims (the eviction mechanism).
    overflow_reason = "drop_newest"

    def shed_on_arrival(
        self, engine: "WorkloadEngine", record: "QueryRecord"
    ) -> bool:
        return False

    def overflow_victim(
        self, engine: "WorkloadEngine", newcomer: "QueryRecord"
    ) -> "QueryRecord":
        return newcomer


class DropNewestPolicy(ShedPolicy):
    """Reject the arrival that overflowed the queue (the legacy
    ``queue_limit`` bounce, now with a name)."""

    name = "drop_newest"
    overflow_reason = "drop_newest"


class DropOldestPolicy(ShedPolicy):
    """On overflow evict the queue head — it has waited longest and
    has the least deadline budget left; the newcomer stays."""

    name = "drop_oldest"
    overflow_reason = "drop_oldest"

    def overflow_victim(
        self, engine: "WorkloadEngine", newcomer: "QueryRecord"
    ) -> "QueryRecord":
        return engine._queue[0]


class DeadlineAwarePolicy(ShedPolicy):
    """Shed arrivals whose *predicted* completion already misses their
    deadline, before they occupy the queue.

    The estimate is first-order queueing arithmetic over the analytic
    cost model: with per-query share ``s`` the machine serves
    ``slots = size // s`` queries at once, so

    ``completion ≈ now + time_until_a_slot_frees
    + (queued analytic service estimates) / slots + own estimate``.

    With an exclusive whole-machine policy (``slots == 1``, the
    paper's regime) this is exact up to the model error, which is why
    goodput under ``deadline_aware`` stays near capacity past the
    knee: every admitted query still has time to finish.  Predictions
    are cached per ``(spec, share)`` — specs are frozen dataclasses —
    so the policy costs one cost-model evaluation per distinct query
    class, not per arrival.  Queries without a deadline are never
    shed here (they fall through to the overflow rule, drop-newest).
    """

    name = "deadline_aware"
    overflow_reason = "drop_newest"

    def __init__(self, share: Optional[int] = None):
        if share is not None and share < 1:
            raise ValueError("share must be positive")
        self.share = share
        self._estimates: Dict[Tuple["QuerySpec", int], Optional[float]] = {}

    # -- analytic plumbing ------------------------------------------------

    def _effective_share(self, engine: "WorkloadEngine") -> int:
        share = self.share
        if share is None:
            share = getattr(engine.policy, "share", None)
        if share is None:
            share = getattr(engine.policy, "max_share", None)
        if share is None:
            share = engine.machine.size
        return max(1, min(share, engine.machine.size))

    def service_estimate(
        self, engine: "WorkloadEngine", spec: "QuerySpec"
    ) -> Optional[float]:
        """Analytic response time of ``spec`` on this engine's share;
        ``None`` when the plan is infeasible at that share (admission
        will reject such a query anyway)."""
        share = self._effective_share(engine)
        key = (spec, share)
        if key not in self._estimates:
            from ..model.analytic import predict
            from ..optimizer.guidelines import advise_strategy, apply_advice

            try:
                tree = spec.tree()
                catalog = spec.catalog()
                strategy = spec.strategy
                if strategy == "auto":
                    advice = advise_strategy(
                        tree, catalog, share, engine.cost_model
                    )
                    tree = apply_advice(tree, advice)
                    strategy = advice.strategy
                self._estimates[key] = predict(
                    tree,
                    catalog,
                    strategy,
                    share,
                    engine.machine.config,
                    engine.cost_model,
                ).response_time
            except ValueError:
                self._estimates[key] = None
        return self._estimates[key]

    def predicted_completion(
        self, engine: "WorkloadEngine", record: "QueryRecord"
    ) -> Optional[float]:
        """Estimated absolute completion time if admitted now."""
        own = self.service_estimate(engine, record.spec)
        if own is None:
            return None
        now = engine.machine.clock.now
        share = self._effective_share(engine)
        slots = max(1, engine.machine.size // share)
        queued = 0.0
        for waiting in engine._queue:
            estimate = self.service_estimate(engine, waiting.spec)
            queued += estimate if estimate is not None else own
        free_in = 0.0
        if engine._in_flight >= slots and engine._active:
            residuals = []
            for active, _sim, _alloc, _mem in engine._active.values():
                estimate = self.service_estimate(engine, active.spec)
                if estimate is None:
                    continue
                started = (
                    active.admitted if active.admitted is not None else now
                )
                residuals.append(max(0.0, estimate - (now - started)))
            if residuals:
                free_in = min(residuals)
        return now + free_in + queued / slots + own

    # -- the policy hook --------------------------------------------------

    def shed_on_arrival(
        self, engine: "WorkloadEngine", record: "QueryRecord"
    ) -> bool:
        if record.deadline is None:
            return False
        completion = self.predicted_completion(engine, record)
        if completion is None:
            return False
        return completion > record.arrival + record.deadline


def make_shed_policy(
    shed: Union[None, str, ShedPolicy],
) -> Optional[ShedPolicy]:
    """``None`` (no shedding beyond the bare queue bounce), a policy
    name from :data:`SHED_POLICY_NAMES`, or a ready instance."""
    if shed is None or isinstance(shed, ShedPolicy):
        return shed
    if shed == "drop_newest":
        return DropNewestPolicy()
    if shed == "drop_oldest":
        return DropOldestPolicy()
    if shed == "deadline_aware":
        return DeadlineAwarePolicy()
    raise ValueError(
        f"unknown shed policy {shed!r}; expected one of {SHED_POLICY_NAMES}"
    )


# -- deadlines --------------------------------------------------------------


def deadline_rng(deadline_seed: int) -> random.Random:
    """The generator deadline ranges are drawn from.  It is dedicated:
    deadline draws must not perturb arrival or client sampling (a
    deadline-free run stays bit-identical)."""
    return random.Random(1_000_003 * deadline_seed + 17)


def resolve_deadline(
    spec: "QuerySpec",
    tenants: Dict[str, "TenantSpec"],
    default: Union[None, float, Tuple[float, float]],
    rng: random.Random,
) -> Optional[float]:
    """A query's deadline, fixed at submission: the spec's own wins,
    then its tenant's default, then ``default`` — seconds, or a
    ``(lo, hi)`` range sampled from ``rng`` (one draw per call).  The
    single definition for the workload engine and the cluster, which
    resolves once at admission so every attempt races one deadline."""
    if spec.deadline is not None:
        return spec.deadline
    if spec.tenant is not None:
        tenant = tenants.get(spec.tenant)
        if tenant is not None and tenant.deadline is not None:
            return tenant.deadline
    if default is None:
        return None
    if isinstance(default, (int, float)):
        return float(default)
    low, high = default
    return rng.uniform(low, high)


# -- overload sweeps ------------------------------------------------------


@dataclass(frozen=True)
class OverloadPoint:
    """One (strategy, offered load, shed policy) cell of an overload
    sweep, reduced to the goodput-under-overload story."""

    strategy: str
    load: float               # offered arrival rate, queries/s
    shed: Optional[str]       # shed policy name (None: admit everything)
    deadline: Optional[float]
    offered: int              # queries submitted
    completed: int
    shed_count: int           # rejected by shedding/expiry (never ran to term)
    expired: int              # shed because the deadline passed while queued
    deadline_aborted: int     # started, then aborted at the deadline
    cancelled: int
    goodput: float            # in-deadline completions per simulated second
    miss_rate: Optional[float]  # deadline misses among completed queries
    p95_latency: Optional[float]
    utilization: float

    @classmethod
    def of(
        cls,
        strategy: str,
        load: float,
        shed: Optional[str],
        deadline: Optional[float],
        result: "WorkloadResult",
    ) -> "OverloadPoint":
        return cls(
            strategy=strategy,
            load=load,
            shed=shed,
            deadline=deadline,
            offered=len(result.records),
            completed=len(result.completed()),
            shed_count=result.shed_count(),
            expired=result.expired_count(),
            deadline_aborted=result.deadline_aborted_count(),
            cancelled=result.cancelled_count(),
            goodput=result.goodput(),
            miss_rate=result.deadline_miss_rate(),
            p95_latency=result.latency_stats()["p95"],
            utilization=result.utilization(),
        )

    def row(self) -> Dict:
        return {
            "strategy": self.strategy,
            "load": self.load,
            "shed": self.shed,
            "deadline": self.deadline,
            "offered": self.offered,
            "completed": self.completed,
            "shed_count": self.shed_count,
            "expired": self.expired,
            "deadline_aborted": self.deadline_aborted,
            "cancelled": self.cancelled,
            "goodput": self.goodput,
            "miss_rate": self.miss_rate,
            "p95_latency": self.p95_latency,
            "utilization": self.utilization,
        }


def overload_sweep(
    *,
    strategies: Sequence[str] = ("SP", "SE", "RD", "FP"),
    loads: Sequence[float] = (0.02, 0.05, 0.1, 0.2),
    sheds: Sequence[Optional[str]] = (None, "deadline_aware"),
    deadline: float = 120.0,
    duration: float = 300.0,
    machine_size: int = 40,
    seed: int = 0,
    queue_limit: Optional[int] = 16,
    **workload_kwargs,
) -> List[OverloadPoint]:
    """One deadlined workload per (strategy, load, shed) cell.

    Every cell regenerates its arrivals from the same base seed, so
    the load and shed axes are the only things that vary along a row;
    extra keyword arguments pass straight to
    :func:`repro.api.run_workload`.
    """
    from .. import api

    points: List[OverloadPoint] = []
    for strategy in strategies:
        for load in loads:
            for shed in sheds:
                result = api.run_workload(
                    arrivals="poisson",
                    rate=load,
                    duration=duration,
                    seed=seed,
                    machine_size=machine_size,
                    strategy=strategy,
                    deadline=deadline,
                    shed=shed,
                    queue_limit=queue_limit,
                    **workload_kwargs,
                )
                points.append(
                    OverloadPoint.of(strategy, load, shed, deadline, result)
                )
    return points


__all__ = [
    "SHED_POLICY_NAMES",
    "ShedPolicy",
    "DropNewestPolicy",
    "DropOldestPolicy",
    "DeadlineAwarePolicy",
    "make_shed_policy",
    "deadline_rng",
    "resolve_deadline",
    "OverloadPoint",
    "overload_sweep",
]
