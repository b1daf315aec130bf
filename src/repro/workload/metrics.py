"""Workload-level metrics: per-query records, latency percentiles,
throughput, utilization, and saturation-knee detection.

Single-query metrics (:mod:`repro.sim.metrics`) describe one run on a
dedicated machine; these describe a *population* of queries on a
shared one.  Latency decomposes exactly as queueing theory wants it:
``latency = queue_delay + service_time``, with the queueing delay
measured from arrival to admission and the service time from
admission to the last operation process finishing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.numeric import ordered_sum
from ..sim.metrics import SimulationResult
from .mix import QuerySpec


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation between
    order statistics — deterministic, dependency-free."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


@dataclass
class QueryRecord:
    """Lifecycle of one query through the workload engine.

    ``deadline`` is configuration, not outcome: it is deliberately
    absent from :meth:`row` (like ``queue_limit``), so a deadline that
    never fires leaves the emitted JSONL bit-for-bit identical to a
    deadline-free run.  The lifecycle *outcomes* — ``shed``,
    ``cancelled``, ``deadline_missed`` — are in the row with stable
    defaults.  ``tenant`` appears in the row only when set, so
    untenanted runs keep the pre-tenancy row layout byte-for-byte.
    """

    index: int
    spec: QuerySpec
    arrival: float
    client: Optional[int] = None          # closed-loop client id
    admitted: Optional[float] = None      # left the admission queue
    completed: Optional[float] = None     # last operation process done
    strategy: Optional[str] = None        # resolved (never "auto")
    processors: Tuple[int, ...] = ()
    rejected: bool = False
    error: Optional[str] = None           # why the engine shed the query
    result: Optional[SimulationResult] = None
    attempts: int = 0                     # admissions (retries = attempts-1)
    aborts: List[float] = field(default_factory=list)  # crash-abort times
    wasted_seconds: float = 0.0           # CPU burnt by aborted attempts
    failed: bool = False                  # crashed and recovery gave up
    reused_tasks: int = 0                 # tasks replayed by ``reassign``
    deadline: Optional[float] = None      # seconds from arrival (config)
    shed: Optional[str] = None            # load-shed reason, never ran to term
    cancelled: bool = False               # cancelled by the caller
    deadline_missed: bool = False         # expired queued or aborted mid-run
    tenant: Optional[str] = None          # multi-tenant tag (spec.tenant)

    @property
    def latency(self) -> Optional[float]:
        """Arrival to completion — what the user of the service sees."""
        if self.completed is None:
            return None
        return self.completed - self.arrival

    @property
    def queue_delay(self) -> Optional[float]:
        if self.admitted is None:
            return None
        return self.admitted - self.arrival

    @property
    def service_time(self) -> Optional[float]:
        if self.completed is None or self.admitted is None:
            return None
        return self.completed - self.admitted

    def row(self) -> Dict:
        """Deterministic JSONL row (no wall-clock, no object refs)."""
        data = {
            "query": self.index,
            "client": self.client,
            "shape": self.spec.shape,
            "cardinality": self.spec.cardinality,
            "relations": self.spec.relations,
            "strategy_requested": self.spec.strategy,
            "strategy": self.strategy,
            "processors": list(self.processors),
            "arrival": self.arrival,
            "admitted": self.admitted,
            "completed": self.completed,
            "latency": self.latency,
            "queue_delay": self.queue_delay,
            "service_time": self.service_time,
            "rejected": self.rejected,
            "error": self.error,
            "attempts": self.attempts,
            "aborts": list(self.aborts),
            "wasted_seconds": self.wasted_seconds,
            "failed": self.failed,
            "reused_tasks": self.reused_tasks,
            "shed": self.shed,
            "cancelled": self.cancelled,
            "deadline_missed": self.deadline_missed,
        }
        if self.tenant is not None:
            data["tenant"] = self.tenant
        return data


@dataclass
class WorkloadResult:
    """Everything one workload run produced."""

    records: List[QueryRecord]
    machine_size: int
    policy: str
    makespan: float          # simulated time until the machine drained
    busy_seconds: float      # total CPU-busy seconds over the pool
    peak_in_flight: int
    faults_injected: int = 0  # crash events that actually fired
    repairs: int = 0          # processors that rejoined the pool
    scheduler: Optional[str] = None  # ordering policy (None: legacy FIFO)
    scheduling_decisions: int = 0    # admission decisions the scheduler made
    #: Queries whose whole hosted epoch ran on the turbo fast path
    #: (no pending event could act on them before completion).  Pure
    #: telemetry: the rows and every other metric are bit-identical
    #: whether a query replayed analytically or drained the heap.
    fast_path_queries: int = 0
    #: Deepest the admission queue ever got (autoscaler telemetry).
    peak_queued: int = 0

    # -- populations ------------------------------------------------------

    def completed(self, tenant: Optional[str] = None) -> List[QueryRecord]:
        return [
            r for r in self.records
            if r.completed is not None
            and (tenant is None or r.tenant == tenant)
        ]

    def rejected_count(self) -> int:
        return sum(1 for r in self.records if r.rejected)

    def tenants(self) -> List[str]:
        """Tenant names seen in this run, sorted."""
        return sorted({r.tenant for r in self.records if r.tenant is not None})

    def tenant_records(self, tenant: str) -> List[QueryRecord]:
        return [r for r in self.records if r.tenant == tenant]

    def latencies(self) -> List[float]:
        return [r.latency for r in self.completed()]

    def queue_delays(self) -> List[float]:
        return [r.queue_delay for r in self.completed()]

    def service_times(self) -> List[float]:
        return [r.service_time for r in self.completed()]

    # -- headline numbers -------------------------------------------------

    def latency_stats(
        self, tenant: Optional[str] = None
    ) -> Dict[str, Optional[float]]:
        """Mean / p50 / p95 / p99 latency over completed queries,
        optionally restricted to one tenant's.

        All four values are ``None`` when nothing completed (e.g. a
        fully rejected, over-saturated load point, or a tenant that
        never got a query through): there is no latency to report, and
        a fake 0.0 would poison downstream baselines like
        :func:`saturation_knee` and the fairness solo baselines.
        """
        values = [r.latency for r in self.completed(tenant)]
        if not values:
            return {"mean": None, "p50": None, "p95": None, "p99": None}
        return {
            "mean": ordered_sum(values) / len(values),
            "p50": percentile(values, 50.0),
            "p95": percentile(values, 95.0),
            "p99": percentile(values, 99.0),
        }

    def throughput(self) -> float:
        """Completed queries per simulated second (sustained rate)."""
        if self.makespan <= 0:
            return 0.0
        return len(self.completed()) / self.makespan

    def utilization(self) -> float:
        """Mean busy fraction of the whole pool over the makespan."""
        if self.makespan <= 0 or self.machine_size == 0:
            return 0.0
        return self.busy_seconds / (self.machine_size * self.makespan)

    def mean_queue_delay(self) -> float:
        values = self.queue_delays()
        return ordered_sum(values) / len(values) if values else 0.0

    def mean_service_time(self) -> float:
        values = self.service_times()
        return ordered_sum(values) / len(values) if values else 0.0

    # -- resilience -------------------------------------------------------

    def failed_count(self) -> int:
        """Queries that crashed and whose recovery gave up."""
        return sum(1 for r in self.records if r.failed)

    def retries_total(self) -> int:
        """Extra admissions beyond each query's first attempt."""
        return sum(max(0, r.attempts - 1) for r in self.records)

    def wasted_seconds(self) -> float:
        """CPU-busy seconds burnt by attempts that were later aborted."""
        return ordered_sum(r.wasted_seconds for r in self.records)

    def wasted_fraction(self) -> float:
        """Share of all CPU-busy seconds that produced no result."""
        if self.busy_seconds <= 0:
            return 0.0
        return self.wasted_seconds() / self.busy_seconds

    def useful_count(self, tenant: Optional[str] = None) -> int:
        """Completions that met their deadline (queries without a
        deadline always count), optionally for one tenant."""
        return sum(
            1
            for r in self.completed(tenant)
            if r.deadline is None or r.latency <= r.deadline
        )

    def goodput(self, tenant: Optional[str] = None) -> float:
        """*Useful* completions per simulated second: completions that
        met their deadline (queries without a deadline always count),
        optionally restricted to one tenant's.  Compare with the
        offered arrival rate: the gap is load shed to rejections,
        deadline misses, failures, and fault-induced latency
        inflation.  Without deadlines this equals
        :meth:`throughput`."""
        if self.makespan <= 0:
            return 0.0
        return self.useful_count(tenant) / self.makespan

    def mttr(self) -> Optional[float]:
        """Mean time from a query's first crash-abort to its eventual
        completion (recovery latency); ``None`` if no crashed query
        ever completed."""
        values = [
            r.completed - r.aborts[0]
            for r in self.records
            if r.aborts and r.completed is not None
        ]
        if not values:
            return None
        return ordered_sum(values) / len(values)

    def resilience_summary(self) -> Dict[str, Optional[float]]:
        """The fault-tolerance headline numbers in one dict."""
        return {
            "faults_injected": float(self.faults_injected),
            "repairs": float(self.repairs),
            "failed": float(self.failed_count()),
            "retries": float(self.retries_total()),
            "wasted_seconds": self.wasted_seconds(),
            "wasted_fraction": self.wasted_fraction(),
            "goodput": self.goodput(),
            "mttr": self.mttr(),
        }

    # -- request lifecycle ------------------------------------------------

    def shed_counts(self, tenant: Optional[str] = None) -> Dict[str, int]:
        """Shed queries grouped by reason (``drop_newest``,
        ``drop_oldest``, ``deadline_aware``, ``expired``,
        ``tenant_queue_limit`` — plus anything a custom policy
        labels), optionally for one tenant."""
        counts: Dict[str, int] = {}
        for r in self.records:
            if r.shed is not None and (tenant is None or r.tenant == tenant):
                counts[r.shed] = counts.get(r.shed, 0) + 1
        return counts

    def shed_count(self, tenant: Optional[str] = None) -> int:
        """Queries shed by load shedding or queue expiry — they never
        ran to term."""
        return sum(
            1
            for r in self.records
            if r.shed is not None and (tenant is None or r.tenant == tenant)
        )

    def expired_count(self, tenant: Optional[str] = None) -> int:
        """Queries whose deadline passed while they were still queued."""
        return self.shed_counts(tenant).get("expired", 0)

    def cancelled_count(self) -> int:
        return sum(1 for r in self.records if r.cancelled)

    def deadline_missed_count(self) -> int:
        """Queries that missed their deadline: expired in the queue or
        aborted mid-run when the deadline fired."""
        return sum(1 for r in self.records if r.deadline_missed)

    def deadline_aborted_count(self) -> int:
        """Queries the engine started and then aborted at the deadline
        — admitted work that burnt machine time without a result."""
        return sum(
            1 for r in self.records if r.deadline_missed and r.shed is None
        )

    def deadline_miss_rate(self) -> Optional[float]:
        """Deadline misses among *completed* deadlined queries; ``None``
        when no completed query carried a deadline.  Under enforced
        deadlines this is 0 by construction (a running query aborts at
        its deadline instead of finishing late) — reported so the
        invariant is observable."""
        deadlined = [r for r in self.completed() if r.deadline is not None]
        if not deadlined:
            return None
        missed = sum(1 for r in deadlined if r.latency > r.deadline)
        return missed / len(deadlined)

    def lifecycle_summary(self) -> Dict[str, Optional[float]]:
        """The request-lifecycle headline numbers in one dict."""
        return {
            "shed": float(self.shed_count()),
            "expired": float(self.expired_count()),
            "deadline_aborted": float(self.deadline_aborted_count()),
            "deadline_missed": float(self.deadline_missed_count()),
            "cancelled": float(self.cancelled_count()),
            "miss_rate_completed": self.deadline_miss_rate(),
            "goodput": self.goodput(),
        }

    # -- multi-tenancy ----------------------------------------------------

    def tenant_summary(self) -> Dict[str, Dict]:
        """Per-tenant service numbers, one cell per tenant name.

        Each cell carries ``submitted`` / ``completed`` / ``useful``
        (in-deadline completions) / ``shed`` / ``expired`` /
        ``rejected`` / ``failed`` counts, the tenant's ``goodput``
        (useful completions per simulated second), and its
        ``latency`` stats dict (all-``None`` when nothing completed —
        never fake zeros).  Untenanted queries are not summarized
        here; the top-level metrics still cover everything.
        """
        summary: Dict[str, Dict] = {}
        for tenant in self.tenants():
            records = self.tenant_records(tenant)
            summary[tenant] = {
                "submitted": len(records),
                "completed": len(self.completed(tenant)),
                "useful": self.useful_count(tenant),
                "shed": self.shed_count(tenant),
                "expired": self.expired_count(tenant),
                "rejected": sum(1 for r in records if r.rejected),
                "failed": sum(1 for r in records if r.failed),
                "goodput": self.goodput(tenant),
                "latency": self.latency_stats(tenant),
            }
        return summary

    # -- emission ---------------------------------------------------------

    def rows(self) -> List[Dict]:
        """Per-query JSONL rows, in submission order."""
        return [record.row() for record in self.records]

    def write_jsonl(self, path):
        """Emit the rows through the runner's deterministic writer."""
        from ..runner.results import write_jsonl

        return write_jsonl(path, self.rows())

    def summary(self) -> str:
        stats = self.latency_stats()
        if stats["mean"] is None:
            latency = "latency n/a (no completions)"
        else:
            latency = (
                f"latency mean {stats['mean']:.2f}s "
                f"p50 {stats['p50']:.2f}s p95 {stats['p95']:.2f}s "
                f"p99 {stats['p99']:.2f}s"
            )
        text = (
            f"{self.policy}@{self.machine_size}p: "
            f"{len(self.completed())}/{len(self.records)} completed "
            f"({self.rejected_count()} rejected), "
            f"makespan {self.makespan:.1f}s, "
            f"throughput {self.throughput():.3f} q/s, "
            f"utilization {self.utilization():.0%}, "
            f"{latency}, "
            f"queue delay {self.mean_queue_delay():.2f}s, "
            f"peak in-flight {self.peak_in_flight}"
        )
        if self.faults_injected or self.failed_count():
            mttr = self.mttr()
            text += (
                f" | faults: {self.faults_injected} crashes "
                f"({self.repairs} repaired), {self.failed_count()} failed, "
                f"{self.retries_total()} retries, "
                f"wasted {self.wasted_seconds():.1f}s "
                f"({self.wasted_fraction():.0%}), "
                f"mttr {'n/a' if mttr is None else f'{mttr:.2f}s'}"
            )
        if (
            self.shed_count()
            or self.cancelled_count()
            or self.deadline_missed_count()
        ):
            miss_rate = self.deadline_miss_rate()
            text += (
                f" | lifecycle: {self.shed_count()} shed "
                f"({self.expired_count()} expired), "
                f"{self.deadline_aborted_count()} deadline-aborted, "
                f"{self.cancelled_count()} cancelled, "
                "miss rate "
                f"{'n/a' if miss_rate is None else f'{miss_rate:.0%}'}, "
                f"goodput {self.goodput():.3f} q/s"
            )
        if self.fast_path_queries:
            text += (
                f" | fast path: {self.fast_path_queries} queries "
                "replayed analytically"
            )
        if self.scheduler is not None:
            text += (
                f" | scheduler {self.scheduler}: "
                f"{self.scheduling_decisions} decisions"
            )
            names = self.tenants()
            if names:
                shares = ", ".join(
                    f"{name} {self.goodput(name):.3f} q/s"
                    for name in names
                )
                text += f"; tenants: {shares}"
        return text


def saturation_knee(
    loads: Sequence[float],
    latencies: Sequence[Optional[float]],
    factor: float = 2.0,
) -> Optional[float]:
    """The offered load at which latency leaves the flat region.

    The classic throughput-latency curve is flat while the machine
    keeps up and turns sharply once queueing dominates; the knee is
    the first load whose latency exceeds ``factor`` times the
    lightest-load latency.  Returns ``None`` when the curve never
    leaves the flat region (the machine was never saturated).

    Points without a latency (``None``, e.g. a fully rejected load
    point) or with a non-positive one are skipped: they cannot anchor
    a ratio test, and a zero baseline would make every later point a
    false knee.
    """
    if len(loads) != len(latencies):
        raise ValueError("loads and latencies must have equal length")
    if factor <= 1.0:
        raise ValueError("factor must exceed 1.0")
    points = sorted(
        (load, latency)
        for load, latency in zip(loads, latencies)
        if latency is not None and latency > 0.0
    )
    if not points:
        return None
    baseline = points[0][1]
    for load, latency in points:
        if latency > factor * baseline:
            return load
    return None
