"""The shared-machine workload engine.

One :class:`SharedMachine` — a single simulated clock, one pool of
processors, one interconnect — hosts many query runs concurrently.
Each arriving query passes an admission controller (bounded queue,
max-concurrency gate, optional memory-budget gate), receives
processors from the configured
:class:`~repro.workload.policies.AllocationPolicy`, and then executes
as a hosted :class:`~repro.sim.run.ScheduleSimulation` whose scheduler
starts at the admission instant.  Completions release processors and
re-drive admission, so the whole workload is one deterministic
discrete-event run.

This is the departure from the paper the ROADMAP asks for: the paper
measures one query on a dedicated machine; here the same simulated
machine serves traffic.  With one query and an exclusive whole-machine
allocation the engine reproduces the single-query result exactly
(golden-equivalence test), so the multi-query layer is a strict
superset of the reproduction.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.cost import CostModel
from ..core.memory import MemoryModel, peak_memory_per_processor
from ..core.numeric import ordered_sum
from ..core.strategies import get_strategy
from ..sim import turbo
from ..sim.events import EventHandle, SimulationClock
from ..sim.machine import MachineConfig, NetworkLink, Processor
from ..sim.run import ScheduleSimulation
from ..sim.watchdog import (
    DEFAULT_MAX_EVENTS_PER_INSTANT,
    Watchdog,
    WatchdogError,
)
from .lifecycle import (
    DropNewestPolicy,
    ShedPolicy,
    deadline_rng,
    make_shed_policy,
    resolve_deadline,
)
from .metrics import QueryRecord, WorkloadResult
from .mix import QueryMix, QuerySpec
from .policies import (
    Allocation,
    AllocationPolicy,
    ExclusivePolicy,
    InfeasibleQueryError,
    MachineView,
    make_policy,
)
from .sched import Scheduler, TenantSpec, make_scheduler, make_tenants

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import CrashFault, FaultInjector, FaultSchedule

#: Recovery policies the engine can apply to a crashed query.
RECOVERY_POLICIES = ("fail", "restart", "reassign")

#: Minimum simulated delay before a closed-loop client retries after a
#: rejection.  A client with ``think_time=0`` would otherwise resubmit
#: at the very simulated instant of the rejection, be rejected again,
#: and livelock the clock without ever advancing time; any positive
#: delay makes the ``duration`` horizon reachable.
REJECTED_RETRY_DELAY = 0.1

_INF = float("inf")


class _FastPathMiss(RuntimeError):
    """An abort reached a fast-path epoch whose completion was already
    committed past ``now``: an actor its barrier did not bound acted on
    it.  The resilient cluster lets this happen on purpose when a hedge
    sibling it speculated on acts first, and reruns without
    speculating."""


class _Admissions:
    """How the queries admitted at the latest instant went, as the
    fast-path twin rule needs it (``WorkloadEngine._fast_path_barrier``).
    Each admission draws an order number; the record keeps the earliest
    one that went classic at its instant, and the instant a query last
    started on processors still busy."""

    __slots__ = ("count", "classic_at", "classic_first", "busy_at")

    def __init__(self) -> None:
        self.count = 0
        self.classic_at = -_INF
        self.classic_first = 0
        self.busy_at = -_INF

    def admit(self) -> int:
        self.count += 1
        return self.count

    def classic(self, now: float, order: int) -> None:
        if self.classic_at != now or order < self.classic_first:
            self.classic_at = now
            self.classic_first = order

    def holds_back(self, now: float, order: int) -> bool:
        """Must the query admitted ``order``-th at ``now`` stay classic?"""
        return self.busy_at == now or (
            self.classic_at == now and self.classic_first < order
        )


class SharedMachine(MachineView):
    """One simulated machine shared by every query of the workload.

    ``clock`` lets a coordinator host several machines on *one*
    simulated clock (the resilient cluster runs N shard engines in a
    single event space); ``None`` keeps the historical private clock.
    """

    def __init__(
        self,
        size: int,
        config: MachineConfig,
        clock: Optional[SimulationClock] = None,
    ):
        if size < 1:
            raise ValueError("a machine needs at least one processor")
        self.size = size
        self.config = config
        self.clock = clock if clock is not None else SimulationClock()
        self.processors: Dict[int, Processor] = {
            ident: Processor(ident) for ident in range(size)
        }
        self.network = NetworkLink(config.network_bandwidth)
        self._free = set(range(size))
        self._failed: set = set()

    def free_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._free - self._failed))

    def fail(self, ident: int) -> None:
        """Crash-stop one processor: it stops being allocatable until
        (and unless) :meth:`repair` brings it back."""
        if ident not in self.processors:
            raise ValueError(f"no processor {ident}")
        self._failed.add(ident)
        processor = self.processors[ident]
        if processor.failed_at is None:
            processor.failed_at = self.clock.now

    def repair(self, ident: int) -> None:
        self._failed.discard(ident)

    def failed_ids(self) -> FrozenSet[int]:
        return frozenset(self._failed)

    def claim(self, ids: Sequence[int]) -> None:
        missing = [i for i in ids if i not in self._free]
        if missing:
            raise ValueError(f"processors {missing} are not free")
        self._free.difference_update(ids)

    def release(self, ids: Sequence[int]) -> None:
        overlap = self._free.intersection(ids)
        if overlap:
            raise ValueError(f"processors {sorted(overlap)} already free")
        self._free.update(ids)

    def busy_seconds(self) -> float:
        return ordered_sum(p.busy_time() for p in self.processors.values())


class WorkloadEngine:
    """Admission control + allocation + hosted execution for N queries.

    ``max_concurrent``
        Hard bound on queries executing simultaneously (None: only the
        policy's processor availability limits concurrency).
    ``queue_limit``
        Bound on queries *waiting* for admission; an arrival that
        cannot start and finds the queue full is rejected (None:
        unbounded FIFO).
    ``memory_budget_bytes``
        Optional predictive gate: the analytic per-processor memory
        peaks of every in-flight plan must sum below this budget.  A
        query whose own demand exceeds the budget still runs alone —
        the gate throttles concurrency, it never starves the queue.
    ``faults`` / ``recovery`` / ``max_retries`` / ``retry_backoff``
        Optional :class:`~repro.faults.FaultSchedule` (or prepared
        injector) and the policy applied to crashed queries: ``fail``
        records the crash as a terminal error, ``restart`` re-queues
        the whole query with exponential backoff (``retry_backoff *
        2**(retries-1)`` seconds), ``reassign`` immediately re-queues
        it, replaying every materialized task result that survived on
        healthy processors (pipelined FP state cannot survive, so FP
        degenerates to an immediate restart).  ``max_retries`` bounds
        the extra attempts before the query is declared failed.
    ``rejected_retry_delay``
        Simulated delay before a zero-think-time closed-loop client
        retries after a rejection (default
        :data:`REJECTED_RETRY_DELAY`; see its rationale).
    ``deadline`` / ``deadline_seed``
        Default response-time bound in simulated seconds *relative to
        each query's arrival*: a float applies uniformly, a ``(lo,
        hi)`` tuple draws per-query deadlines uniformly from that
        range with a dedicated generator seeded by ``deadline_seed``
        (so arrival sampling is untouched).  A spec's own
        ``deadline`` overrides the engine default.  A query still
        queued at its deadline is expired; a *running* query is
        aborted at the deadline instant through the simulation's
        abort machinery and recorded as a deadline miss.  ``None``
        (the default) arms nothing — the run is bit-for-bit identical
        to an engine without deadlines.
    ``shed``
        Load-shedding policy: a name from
        :data:`~repro.workload.lifecycle.SHED_POLICY_NAMES`, or a
        :class:`~repro.workload.lifecycle.ShedPolicy` instance.
        ``None`` is ``"drop_newest"``, the bare ``queue_limit``
        bounce.
    ``watchdog_limit``
        Trip threshold of the livelock watchdog armed on the shared
        clock (events at one simulated instant before the run is
        declared stuck); ``None`` disables it.  The watchdog only
        observes — it never changes results unless it trips.
    ``scheduler`` / ``pool_size`` / ``scheduling_cost``
        Ordering policy over the admission queue: ``None`` keeps the
        legacy FIFO deque (bit-for-bit), a name from
        :data:`~repro.workload.sched.SCHEDULER_NAMES` or a
        :class:`~repro.workload.sched.Scheduler` instance plugs the
        decision in.  ``pool_size`` bounds the scheduler's visibility
        to the first K queued queries per decision; ``scheduling_cost``
        charges each admission decision on the simulated clock (the
        decision fires that long after it is triggered, so with a
        serialized machine the makespan grows by exactly
        ``decisions × cost``).  Both knobs require a scheduler.  With
        a positive cost nothing is admitted synchronously at arrival,
        so a full queue bounces the newcomer even when it would have
        started — decision latency is real admission latency.
    ``tenants``
        Per-tenant contracts (:class:`~repro.workload.sched.TenantSpec`
        instances, payload dicts, or a ``{name: TenantSpec}`` mapping):
        fair-share weights and priorities for the schedulers, default
        deadlines, and per-tenant queue/concurrency caps.  Queries
        pick their tenant up from ``QuerySpec.tenant``.
    """

    def __init__(
        self,
        machine_size: int = 40,
        policy: Optional[AllocationPolicy] = None,
        *,
        config: Optional[MachineConfig] = None,
        cost_model: Optional[CostModel] = None,
        skew_theta: float = 0.0,
        max_concurrent: Optional[int] = None,
        queue_limit: Optional[int] = None,
        memory_budget_bytes: Optional[float] = None,
        memory_model: Optional[MemoryModel] = None,
        faults: Optional[object] = None,
        recovery: str = "fail",
        max_retries: int = 3,
        retry_backoff: float = 1.0,
        rejected_retry_delay: Optional[float] = None,
        deadline: Union[None, float, Tuple[float, float]] = None,
        deadline_seed: int = 0,
        shed: Union[None, str, ShedPolicy] = None,
        watchdog_limit: Optional[int] = DEFAULT_MAX_EVENTS_PER_INSTANT,
        scheduler: Union[None, str, Scheduler] = None,
        pool_size: Optional[int] = None,
        scheduling_cost: float = 0.0,
        tenants=None,
        fast_path: bool = True,
        clock: Optional[SimulationClock] = None,
        on_query_done=None,
    ):
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError("max_concurrent must be positive")
        if queue_limit is not None and queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        if memory_budget_bytes is not None and memory_budget_bytes < 0:
            raise ValueError("memory_budget_bytes must be non-negative")
        if recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_POLICIES}, got {recovery!r}"
            )
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if rejected_retry_delay is None:
            rejected_retry_delay = REJECTED_RETRY_DELAY
        if rejected_retry_delay <= 0:
            raise ValueError(
                "rejected_retry_delay must be positive (a zero delay "
                "livelocks zero-think-time closed loops)"
            )
        if deadline is not None:
            if isinstance(deadline, (int, float)):
                if deadline <= 0:
                    raise ValueError(
                        "deadline must be positive (seconds from arrival)"
                    )
            else:
                low, high = deadline
                if low <= 0 or high < low:
                    raise ValueError(
                        "a deadline range needs 0 < lo <= hi, got "
                        f"({low}, {high})"
                    )
        if scheduling_cost < 0:
            raise ValueError("scheduling_cost must be non-negative")
        self.scheduler = make_scheduler(scheduler)
        if self.scheduler is None:
            if pool_size is not None:
                raise ValueError(
                    "pool_size needs a scheduler (the legacy FIFO deque "
                    "has no visibility pool)"
                )
            if scheduling_cost > 0:
                raise ValueError(
                    "scheduling_cost needs a scheduler (the legacy FIFO "
                    "deque admits for free)"
                )
        self.scheduling_cost = scheduling_cost
        self.tenants: Dict[str, TenantSpec] = make_tenants(tenants)
        self.machine = SharedMachine(
            machine_size, config or MachineConfig.paper(), clock=clock
        )
        #: Optional terminal-event hook: called with each record the
        #: instant it turns terminal (completed, rejected, failed,
        #: cancelled, shed).  The resilient cluster coordinator hangs
        #: its retry/hedge/breaker reactions here; ``None`` (default)
        #: leaves the engine's behaviour untouched.
        self.on_query_done = on_query_done
        if self.scheduler is not None:
            self.scheduler.attach(self, pool_size)
        self.policy = policy if policy is not None else ExclusivePolicy()
        self.cost_model = cost_model or CostModel()
        self.skew_theta = skew_theta
        self.max_concurrent = max_concurrent
        self.queue_limit = queue_limit
        self.memory_budget_bytes = memory_budget_bytes
        self.memory_model = memory_model or MemoryModel()
        self.recovery = recovery
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.rejected_retry_delay = rejected_retry_delay
        self.deadline = deadline
        self._deadline_rng = deadline_rng(deadline_seed)
        self.shed = (
            make_shed_policy(shed) if shed is not None else DropNewestPolicy()
        )
        if watchdog_limit is not None:
            self.machine.clock.watchdog = Watchdog(watchdog_limit)
        self._deadline_handles: Dict[int, EventHandle] = {}
        self.injector: Optional["FaultInjector"] = None
        if faults is not None:
            from ..faults import FaultInjector, FaultSchedule

            injector = (
                FaultInjector(faults)
                if isinstance(faults, FaultSchedule)
                else faults
            )
            if not isinstance(injector, FaultInjector):
                raise TypeError(
                    "faults must be a FaultSchedule or FaultInjector"
                )
            injector.attach_engine(self)
            self.injector = injector
        #: Attempt the turbo fast path for processor-disjoint epochs
        #: (see :meth:`_fast_path_barrier`).  Pure performance: results
        #: are bit-identical either way (pinned by the golden fixtures),
        #: so this stays on by default and exists mainly so tests and
        #: benchmarks can compare against the classic event loop.
        self.fast_path = bool(fast_path)
        #: Queries whose whole epoch replayed analytically.
        self.fast_path_queries = 0
        # Times of the pending ``cancel_at`` events (a min-heap; entries
        # already in the past are dropped lazily).
        self._cancel_times: List[float] = []
        # How this instant's admissions went, for the twin rule; a
        # coordinator sharing the clock shares one among its engines.
        self._admissions = _Admissions()
        # A coordinator sharing the clock bounds what else can act on a
        # claimed query: ``fn(record) -> time | None`` (see
        # :meth:`_fast_path_barrier`).
        self._host_barrier = None
        self.records: List[QueryRecord] = []
        self._queue: Deque[QueryRecord] = deque()
        # record.index -> (record, sim, allocation, memory_bytes)
        self._active: Dict[
            int, Tuple[QueryRecord, ScheduleSimulation, Allocation, float]
        ] = {}
        # Surviving materialized task results, per query (``reassign``).
        self._credits: Dict[int, FrozenSet[int]] = {}
        self._in_flight = 0
        self._memory_in_use = 0.0
        self.peak_in_flight = 0
        self.peak_queued = 0
        #: Admission decisions the scheduler performed (admissions,
        #: expiries, and rejections it picked — not blocked looks).
        self.scheduling_decisions = 0
        self._decision_pending = False  # a costed decision is in flight
        self._tenant_running: Dict[str, int] = {}
        self._started = False
        # Closed-loop state (populated by run_closed).
        self._clients: Dict[int, random.Random] = {}
        self._client_issued: Dict[int, int] = {}
        self._closed_mix: Optional[QueryMix] = None
        self._think_time = 0.0
        self._queries_per_client: Optional[int] = None
        self._horizon: Optional[float] = None

    @classmethod
    def from_options(cls, options: Dict, **extra) -> "WorkloadEngine":
        """Build an engine from a per-shard engine-options dict
        (:func:`repro.options.engine_options`): ``machine_size`` and
        the ``policy`` name + ``share`` become the positional pair, the
        rest are this constructor's keywords under their own names.
        ``extra`` carries what no knob spells (``clock``,
        ``on_query_done``, a subclass's own keywords)."""
        options = dict(options)
        policy = make_policy(options.pop("policy"), options.pop("share"))
        return cls(options.pop("machine_size"), policy, **options, **extra)

    # -- submission -------------------------------------------------------

    def submit_at(
        self, time: float, spec: QuerySpec, client: Optional[int] = None
    ) -> QueryRecord:
        """Register one query arriving at simulated ``time``."""
        record = QueryRecord(
            index=len(self.records),
            spec=spec,
            arrival=time,
            client=client,
            deadline=resolve_deadline(
                spec, self.tenants, self.deadline, self._deadline_rng
            ),
            tenant=spec.tenant,
        )
        self.records.append(record)
        self.machine.clock.at(time, self._arrive, record)
        if record.deadline is not None:
            # Cancellable: a deadline that never fires leaves no trace
            # in event counts or the makespan.
            self._deadline_handles[record.index] = (
                self.machine.clock.at_cancellable(
                    time + record.deadline, self._deadline_fire, record
                )
            )
        return record

    # -- the two workload drivers ----------------------------------------

    def run_open(
        self, arrivals: Sequence[Tuple[float, QuerySpec]]
    ) -> WorkloadResult:
        """Open loop: a fixed arrival list (time, spec), e.g. from
        :func:`repro.workload.arrivals.make_arrivals` × a seeded mix."""
        self._claim_single_use()
        for time, spec in arrivals:
            self.submit_at(time, spec)
        return self._drain()

    def run_closed(
        self,
        mix: QueryMix,
        clients: int,
        *,
        think_time: float = 0.0,
        queries_per_client: Optional[int] = None,
        duration: Optional[float] = None,
        seed: int = 0,
    ) -> WorkloadResult:
        """Closed loop: ``clients`` users each submit, wait for their
        result, think for ``think_time`` seconds, and submit again —
        until a per-client query budget or the simulated ``duration``
        horizon is reached."""
        self._claim_single_use()
        if clients < 1:
            raise ValueError("need at least one client")
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        if queries_per_client is None and duration is None:
            raise ValueError(
                "closed loop needs queries_per_client or duration to stop"
            )
        if queries_per_client is not None and queries_per_client < 1:
            raise ValueError("queries_per_client must be positive")
        self._closed_mix = mix
        self._think_time = think_time
        self._queries_per_client = queries_per_client
        self._horizon = duration
        for client in range(clients):
            self._clients[client] = random.Random(seed + 1_000_003 * client)
            self._client_issued[client] = 0
            self._submit_for_client(client, 0.0)
        return self._drain()

    # -- cancellation -----------------------------------------------------

    def cancel(
        self,
        query: Union[int, QueryRecord],
        reason: str = "cancelled by caller",
    ) -> bool:
        """Withdraw one query *now* (callable from inside the run, e.g.
        an event scheduled via :meth:`cancel_at` or a service request
        handled between events).

        A queued query is removed from the queue; a running query's
        hosted simulation is unwound through the abort machinery and
        its processors/memory released.  Returns ``False`` when the
        query is already terminal (completed, rejected, failed, or
        cancelled) — cancellation is idempotent, never an error.

        Under a claiming policy only :meth:`cancel_at` times (and a
        coordinator's own bound) hold a running query back from the fast
        path (see :meth:`_fast_path_barrier`): cancel a running query
        from inside the run through :meth:`cancel_at`, or build the
        engine with ``fast_path=False`` — a call from any other clock
        event may find its epoch already committed past ``now``, and
        raises ``RuntimeError``.
        """
        record = self.records[query] if isinstance(query, int) else query
        if self._terminal(record):
            return False
        if record.index in self._active:
            self._abort_active(record, reason)
            record.cancelled = True
            record.error = reason
            self._pump()
        else:
            # Queued — or in a crash-retry gap, where there is nothing
            # to unwind beyond forgetting the pending re-arrival.
            self._remove_queued(record)
            record.cancelled = True
            record.error = reason
        self._query_done(record)
        return True

    def cancel_at(
        self,
        time: float,
        query: Union[int, QueryRecord],
        reason: str = "cancelled by caller",
    ) -> None:
        """Schedule a cancellation at simulated ``time``.  An index may
        refer to a query submitted later (closed-loop records are not
        known up front); a cancellation whose target never materializes
        or is already terminal is a no-op."""
        heapq.heappush(self._cancel_times, time)
        self.machine.clock.at(time, self._cancel_event, query, reason)

    def _cancel_event(
        self, query: Union[int, QueryRecord], reason: str
    ) -> None:
        if isinstance(query, int) and not 0 <= query < len(self.records):
            return
        self.cancel(query, reason)

    def _terminal(self, record: QueryRecord) -> bool:
        return (
            record.completed is not None
            or record.rejected
            or record.failed
            or record.cancelled
        )

    def _enqueue(self, record: QueryRecord) -> None:
        """Join the admission queue.  The deque is the one arrival-
        ordered queue: shed policies scan it and a configured scheduler
        ranks it.  Recovery re-admissions come through here too, so the
        scheduler's hook sees their *original* arrival — a retry is not
        a fresh arrival."""
        self._queue.append(record)
        self.peak_queued = max(self.peak_queued, len(self._queue))
        if self.scheduler is not None:
            self.scheduler.enqueue(record)

    def _remove_queued(self, record: QueryRecord) -> bool:
        """Drop ``record`` from the admission queue by identity (the
        deque holds mutable dataclasses; ``deque.remove`` would compare
        by value)."""
        for position, queued in enumerate(self._queue):
            if queued is record:
                del self._queue[position]
                return True
        return False

    # -- event handlers ---------------------------------------------------

    def _arrive(self, record: QueryRecord) -> None:
        if self._terminal(record):
            return  # cancelled before its arrival event fired
        if self.shed.shed_on_arrival(self, record):
            # Predictive shedding: refused before consuming queue space.
            record.rejected = True
            record.shed = self.shed.name
            record.error = (
                "shed at admission: predicted completion misses the "
                f"{record.deadline:.3f}s deadline"
                if record.deadline is not None
                else "shed at admission"
            )
            self._query_done(record)
            return
        if not self._tenant_admits(record):
            return
        self._enqueue(record)
        self._pump()
        if (
            self.queue_limit is not None
            and self._queue
            and self._queue[-1] is record
            and len(self._queue) > self.queue_limit
        ):
            # The newcomer could not start and the admission queue is
            # full: shed one queued query (open systems shed load;
            # closed-loop clients move on to their next request).  The
            # victim is the newcomer itself unless a policy picks
            # another — evicting the head may let the new head start.
            victim = self.shed.overflow_victim(self, record)
            self._remove_queued(victim)
            victim.rejected = True
            victim.shed = self.shed.overflow_reason
            self._query_done(victim)
            if victim is not record:
                self._pump()

    def _pump(self) -> None:
        """Drive admission: take decisions while they succeed, or (with
        a positive ``scheduling_cost``) arm one costed decision on the
        clock."""
        if self.scheduling_cost > 0.0:
            self._schedule_decision()
        else:
            while self._admit_next():
                pass

    def _admission_open(self) -> bool:
        """Is there a queued query and room under ``max_concurrent``?"""
        return bool(self._queue) and (
            self.max_concurrent is None
            or self._in_flight < self.max_concurrent
        )

    def _admit_next(self) -> bool:
        """One admission decision, the only place a queued query is
        picked and admitted: the scheduler's pick, or without one the
        queue head.  Returns whether a queued query was retired
        (admitted, expired or rejected); a blocked or empty pick leaves
        the queue as it was."""
        if not self._admission_open():
            return False
        if self.scheduler is None:
            record = self._queue[0]
            if not self._tenant_can_run(record):
                # Strict FIFO: a head whose tenant is at its
                # concurrency cap blocks the line (ordering is the
                # contract; use a scheduler to skip past it).
                return False
        else:
            record = self.scheduler.pick(
                self._queue, self.machine, self.machine.clock.now
            )
            if record is None:
                return False
        if self._admit(record) == "blocked":
            return False
        if self.scheduler is not None:
            self.scheduling_decisions += 1
        return True

    def _schedule_decision(self) -> None:
        """Arm one admission decision ``scheduling_cost`` seconds out
        (unless one is already pending or nothing could be admitted)."""
        if self._decision_pending or not self._admission_open():
            return
        self._decision_pending = True
        self.machine.clock.after(self.scheduling_cost, self._decision_fire)

    def _decision_fire(self) -> None:
        """One costed scheduling decision, then arm the next one.  A
        blocked pick does *not* re-arm — re-scanning an unchanged queue
        forever would melt simulated time; the next completion, repair,
        or arrival re-pumps."""
        self._decision_pending = False
        if self._admit_next():
            self._schedule_decision()

    def _admit(self, record: QueryRecord) -> str:
        """Try to start one queued query *now*.

        Returns ``"admitted"``, ``"expired"`` (deadline already
        passed), ``"rejected"`` (the policy can never run it), or
        ``"blocked"`` (no allocation right now — leave it queued).
        Everything but ``"blocked"`` removes the record from the
        queue."""
        if (
            record.deadline is not None
            and self.machine.clock.now
            >= record.arrival + record.deadline
        ):
            # Never start a query whose deadline has already passed
            # (completion and expiry events can share an instant).
            self._remove_queued(record)
            self._expire(record)
            return "expired"
        tree = record.spec.tree()
        catalog = record.spec.catalog()
        try:
            allocation = self.policy.allocate(
                record.spec, tree, catalog, self.machine, self.cost_model
            )
        except InfeasibleQueryError as exc:
            # One query the policy can never run must not abort the
            # workload mid-simulation: shed it and keep draining.
            self._remove_queued(record)
            record.rejected = True
            record.error = str(exc)
            self._query_done(record)
            return "rejected"
        if allocation is None:
            return "blocked"
        schedule = get_strategy(allocation.strategy).schedule(
            allocation.tree,
            catalog,
            len(allocation.processors),
            self.cost_model,
        )
        memory_bytes = 0.0
        if self.memory_budget_bytes is not None:
            memory_bytes = ordered_sum(
                peak_memory_per_processor(
                    schedule, catalog, self.memory_model, self.cost_model
                ).values()
            )
            over = (
                self._memory_in_use + memory_bytes
                > self.memory_budget_bytes
            )
            if over and self._in_flight > 0:
                return "blocked"
        self._remove_queued(record)
        if allocation.exclusive:
            self.machine.claim(allocation.processors)
        now = self.machine.clock.now
        if record.admitted is None:
            record.admitted = now
        record.strategy = allocation.strategy
        record.processors = allocation.processors
        # First attempt keeps the historical "Q<i>:" trace label;
        # retries get distinct prefixes so wasted work attributes
        # to the attempt that burnt it.
        attempt = record.attempts
        prefix = (
            f"Q{record.index}:"
            if attempt == 0
            else f"Q{record.index}r{attempt}:"
        )
        record.attempts += 1
        pool = {
            logical: self.machine.processors[physical]
            for logical, physical in enumerate(allocation.processors)
        }
        hosted = dict(
            clock=self.machine.clock,
            processor_pool=pool,
            start_at=now,
            label_prefix=prefix,
            on_complete=lambda sim, record=record: self._finish(
                record, sim
            ),
            network=self.machine.network,
        )
        skip = self._credits.get(record.index, frozenset())
        order = self._admissions.admit()
        if any(
            self.machine.processors[ident].busy_until > now
            for ident in allocation.processors
        ):
            # Still finishing an aborted query's chunk: this query starts
            # out of lock step with its twins (see _fast_path_barrier).
            self._admissions.busy_at = now
        try:
            sim = ScheduleSimulation(
                schedule,
                catalog,
                self.machine.config,
                self.cost_model,
                self.skew_theta,
                skip_tasks=skip,
                **hosted,
            )
        except ValueError:
            # The credited results no longer fit this attempt's plan
            # (e.g. the strategy changed to pipelined dataflow):
            # drop the credit and rebuild from scratch.
            self._credits.pop(record.index, None)
            sim = ScheduleSimulation(
                schedule,
                catalog,
                self.machine.config,
                self.cost_model,
                self.skew_theta,
                **hosted,
            )
        record.reused_tasks += len(sim.skip_tasks)
        self._active[record.index] = (record, sim, allocation, memory_bytes)
        self._in_flight += 1
        self._memory_in_use += memory_bytes
        self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        if record.tenant is not None:
            self._tenant_running[record.tenant] = (
                self._tenant_running.get(record.tenant, 0) + 1
            )
        if self.scheduler is not None:
            self.scheduler.admitted(record, now)
        # Hosted epoch: if no pending event can act on this query before
        # it completes, its whole epoch can replay on the turbo fast
        # path instead of draining the event heap.  That is decided when
        # the sim's first build event dispatches (_start_epoch).
        if (
            self.fast_path
            and self.injector is None
            and record.deadline is None
            and not sim.skip_tasks
        ):
            sim.on_start = (
                lambda sim, record=record, allocation=allocation, order=order:
                self._start_epoch(record, allocation, sim, order)
            )
        else:
            self._admissions.classic(now, order)
        return "admitted"

    def _start_epoch(
        self,
        record: QueryRecord,
        allocation: Allocation,
        sim: ScheduleSimulation,
        order: int,
    ) -> bool:
        """The fast-path decision, taken as ``sim``'s first build event
        dispatches; ``True`` when the whole epoch replayed analytically.
        All admission bookkeeping is long done, so a successful fast
        path leaves engine state exactly where the classic loop would; a
        rollback (barrier miss or same-instant tie) leaves the sim's
        other build events armed and the heap drains it classically.
        Every epoch whose barrier lies after ``now`` is computed: the
        exact ``finished_at < barrier`` check in ``execute_hosted`` is
        the only gate, and no model estimate is consulted."""
        now = self.machine.clock.now
        barrier = self._fast_path_barrier(record, allocation, sim, order)
        if (
            barrier is not None
            and now < barrier
            and turbo.execute_hosted(sim, barrier) is not None
        ):
            self.fast_path_queries += 1
            return True
        self._admissions.classic(now, order)
        return False

    def _fast_path_barrier(
        self,
        record: QueryRecord,
        allocation: Allocation,
        sim: ScheduleSimulation,
        order: int,
    ) -> Optional[float]:
        """The earliest pending event that can act on ``record`` once it
        runs on ``allocation``, or ``None`` when its epoch must take the
        classic loop.

        A claimed allocation hands the query processors no other query
        touches until its one completion event releases them.
        Everything else the engine does — other arrivals, completions,
        re-arrivals, costed decisions, other records' deadlines,
        autoscale rechecks and drains — admits, retires or drains
        *other* queries and commutes with this epoch; of the engine's
        own events only a ``cancel_at`` can act on it.  A coordinator
        sharing the clock knows the actors the engine cannot see (the
        resilient cluster: a crash of the query's shard, a hedge sibling
        finishing first) and adds their bound through ``_host_barrier``,
        or ``None`` to keep the query classic.

        One order does not commute: a fast-path completion event is
        pushed when the epoch starts, a classic one by the query's last
        task.  Twins — one spec admitted at one instant — run in lock
        step and finish at the same instant, and in admission order.  So
        the query stays classic when a query admitted before it at this
        instant went classic (it would complete first where the classic
        loop completes it second), and when any query admitted at this
        instant started on processors still finishing an aborted
        query's chunk (late for its first chunks, such a twin can catch
        up and finish first).  The decision waits for the query's first
        build event so that both are known for everything its admitting
        callback did after it — a hedge winner's engine admits its next
        query *before* the router cancels the loser and the loser's
        engine admits onto the still-busy processors.  The record of
        both (``_admissions``) is shared by every engine on the clock.

        Time-shared ``round_robin`` slices claim nothing: the query must
        be alone on the machine, and every pending event but its own
        build events is a barrier."""
        now = self.machine.clock.now
        if self._admissions.holds_back(now, order):
            return None
        if not allocation.exclusive:
            if self._in_flight > 1 or self._queue or self._decision_pending:
                return None
            return self._earliest_pending_event(set(sim._build_handles))
        cancels = self._cancel_times
        while cancels and cancels[0] < now:
            heapq.heappop(cancels)
        barrier = cancels[0] if cancels else _INF
        if self._host_barrier is None:
            return barrier
        host = self._host_barrier(record)
        return None if host is None else min(barrier, host)

    def _earliest_pending_event(self, own) -> float:
        """Earliest live event on the shared clock other than the
        ``own`` handles — the barrier before which a hosted fast-path
        epoch must fully complete.  Cancelled entries are lazily
        deleted tombstones and cannot fire."""
        earliest = _INF
        for time, _seq, handle, _fn, _args in self.machine.clock._queue:
            if handle is not None and (handle.cancelled or handle in own):
                continue
            if time < earliest:
                earliest = time
        return earliest

    # -- tenants ----------------------------------------------------------

    def _tenant_admits(self, record: QueryRecord) -> bool:
        """Enforce the tenant's admission-queue cap at arrival; a
        capped-out arrival is shed as ``tenant_queue_limit``."""
        if record.tenant is None:
            return True
        tenant = self.tenants.get(record.tenant)
        if tenant is None or tenant.queue_limit is None:
            return True
        queued = sum(
            1 for waiting in self._queue if waiting.tenant == record.tenant
        )
        if queued < tenant.queue_limit:
            return True
        record.rejected = True
        record.shed = "tenant_queue_limit"
        record.error = (
            f"tenant {record.tenant!r} admission queue limit "
            f"({tenant.queue_limit}) reached"
        )
        self._query_done(record)
        return False

    def _tenant_can_run(self, record: QueryRecord) -> bool:
        """Is the record's tenant under its concurrency cap?"""
        if record.tenant is None:
            return True
        tenant = self.tenants.get(record.tenant)
        if tenant is None or tenant.max_concurrent is None:
            return True
        return (
            self._tenant_running.get(record.tenant, 0)
            < tenant.max_concurrent
        )

    def _tenant_release(self, record: QueryRecord) -> None:
        if record.tenant is not None:
            self._tenant_running[record.tenant] -= 1

    def _finish(self, record: QueryRecord, sim: ScheduleSimulation) -> None:
        record.completed = self.machine.clock.now
        record.result = sim.result()
        _, _, allocation, memory_bytes = self._active.pop(record.index)
        self._credits.pop(record.index, None)
        if allocation.exclusive:
            self.machine.release(allocation.processors)
        self._in_flight -= 1
        self._memory_in_use -= memory_bytes
        self._tenant_release(record)
        self._pump()
        self._query_done(record)

    # -- deadlines --------------------------------------------------------

    def _deadline_fire(self, record: QueryRecord) -> None:
        """The query's deadline instant arrived before it finished."""
        self._deadline_handles.pop(record.index, None)
        if self._terminal(record):
            # A completion sharing this instant dispatched first: met.
            return
        if record.index in self._active:
            self._abort_active(
                record, f"deadline ({record.deadline:.3f}s) expired"
            )
            record.failed = True
            record.deadline_missed = True
            record.error = (
                f"deadline ({record.deadline:.3f}s) expired mid-run"
            )
            self._pump()
            self._query_done(record)
            return
        # Still queued — or waiting out a crash-retry backoff, where
        # there is no pending attempt to unwind.
        self._remove_queued(record)
        self._expire(record)

    def _expire(self, record: QueryRecord) -> None:
        """Shed a query whose deadline passed while it waited."""
        record.rejected = True
        record.shed = "expired"
        record.deadline_missed = True
        record.error = (
            f"deadline ({record.deadline:.3f}s) expired while queued"
        )
        self._query_done(record)

    def _abort_active(
        self, record: QueryRecord, reason: str
    ) -> ScheduleSimulation:
        """Unwind one in-flight hosted simulation: turn its processes
        inert, account the burnt CPU to the record, and release the
        attempt's processors and memory."""
        _, sim, allocation, memory_bytes = self._active.pop(record.index)
        now = self.machine.clock.now
        if sim.finished_at is not None and sim.finished_at > now:
            # Only a fast-path epoch holds its completion ahead of the
            # clock, and its barrier was supposed to exclude this actor.
            raise _FastPathMiss(
                f"query {record.index} aborted at t={now!r} ({reason}) "
                "after its fast-path epoch committed completion at "
                f"t={sim.finished_at!r}: an event the fast-path barrier "
                "does not know acted on it"
            )
        sim.abort(reason)
        # The CPU the attempt burnt, summed per processor.
        record.wasted_seconds += ordered_sum(
            ordered_sum(end - start for start, end, _label in spans)
            for spans in sim.own_intervals().values()
        )
        if allocation.exclusive:
            self.machine.release(allocation.processors)
        self._in_flight -= 1
        self._memory_in_use -= memory_bytes
        self._tenant_release(record)
        return sim

    # -- fault recovery ---------------------------------------------------

    def _handle_crash(self, crash: "CrashFault") -> None:
        """A processor crash-stopped: mark it unavailable, abort every
        query whose allocation touches it, and recover per policy."""
        ident = crash.processor
        self.machine.fail(ident)
        now = self.machine.clock.now
        victims = [
            entry
            for entry in self._active.values()
            if ident in entry[2].processors
        ]
        for record, _sim, _allocation, _memory_bytes in victims:
            sim = self._abort_active(record, f"processor {ident} crashed")
            record.aborts.append(now)
            self._recover(record, sim, now)
        self._pump()

    def _handle_repair(self, crash: "CrashFault") -> None:
        """A crashed processor rejoined the pool: admission may resume."""
        self.machine.repair(crash.processor)
        self._pump()

    def _recover(
        self, record: QueryRecord, sim: ScheduleSimulation, now: float
    ) -> None:
        retries_used = record.attempts - 1
        if self.recovery == "fail" or retries_used >= self.max_retries:
            record.failed = True
            record.error = sim.aborted_reason or "crashed"
            self._query_done(record)
            return
        if self.recovery == "reassign":
            credit = self._reusable_tasks(sim)
            if credit:
                self._credits[record.index] = credit
            else:
                self._credits.pop(record.index, None)
            delay = 0.0  # survivors take over immediately
        else:  # restart
            delay = self.retry_backoff * (2.0 ** retries_used)
        self.machine.clock.at(now + delay, self._rearrive, record)

    def _reusable_tasks(self, sim: ScheduleSimulation) -> FrozenSet[int]:
        """Task results of the aborted attempt that the next attempt can
        replay: completed, materialized (stored results survive a crash
        — pipelined state does not), and produced entirely on processors
        that are still healthy.  For FP every output is pipelined, so
        the credit is empty and ``reassign`` degenerates to an
        immediate full restart — the documented FP fragility."""
        failed = self.machine.failed_ids()
        reusable = set()
        for runtime in sim.runtimes[:-1]:  # the root is never reusable
            if runtime.completion is None:
                continue
            if runtime.output_group is None or runtime.output_pipelined:
                continue
            if any(p.processor.ident in failed for p in runtime.processes):
                continue
            reusable.add(runtime.task.index)
        return frozenset(reusable)

    def _rearrive(self, record: QueryRecord) -> None:
        """Re-queue a crashed query.  Unlike :meth:`_arrive`, a retry is
        never bounced off the queue limit — the query is already
        admitted from the client's point of view.  It re-enters through
        :meth:`_enqueue`, so a configured scheduler ranks it by its
        *original* arrival (EDF keeps its urgency, WFQ keeps its
        virtual-time tag) instead of treating it as a fresh arrival."""
        if self._terminal(record):
            return  # cancelled or expired while waiting out the backoff
        self._enqueue(record)
        self._pump()

    def _query_done(self, record: QueryRecord) -> None:
        """Completion, rejection, cancellation, or terminal failure —
        retires the deadline event and drives the closed loop."""
        handle = self._deadline_handles.pop(record.index, None)
        if handle is not None:
            handle.cancel()
        if self.on_query_done is not None:
            self.on_query_done(record)
        if record.client is None or self._closed_mix is None:
            return
        delay = self._think_time
        if (
            record.rejected or record.failed or record.cancelled
        ) and delay <= 0.0:
            delay = self.rejected_retry_delay
        self._submit_for_client(
            record.client, self.machine.clock.now + delay
        )

    def _submit_for_client(self, client: int, time: float) -> None:
        if (
            self._queries_per_client is not None
            and self._client_issued[client] >= self._queries_per_client
        ):
            return
        if self._horizon is not None and time >= self._horizon:
            return
        spec = self._closed_mix.sample(self._clients[client])
        self._client_issued[client] += 1
        self.submit_at(time, spec, client=client)

    # -- draining ---------------------------------------------------------

    def _claim_single_use(self) -> None:
        if self._started:
            raise RuntimeError(
                "a WorkloadEngine runs one workload; build a fresh one"
            )
        self._started = True

    def _run_clock(self, clock: SimulationClock) -> None:
        """Dispatch until the clock drains, enriching a watchdog trip
        with the engine's own state so the diagnostic names the stuck
        queries, not just the spinning callbacks."""
        try:
            clock.run()
        except WatchdogError as exc:
            queued = [r.index for r in self._queue]
            active = sorted(self._active)
            raise WatchdogError(
                str(exc).splitlines()[0],
                at=exc.at,
                diagnostic=(
                    f"{exc.diagnostic}\n"
                    f"engine state at trip: {len(queued)} queued "
                    f"{queued[:10]}, {len(active)} in flight "
                    f"{active[:10]}, {len(self.records)} submitted"
                ),
            ) from exc

    def _shed_stranded(self) -> bool:
        """Shed the stuck queue head after the clock drained.  Under
        faults a permanently degraded machine can strand queued queries
        (the policy will never find them processors); they are shed as
        failures/rejections instead of hanging the workload — the
        horizon must always be reachable.  Returns ``True`` when a
        query was shed (shedding the stuck FIFO head may unblock
        smaller queries behind it on the surviving processors, so the
        caller re-runs the clock and asks again)."""
        if not self._queue:
            return False
        record = self._queue[0]
        self._remove_queued(record)
        if record.aborts:
            record.failed = True
        else:
            record.rejected = True
        record.error = (
            "machine degraded by failures: no feasible allocation"
        )
        self._query_done(record)
        self._pump()
        return True

    def _drain(self) -> WorkloadResult:
        clock = self.machine.clock
        self._run_clock(clock)
        if self._queue and self.injector is None:
            stuck = [r.index for r in self._queue]
            raise RuntimeError(
                f"workload drained with queries {stuck} still queued; "
                "the policy never found them an allocation"
            )
        while self._shed_stranded():
            self._run_clock(clock)
        return self.collect_result()

    def collect_result(self) -> WorkloadResult:
        """The run's :class:`WorkloadResult` from current engine state.

        Split out of :meth:`_drain` so a coordinator driving one shared
        clock across several engines can collect each engine's result
        after the *global* drain."""
        return WorkloadResult(
            records=self.records,
            machine_size=self.machine.size,
            policy=self.policy.name,
            makespan=self.machine.clock.now,
            busy_seconds=self.machine.busy_seconds(),
            peak_in_flight=self.peak_in_flight,
            faults_injected=(
                self.injector.crashes_fired if self.injector else 0
            ),
            repairs=self.injector.repairs_fired if self.injector else 0,
            scheduler=(
                self.scheduler.name if self.scheduler is not None else None
            ),
            scheduling_decisions=self.scheduling_decisions,
            fast_path_queries=self.fast_path_queries,
            peak_queued=self.peak_queued,
        )
