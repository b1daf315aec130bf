"""The cluster runner: a router in front of N shards, reactions on top.

:class:`ResilientCluster` is the one cluster runner.  Its router is a
placement policy (asked with the pool of shards it may use right now)
and the policy's :class:`~repro.cluster.placement.LoadForecast`.  With
no reaction set the run is *plain*: nothing can act across shards, so
each arrival is placed once, closed-loop clients are pinned per shard,
and each shard then runs alone on its own clock
(:func:`~repro.cluster.router.run_shard`).  With any reaction set the
N workload engines share **one**
:class:`~repro.sim.events.SimulationClock` and the router places each
arrival live; every reaction below (failover, re-dispatch, hedging,
breaker trips) is an ordinary event on that clock, so a reactive run
remains a single deterministic discrete-event simulation.

The resilience primitives (DESIGN.md §7e):

Shard failover
    A cluster-level :class:`~repro.faults.FaultSchedule` whose
    ``CrashFault.processor`` is read as a *shard index*.  A shard
    crash aborts its in-flight queries through the engine's abort path
    (burnt CPU is accounted, processors released), fails its queued
    queries, and marks the shard dead on the consistent-hash ring —
    future arrivals walk clockwise to the next live owner
    (:func:`~repro.cluster.placement.ring_lookup_live`, the ~1/N-moves
    bound), and queued victims re-route immediately.  Repair rejoins
    the shard and the ring walk snaps back to the original owner.
    Shard-level ``StallFault``/``LinkFault`` entries degrade the whole
    shard (every processor / its interconnect) — the straggler-shard
    scenario hedging exists for.

Retry budgets
    Aborted queries re-dispatch to a surviving shard with exponential
    backoff in simulated time (``RETRY_BACKOFF * 2**retries``).  A
    query that exhausts its budget is recorded as an honest per-query
    failure — never a workload abort.

Hedged requests
    When the analytic forecast of a query's completion on its chosen
    shard (:func:`~repro.model.analytic.predict_spec_service_time`
    behind the shard's busy-until horizon) exceeds a configurable
    percentile of recently observed attempt latencies, a duplicate is
    dispatched to the least-loaded other live shard; the first
    completion cancels the loser through the cancellation path.  Ties
    break deterministically (event order / lowest shard index).  Off
    by default; a run without ``hedge`` is byte-identical to one that
    never heard of hedging.

Circuit breakers
    Per-shard closed → open → half-open on the observed abort rate
    over a sliding outcome window; an open shard is routed around, a
    half-open shard admits one probe.

Token-bucket throttling
    Per-tenant rate enforcement at *cluster* admission: each rated
    tenant (``TenantSpec.rate``) gets a deterministic token bucket on
    the simulated clock; an arrival that finds no token is shed as
    ``"throttled"`` — the per-tenant SLO enforcement the ROADMAP left
    open.

Every logical query ends in exactly one terminal state (completed /
shed / expired / failed / cancelled) — the conservation invariant the
chaos harness (:mod:`repro.cluster.chaos`) asserts.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.numeric import ordered_sum
from ..faults import FaultSchedule
from ..sim.events import SimulationClock
from ..sim.watchdog import (
    DEFAULT_MAX_EVENTS_PER_INSTANT,
    Watchdog,
    WatchdogError,
)
from ..workload.engine import _Admissions, _FastPathMiss
from ..workload.lifecycle import deadline_rng, resolve_deadline
from ..workload.metrics import QueryRecord, percentile
from ..workload.mix import QuerySpec
from . import router
from .placement import make_placement
from .router import (
    ClusterResult,
    ShardReport,
    _build_engine,
    _shard_engine_options,
    resolve_shard_faults,
    shard_seed,
    split_clients,
)

#: Base cluster-level retry backoff in simulated seconds; retry k of a
#: query waits ``RETRY_BACKOFF * 2**(k-1)`` after its abort.
RETRY_BACKOFF = 0.5

_INF = float("inf")

#: Whole-cluster reruns :func:`run_resilient_cluster` made because a
#: hedge sibling it speculated on acted first (process-wide; read by
#: tests — no result carries it).
speculation_reruns = 0


def _policy_from(cls, value, name: str):
    """Shared ``True`` / dict / instance spelling of the three
    resilience policies (``None`` disables)."""
    if value is None or value is False:
        return None
    if value is True:
        return cls()
    if isinstance(value, cls):
        return value
    if isinstance(value, dict):
        fields_ = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(value) - fields_)
        if unknown:
            raise ValueError(
                f"unknown {name} keys {unknown}; accepted: "
                f"{sorted(fields_)}"
            )
        return cls(**value)
    raise TypeError(
        f"{name} must be True, a dict of {cls.__name__} fields, or a "
        f"{cls.__name__} instance"
    )


@dataclass(frozen=True)
class HedgePolicy:
    """When to dispatch a speculative duplicate.

    A hedge fires when the forecast attempt latency on the chosen
    shard (queueing behind its busy-until horizon plus the analytic
    service estimate) exceeds the ``percentile``-th percentile of the
    last ``window`` observed attempt latencies — once at least
    ``min_observations`` of them exist.

    The forecast is slowdown-corrected by two signals: an EWMA of
    observed-over-estimated service time, updated on every completion
    on the shard, and the live age-over-estimate ratio of the shard's
    in-flight attempts.  The live signal matters because a straggling
    shard (stall faults, degraded pool) betrays itself within one
    service time — long before its first, very slow, completion could
    feed the EWMA — while the stall-blind analytic estimate alone
    would never see it.
    """

    percentile: float = 95.0
    min_observations: int = 10
    window: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError("hedge percentile must be in (0, 100]")
        if self.min_observations < 1:
            raise ValueError("hedge min_observations must be positive")
        if self.window < self.min_observations:
            raise ValueError("hedge window must cover min_observations")

    @classmethod
    def resolve(cls, value) -> Optional["HedgePolicy"]:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return cls(percentile=float(value))
        return _policy_from(cls, value, "hedge")


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-shard circuit breaker: closed → open → half-open.

    The breaker watches the last ``window`` dispatch outcomes on the
    shard; once ``min_samples`` outcomes exist and the abort fraction
    exceeds ``threshold`` it opens, routing traffic around the shard
    for ``reset_timeout`` simulated seconds, then admits one half-open
    probe — success closes it, failure re-opens.
    """

    window: int = 16
    threshold: float = 0.5
    min_samples: int = 4
    reset_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("breaker window must be positive")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("breaker threshold must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("breaker min_samples must be positive")
        if self.reset_timeout <= 0:
            raise ValueError("breaker reset_timeout must be positive")

    @classmethod
    def resolve(cls, value) -> Optional["BreakerPolicy"]:
        return _policy_from(cls, value, "breaker")


@dataclass(frozen=True)
class ThrottlePolicy:
    """Per-tenant token buckets at cluster admission.

    A tenant with ``TenantSpec.rate`` r gets a bucket of capacity
    ``max(1, r * burst_seconds)`` tokens refilled at r tokens per
    simulated second; each admitted query spends one token, and an
    arrival that finds the bucket empty is shed as ``"throttled"``.
    Tenants without a rate (and untenanted queries) pass freely.
    """

    burst_seconds: float = 2.0

    def __post_init__(self) -> None:
        if self.burst_seconds <= 0:
            raise ValueError("throttle burst_seconds must be positive")

    @classmethod
    def resolve(cls, value) -> Optional["ThrottlePolicy"]:
        return _policy_from(cls, value, "throttle")


class _Breaker:
    """One shard's breaker state (deterministic, simulated-clock)."""

    __slots__ = ("policy", "state", "outcomes", "opened_at", "opens",
                 "probing")

    def __init__(self, policy: BreakerPolicy):
        self.policy = policy
        self.state = "closed"
        self.outcomes: Deque[bool] = deque(maxlen=policy.window)
        self.opened_at = 0.0
        self.opens = 0
        self.probing = False

    def allows(self, now: float) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open":
            if now >= self.opened_at + self.policy.reset_timeout:
                self.state = "half_open"
                self.probing = False
            else:
                return False
        # half-open: one probe at a time.
        return not self.probing

    def on_dispatch(self) -> None:
        if self.state == "half_open":
            self.probing = True

    def record(self, success: bool, now: float) -> None:
        if self.state == "half_open":
            self.probing = False
            if success:
                self.state = "closed"
                self.outcomes.clear()
            else:
                self.state = "open"
                self.opened_at = now
                self.opens += 1
            return
        self.outcomes.append(success)
        if self.state == "closed":
            failures = sum(1 for ok in self.outcomes if not ok)
            if (
                len(self.outcomes) >= self.policy.min_samples
                and failures / len(self.outcomes) > self.policy.threshold
            ):
                self.state = "open"
                self.opened_at = now
                self.opens += 1
                self.outcomes.clear()


@dataclass
class ClusterQueryRecord(QueryRecord):
    """Lifecycle of one *logical* query through the resilient cluster.

    A :class:`~repro.workload.metrics.QueryRecord` — one row per logical
    query regardless of how many shard attempts served it — plus the
    cluster outcome fields.  ``attempts``, ``aborts``,
    ``wasted_seconds`` and ``reused_tasks`` in its row add up over
    every engine attempt that served it.
    """

    shard: Optional[int] = None            # shard that decided the outcome
    dispatches: int = 0                    # shard dispatches (incl. hedges)
    retries: int = 0                       # budget-consuming re-dispatches
    hedged: bool = False
    hedge_won: bool = False
    #: Every engine attempt serving this query: ``(shard, record)``.
    attempt_records: List[Tuple[int, QueryRecord]] = field(
        default_factory=list
    )

    @property
    def terminal(self) -> bool:
        return (
            self.completed is not None
            or self.rejected
            or self.failed
            or self.cancelled
        )

    def row(self) -> Dict:
        data = super().row()
        attempts = [record for _, record in self.attempt_records]
        data.update(
            attempts=sum(r.attempts for r in attempts),
            aborts=sorted(t for r in attempts for t in r.aborts),
            wasted_seconds=ordered_sum(r.wasted_seconds for r in attempts),
            reused_tasks=sum(r.reused_tasks for r in attempts),
        )
        tenant = data.pop("tenant", None)
        data.update(
            shard=self.shard,
            dispatches=self.dispatches,
            retries=self.retries,
            hedged=self.hedged,
            hedge_won=self.hedge_won,
        )
        if tenant is not None:
            data["tenant"] = tenant
        return data


@dataclass
class ResilientClusterResult(ClusterResult):
    """A coordinated cluster run: logical rows over shard telemetry.

    ``shards`` keeps the per-shard attempt-level reports (their rows
    are *attempts*, useful for per-shard telemetry); the logical
    query population lives in ``records``.  ``rows()`` is the one
    override: every count and the cluster-wide latency of
    :class:`~repro.cluster.router.ClusterResult` follow it, so they
    are logical too (``latency_stats(shard=k)`` stays per attempt).
    """

    records: List[ClusterQueryRecord] = field(default_factory=list)
    resilience: Dict = field(default_factory=dict)

    def rows(self) -> List[Dict]:
        return [record.row() for record in self.records]

    def summary(self) -> str:
        text = super().summary()
        res = self.resilience
        if res:
            text += (
                f" | resilience: {res['shard_crashes']} shard crashes "
                f"({res['shard_repairs']} repaired), "
                f"{res['retries']} retries, {res['rerouted']} rerouted, "
                f"{res['hedges']} hedges ({res['hedge_wins']} won), "
                f"{res['throttled']} throttled, "
                f"{res['breaker_opens']} breaker opens, "
                f"{self.failed_count()} failed"
            )
        return text


class ResilientCluster:
    """N workload engines behind a router.  Single-use, like the
    engine.  With none of the six reaction knobs set (``shard_faults``
    … ``failover``) the run is *plain* and each shard runs alone;
    otherwise the engines share one clock behind a live router.
    ``autoscale`` is the elasticity block of
    :func:`~repro.cluster.router._build_engine` (``None``: static)."""

    def __init__(
        self,
        *,
        shards: int,
        engine_options: Dict,
        placement: str = "hash",
        autoscale: Optional[Dict] = None,
        shard_faults: Optional[FaultSchedule] = None,
        retry_budget: Optional[int] = None,
        hedge=None,
        breaker=None,
        throttle=None,
        failover: Optional[bool] = None,
        watchdog_limit: Optional[int] = DEFAULT_MAX_EVENTS_PER_INSTANT,
        _speculate: bool = True,
    ):
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self._placement = make_placement(placement)
        reactions = (
            shard_faults, retry_budget, hedge, breaker, throttle, failover
        )
        self.plain = all(value is None for value in reactions)
        retry_budget = retry_budget or 0
        if retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")
        if shard_faults is not None and not isinstance(
            shard_faults, FaultSchedule
        ):
            raise TypeError("shard_faults must be a FaultSchedule")
        self.shards = shards
        self.placement = self._placement.name
        self.shard_faults = shard_faults
        self.retry_budget = retry_budget
        self.hedge = HedgePolicy.resolve(hedge)
        self.breaker_policy = BreakerPolicy.resolve(breaker)
        self.throttle = ThrottlePolicy.resolve(throttle)
        self.failover = True if failover is None else failover
        self.autoscale = "static" if autoscale is None else autoscale["policy"]
        self.clock = SimulationClock()
        if watchdog_limit is not None:
            self.clock.watchdog = Watchdog(watchdog_limit)

        options = dict(engine_options)
        # The routing core: the placement policy and its load forecast
        # (shard busy-until horizons).
        self._placement.reset(shards, options)
        self._forecast = self._placement.forecast
        self.tenants = dict(options["tenants"] or {})
        # Engine-level (processor) fault schedules can ride along under
        # the cluster-level shard faults — a shard can lose processor 3
        # *and* later crash entirely.
        engine_faults = resolve_shard_faults(options["faults"], shards)
        self._autoscale = autoscale
        if not self.plain:
            # The cluster resolves deadlines once, at admission, so
            # every attempt of a query races the *same* absolute
            # deadline; the member engines must not re-draw or re-apply
            # defaults.
            self._deadline = options["deadline"]
            self._deadline_rng = deadline_rng(options["deadline_seed"])
            options["deadline"] = None
            options["tenants"] = {
                name: replace(spec, deadline=None)
                for name, spec in self.tenants.items()
            }
            # One watchdog at the cluster level, not one per member.
            options["watchdog_limit"] = None
        # A plain shard keeps its own deadline draws and watchdog, as
        # it would alone (:meth:`_run_plain` builds its engine).
        self._shard_options = [
            _shard_engine_options(options, shard, fault=engine_faults[shard])
            for shard in range(shards)
        ]
        # The hosted engines (none on a plain run).  The fast-path twin
        # rule is clock-wide: every completion reaches the router's
        # shared state (hedge percentiles, breakers, slowdowns), so
        # twins on different shards do not commute.
        self.engines = []
        admissions = _Admissions()
        hosted = [] if self.plain else self._shard_options
        for shard, shard_options in enumerate(hosted):
            engine = _build_engine(
                shard_options,
                autoscale,
                clock=self.clock,
                on_query_done=partial(self._attempt_done, shard),
            )
            engine._admissions = admissions
            engine._host_barrier = partial(self._attempt_barrier, shard)
            self.engines.append(engine)
        # Assume a queued hedge sibling does not act first (see
        # :meth:`_attempt_barrier`).
        self._speculate = _speculate
        # Per shard, the sorted instants its scheduled crashes fire.
        self._crash_times: List[List[float]] = [[] for _ in range(shards)]

        self.alive = set(range(shards))
        self._breakers = [
            _Breaker(self.breaker_policy) if self.breaker_policy else None
            for _ in range(shards)
        ]
        # Observed-over-estimated service-time EWMA per shard; feeds
        # the hedge forecast so stall-slowed shards are seen as slow.
        self._slowdown = [1.0] * shards
        self._recent: Deque[float] = deque(
            maxlen=self.hedge.window if self.hedge else 1
        )
        self._buckets: Dict[str, List[float]] = {}  # name -> [tokens, last]
        self.records: List[ClusterQueryRecord] = []
        # (shard, engine-record index) -> logical record
        self._attempt_of: Dict[Tuple[int, int], ClusterQueryRecord] = {}
        # logical index -> its hedge attempt's engine record (identity)
        self._hedge_record: Dict[int, object] = {}
        self._evacuating = False
        self._started = False
        # Counters.
        self.shard_crashes = 0
        self.shard_repairs = 0
        self.evacuated_running = 0
        self.evacuated_queued = 0
        self.retries_total = 0
        self.rerouted = 0
        self.retry_exhausted = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.throttled = 0
        self._shard_stats = [
            {"dispatches": 0, "hedges": 0, "aborts": 0, "retries": 0}
            for _ in range(shards)
        ]
        if shard_faults is not None:
            self._arm_shard_faults(shard_faults)

    # -- shard-level faults ----------------------------------------------

    def _arm_shard_faults(self, schedule: FaultSchedule) -> None:
        """Crashes kill whole shards; stalls slow every processor of
        the shard; link windows degrade the shard's interconnect."""
        for crash in schedule.crashes:
            if not 0 <= crash.processor < self.shards:
                continue
            self.clock.at(crash.at, self._shard_crash, crash.processor)
            self._crash_times[crash.processor].append(crash.at)
            if crash.repair_at is not None:
                self.clock.at(
                    crash.repair_at, self._shard_repair, crash.processor
                )
        for times in self._crash_times:
            times.sort()
        for stall in schedule.stalls:
            if not 0 <= stall.processor < self.shards:
                continue
            machine = self.engines[stall.processor].machine
            for processor in machine.processors.values():
                processor.stalls.append(
                    (stall.start, stall.end, stall.factor)
                )
        if schedule.link_faults:
            from ..faults.injector import LinkFaultState

            for shard in range(self.shards):
                machine = self.engines[shard].machine
                if machine.network.faults is None:
                    machine.network.faults = LinkFaultState(
                        schedule.link_faults, schedule.seed
                    )

    def _shard_crash(self, shard: int) -> None:
        if shard not in self.alive:
            return  # already down
        self.alive.discard(shard)
        self.shard_crashes += 1
        engine = self.engines[shard]
        now = self.clock.now
        running: List[ClusterQueryRecord] = []
        queued: List[ClusterQueryRecord] = []
        self._evacuating = True
        try:
            for entry in list(engine._active.values()):
                record = entry[0]
                engine._abort_active(record, f"shard {shard} crashed")
                record.aborts.append(now)
                record.failed = True
                record.error = f"shard {shard} crashed"
                engine._query_done(record)
                self._shard_stats[shard]["aborts"] += 1
                self.evacuated_running += 1
                logical = self._attempt_of.get((shard, record.index))
                if logical is not None:
                    running.append(logical)
            while engine._queue:
                record = engine._queue[0]
                engine._remove_queued(record)
                record.failed = True
                record.error = f"shard {shard} crashed while queued"
                engine._query_done(record)
                self.evacuated_queued += 1
                logical = self._attempt_of.get((shard, record.index))
                if logical is not None:
                    queued.append(logical)
        finally:
            self._evacuating = False
        self._record_outcome(shard, success=False)
        # Queued victims re-route immediately (their work is not lost,
        # only their place in a dead line); in-flight victims consumed
        # machine time and go through the retry budget with backoff.
        for logical in queued:
            if not logical.terminal and not self._has_live_attempt(logical):
                self.rerouted += 1
                self._dispatch(logical, role="reroute")
        for logical in running:
            if not logical.terminal and not self._has_live_attempt(logical):
                self._retry_or_fail(logical, f"shard {shard} crashed")

    def _shard_repair(self, shard: int) -> None:
        if shard in self.alive:
            return
        self.alive.add(shard)
        self.shard_repairs += 1

    # -- admission --------------------------------------------------------

    def submit(self, index: int, time: float, spec: QuerySpec) -> None:
        logical = ClusterQueryRecord(
            index=index,
            spec=spec,
            arrival=time,
            deadline=resolve_deadline(
                spec, self.tenants, self._deadline, self._deadline_rng
            ),
            tenant=spec.tenant,
        )
        self.records.append(logical)
        self.clock.at(time, self._admit_arrival, logical)

    def _admit_arrival(self, logical: ClusterQueryRecord) -> None:
        if self.throttle is not None and not self._take_token(logical):
            self.throttled += 1
            logical.rejected = True
            logical.shed = "throttled"
            logical.error = (
                f"tenant {logical.tenant!r} token bucket empty "
                "(rate SLO enforced at cluster admission)"
            )
            return
        self._dispatch(logical, role="primary")

    def _take_token(self, logical: ClusterQueryRecord) -> bool:
        if logical.tenant is None:
            return True
        tenant = self.tenants.get(logical.tenant)
        if tenant is None or tenant.rate is None:
            return True
        now = self.clock.now
        capacity = max(1.0, tenant.rate * self.throttle.burst_seconds)
        bucket = self._buckets.get(logical.tenant)
        if bucket is None:
            bucket = [capacity, now]
            self._buckets[logical.tenant] = bucket
        tokens, last = bucket
        tokens = min(capacity, tokens + (now - last) * tenant.rate)
        if tokens >= 1.0:
            bucket[0] = tokens - 1.0
            bucket[1] = now
            return True
        bucket[0] = tokens
        bucket[1] = now
        return False

    # -- routing ----------------------------------------------------------

    def _candidates(self, now: float) -> List[int]:
        """Live shards the breakers will route to, in index order."""
        live = self.alive if self.failover else set(range(self.shards))
        picked = []
        for shard in range(self.shards):
            if shard not in live:
                continue
            breaker = self._breakers[shard]
            if breaker is not None and not breaker.allows(now):
                continue
            picked.append(shard)
        if not picked and self.failover:
            # Every live shard's breaker is open: routing *somewhere*
            # beats failing a query because of our own hysteresis.
            picked = sorted(self.alive)
        return picked

    def _dispatch(self, logical: ClusterQueryRecord, role: str) -> None:
        if logical.terminal:
            return
        now = self.clock.now
        if logical.deadline is not None:
            remaining = logical.arrival + logical.deadline - now
            if remaining <= 0.0:
                logical.rejected = True
                logical.shed = "expired"
                logical.deadline_missed = True
                logical.error = (
                    f"deadline ({logical.deadline:.3f}s) expired before "
                    "a surviving shard could take the query"
                )
                return
        candidates = self._candidates(now)
        if not candidates:
            self._retry_or_fail(logical, "no live shard")
            return
        shard = self._placement.choose(
            logical.index, now, logical.spec, candidates
        )
        if not self.failover and shard not in self.alive:
            # The PR 9 baseline: a dead home shard loses the query.
            logical.failed = True
            logical.shard = shard
            logical.error = f"shard {shard} is down (no failover)"
            return
        before = self._forecast.busy_until[shard]
        self._submit_attempt(logical, shard, now, role)
        # Hedge only first dispatches: retries already failed once and
        # go wherever is alive; a hedge of a hedge never pays.
        if (
            role == "primary"
            and self.hedge is not None
            and not logical.hedged
            and len(candidates) >= 2
            and len(self._recent) >= self.hedge.min_observations
        ):
            slow = max(
                self._slowdown[shard], self._live_slowdown(shard, now)
            )
            forecast = slow * (
                max(before - now, 0.0) + self._forecast.estimate(logical.spec)
            )
            threshold = percentile(
                list(self._recent), self.hedge.percentile
            )
            if forecast > threshold:
                mate = self._forecast.least_loaded(
                    [s for s in candidates if s != shard], now
                )
                logical.hedged = True
                self.hedges += 1
                self._shard_stats[mate]["hedges"] += 1
                self._submit_attempt(logical, mate, now, "hedge")
                self._hedge_record[logical.index] = (
                    logical.attempt_records[-1][1]
                )

    def _submit_attempt(
        self,
        logical: ClusterQueryRecord,
        shard: int,
        now: float,
        role: str,
    ) -> None:
        spec = logical.spec
        if logical.deadline is not None:
            remaining = logical.arrival + logical.deadline - now
            spec = replace(spec, deadline=remaining)
        else:
            spec = replace(spec, deadline=None)
        record = self.engines[shard].submit_at(now, spec)
        self._attempt_of[(shard, record.index)] = logical
        logical.attempt_records.append((shard, record))
        logical.dispatches += 1
        if role == "retry":
            # logical.retries already advanced when the retry was
            # scheduled (budget is spent at commitment, not dispatch).
            self._shard_stats[shard]["retries"] += 1
        self._shard_stats[shard]["dispatches"] += 1
        breaker = self._breakers[shard]
        if breaker is not None:
            breaker.on_dispatch()
        self._forecast.book(shard, now, logical.spec)

    def _live_slowdown(self, shard: int, now: float) -> float:
        """The shard's slowness as visible right now: the largest
        age-over-estimate ratio among its in-flight attempts."""
        worst = 1.0
        for entry in self.engines[shard]._active.values():
            record = entry[0]
            if record.admitted is None:
                continue
            estimate = self._forecast.estimate(record.spec)
            if estimate > 0.0:
                worst = max(worst, (now - record.admitted) / estimate)
        return worst

    def _retry_or_fail(
        self, logical: ClusterQueryRecord, reason: str
    ) -> None:
        if logical.retries < self.retry_budget:
            delay = RETRY_BACKOFF * (2.0 ** logical.retries)
            self.retries_total += 1
            self.clock.at(
                self.clock.now + delay, self._retry_fire, logical
            )
            # The retry counter advances at *dispatch*; mark the intent
            # here so a crash landing between schedule and fire cannot
            # double-spend the budget.
            logical.retries += 1
        else:
            if self.retry_budget > 0:
                self.retry_exhausted += 1
            logical.failed = True
            logical.error = (
                f"{reason}; retry budget ({self.retry_budget}) exhausted"
                if self.retry_budget > 0
                else reason
            )

    def _retry_fire(self, logical: ClusterQueryRecord) -> None:
        if logical.terminal or self._has_live_attempt(logical):
            return
        self._dispatch(logical, role="retry")

    def _has_live_attempt(self, logical: ClusterQueryRecord) -> bool:
        return any(
            not self.engines[shard]._terminal(record)
            for shard, record in logical.attempt_records
        )

    # -- fast-path barrier ------------------------------------------------

    def _attempt_barrier(self, shard: int, record) -> Optional[float]:
        """What the coordinator can do to an attempt starting on a
        claimed share of ``shard`` now: the time before which its
        fast-path epoch must complete, or ``None`` to keep it classic.

        Two actors reach a running attempt from outside its engine: a
        crash of its shard, and a sibling attempt of the same logical
        query whose completion (or shed) cancels it.  Siblings exist
        only from the primary's dispatch on — retries and reroutes wait
        until no attempt is live — so each one is in one of three states
        here.  Fast-pathed, it has committed its completion: the barrier.
        Running classic, its completion is unknown: stay classic.  Still
        queued, or admitted with its own decision still to come, it is
        *speculated on*: assumed not to act on this attempt before it
        completes.  When that fails — say ``drop_oldest`` evicts the
        queued sibling at a later arrival, and the router cancels its
        mate — the engine's abort guard raises :class:`_FastPathMiss`,
        and :func:`run_resilient_cluster` reruns the whole cluster with
        ``_speculate`` off, where such a sibling keeps the attempt
        classic and nothing is left to miss."""
        now = self.clock.now
        crashes = self._crash_times[shard]
        position = bisect_left(crashes, now)
        barrier = crashes[position] if position < len(crashes) else _INF
        logical = self._attempt_of[(shard, record.index)]
        for other, sibling in logical.attempt_records:
            engine = self.engines[other]
            if sibling is record or engine._terminal(sibling):
                continue
            entry = engine._active.get(sibling.index)
            if entry is None or entry[1].on_start is not None:
                if not self._speculate:
                    return None
                continue
            finished_at = entry[1].finished_at
            if finished_at is None:
                return None
            barrier = min(barrier, finished_at)
        return barrier

    # -- attempt outcomes -------------------------------------------------

    def _record_outcome(self, shard: int, success: bool) -> None:
        breaker = self._breakers[shard]
        if breaker is not None:
            breaker.record(success, self.clock.now)

    def _attempt_done(self, shard: int, record) -> None:
        if self._evacuating:
            return  # the crash handler owns these outcomes
        logical = self._attempt_of.get((shard, record.index))
        if logical is None:
            return
        if logical.terminal:
            return  # a sibling already decided the query
        if record.completed is not None:
            self._attempt_won(shard, record, logical)
            return
        if record.deadline_missed:
            # The logical deadline is absolute: no attempt can beat it.
            logical.deadline_missed = True
            logical.shard = shard
            logical.error = record.error
            if record.shed is not None:
                logical.rejected = True
                logical.shed = record.shed
            else:
                logical.failed = True
            self._cancel_siblings(logical, record, "deadline expired")
            return
        if record.cancelled:
            # Not cancelled by us (we only cancel after the logical
            # query is terminal) — propagate the external cancellation.
            logical.cancelled = True
            logical.shard = shard
            logical.error = record.error
            return
        stranded = (
            record.error
            == "machine degraded by failures: no feasible allocation"
        )
        if record.failed or stranded:
            # Crash-stop abort (engine-level fault, recovery gave up)
            # or a degraded machine stranding the attempt.
            self._record_outcome(shard, success=False)
            if self._has_live_attempt(logical):
                return  # a hedge sibling may still win
            self._retry_or_fail(
                logical, record.error or f"attempt failed on shard {shard}"
            )
            if logical.failed:
                logical.shard = shard
            return
        # Admission rejection / load shed / tenant cap: a deliberate
        # policy decision, terminal for the logical query too.
        logical.rejected = True
        logical.shard = shard
        logical.shed = record.shed
        logical.error = record.error
        self._cancel_siblings(logical, record, "sibling attempt shed")

    def _attempt_won(self, shard: int, record, logical) -> None:
        logical.completed = record.completed
        logical.admitted = record.admitted
        logical.shard = shard
        logical.strategy = record.strategy
        logical.processors = record.processors
        # Deterministic tie-break: on a simultaneous finish the attempt
        # whose completion event was scheduled first dispatches first
        # and wins; the sibling is cancelled through the ordinary
        # cancellation path.
        if self._hedge_record.get(logical.index) is record:
            logical.hedge_won = True
            self.hedge_wins += 1
        self._record_outcome(shard, success=True)
        if record.latency is not None:
            self._recent.append(record.latency)
        if self.hedge is not None and record.service_time:
            estimate = self._forecast.estimate(logical.spec)
            if estimate > 0.0:
                observed = record.service_time / estimate
                self._slowdown[shard] += 0.5 * (
                    observed - self._slowdown[shard]
                )
        self._cancel_siblings(logical, record, "lost the hedge race")

    def _cancel_siblings(self, logical, winner, reason: str) -> None:
        for shard, record in logical.attempt_records:
            if record is winner:
                continue
            engine = self.engines[shard]
            if not engine._terminal(record):
                engine.cancel(record, reason)

    # -- the run ----------------------------------------------------------

    def run(
        self,
        arrivals: Optional[Sequence[Tuple[float, QuerySpec]]] = None,
        closed: Optional[Dict] = None,
    ) -> ClusterResult:
        """Serve ``arrivals``, or the ``closed`` loop (the keywords of
        ``WorkloadEngine.run_closed``, plus ``mix`` and ``clients``):
        clients split round-robin, shard k seeded ``shard_seed(seed, k)``.
        A plain run returns a :class:`ClusterResult`, a reactive one a
        :class:`ResilientClusterResult`."""
        if self._started:
            raise RuntimeError(
                "a ResilientCluster runs one workload; build a fresh one"
            )
        self._started = True
        if self.plain:
            return self._run_plain(arrivals, closed)
        if closed is not None:
            raise ValueError(
                "cluster reactions serve open-loop traffic only: a "
                "client's next query would have to follow its logical "
                "query across shards, and no routing rule does that"
            )
        for index, (time, spec) in enumerate(arrivals):
            self.submit(index, time, spec)
        self._run_clock()
        # Engine-level faults can permanently degrade a live shard and
        # strand its queue (same contract as WorkloadEngine._drain);
        # shedding the stuck head flows back through the hook, so a
        # stranded query still gets its cluster-level retries.
        faulted = self.shard_faults is not None or any(
            engine.injector is not None for engine in self.engines
        )
        progress = True
        while progress:
            progress = False
            for engine in self.engines:
                if not engine._queue:
                    continue
                if not faulted:
                    stuck = [r.index for r in engine._queue]
                    raise RuntimeError(
                        f"cluster drained with queries {stuck} still "
                        "queued; the policy never found them an allocation"
                    )
                if engine._shed_stranded():
                    progress = True
                    self._run_clock()
        loose = [r.index for r in self.records if not r.terminal]
        if loose:
            raise RuntimeError(
                f"conservation violated: queries {loose[:10]} ended in "
                "no terminal state"
            )
        return self._collect()

    def _run_plain(self, arrivals, closed: Optional[Dict]) -> ClusterResult:
        """Nothing reacts, so shards never interact: place every arrival
        up front (a tenant sent to another shard than its previous
        query's *migrates*), then run each shard alone on its own clock,
        one after another."""
        migrations = 0
        if closed is None:
            per_shard: List[list] = [[] for _ in range(self.shards)]
            home: Dict[str, int] = {}
            for index, (time, spec) in enumerate(arrivals):
                shard = self._placement.place(index, time, spec)
                if spec.tenant is not None:
                    migrations += home.setdefault(spec.tenant, shard) != shard
                    home[spec.tenant] = shard
                per_shard[shard].append((time, spec))
            loads = [{"arrivals": shard_arrivals} for shard_arrivals in per_shard]
        else:
            if closed["clients"] < 1:
                raise ValueError("need at least one client")
            counts = split_clients(closed["clients"], self.shards)
            loads = [
                {"closed": {
                    **closed, "clients": count,
                    "seed": shard_seed(closed["seed"], shard),
                }}
                for shard, count in enumerate(counts)
            ]
        reports = [
            router.run_shard(
                shard, self._shard_options[shard], self._autoscale, **load
            )
            for shard, load in enumerate(loads)
        ]
        return ClusterResult(
            shards=reports,
            placement=self.placement,
            autoscale=self.autoscale,
            migrations=migrations,
        )

    def _run_clock(self) -> None:
        try:
            self.clock.run()
        except WatchdogError as exc:
            queued = sum(len(e._queue) for e in self.engines)
            active = sum(len(e._active) for e in self.engines)
            raise WatchdogError(
                str(exc).splitlines()[0],
                at=exc.at,
                diagnostic=(
                    f"{exc.diagnostic}\n"
                    f"cluster state at trip: {queued} queued, "
                    f"{active} in flight, {len(self.records)} submitted, "
                    f"alive shards {sorted(self.alive)}"
                ),
            ) from exc

    def _collect(self) -> ResilientClusterResult:
        reports = [
            ShardReport.of(shard, engine, engine.collect_result())
            for shard, engine in enumerate(self.engines)
        ]
        per_shard = []
        for shard, stats in enumerate(self._shard_stats):
            per_shard.append(
                {
                    "shard": shard,
                    "alive": shard in self.alive,
                    **stats,
                }
            )
        resilience = {
            "shard_crashes": self.shard_crashes,
            "shard_repairs": self.shard_repairs,
            "evacuated_running": self.evacuated_running,
            "evacuated_queued": self.evacuated_queued,
            "retries": self.retries_total,
            "rerouted": self.rerouted,
            "retry_exhausted": self.retry_exhausted,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "throttled": self.throttled,
            "breaker_opens": sum(
                b.opens for b in self._breakers if b is not None
            ),
            "per_shard": per_shard,
        }
        return ResilientClusterResult(
            shards=reports,
            placement=self.placement,
            autoscale=self.autoscale,
            migrations=0,
            records=self.records,
            resilience=resilience,
        )


def run_resilient_cluster(
    *,
    open_arrivals: Optional[Sequence[Tuple[float, QuerySpec]]] = None,
    closed: Optional[Dict] = None,
    shards: int,
    engine_options: Dict,
    placement: str = "hash",
    autoscale: Optional[Dict] = None,
    shard_faults: Optional[FaultSchedule] = None,
    retry_budget: Optional[int] = None,
    hedge=None,
    breaker=None,
    throttle=None,
    failover: Optional[bool] = None,
) -> ClusterResult:
    """Run the cluster (:class:`ResilientCluster`, plain or reactive)
    on ``open_arrivals`` or a ``closed`` population.

    The run is serial; parallelism lives
    one level up, in the chaos harness's campaign points
    (:mod:`repro.cluster.chaos`).

    Fast-path epochs speculate that a queued hedge sibling does not act
    on them first (:meth:`ResilientCluster._attempt_barrier`); on a
    miss the run is thrown away and repeated once without speculation,
    whose output the first run would have had.
    """
    global speculation_reruns

    def run(speculate: bool) -> ClusterResult:
        cluster = ResilientCluster(
            shards=shards,
            engine_options=engine_options,
            placement=placement,
            autoscale=autoscale,
            shard_faults=shard_faults,
            retry_budget=retry_budget,
            hedge=hedge,
            breaker=breaker,
            throttle=throttle,
            failover=failover,
            watchdog_limit=engine_options["watchdog_limit"],
            _speculate=speculate,
        )
        return cluster.run(open_arrivals, closed)

    try:
        return run(True)
    except _FastPathMiss:
        speculation_reruns += 1
        return run(False)


__all__ = [
    "RETRY_BACKOFF",
    "BreakerPolicy",
    "ClusterQueryRecord",
    "HedgePolicy",
    "ResilientCluster",
    "ResilientClusterResult",
    "ThrottlePolicy",
    "run_resilient_cluster",
]
