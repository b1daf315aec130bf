"""The cluster front-end: route, fan out, aggregate.

A cluster is N independent :class:`~repro.workload.WorkloadEngine`
shards — each with its own :class:`~repro.sim.events.SimulationClock`,
processor pool, scheduler, and admission control (shared-nothing, like
the paper's machine but one level up).  The router splits the arrival
stream across shards with a :class:`~repro.cluster.placement`
policy *before* any shard simulates, so every shard's run is
self-contained and the fan-out can use a process pool without
touching determinism: results are collected in shard order, and each
shard's simulation depends only on its own arrival list and seed.

House invariants, pinned by tests:

* ``shards=1`` with ``autoscale="static"`` is *byte-identical* to
  :func:`repro.api.run_workload` — the cluster layer is a strict
  superset of the single-engine workload path.
* A fixed-seed N-shard run emits identical JSONL at ``workers=1`` and
  ``workers=4``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.numeric import ordered_sum
from ..workload.engine import WorkloadEngine
from ..workload.metrics import WorkloadResult, percentile
from ..workload.mix import QuerySpec
from .autoscale import DEFAULT_COOLDOWN, ElasticEngine, make_autoscaler
from .placement import make_placement

#: Per-shard seed stride for closed-loop clients and deadline draws on
#: shards beyond the first.  Shard 0 keeps the caller's seed verbatim
#: (the 1-shard identity invariant); the stride is a prime far from
#: the engine's per-client stride (1_000_003) so shard streams never
#: collide with in-run generators.
SHARD_SEED_STRIDE = 10_000_019


def shard_seed(seed: int, shard: int) -> int:
    return seed if shard == 0 else seed + SHARD_SEED_STRIDE * shard


@dataclass
class ShardReport:
    """One shard's run, as plain picklable data (pool-safe)."""

    shard: int
    rows: List[Dict]
    machine_size: int        # base (provisioned) capacity
    policy: str
    makespan: float
    busy_seconds: float
    peak_in_flight: int
    peak_queued: int
    scheduler: Optional[str]
    scheduling_decisions: int
    fast_path_queries: int
    capacity_base: int
    capacity_max: int
    capacity_final: int
    scale_events: List[Dict] = field(default_factory=list)

    @classmethod
    def of(
        cls, shard: int, engine: WorkloadEngine, result: WorkloadResult
    ) -> "ShardReport":
        """The report of ``engine``'s finished run, ``result`` being its
        :class:`~repro.workload.WorkloadResult`.  An elastic engine
        reports its capacity trajectory; a fixed one, its size."""
        if isinstance(engine, ElasticEngine):
            base = engine.base_capacity
            capacity_max = engine.scale_max
            capacity_final = engine.capacity
            events = [e.to_payload() for e in engine.scale_events]
        else:
            base = capacity_max = capacity_final = engine.machine.size
            events = []
        return cls(
            shard=shard,
            rows=result.rows(),
            machine_size=base,
            policy=result.policy,
            makespan=result.makespan,
            busy_seconds=result.busy_seconds,
            peak_in_flight=result.peak_in_flight,
            peak_queued=result.peak_queued,
            scheduler=result.scheduler,
            scheduling_decisions=result.scheduling_decisions,
            fast_path_queries=result.fast_path_queries,
            capacity_base=base,
            capacity_max=capacity_max,
            capacity_final=capacity_final,
            scale_events=events,
        )

    @property
    def scale_ups(self) -> int:
        return sum(1 for e in self.scale_events if e["to"] > e["from"])

    @property
    def scale_downs(self) -> int:
        return sum(1 for e in self.scale_events if e["to"] < e["from"])

    def completed_count(self) -> int:
        return sum(1 for r in self.rows if r["completed"] is not None)

    def useful_count(self) -> int:
        """Completions that met their deadline.  Deadlines are
        engine-enforced (a late runner is aborted), so a completed row
        with ``deadline_missed`` false *is* a useful completion."""
        return sum(
            1
            for r in self.rows
            if r["completed"] is not None and not r["deadline_missed"]
        )

    def latencies(self) -> List[float]:
        return [
            r["latency"] for r in self.rows if r["completed"] is not None
        ]

    def summary_dict(self) -> Dict:
        stats = _latency_stats(self.latencies())
        data = {
            "shard": self.shard,
            "submitted": len(self.rows),
            "completed": self.completed_count(),
            "useful": self.useful_count(),
            "makespan": self.makespan,
            "peak_in_flight": self.peak_in_flight,
            "peak_queued": self.peak_queued,
            "latency": stats,
            "capacity": {
                "base": self.capacity_base,
                "max": self.capacity_max,
                "final": self.capacity_final,
            },
        }
        if self.scale_events:
            data["scale_events"] = self.scale_events
        return data


def _latency_stats(values: Sequence[float]) -> Dict[str, Optional[float]]:
    if not values:
        return {"mean": None, "p50": None, "p95": None, "p99": None}
    values = list(values)
    return {
        "mean": ordered_sum(values) / len(values),
        "p50": percentile(values, 50.0),
        "p95": percentile(values, 95.0),
        "p99": percentile(values, 99.0),
    }


@dataclass
class ClusterResult:
    """Everything one cluster run produced, merged across shards."""

    shards: List[ShardReport]
    placement: str
    autoscale: str
    migrations: int = 0

    # -- merged rows ------------------------------------------------------

    def rows(self) -> List[Dict]:
        """Per-query JSONL rows in shard order — the population every
        count and the cluster-wide latency are taken over.  A one-shard
        cluster emits its shard's rows *verbatim* (no ``shard`` key), so
        the 1-shard cluster is byte-identical to the single-engine
        workload; multi-shard rows carry their shard index."""
        if len(self.shards) == 1:
            return self.shards[0].rows
        merged: List[Dict] = []
        for report in self.shards:
            for row in report.rows:
                merged.append({**row, "shard": report.shard})
        return merged

    def write_jsonl(self, path):
        from ..runner.results import write_jsonl

        return write_jsonl(path, self.rows())

    # -- cross-shard aggregates -------------------------------------------

    def submitted_count(self) -> int:
        return len(self.rows())

    def completed_count(self) -> int:
        return sum(1 for r in self.rows() if r["completed"] is not None)

    def useful_count(self) -> int:
        """Completions that met their deadline."""
        return sum(
            1
            for r in self.rows()
            if r["completed"] is not None and not r["deadline_missed"]
        )

    def rejected_count(self) -> int:
        return sum(1 for r in self.rows() if r["rejected"])

    def failed_count(self) -> int:
        return sum(1 for r in self.rows() if r["failed"])

    def shed_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.rows():
            if r["shed"] is not None:
                counts[r["shed"]] = counts.get(r["shed"], 0) + 1
        return counts

    @property
    def makespan(self) -> float:
        """Simulated time until the *last* shard drained."""
        return max((report.makespan for report in self.shards), default=0.0)

    def machine_size(self) -> int:
        """Total provisioned base capacity across shards."""
        return sum(report.machine_size for report in self.shards)

    def throughput(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.completed_count() / self.makespan

    def goodput(self) -> float:
        """Merged useful completions per simulated second."""
        if self.makespan <= 0:
            return 0.0
        return self.useful_count() / self.makespan

    def latency_stats(
        self, shard: Optional[int] = None
    ) -> Dict[str, Optional[float]]:
        """Global (or one shard's) mean/p50/p95/p99 latency."""
        if shard is not None:
            return _latency_stats(self.shards[shard].latencies())
        return _latency_stats(
            [r["latency"] for r in self.rows() if r["completed"] is not None]
        )

    def scale_events(self) -> List[Dict]:
        """Every shard's scale events, tagged with the shard index."""
        return [
            {**event, "shard": report.shard}
            for report in self.shards
            for event in report.scale_events
        ]

    def scale_ups(self) -> int:
        return sum(report.scale_ups for report in self.shards)

    def scale_downs(self) -> int:
        return sum(report.scale_downs for report in self.shards)

    def per_shard(self) -> List[Dict]:
        return [report.summary_dict() for report in self.shards]

    def summary(self) -> str:
        stats = self.latency_stats()
        if stats["p99"] is None:
            latency = "latency n/a (no completions)"
        else:
            latency = (
                f"latency p50 {stats['p50']:.2f}s "
                f"p95 {stats['p95']:.2f}s p99 {stats['p99']:.2f}s"
            )
        text = (
            f"cluster {len(self.shards)}x{self.shards[0].machine_size}p "
            f"({self.placement}/{self.autoscale}): "
            f"{self.completed_count()}/{self.submitted_count()} completed "
            f"({self.rejected_count()} rejected), "
            f"makespan {self.makespan:.1f}s, "
            f"goodput {self.goodput():.3f} q/s, {latency}"
        )
        if self.migrations:
            text += f", {self.migrations} tenant migrations"
        if self.scale_ups() or self.scale_downs():
            text += (
                f" | autoscale: {self.scale_ups()} ups, "
                f"{self.scale_downs()} downs"
            )
        per_shard = ", ".join(
            f"s{report.shard} {report.completed_count()}/{len(report.rows)}"
            for report in self.shards
        )
        if len(self.shards) > 1:
            text += f" | shards: {per_shard}"
        return text


# -- shard execution (process-pool entry points) --------------------------


def _build_engine(
    payload: Dict, *, clock=None, on_query_done=None
) -> WorkloadEngine:
    """One shard's engine from its payload: ``payload["engine"]`` is a
    complete engine-options dict (:func:`repro.options.engine_options`),
    ``payload["autoscale"]`` the elasticity block or ``None``."""
    extra = {"clock": clock, "on_query_done": on_query_done}
    if payload["autoscale"] is None:
        return WorkloadEngine.from_options(payload["engine"], **extra)
    scaling = dict(payload["autoscale"])
    return ElasticEngine.from_options(
        payload["engine"],
        autoscaler=make_autoscaler(scaling.pop("policy")),
        **scaling,
        **extra,
    )


def run_shard(payload: Dict) -> ShardReport:
    """Run one shard end to end (module-level and picklable — the
    process-pool entry point)."""
    engine = _build_engine(payload)
    closed = payload.get("closed")
    if closed is not None and closed["clients"] == 0:
        # More shards than clients: this one idles, but still reports.
        result = engine.collect_result()
    elif closed is not None:
        result = engine.run_closed(
            closed["mix"],
            closed["clients"],
            think_time=closed["think_time"],
            queries_per_client=closed["queries_per_client"],
            duration=closed["duration"],
            seed=closed["seed"],
        )
    else:
        result = engine.run_open(payload["arrivals"])
    return ShardReport.of(payload["shard"], engine, result)


# -- the cluster run ------------------------------------------------------


def split_open_arrivals(
    arrivals: Sequence[Tuple[float, QuerySpec]],
    shards: int,
    placement,
    context: Optional[Dict] = None,
) -> Tuple[List[List[Tuple[float, QuerySpec]]], int]:
    """Assign every arrival to a shard; returns the per-shard arrival
    lists (original time order preserved) and the tenant migration
    count (a tenant routed to a different shard than its previous
    query — nonzero only under load-aware or positional placement)."""
    placement = make_placement(placement)
    placement.reset(shards, context)
    per_shard: List[List[Tuple[float, QuerySpec]]] = [
        [] for _ in range(shards)
    ]
    last_shard: Dict[str, int] = {}
    migrations = 0
    for index, (time, spec) in enumerate(arrivals):
        shard = placement.place(index, time, spec)
        if not 0 <= shard < shards:
            raise ValueError(
                f"placement {placement.name!r} returned shard {shard} "
                f"outside [0, {shards})"
            )
        if spec.tenant is not None:
            previous = last_shard.get(spec.tenant)
            if previous is not None and previous != shard:
                migrations += 1
            last_shard[spec.tenant] = shard
        per_shard[shard].append((time, spec))
    return per_shard, migrations


def split_clients(clients: int, shards: int) -> List[int]:
    """Closed-loop client counts per shard (round-robin remainder)."""
    base, extra = divmod(clients, shards)
    return [base + (1 if shard < extra else 0) for shard in range(shards)]


def run_cluster_shards(
    *,
    shards: int,
    placement: str,
    autoscale: str,
    engine_options: Dict,
    open_arrivals: Optional[Sequence[Tuple[float, QuerySpec]]] = None,
    closed: Optional[Dict] = None,
    scale_max: Optional[int] = None,
    scale_min: Optional[int] = None,
    scale_cooldown: float = DEFAULT_COOLDOWN,
    workers: Optional[int] = None,
) -> ClusterResult:
    """Fan a pre-built arrival stream (or closed-loop population) over
    ``shards`` independent engines and merge the reports.

    ``engine_options`` carries the per-shard engine configuration (see
    :func:`run_shard`); its ``machine_size``/``config``/``cost_model``
    also size the placement's load forecast.  With ``workers`` > 1 the
    shards run on a process pool; the output is byte-identical to the
    serial run because every shard is self-contained and reports are
    collected in shard order.
    """
    if shards < 1:
        raise ValueError("a cluster needs at least one shard")
    if (open_arrivals is None) == (closed is None):
        raise ValueError("exactly one of open_arrivals/closed is required")
    if closed is not None and closed["clients"] < 1:
        raise ValueError("need at least one client")
    placement_name = placement if isinstance(placement, str) else placement.name
    autoscale_name = autoscale or "static"
    autoscale_payload = None
    if autoscale_name != "static":
        base = engine_options["machine_size"]
        resolved_max = scale_max if scale_max is not None else 2 * base
        autoscale_payload = {
            "policy": autoscale_name,
            "scale_max": resolved_max,
            "scale_min": scale_min,
            "scale_cooldown": scale_cooldown,
        }
        if engine_options["share"] is None:
            # An exclusive policy with no explicit share asks for the
            # whole machine — which at scale_max would never fit the
            # base capacity.  Pin the share to the base so elasticity
            # changes *concurrency*, not per-query feasibility.
            engine_options = {**engine_options, "share": base}

    shard_faults = resolve_shard_faults(engine_options["faults"], shards)
    migrations = 0
    payloads: List[Dict] = []
    if open_arrivals is not None:
        per_shard, migrations = split_open_arrivals(
            open_arrivals, shards, placement_name, engine_options
        )
        for shard in range(shards):
            payloads.append({
                "shard": shard,
                "arrivals": per_shard[shard],
                "engine": _shard_engine_options(
                    engine_options, shard, fault=shard_faults[shard]
                ),
                "autoscale": autoscale_payload,
            })
    else:
        counts = split_clients(closed["clients"], shards)
        for shard in range(shards):
            payloads.append({
                "shard": shard,
                "arrivals": None,
                "closed": {
                    **closed,
                    "clients": counts[shard],
                    "seed": shard_seed(closed["seed"], shard),
                },
                "engine": _shard_engine_options(
                    engine_options, shard, fault=shard_faults[shard]
                ),
                "autoscale": autoscale_payload,
            })

    reports = _execute(payloads, workers)
    return ClusterResult(
        shards=reports,
        placement=placement_name,
        autoscale=autoscale_name,
        migrations=migrations,
    )


def _shard_engine_options(
    engine_options: Dict, shard: int, fault=None
) -> Dict:
    """Per-shard engine options: shard 0 keeps the caller's seed (the
    1-shard identity invariant); later shards derive theirs.  ``fault``
    (from :func:`resolve_shard_faults`) replaces any multi-shard
    ``faults`` value with this shard's own schedule."""
    options = dict(engine_options)
    options["deadline_seed"] = shard_seed(options["deadline_seed"], shard)
    options["faults"] = fault
    return options


def resolve_shard_faults(faults, shards: int) -> List:
    """Per-shard fault schedules from a ``faults=`` argument.

    A single :class:`~repro.faults.FaultSchedule` applies to *every*
    shard (each engine builds its own injector, so sharing the
    schedule object is safe); a sequence of length ``shards`` (with
    ``None`` holes) or a ``{shard: schedule}`` dict targets shards
    individually.
    """
    if faults is None:
        return [None] * shards
    from ..faults import FaultSchedule

    if isinstance(faults, FaultSchedule):
        return [faults] * shards
    if isinstance(faults, dict):
        resolved: List = [None] * shards
        for shard, schedule in faults.items():
            if not isinstance(shard, int) or not 0 <= shard < shards:
                raise ValueError(
                    f"faults dict key {shard!r} is not a shard index in "
                    f"[0, {shards})"
                )
            if schedule is not None and not isinstance(
                schedule, FaultSchedule
            ):
                raise ValueError(
                    f"faults[{shard}] must be a FaultSchedule or None, "
                    f"got {type(schedule).__name__}"
                )
            resolved[shard] = schedule
        return resolved
    if isinstance(faults, (list, tuple)):
        if len(faults) != shards:
            raise ValueError(
                f"faults sequence has {len(faults)} entries for "
                f"{shards} shards"
            )
        for shard, schedule in enumerate(faults):
            if schedule is not None and not isinstance(
                schedule, FaultSchedule
            ):
                raise ValueError(
                    f"faults[{shard}] must be a FaultSchedule or None, "
                    f"got {type(schedule).__name__}"
                )
        return list(faults)
    raise ValueError(
        "faults must be a FaultSchedule, a per-shard sequence, or a "
        "{shard: schedule} dict"
    )


def _execute(payloads: List[Dict], workers: Optional[int]) -> List[ShardReport]:
    if workers is not None and workers > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(payloads))
            ) as pool:
                return list(pool.map(run_shard, payloads))
        except Exception:
            # Parallelism is an optimization, never a correctness
            # risk: anything the pool cannot finish re-runs serially.
            pass
    return [run_shard(payload) for payload in payloads]
