"""Cluster results and shard construction.

A cluster is N :class:`~repro.workload.WorkloadEngine` shards — each
with its own processor pool, scheduler, and admission control
(shared-nothing, like the paper's machine but one level up) — run by
:class:`~repro.cluster.resilience.ResilientCluster`: a plain run
(no reactions) runs each shard alone on its own clock
(:func:`run_shard`), a reactive one hosts them all on one simulated
clock.  This module holds what every cluster run shares: the per-shard
:class:`ShardReport`, the merged :class:`ClusterResult`, the per-shard
seeds, client split and fault schedules, the engine builder and the
plain shard runner.

House invariants, pinned by tests:

* ``shards=1`` with ``autoscale="static"`` is *byte-identical* to
  :func:`repro.api.run_workload` — the cluster layer is a strict
  superset of the single-engine workload path.
* A plain shard (no reactions) reports what it would alone: its rows
  and its ``makespan`` match a fresh engine run on its own arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.numeric import ordered_sum
from ..workload.engine import WorkloadEngine
from ..workload.metrics import WorkloadResult, percentile
from ..workload.mix import QuerySpec
from .autoscale import ElasticEngine, make_autoscaler

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
    """One shard's run, as plain data."""

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


# -- shard construction ----------------------------------------------------


def split_clients(clients: int, shards: int) -> List[int]:
    """Closed-loop client counts per shard (round-robin remainder)."""
    base, extra = divmod(clients, shards)
    return [base + (1 if shard < extra else 0) for shard in range(shards)]


def _build_engine(
    options: Dict, autoscale: Optional[Dict] = None, **extra
) -> WorkloadEngine:
    """One shard's engine: ``options`` is a complete engine-options dict
    (:func:`repro.options.engine_options`), ``autoscale`` the
    elasticity block (``policy``, ``scale_max``, ``scale_min``,
    ``scale_cooldown``) or ``None``; ``extra`` carries the hosting
    cluster's ``clock`` and ``on_query_done``."""
    if autoscale is None:
        return WorkloadEngine.from_options(options, **extra)
    scaling = dict(autoscale)
    return ElasticEngine.from_options(
        options,
        autoscaler=make_autoscaler(scaling.pop("policy")),
        **scaling,
        **extra,
    )


def run_shard(
    shard: int,
    options: Dict,
    autoscale: Optional[Dict] = None,
    arrivals: Sequence[Tuple[float, QuerySpec]] = (),
    closed: Optional[Dict] = None,
) -> ShardReport:
    """Run one plain shard alone, on its own clock, and report it: the
    engine built by :func:`_build_engine` serves ``arrivals``, or the
    ``closed`` loop (the keywords of ``WorkloadEngine.run_closed``
    plus ``mix`` and ``clients``)."""
    engine = _build_engine(options, autoscale)
    if closed is None:
        result = engine.run_open(arrivals)
    elif closed["clients"]:
        result = engine.run_closed(
            closed["mix"],
            closed["clients"],
            think_time=closed["think_time"],
            queries_per_client=closed["queries_per_client"],
            duration=closed["duration"],
            seed=closed["seed"],
        )
    else:
        # More shards than clients: this one idles, but still reports.
        result = engine.collect_result()
    return ShardReport.of(shard, engine, result)


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
        for shard in faults:
            if not isinstance(shard, int) or not 0 <= shard < shards:
                raise ValueError(
                    f"faults dict key {shard!r} is not a shard index in "
                    f"[0, {shards})"
                )
        resolved = [faults.get(shard) for shard in range(shards)]
    elif isinstance(faults, (list, tuple)):
        if len(faults) != shards:
            raise ValueError(
                f"faults sequence has {len(faults)} entries for "
                f"{shards} shards"
            )
        resolved = list(faults)
    else:
        raise ValueError(
            "faults must be a FaultSchedule, a per-shard sequence, or a "
            "{shard: schedule} dict"
        )
    for shard, schedule in enumerate(resolved):
        if schedule is not None and not isinstance(schedule, FaultSchedule):
            raise ValueError(
                f"faults[{shard}] must be a FaultSchedule or None, "
                f"got {type(schedule).__name__}"
            )
    return resolved
