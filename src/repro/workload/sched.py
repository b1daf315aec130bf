"""Pluggable query schedulers and multi-tenant fair share.

The engine's admission queue used to be a hardwired FIFO: every layer
downstream of it (deadlines, shedding, recovery) was policy-rich while
the *ordering* decision was not.  A :class:`Scheduler` owns that
decision — :meth:`~Scheduler.pick` ranks the engine's own queue and
names the next query to try (:meth:`~Scheduler.enqueue` is only a
hook for per-query state such as WFQ's tags) — and the engine consults
it instead of popping its deque head:

* :class:`FifoScheduler` — strict arrival order.  Byte-identical to
  the legacy queue (the golden-identity tests pin this) except when a
  tenant has ``max_concurrent``: the legacy queue then blocks behind a
  capped head, while ``fifo`` skips past it.
* :class:`EdfScheduler` — earliest absolute deadline
  (``arrival + deadline``) first; deadline-free queries go last.
* :class:`SjfScheduler` — shortest job first, where "short" is the
  Section 3 analytic response time at the query's *advised*
  parallelism (:class:`ServiceEstimator`).
* :class:`PriorityScheduler` — highest tenant priority first
  (:class:`TenantSpec.priority`), FIFO within a priority band.
* :class:`WfqScheduler` — weighted fair queueing over tenants with
  virtual-time accounting: each query gets a finish tag
  ``max(virtual_time, tenant_finish) + estimate / weight``, the
  smallest tag runs next, and the virtual clock advances to the tag
  of whatever was admitted.  Heavier tenants drain proportionally
  faster; an abusive tenant's backlog inflates only its *own* tags.

Two simulator-grade realism knobs ride along (both ideas from the
pmsim exemplar):

``pool_size``
    A bounded visibility pool: the scheduler examines only the first
    K queued queries (in arrival order) per decision, modelling a
    scheduler that cannot afford to scan an unbounded queue.
``scheduling_cost``
    An explicit per-decision cost charged on the *simulated* clock:
    each admission decision occupies the scheduler for that long
    before the query starts, so scheduling overhead itself becomes a
    measurable axis.

Multi-tenancy: tag specs with :attr:`QuerySpec.tenant` and describe
each tenant with a :class:`TenantSpec` (weight, priority, default
deadline, per-tenant queue/concurrency caps, optional open-loop
rate).  :func:`fairness_sweep` drives the isolation story —
one abusive tenant at a multiple of its fair rate against one
well-behaved tenant — and reduces every cell to a
:class:`FairnessPoint` for the report's fairness section and the
isolation assertions of ``benchmarks/bench_fairness.py``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.numeric import ordered_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import WorkloadEngine
    from .metrics import QueryRecord, WorkloadResult
    from .mix import QuerySpec
    from .policies import MachineView

#: Scheduler names the engine, API, CLI, and runner accept.
SCHEDULER_NAMES = ("fifo", "edf", "sjf", "priority", "wfq")


# -- tenants --------------------------------------------------------------


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's service contract.

    ``weight``
        Fair-share weight under :class:`WfqScheduler` — a tenant with
        twice the weight drains its backlog twice as fast.
    ``priority``
        Rank under :class:`PriorityScheduler` (higher runs first).
    ``deadline``
        Default per-query deadline in simulated seconds from arrival
        for this tenant's queries; a spec's own deadline still wins,
        and the engine-wide default applies to untenanted queries.
    ``queue_limit`` / ``max_concurrent``
        Per-tenant caps: arrivals beyond ``queue_limit`` queued
        queries are shed (``tenant_queue_limit``), and at most
        ``max_concurrent`` of the tenant's queries execute at once
        (others stay queued but are skipped by the scheduler).
    ``rate``
        Optional open-loop arrival rate (queries per simulated
        second).  :func:`repro.api.run_workload` builds one seeded
        arrival stream per rated tenant and merges them; tenants
        without a rate contribute no dedicated stream.
    """

    name: str
    weight: float = 1.0
    priority: int = 0
    deadline: Optional[float] = None
    queue_limit: Optional[int] = None
    max_concurrent: Optional[int] = None
    rate: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a tenant needs a non-empty name")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("tenant deadline must be positive")
        if self.queue_limit is not None and self.queue_limit < 0:
            raise ValueError("tenant queue_limit must be non-negative")
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ValueError("tenant max_concurrent must be positive")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("tenant rate must be positive")

    def to_payload(self) -> Dict:
        """JSON-able form; optional fields appear only when set."""
        data: Dict = {"name": self.name}
        if self.weight != 1.0:
            data["weight"] = self.weight
        if self.priority != 0:
            data["priority"] = self.priority
        for field_name in ("deadline", "queue_limit", "max_concurrent", "rate"):
            value = getattr(self, field_name)
            if value is not None:
                data[field_name] = value
        return data

    @classmethod
    def from_payload(cls, data: Mapping) -> "TenantSpec":
        accepted = (
            "name", "weight", "priority", "deadline", "queue_limit",
            "max_concurrent", "rate",
        )
        unknown = sorted(key for key in data if key not in accepted)
        if unknown:
            raise ValueError(
                f"unknown tenant keys {unknown}; accepted: {accepted}"
            )
        if "name" not in data:
            raise ValueError("a tenant payload needs a 'name'")
        return cls(**dict(data))


def make_tenants(
    tenants: Union[
        None,
        Mapping,
        Sequence[Union[TenantSpec, Mapping]],
    ],
) -> Dict[str, TenantSpec]:
    """Normalize every accepted tenant spelling to ``{name: TenantSpec}``.

    Accepts ``None`` (no tenants), a ready ``{name: TenantSpec}``
    mapping, a sequence of :class:`TenantSpec` or payload dicts, or a
    JSON document of the form ``{"tenants": [...]}`` (what the CLI's
    ``--tenants spec.json`` and the service carry).
    """
    if tenants is None:
        return {}
    if isinstance(tenants, Mapping):
        if "tenants" in tenants:
            return make_tenants(tenants["tenants"])
        resolved: Dict[str, TenantSpec] = {}
        for name, spec in tenants.items():
            if not isinstance(spec, TenantSpec):
                raise TypeError(
                    "a tenant mapping must be {name: TenantSpec}; use "
                    "{'tenants': [...]} for the JSON payload form"
                )
            if spec.name != name:
                raise ValueError(
                    f"tenant key {name!r} does not match spec name "
                    f"{spec.name!r}"
                )
            resolved[name] = spec
        return resolved
    specs: List[TenantSpec] = []
    for entry in tenants:
        if isinstance(entry, TenantSpec):
            specs.append(entry)
        elif isinstance(entry, Mapping):
            specs.append(TenantSpec.from_payload(entry))
        else:
            raise TypeError(
                "tenants entries must be TenantSpec or payload dicts, "
                f"got {type(entry).__name__}"
            )
    resolved = {}
    for spec in specs:
        if spec.name in resolved:
            raise ValueError(f"duplicate tenant {spec.name!r}")
        resolved[spec.name] = spec
    return resolved


# -- analytic service estimates -------------------------------------------


class ServiceEstimator:
    """Analytic response-time estimates at advised parallelism.

    SJF and WFQ need a notion of job *size* before a query runs.  The
    Section 3 cost model supplies it: the analytic response time at
    advised parallelism on the engine's machine
    (:func:`~repro.model.analytic.predict_spec_service_time`, the one
    forecast the cluster router trusts too).  Estimates are cached per
    query class (:meth:`~repro.workload.mix.QuerySpec.model_key`:
    tenant and deadline do not split the cache), so the cost model runs
    once per distinct class, not per arrival.  An infeasible spec
    estimates to ``None`` (SJF sends it last; WFQ charges a nominal
    slice — admission will reject it anyway).
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple, Optional[float]] = {}

    def estimate(
        self, engine: Optional["WorkloadEngine"], spec: "QuerySpec"
    ) -> Optional[float]:
        key = spec.model_key()
        if key not in self._cache:
            from ..model import analytic

            if engine is None:
                size, config, cost_model = 40, None, None
            else:
                size = engine.machine.size
                config = engine.machine.config
                cost_model = engine.cost_model
            self._cache[key] = analytic.predict_spec_service_time(
                spec, size, config, cost_model
            )
        return self._cache[key]


# -- the scheduler protocol -----------------------------------------------


class Scheduler:
    """Ordering policy over the engine's admission queue.

    The engine owns the one queue; the scheduler keeps none.  The
    engine calls :meth:`enqueue` as a query joins the queue (on
    arrival *and on recovery re-admission*) and asks :meth:`pick`
    which queued query to try next, handing it the queue itself.
    ``pick`` scans the *visibility pool* — the first ``pool_size``
    queued queries in arrival order (all of them when unbounded) — and
    returns the admissible entry with the smallest :meth:`rank`; ties
    resolve to the earliest enqueued, so every policy is deterministic
    under seeded traffic.

    A queued query whose tenant is at its concurrency cap is skipped,
    not blocked on: the head-of-line never starves other tenants.
    Expiry is *not* the scheduler's job — the engine re-checks the
    picked query's deadline at the admission instant (completion and
    expiry events can share an instant).
    """

    name = "abstract"

    def __init__(self) -> None:
        self.pool_size: Optional[int] = None
        self.engine: Optional["WorkloadEngine"] = None

    def attach(
        self,
        engine: Optional["WorkloadEngine"],
        pool_size: Optional[int] = None,
    ) -> None:
        """Bind to one engine run (tenant lookups, machine context)."""
        if pool_size is not None and pool_size < 1:
            raise ValueError("pool_size must be positive")
        self.engine = engine
        self.pool_size = pool_size

    def enqueue(self, record: "QueryRecord") -> None:
        """Hook: a query joined the admission queue.  Recovery
        re-admissions arrive here too, carrying their *original*
        ``record.arrival`` — a retry is not a fresh arrival."""

    def pick(
        self,
        queue: Iterable["QueryRecord"],
        machine: "MachineView",
        now: float,
    ) -> Optional["QueryRecord"]:
        """The query in ``queue`` (arrival order) to try next; ``None``
        when nothing in the pool is admissible."""
        best: Optional["QueryRecord"] = None
        best_rank: Optional[Tuple] = None
        for record in islice(queue, self.pool_size):
            if not self._admissible(record):
                continue
            rank = self.rank(record, machine, now)
            if best is None or rank < best_rank:
                best, best_rank = record, rank
        return best

    def admitted(self, record: "QueryRecord", now: float) -> None:
        """Hook: the engine started ``record`` (virtual-time advance)."""

    def rank(
        self, record: "QueryRecord", machine: "MachineView", now: float
    ) -> Tuple:
        raise NotImplementedError

    def _admissible(self, record: "QueryRecord") -> bool:
        if self.engine is None:
            return True
        return self.engine._tenant_can_run(record)


class FifoScheduler(Scheduler):
    """Strict enqueue order: the first admissible query in the pool.
    Crash retries re-enter at the tail, as in the legacy queue.  A
    ``fifo`` run is byte-identical to a scheduler-free one unless a
    tenant has ``max_concurrent``: then the legacy queue blocks behind
    a capped head, and ``fifo`` skips it."""

    name = "fifo"

    def rank(
        self, record: "QueryRecord", machine: "MachineView", now: float
    ) -> Tuple:
        return ()  # all equal: the tie-break (enqueue order) decides

    def pick(
        self,
        queue: Iterable["QueryRecord"],
        machine: "MachineView",
        now: float,
    ) -> Optional["QueryRecord"]:
        for record in islice(queue, self.pool_size):
            if self._admissible(record):
                return record
        return None


class EdfScheduler(Scheduler):
    """Earliest absolute deadline (``arrival + deadline``) first.
    Because re-admissions keep their original arrival, a crash retry
    keeps its original urgency instead of rejoining as a fresh
    arrival.  Deadline-free queries rank behind every deadlined one."""

    name = "edf"

    def rank(
        self, record: "QueryRecord", machine: "MachineView", now: float
    ) -> Tuple:
        if record.deadline is None:
            return (math.inf,)
        return (record.arrival + record.deadline,)


class SjfScheduler(Scheduler):
    """Shortest analytic job first; infeasible estimates go last."""

    name = "sjf"

    def __init__(self, estimator: Optional[ServiceEstimator] = None) -> None:
        super().__init__()
        self.estimator = estimator or ServiceEstimator()

    def rank(
        self, record: "QueryRecord", machine: "MachineView", now: float
    ) -> Tuple:
        estimate = self.estimator.estimate(self.engine, record.spec)
        return (math.inf if estimate is None else estimate,)


class PriorityScheduler(Scheduler):
    """Highest tenant priority first; FIFO within a band.  Untenanted
    queries (and tenants without a spec) run at priority 0."""

    name = "priority"

    def rank(
        self, record: "QueryRecord", machine: "MachineView", now: float
    ) -> Tuple:
        return (-self._priority(record),)

    def _priority(self, record: "QueryRecord") -> int:
        tenant = self._tenant_spec(record)
        return tenant.priority if tenant is not None else 0

    def _tenant_spec(self, record: "QueryRecord") -> Optional[TenantSpec]:
        if self.engine is None or record.spec.tenant is None:
            return None
        return self.engine.tenants.get(record.spec.tenant)


class WfqScheduler(Scheduler):
    """Weighted fair queueing over tenants (virtual-time accounting).

    Every enqueued query gets a finish tag
    ``max(virtual_time, tenant_last_finish) + estimate / weight``;
    the smallest tag runs next and the virtual clock catches up to
    it on admission.  Backlog from one tenant only pushes that
    tenant's own tags out, so a flooding tenant cannot starve a
    well-behaved one — the fairness bench pins this.  A re-admitted
    crash retry keeps the tag of its original arrival (the tag map is
    keyed by query index), so recovery does not grant a fresh share.
    Untenanted queries form one implicit tenant at weight 1.
    """

    name = "wfq"

    def __init__(self, estimator: Optional[ServiceEstimator] = None) -> None:
        super().__init__()
        self.estimator = estimator or ServiceEstimator()
        self._virtual = 0.0
        self._tenant_finish: Dict[Optional[str], float] = {}
        self._tags: Dict[int, float] = {}

    def enqueue(self, record: "QueryRecord") -> None:
        if record.index not in self._tags:
            tenant = record.spec.tenant
            start = max(
                self._virtual, self._tenant_finish.get(tenant, 0.0)
            )
            tag = start + self._slice(record)
            self._tags[record.index] = tag
            self._tenant_finish[tenant] = tag

    def rank(
        self, record: "QueryRecord", machine: "MachineView", now: float
    ) -> Tuple:
        return (self._tags[record.index],)

    def admitted(self, record: "QueryRecord", now: float) -> None:
        tag = self._tags.get(record.index)
        if tag is not None and tag > self._virtual:
            self._virtual = tag

    def _slice(self, record: "QueryRecord") -> float:
        estimate = self.estimator.estimate(self.engine, record.spec)
        if estimate is None or not math.isfinite(estimate):
            estimate = 1.0  # infeasible: admission rejects it anyway
        weight = 1.0
        if self.engine is not None and record.spec.tenant is not None:
            spec = self.engine.tenants.get(record.spec.tenant)
            if spec is not None:
                weight = spec.weight
        return estimate / weight


def make_scheduler(
    scheduler: Union[None, str, Scheduler],
) -> Optional[Scheduler]:
    """``None`` (the legacy FIFO deque, untouched), a name from
    :data:`SCHEDULER_NAMES`, or a ready :class:`Scheduler` instance."""
    if scheduler is None or isinstance(scheduler, Scheduler):
        return scheduler
    factories = {
        "fifo": FifoScheduler,
        "edf": EdfScheduler,
        "sjf": SjfScheduler,
        "priority": PriorityScheduler,
        "wfq": WfqScheduler,
    }
    try:
        return factories[scheduler]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; expected one of "
            f"{SCHEDULER_NAMES}"
        ) from None


# -- fairness sweeps ------------------------------------------------------


@dataclass(frozen=True)
class FairnessPoint:
    """One (scheduler, abuse factor, tenant) cell of a fairness sweep:
    what one tenant got while another misbehaved."""

    scheduler: str
    abuse_factor: float       # abusive tenant's rate / its fair rate
    tenant: str
    offered: int              # queries this tenant submitted
    completed: int
    shed: int                 # shed/expired, never ran to term
    goodput: float            # in-deadline completions per second offered
    share: float              # this tenant's fraction of total goodput
    p95_latency: Optional[float]

    def row(self) -> Dict:
        """Deterministic JSONL row: the fields, in declaration order."""
        return asdict(self)


def fairness_sweep(
    *,
    schedulers: Sequence[str] = ("fifo", "wfq"),
    abuse_factors: Sequence[float] = (1.0, 2.0, 3.0),
    good_rate: float = 0.02,
    abuse_fair_rate: Optional[float] = None,
    deadline: float = 150.0,
    duration: float = 600.0,
    machine_size: int = 40,
    good_weight: float = 1.0,
    abuse_weight: float = 1.0,
    seed: int = 0,
    **workload_kwargs,
) -> List[FairnessPoint]:
    """Two open-loop tenants per cell: ``good`` at its steady rate and
    ``abuse`` at ``abuse_factor`` times its fair rate
    (``abuse_fair_rate``, defaulting to ``good_rate``).  Both carry the
    same per-tenant deadline, so goodput means in-deadline completions.
    Returns one :class:`FairnessPoint` per (scheduler, factor, tenant);
    extra keyword arguments pass to :func:`repro.api.run_workload`.
    """
    from .. import api

    fair = abuse_fair_rate if abuse_fair_rate is not None else good_rate
    points: List[FairnessPoint] = []
    for scheduler in schedulers:
        for factor in abuse_factors:
            tenants = (
                TenantSpec(
                    "good", weight=good_weight, deadline=deadline,
                    rate=good_rate,
                ),
                TenantSpec(
                    "abuse", weight=abuse_weight, deadline=deadline,
                    rate=fair * factor,
                ),
            )
            result = api.run_workload(
                arrivals="poisson",
                duration=duration,
                seed=seed,
                machine_size=machine_size,
                scheduler=scheduler,
                tenants=tenants,
                **workload_kwargs,
            )
            points.extend(fairness_points(result, scheduler, factor))
    return points


def fairness_points(
    result: "WorkloadResult", scheduler: str, abuse_factor: float
) -> List[FairnessPoint]:
    """Reduce one multi-tenant run to per-tenant fairness points."""
    summary = result.tenant_summary()
    total_goodput = ordered_sum(cell["goodput"] for cell in summary.values())
    points = []
    for tenant in sorted(summary):
        cell = summary[tenant]
        points.append(FairnessPoint(
            scheduler=scheduler,
            abuse_factor=abuse_factor,
            tenant=tenant,
            offered=cell["submitted"],
            completed=cell["completed"],
            shed=cell["shed"],
            goodput=cell["goodput"],
            share=(
                cell["goodput"] / total_goodput if total_goodput > 0 else 0.0
            ),
            p95_latency=cell["latency"]["p95"],
        ))
    return points


__all__ = [
    "SCHEDULER_NAMES",
    "EdfScheduler",
    "FairnessPoint",
    "FifoScheduler",
    "PriorityScheduler",
    "Scheduler",
    "ServiceEstimator",
    "SjfScheduler",
    "TenantSpec",
    "WfqScheduler",
    "fairness_points",
    "fairness_sweep",
    "make_scheduler",
    "make_tenants",
]
