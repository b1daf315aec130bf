"""The unified execution facade.

Historically the reproduction grew four divergent front-ends — the
machine simulation (:func:`repro.engine.simulate.simulate_strategy`),
real local execution (:func:`repro.engine.local.execute_schedule`), the
threaded dataflow executor
(:func:`repro.engine.threaded.execute_threaded`), and the zero-overhead
idealized runs (:func:`repro.engine.ideal.ideal_simulation`) — each
with its own argument spelling.  :func:`run` is the single entry point
over all four; the engines stay importable from their submodules.

Quickstart::

    from repro.api import run

    result = run("wide_bushy", "FP", 40)          # simulate (default)
    print(result.summary())

    ideal = run("wide_bushy", "SP", 10, "ideal")  # Figure 3-style run
    real = run("wide_bushy", "SE", 6, "local",    # real data, oracle-checked
               cardinality=200)

Sweeps over many points go through :func:`sweep` (the parallel runner
of :mod:`repro.runner`), and multi-query traffic on one shared machine
through :func:`run_workload` (the workload engine of
:mod:`repro.workload`).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from .core.cost import Catalog, CostModel
from .core.shapes import SHAPE_NAMES, make_shape, paper_relation_names
from .core.strategies import Strategy, get_strategy
from .core.trees import Join, Leaf, Node, leaves
from .options import OPTIONS, engine_options
from .sim.machine import MachineConfig
from .sim.watchdog import DEFAULT_MAX_EVENTS_PER_INSTANT

#: The execution backends :func:`run` dispatches between.
BACKENDS = ("sim", "local", "threaded", "ideal")

#: Default number of base relations when a shape name is given.
DEFAULT_RELATIONS = 10

#: Default tuples per relation (the paper's 5K experiment).
DEFAULT_CARDINALITY = 5_000

#: The frozen (v1) keyword-only surface of :func:`run`.  The execution
#: context (``catalog``/``config``/``cost_model``/``skew_theta``/
#: ``cardinality``/``faults``/``deadline``) is spelled identically in
#: :func:`run_workload`; the rest are front-end-specific.
RUN_KEYWORDS = (
    "catalog", "config", "cost_model", "skew_theta", "cardinality",
    "relations", "resolve", "timeout", "faults", "deadline",
)

#: The frozen (v1) keyword-only surface of :func:`run_workload`.
#: Extended additively post-freeze by the scheduling/multi-tenancy
#: keywords (``scheduler``/``pool_size``/``scheduling_cost``/
#: ``tenants``) and the turbo-v2 ``fast_path`` toggle — existing call
#: sites are untouched.
RUN_WORKLOAD_KEYWORDS = (
    "arrivals", "rate", "duration", "seed", "machine_size", "policy",
    "share", "strategy", "cardinality", "relations", "clients",
    "think_time", "queries_per_client", "max_concurrent", "queue_limit",
    "memory_budget_bytes", "config", "cost_model", "skew_theta",
    "faults", "recovery", "max_retries", "retry_backoff",
    "rejected_retry_delay", "deadline", "shed", "cancellations",
    "watchdog_limit", "scheduler", "pool_size", "scheduling_cost",
    "tenants", "fast_path",
)

#: The frozen keyword-only surface of :func:`run_cluster`.  The
#: traffic/engine keywords are spelled identically to
#: :func:`run_workload` (same defaults), so a 1-shard static cluster
#: is a drop-in spelling of the same run; the cluster-specific prefix
#: (``trace`` through ``workers``) is new surface.
RUN_CLUSTER_KEYWORDS = (
    "trace", "shards", "placement", "autoscale", "scale_max",
    "scale_min", "scale_cooldown", "workers",
    "arrivals", "rate", "duration", "seed", "machine_size", "policy",
    "share", "strategy", "cardinality", "relations", "clients",
    "think_time", "queries_per_client", "max_concurrent", "queue_limit",
    "memory_budget_bytes", "config", "cost_model", "skew_theta",
    "rejected_retry_delay", "deadline", "shed", "watchdog_limit",
    "scheduler", "pool_size", "scheduling_cost", "tenants", "fast_path",
    # Extended additively post-freeze by the resilience surface:
    # engine-level per-shard faults, and the cluster's reactions (any
    # of shard_faults/retry_budget/hedge/breaker/throttle/failover).
    "faults", "recovery", "max_retries", "retry_backoff",
    "shard_faults", "retry_budget", "hedge", "breaker", "throttle",
    "failover",
)


def _reject_unknown_keywords(func_name: str, unknown, accepted) -> None:
    """Shared keyword gate of the v1 surface.

    Both entry points funnel their ``**kwargs`` through here so a typo
    fails the same way everywhere: a :class:`TypeError` naming the
    rejected keywords *and* the full accepted set (plain ``def``
    signatures reject unknowns too, but name only the first offender
    and never say what would have been accepted).
    """
    if unknown:
        raise TypeError(
            f"{func_name}() got unexpected keyword argument(s) "
            f"{sorted(unknown)}; accepted keywords: {', '.join(accepted)}"
        )


def run(
    tree_or_shape: Union[str, Node],
    strategy: Union[str, Strategy] = "FP",
    processors: int = 40,
    backend: str = "sim",
    *,
    catalog: Optional[Catalog] = None,
    config: Optional[MachineConfig] = None,
    cost_model: Optional[CostModel] = None,
    skew_theta: float = 0.0,
    cardinality: int = DEFAULT_CARDINALITY,
    relations=None,
    resolve=None,
    timeout: Optional[float] = None,
    faults=None,
    deadline: Optional[float] = None,
    **unknown,
):
    """Plan ``tree_or_shape`` with ``strategy`` and execute it on one
    of the four backends.

    ``tree_or_shape``
        A :class:`~repro.core.trees.Node` join tree, or one of the
        paper's shape names (``"wide_bushy"``, ...) which is built over
        ten relations.
    ``backend``
        ``"sim"`` — discrete-event machine simulation; returns a
        :class:`~repro.sim.metrics.SimulationResult`.
        ``"ideal"`` — the same simulation on the zero-overhead machine
        (Figures 3/4/6/7); returns a ``SimulationResult``.
        ``"local"`` — real execution on actual relations; returns an
        :class:`~repro.engine.local.ExecutionResult`.
        ``"threaded"`` — the concurrent dataflow executor; returns the
        result :class:`~repro.relational.Relation`.
    ``catalog`` / ``cardinality``
        ``catalog`` defaults to the paper's regular catalog over the
        tree's leaves at ``cardinality`` tuples each.
    ``config`` / ``cost_model`` / ``skew_theta``
        The uniform execution context of the simulating backends.  The
        real-data backends (``local``/``threaded``) reject ``config``
        and ``skew_theta`` — they execute, rather than model, the run.
    ``relations``
        Mapping of leaf name to :class:`~repro.relational.Relation`
        for the real-data backends; generated Wisconsin data at
        ``cardinality`` tuples when omitted.
    ``resolve``
        Join-semantics resolver for the real-data backends,
        ``resolve(left_schema, right_schema) -> JoinResolution``.  By
        default both apply :func:`repro.relational.query.resolve_join`:
        the paper's Wisconsin query when both operands are Wisconsin
        relations (generated or supplied), the natural join otherwise.
    ``timeout``
        Wall-clock bound in seconds for ``backend="threaded"`` — the
        only backend that can be abandoned mid-run (its dataflow
        threads are daemons); defaults to 60 seconds there.  The other
        backends run to completion on the calling thread and cannot
        honor a wall-clock bound; passing ``timeout`` with them is an
        error (v1 freeze — it was silently ignored pre-facade, then a
        :class:`DeprecationWarning` for one release).
    ``faults``
        A :class:`~repro.faults.FaultSchedule` (or prepared
        :class:`~repro.faults.FaultInjector`) armed against the
        simulating backends; a crash that hits the query raises
        :class:`~repro.faults.QueryAbortedError` (a single query on a
        dedicated machine has nothing to recover to — recovery
        policies live in :func:`run_workload`).  An empty schedule is
        a bit-for-bit no-op.  Rejected by the real-data backends.
    ``deadline``
        Response-time bound in *simulated* seconds for the simulating
        backends: a run still unfinished at the deadline instant is
        aborted through the same machinery
        (:class:`~repro.faults.QueryAbortedError` with
        ``reason="deadline ..."``).  A deadline the run beats leaves
        the result bit-for-bit identical to a deadline-free run.
        Rejected by the real-data backends (use ``timeout`` for a
        wall-clock bound on ``threaded``).
    """
    _reject_unknown_keywords("run", unknown, RUN_KEYWORDS)
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if timeout is not None and backend != "threaded":
        raise ValueError(
            f"'timeout' applies to backend='threaded' only; backend "
            f"{backend!r} runs to completion on the calling thread and "
            f"cannot honor a wall-clock bound (use 'deadline' for a "
            f"simulated-time bound on the simulating backends)"
        )
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive")
    if cardinality < 0:
        raise ValueError(f"cardinality must be non-negative, got {cardinality!r}")
    tree = _resolve_tree(tree_or_shape)
    names = [leaf.name for leaf in leaves(tree)]
    if catalog is None:
        catalog = Catalog.regular(names, cardinality)
    if isinstance(strategy, str):
        strategy = get_strategy(strategy)
    schedule = strategy.schedule(
        tree, catalog, processors, cost_model or CostModel()
    )

    if backend in ("sim", "ideal"):
        if relations is not None or resolve is not None:
            raise ValueError(
                f"backend {backend!r} simulates; 'relations' and "
                f"'resolve' do not apply"
            )
        from .sim.run import simulate

        if config is None:
            config = (
                MachineConfig.ideal() if backend == "ideal"
                else MachineConfig.paper()
            )
        return simulate(
            schedule, catalog, config,
            cost_model=cost_model, skew_theta=skew_theta,
            faults=faults, deadline=deadline,
        )

    # Real-data backends: they execute rather than model, so the
    # simulation-only knobs are rejected instead of silently ignored.
    if faults is not None:
        raise ValueError(
            f"backend {backend!r} runs on real data; fault injection "
            f"applies to the simulating backends only"
        )
    if deadline is not None:
        raise ValueError(
            f"backend {backend!r} runs on real data; a simulated-time "
            f"deadline does not apply (use 'timeout' for wall-clock "
            f"bounds on backend='threaded')"
        )
    if config is not None:
        raise ValueError(
            f"backend {backend!r} runs on real data; 'config' does not apply"
        )
    if skew_theta != 0.0:
        raise ValueError(
            f"backend {backend!r} runs on real data; data skew is a "
            f"property of the relations, not a parameter"
        )
    if relations is None:
        from .relational.wisconsin import make_query_relations

        relations = dict(
            zip(names, make_query_relations(len(names), cardinality, seed=0))
        )

    if backend == "local":
        from .engine.local import execute_schedule

        return execute_schedule(schedule, relations, resolve=resolve)

    from .engine.threaded import execute_threaded

    return execute_threaded(
        schedule,
        relations,
        timeout=timeout if timeout is not None else 60.0,
        resolve=resolve,
    )


def sweep(spec, **options):
    """Run a :class:`~repro.runner.SweepSpec` on the parallel runner.

    Thin convenience over :func:`repro.runner.run_sweep`; accepts the
    same keyword options (``workers``, ``cache``, ``cache_dir``,
    ``timeout``, ``retries``, ``progress``).
    """
    from .runner import run_sweep

    return run_sweep(spec, **options)


def run_workload(
    mix_or_shape="wide_bushy",
    *,
    arrivals: str = "poisson",
    rate: float = 1.0,
    duration: float = 60.0,
    seed: int = 0,
    machine_size: int = 40,
    policy: str = "exclusive",
    share: Optional[int] = None,
    strategy: str = "FP",
    cardinality: int = DEFAULT_CARDINALITY,
    relations: int = DEFAULT_RELATIONS,
    clients: int = 4,
    think_time: float = 0.0,
    queries_per_client: Optional[int] = None,
    max_concurrent: Optional[int] = None,
    queue_limit: Optional[int] = None,
    memory_budget_bytes: Optional[float] = None,
    config: Optional[MachineConfig] = None,
    cost_model: Optional[CostModel] = None,
    skew_theta: float = 0.0,
    faults=None,
    recovery: str = "fail",
    max_retries: int = 3,
    retry_backoff: float = 1.0,
    rejected_retry_delay: Optional[float] = None,
    deadline=None,
    shed=None,
    cancellations=None,
    watchdog_limit: Optional[int] = DEFAULT_MAX_EVENTS_PER_INSTANT,
    scheduler=None,
    pool_size: Optional[int] = None,
    scheduling_cost: float = 0.0,
    tenants=None,
    fast_path: bool = True,
    **unknown,
):
    """Serve a stream of queries on one shared simulated machine.

    ``mix_or_shape``
        A :class:`~repro.workload.QueryMix`, one of the paper's shape
        names (a single-spec mix over ``strategy``/``cardinality``),
        or ``"paper"`` for the uniform mix over all five shapes and
        the four strategies at ``cardinality``.
    ``arrivals``
        ``"poisson"`` / ``"fixed"`` — open loop at ``rate`` queries
        per simulated second for ``duration`` seconds; ``"closed"`` —
        ``clients`` users with ``think_time``, stopping at
        ``queries_per_client`` or the ``duration`` horizon.
    ``policy`` / ``share``
        Allocation policy name (:data:`repro.workload.POLICY_NAMES`)
        and its per-query processor share (policy-specific default).
    ``faults`` / ``recovery`` / ``max_retries`` / ``retry_backoff``
        Optional :class:`~repro.faults.FaultSchedule` and the recovery
        policy (:data:`repro.workload.RECOVERY_POLICIES`) applied to
        crashed queries; see :class:`~repro.workload.WorkloadEngine`.
        The result then carries resilience metrics
        (``resilience_summary()``).
    ``rejected_retry_delay``
        Zero-think-time closed-loop retry delay after a rejection
        (default :data:`repro.workload.REJECTED_RETRY_DELAY`).
    ``deadline`` / ``shed``
        Request-lifecycle knobs: ``deadline`` is the default per-query
        response-time bound in simulated seconds from arrival (a float,
        or a ``(lo, hi)`` tuple sampled per query with the run's
        ``seed``; per-spec deadlines override it), and ``shed`` names
        the load-shedding policy
        (:data:`repro.workload.SHED_POLICY_NAMES`; ``None`` keeps the
        bare ``queue_limit`` bounce).  The result then carries
        lifecycle metrics (``lifecycle_summary()``).
    ``cancellations``
        Optional sequence of ``(time, query_index)`` pairs: each
        schedules a cancellation of that submission-order query at the
        simulated instant (unknown indices and already-terminal
        queries are no-ops).
    ``watchdog_limit``
        Livelock-watchdog trip threshold (events at one simulated
        instant); ``None`` disables the watchdog.
    ``scheduler`` / ``pool_size`` / ``scheduling_cost``
        Queue-ordering policy: ``None`` keeps the legacy FIFO deque
        (bit-for-bit), a name from
        :data:`repro.workload.SCHEDULER_NAMES` (``"fifo"`` / ``"edf"``
        / ``"sjf"`` / ``"priority"`` / ``"wfq"``) or a
        :class:`~repro.workload.Scheduler` instance plugs the decision
        in.  ``pool_size`` bounds the scheduler's visibility to the
        first K queued queries; ``scheduling_cost`` charges each
        admission decision on the simulated clock.
    ``tenants``
        Per-tenant contracts — :class:`~repro.workload.TenantSpec`
        instances, payload dicts, or a ``{"tenants": [...]}`` JSON
        document (every form :func:`repro.workload.make_tenants`
        accepts).  Tenants with a ``rate`` get their own seeded
        open-loop arrival stream (specs tagged with the tenant name,
        streams merged in time order); the per-tenant weights,
        priorities, default deadlines, and queue/concurrency caps
        apply either way.  The result then carries per-tenant metrics
        (``tenant_summary()``, ``latency_stats(tenant=...)``).
    ``fast_path``
        Attempt the turbo analytic fast path for every query no pending
        event can act on before it completes — under a claiming policy,
        each query alone on its own processors, however many others
        run beside it (default on).  Results are bit-identical either way;
        ``False`` forces every query onto the classic event loop
        (useful for benchmarking and equivalence tests).  The result's
        ``fast_path_queries`` counts the epochs that replayed
        analytically.

    Returns a :class:`~repro.workload.WorkloadResult`; its
    ``write_jsonl`` emits one deterministic row per query.
    """
    given = dict(locals())
    _reject_unknown_keywords("run_workload", unknown, RUN_WORKLOAD_KEYWORDS)
    from .workload import WorkloadEngine

    mix = _resolve_mix(mix_or_shape, strategy, cardinality, relations)
    options = _engine_options(given)
    engine = WorkloadEngine.from_options(options)
    for when, index in cancellations or ():
        engine.cancel_at(when, index)
    if arrivals == "closed":
        return engine.run_closed(
            mix,
            clients,
            think_time=think_time,
            queries_per_client=queries_per_client,
            duration=duration,
            seed=seed,
        )
    return engine.run_open(
        _open_pairs(mix, options["tenants"], arrivals, rate, duration, seed)
    )


def _engine_options(given: Dict) -> Dict:
    """The engine-options dict of one facade call (``given``: its
    parameters by name): every engine knob of the table at the caller's
    value, with ``tenants`` resolved to the ``{name: TenantSpec}`` map
    (the arrival streams need it too) and the deadline draws seeded by
    ``seed``."""
    from .workload import make_tenants

    picked = {row.name: given[row.name] for row in OPTIONS if row.engine}
    picked["tenants"] = make_tenants(picked["tenants"])
    return engine_options(deadline_seed=given["seed"], **picked)


def _resolve_mix(mix_or_shape, strategy, cardinality, relations):
    """The shared mix spelling of :func:`run_workload` and
    :func:`run_cluster`: a :class:`~repro.workload.QueryMix` passes
    through, ``"paper"`` builds the uniform paper mix, and any other
    string is a shape name wrapped in a single-spec mix."""
    from .workload import QueryMix, QuerySpec

    if isinstance(mix_or_shape, QueryMix):
        return mix_or_shape
    if mix_or_shape == "paper":
        return QueryMix.paper(
            cardinalities=(cardinality,),
            strategies=(strategy,) if strategy != "auto" else ("auto",),
            relations=relations,
        )
    return QueryMix.single(
        QuerySpec(mix_or_shape, cardinality, strategy, relations)
    )


def _open_pairs(mix, tenant_map, arrivals, rate, duration, seed):
    """The shared open-loop arrival stream of :func:`run_workload` and
    :func:`run_cluster` — identical bytes through either facade.

    With rated tenants: one seeded stream per rated tenant, specs
    tagged with the tenant name, merged in (time, tenant) order —
    deterministic regardless of tenant count, and each tenant's own
    stream is unchanged by the others' rates (isolation sweeps vary
    one tenant's load without perturbing the rest).
    """
    from .workload import make_arrivals, sample_specs

    rated = [
        (name, spec) for name, spec in sorted(tenant_map.items())
        if spec.rate is not None
    ]
    if rated:
        from dataclasses import replace as _replace

        pairs = []
        for position, (name, tenant) in enumerate(rated):
            tenant_seed = seed + 1_000_003 * (position + 1)
            times = make_arrivals(
                arrivals, tenant.rate, duration, tenant_seed
            )
            specs = sample_specs(mix, len(times), tenant_seed)
            pairs.extend(
                (time, _replace(spec, tenant=name))
                for time, spec in zip(times, specs)
            )
        pairs.sort(key=lambda pair: (pair[0], pair[1].tenant))
        return pairs
    times = make_arrivals(arrivals, rate, duration, seed)
    specs = sample_specs(mix, len(times), seed)
    return list(zip(times, specs))


def run_cluster(
    mix_or_shape="wide_bushy",
    *,
    trace=None,
    shards: int = 2,
    placement: str = "hash",
    autoscale: str = "static",
    scale_max: Optional[int] = None,
    scale_min: Optional[int] = None,
    scale_cooldown: Optional[float] = None,
    workers: Optional[int] = None,
    arrivals: str = "poisson",
    rate: float = 1.0,
    duration: float = 60.0,
    seed: int = 0,
    machine_size: int = 40,
    policy: str = "exclusive",
    share: Optional[int] = None,
    strategy: str = "FP",
    cardinality: int = DEFAULT_CARDINALITY,
    relations: int = DEFAULT_RELATIONS,
    clients: int = 4,
    think_time: float = 0.0,
    queries_per_client: Optional[int] = None,
    max_concurrent: Optional[int] = None,
    queue_limit: Optional[int] = None,
    memory_budget_bytes: Optional[float] = None,
    config: Optional[MachineConfig] = None,
    cost_model: Optional[CostModel] = None,
    skew_theta: float = 0.0,
    rejected_retry_delay: Optional[float] = None,
    deadline=None,
    shed=None,
    watchdog_limit: Optional[int] = DEFAULT_MAX_EVENTS_PER_INSTANT,
    scheduler=None,
    pool_size: Optional[int] = None,
    scheduling_cost: float = 0.0,
    tenants=None,
    fast_path: bool = True,
    faults=None,
    recovery: str = "fail",
    max_retries: int = 3,
    retry_backoff: float = 1.0,
    shard_faults=None,
    retry_budget: Optional[int] = None,
    hedge=None,
    breaker=None,
    throttle=None,
    failover: Optional[bool] = None,
    **unknown,
):
    """Serve traffic on a shared-nothing cluster of workload shards.

    Every shard is a :class:`~repro.workload.WorkloadEngine` (its own
    processor pool, scheduler, and admission control) of
    ``machine_size`` processors; the router
    (:class:`~repro.cluster.ResilientCluster`) places each arrival on
    one.  The traffic/engine
    keywords are spelled exactly like :func:`run_workload` — a 1-shard
    static cluster is *byte-identical* to the single-engine run.

    ``trace``
        A :class:`~repro.cluster.Trace` (or a path to its JSON file) to
        replay instead of generating traffic: the trace's recorded
        arrivals are the exact open-loop stream, bit for bit.  Mutually
        exclusive with ``arrivals="closed"``; the generation knobs
        (``rate``/``duration``/``arrivals``) are ignored.
    ``shards`` / ``placement``
        Shard count and the routing policy
        (:data:`repro.cluster.PLACEMENT_NAMES`): ``"hash"`` —
        consistent tenant→shard hashing on a SHA-1 ring (untenanted
        queries spread by submission index); ``"least_loaded"`` — the
        shard with the earliest analytic busy-until forecast;
        ``"round_robin"`` — submission order modulo shard count.
        Closed-loop traffic splits its *clients* round-robin instead
        (there is no global arrival stream to place); a shard left
        without a client still reports, empty.
    ``autoscale`` / ``scale_max`` / ``scale_min`` / ``scale_cooldown``
        Per-shard elasticity (:data:`repro.cluster.AUTOSCALE_NAMES`):
        ``"static"`` pins every shard at ``machine_size``;
        ``"reactive"`` steps capacity on queue-depth thresholds;
        ``"predictive"`` jumps to the analytic backlog forecast.
        Capacity moves between ``scale_min`` (default ``machine_size``)
        and ``scale_max`` (default ``2 * machine_size``) with
        ``scale_cooldown`` simulated seconds between scale events
        (default :data:`repro.cluster.DEFAULT_COOLDOWN`); scale-up
        repairs drained processors, scale-down drains without aborting
        running queries.
    ``workers``
        Accepted for compatibility; it has no effect (a cluster run is
        serial).
    ``faults`` / ``recovery`` / ``max_retries`` / ``retry_backoff``
        Engine-level (processor) fault injection, per shard: a single
        :class:`~repro.faults.FaultSchedule` applies to every shard, a
        sequence of length ``shards`` (``None`` holes) or a
        ``{shard: schedule}`` dict targets shards individually; the
        recovery knobs are spelled like :func:`run_workload`.
    ``shard_faults`` / ``retry_budget`` / ``hedge`` / ``breaker`` /
    ``throttle`` / ``failover``
        The cluster's reactions (DESIGN.md §7e); with none of them the
        run is *plain* and every shard runs alone on its own clock; with
        any, the shards share one clock behind a live router.
        ``shard_faults`` is a cluster-level
        :class:`~repro.faults.FaultSchedule` whose crash events name
        *shards*; ``retry_budget`` re-dispatches of aborted queries
        (exponential backoff in simulated time);
        ``hedge``/``breaker``/``throttle`` take ``True``, a policy
        dict, or a policy instance (:class:`~repro.cluster.HedgePolicy`
        / :class:`~repro.cluster.BreakerPolicy` /
        :class:`~repro.cluster.ThrottlePolicy`); ``failover=False``
        lets a dead home shard fail its queries, for baseline
        comparisons.  Any reaction returns a
        :class:`~repro.cluster.ResilientClusterResult` (one logical row
        per query, however many shard attempts served it) and refuses
        closed-loop clients.

    Returns a :class:`~repro.cluster.ClusterResult`; its ``write_jsonl``
    emits one deterministic row per query (tagged with its shard when
    ``shards > 1``).
    """
    given = dict(locals())
    _reject_unknown_keywords("run_cluster", unknown, RUN_CLUSTER_KEYWORDS)
    from .cluster import DEFAULT_COOLDOWN, Trace, run_resilient_cluster

    mix = _resolve_mix(mix_or_shape, strategy, cardinality, relations)
    shard_options = _engine_options(given)
    elastic = None
    if autoscale not in (None, "static"):
        elastic = {
            "policy": autoscale,
            "scale_max": 2 * machine_size if scale_max is None else scale_max,
            "scale_min": scale_min,
            "scale_cooldown": (
                DEFAULT_COOLDOWN if scale_cooldown is None else scale_cooldown
            ),
        }
        if share is None:
            # An exclusive policy with no explicit share asks for the
            # whole machine — which at scale_max would never fit the
            # base capacity.  Pin the share to the base so elasticity
            # changes *concurrency*, not per-query feasibility.
            shard_options["share"] = machine_size
    pairs = closed = None
    if trace is not None:
        if arrivals == "closed":
            raise ValueError(
                "a trace replays as an open-loop stream; it cannot be "
                "combined with arrivals='closed'"
            )
        if not isinstance(trace, Trace):
            trace = Trace.read(trace)
        pairs = trace.arrivals()
    elif arrivals == "closed":
        closed = {
            "mix": mix,
            "clients": clients,
            "think_time": think_time,
            "queries_per_client": queries_per_client,
            "duration": duration,
            "seed": seed,
        }
    else:
        pairs = _open_pairs(
            mix, shard_options["tenants"], arrivals, rate, duration, seed
        )
    return run_resilient_cluster(
        open_arrivals=pairs,
        closed=closed,
        shards=shards,
        engine_options=shard_options,
        placement=placement,
        autoscale=elastic,
        shard_faults=shard_faults,
        retry_budget=retry_budget,
        hedge=hedge,
        breaker=breaker,
        throttle=throttle,
        failover=failover,
    )


def _resolve_tree(tree_or_shape: Union[str, Node]) -> Node:
    if isinstance(tree_or_shape, (Leaf, Join)):
        return tree_or_shape
    if isinstance(tree_or_shape, str):
        if tree_or_shape not in SHAPE_NAMES:
            raise ValueError(
                f"unknown shape {tree_or_shape!r}; expected one of "
                f"{SHAPE_NAMES} or a Node"
            )
        return make_shape(
            tree_or_shape, paper_relation_names(DEFAULT_RELATIONS)
        )
    raise TypeError(
        f"tree_or_shape must be a shape name or a Node, "
        f"got {type(tree_or_shape).__name__}"
    )


__all__ = [
    "BACKENDS",
    "DEFAULT_CARDINALITY",
    "DEFAULT_RELATIONS",
    "RUN_CLUSTER_KEYWORDS",
    "RUN_KEYWORDS",
    "RUN_WORKLOAD_KEYWORDS",
    "run",
    "run_cluster",
    "run_workload",
    "sweep",
]
