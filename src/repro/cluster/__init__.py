"""Sharded serving: a shared-nothing cluster of workload engines.

:mod:`repro.cluster.resilience` / :mod:`repro.cluster.router`
    The cluster runner (DESIGN.md §7d, §7e): N
    :class:`~repro.workload.WorkloadEngine` shards behind a router —
    placement and the analytic load forecast.  With no reaction set
    the run is plain and each shard runs alone on its own clock; with
    any, the shards share one simulated clock and the router reacts:
    shard failover, retry budgets, hedged requests, circuit breakers,
    and per-tenant rate SLOs.  The router module holds the plain shard
    runner, the per-shard reports and the merged
    :class:`ClusterResult`.

:mod:`repro.cluster.placement` / :mod:`repro.cluster.autoscale`
    The routing and elasticity policies: consistent tenant→shard
    hashing (plus ``least_loaded`` and ``round_robin``) over a pool of
    usable shards, the :class:`~repro.cluster.placement.LoadForecast`
    they and the autoscaler share, and ``reactive``/``predictive``
    autoscalers that grow and shrink a shard's pool in simulated time
    through the fault/repair machinery.

:mod:`repro.cluster.chaos`
    The seeded chaos-campaign harness: sweeps fault schedules over
    cluster shapes, asserts conservation/watchdog/determinism
    invariants, and delta-debugs failing schedules down to minimal
    regression fixtures.

:mod:`repro.cluster.trace`
    Deterministic trace record/replay — a frozen, JSON-round-trippable
    :class:`Trace` recorded from any workload run or synthesized at
    scale over a process pool, replayable bit for bit.

The user-facing entry points are :func:`repro.api.run_cluster` and
``python -m repro cluster``.
"""

from .autoscale import (
    AUTOSCALE_NAMES,
    DEFAULT_COOLDOWN,
    Autoscaler,
    ElasticEngine,
    PredictiveAutoscaler,
    ReactiveAutoscaler,
    ScaleEvent,
    make_autoscaler,
)
from .placement import (
    PLACEMENT_NAMES,
    HashPlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    build_ring,
    make_placement,
    predict_service_time,
    ring_assignments,
    ring_lookup,
    ring_lookup_live,
)
from .chaos import (
    CampaignResult,
    ChaosPoint,
    run_chaos_campaign,
    shrink_schedule,
)
from .resilience import (
    BreakerPolicy,
    ClusterQueryRecord,
    HedgePolicy,
    ResilientCluster,
    ResilientClusterResult,
    ThrottlePolicy,
    run_resilient_cluster,
)
from .router import (
    SHARD_SEED_STRIDE,
    ClusterResult,
    ShardReport,
    resolve_shard_faults,
    shard_seed,
    split_clients,
)
from .trace import TRACE_VERSION, Trace, TraceQuery, synthesize_trace

__all__ = [
    "AUTOSCALE_NAMES",
    "Autoscaler",
    "BreakerPolicy",
    "CampaignResult",
    "ChaosPoint",
    "ClusterQueryRecord",
    "ClusterResult",
    "DEFAULT_COOLDOWN",
    "ElasticEngine",
    "HashPlacement",
    "HedgePolicy",
    "LeastLoadedPlacement",
    "PLACEMENT_NAMES",
    "PlacementPolicy",
    "PredictiveAutoscaler",
    "ReactiveAutoscaler",
    "ResilientCluster",
    "ResilientClusterResult",
    "RoundRobinPlacement",
    "SHARD_SEED_STRIDE",
    "ScaleEvent",
    "ShardReport",
    "TRACE_VERSION",
    "ThrottlePolicy",
    "Trace",
    "TraceQuery",
    "build_ring",
    "make_autoscaler",
    "make_placement",
    "predict_service_time",
    "resolve_shard_faults",
    "ring_assignments",
    "ring_lookup",
    "ring_lookup_live",
    "run_chaos_campaign",
    "run_resilient_cluster",
    "shard_seed",
    "shrink_schedule",
    "split_clients",
    "synthesize_trace",
]
