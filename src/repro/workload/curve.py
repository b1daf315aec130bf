"""Latency-versus-offered-load curves.

The service-level summary of the workload engine: sweep the offered
load (arrival rate for open loops, client count for closed loops),
run one fresh engine per point, and record throughput, utilization and
the latency percentiles.  The knee of the resulting curve — where
latency leaves the flat region — is the machine's saturation point
(:func:`repro.workload.metrics.saturation_knee`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .arrivals import make_arrivals
from .engine import WorkloadEngine
from .metrics import WorkloadResult, saturation_knee
from .mix import QueryMix, sample_specs

#: Builds a fresh engine for one curve point (engines are single-use).
EngineFactory = Callable[[], WorkloadEngine]


@dataclass(frozen=True)
class LoadPoint:
    """One point of a latency-versus-load curve."""

    load: float              # offered load: rate (q/s) or client count
    throughput: float
    utilization: float
    # Latency fields are None when the point completed no queries
    # (fully rejected, over-saturated load); curve_knee skips them.
    latency_mean: Optional[float]
    latency_p50: Optional[float]
    latency_p95: Optional[float]
    latency_p99: Optional[float]
    queue_delay_mean: float
    completed: int
    rejected: int
    makespan: float

    @classmethod
    def of(cls, load: float, result: WorkloadResult) -> "LoadPoint":
        stats = result.latency_stats()
        return cls(
            load=load,
            throughput=result.throughput(),
            utilization=result.utilization(),
            latency_mean=stats["mean"],
            latency_p50=stats["p50"],
            latency_p95=stats["p95"],
            latency_p99=stats["p99"],
            queue_delay_mean=result.mean_queue_delay(),
            completed=len(result.completed()),
            rejected=result.rejected_count(),
            makespan=result.makespan,
        )

    def row(self) -> Dict:
        """Deterministic JSONL row: the fields, in declaration order."""
        return asdict(self)


def open_loop_curve(
    rates: Sequence[float],
    mix: QueryMix,
    engine_factory: EngineFactory,
    *,
    duration: float = 60.0,
    arrival_kind: str = "poisson",
    seed: int = 0,
) -> List[LoadPoint]:
    """One point per offered arrival rate (queries/second)."""
    points = []
    for rate in rates:
        times = make_arrivals(arrival_kind, rate, duration, seed)
        specs = sample_specs(mix, len(times), seed)
        result = engine_factory().run_open(list(zip(times, specs)))
        points.append(LoadPoint.of(rate, result))
    return points


def closed_loop_curve(
    client_counts: Sequence[int],
    mix: QueryMix,
    engine_factory: EngineFactory,
    *,
    queries_per_client: int = 4,
    think_time: float = 0.0,
    seed: int = 0,
) -> List[LoadPoint]:
    """One point per concurrent client population."""
    points = []
    for clients in client_counts:
        result = engine_factory().run_closed(
            mix,
            clients,
            think_time=think_time,
            queries_per_client=queries_per_client,
            seed=seed,
        )
        points.append(LoadPoint.of(float(clients), result))
    return points


def curve_knee(points: Sequence[LoadPoint], factor: float = 2.0) -> Optional[float]:
    """Saturation knee of a curve, judged on p95 latency."""
    return saturation_knee(
        [p.load for p in points], [p.latency_p95 for p in points], factor
    )
