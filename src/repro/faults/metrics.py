"""Resilience metrics: how gracefully does a strategy degrade?

The paper's headline contrast — FP's fragility versus the robustness
of SP/SE/RD — shows up most starkly under faults: a crash in the
middle of a pipeline throws away every in-flight build state, while
materialized-result strategies only lose the task that was running.
A :class:`ResiliencePoint` condenses one faulted workload run into the
numbers that comparison needs, and :func:`fault_rate_sweep` produces
one goodput-degradation curve per strategy for the CLI, the HTML
report, and the resilience table ``benchmarks/bench_faults.py``
writes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from .schedule import FaultSchedule


@dataclass(frozen=True)
class ResiliencePoint:
    """One (strategy, crash rate) cell of a resilience sweep."""

    strategy: str
    crash_rate: float
    recovery: str
    offered: int              # queries submitted
    completed: int
    failed: int
    rejected: int
    goodput: float            # completions per simulated second
    retries: int
    wasted_seconds: float
    wasted_fraction: float
    mttr: Optional[float]
    mean_latency: Optional[float]
    p95_latency: Optional[float]
    faults_injected: int = 0

    @classmethod
    def of(
        cls,
        strategy: str,
        crash_rate: float,
        recovery: str,
        result,
    ) -> "ResiliencePoint":
        """Condense a :class:`~repro.workload.metrics.WorkloadResult`."""
        stats = result.latency_stats()
        return cls(
            strategy=strategy,
            crash_rate=crash_rate,
            recovery=recovery,
            offered=len(result.records),
            completed=len(result.completed()),
            failed=result.failed_count(),
            rejected=result.rejected_count(),
            goodput=result.goodput(),
            retries=result.retries_total(),
            wasted_seconds=result.wasted_seconds(),
            wasted_fraction=result.wasted_fraction(),
            mttr=result.mttr(),
            mean_latency=stats["mean"],
            p95_latency=stats["p95"],
            faults_injected=result.faults_injected,
        )

    def row(self) -> Dict:
        """Deterministic JSONL row."""
        return asdict(self)


def fault_rate_sweep(
    *,
    strategies: Sequence[str] = ("SP", "SE", "RD", "FP"),
    crash_rates: Sequence[float] = (0.0, 0.002, 0.01),
    recovery: str = "restart",
    duration: float = 300.0,
    rate: float = 0.05,
    machine_size: int = 40,
    seed: int = 0,
    repair_time: Optional[float] = 60.0,
    **workload_kwargs,
) -> List[ResiliencePoint]:
    """One faulted workload per (strategy, crash rate) cell.

    Every cell regenerates its schedule from the same base seed, so
    the rate axis is the only thing that varies along a row; extra
    keyword arguments pass straight to
    :func:`repro.api.run_workload`.
    """
    from .. import api

    points: List[ResiliencePoint] = []
    for strategy in strategies:
        for crash_rate in crash_rates:
            faults = FaultSchedule.generate(
                machine_size=machine_size,
                horizon=duration,
                seed=seed,
                crash_rate=crash_rate,
                repair_time=repair_time,
            )
            result = api.run_workload(
                arrivals="poisson",
                rate=rate,
                duration=duration,
                seed=seed,
                machine_size=machine_size,
                strategy=strategy,
                faults=faults,
                recovery=recovery,
                **workload_kwargs,
            )
            points.append(
                ResiliencePoint.of(strategy, crash_rate, recovery, result)
            )
    return points


__all__ = ["ResiliencePoint", "fault_rate_sweep"]
