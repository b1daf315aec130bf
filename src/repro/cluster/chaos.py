"""Seeded chaos campaigns with invariant checks and fault shrinking.

A chaos campaign sweeps reproducible fault schedules × traffic shapes
over a grid of cluster shapes, runs each point through the coordinated
resilient cluster (:mod:`repro.cluster.resilience`), and asserts the
house invariants on every run:

``conservation``
    Every admitted query ends in **exactly one** terminal state —
    completed, shed (rejected), failed, or cancelled.  No query is
    lost, double-counted, or left dangling, no matter which shards
    died under it.

``watchdog``
    The no-advance livelock detector never fires: a faulted cluster
    must *drain*, not spin.

``determinism``
    Campaign points are self-contained and collected in point order,
    so a campaign is JSONL-identical at ``workers=1`` and
    ``workers=4`` (each point report carries a canonical row digest;
    the test pins the whole payload).

When a point violates an invariant, the campaign *shrinks* the
offending :class:`~repro.faults.FaultSchedule` with delta debugging
(:func:`shrink_schedule`, classic ddmin over the schedule's event
list): the smallest sub-schedule that still reproduces the violation
is emitted as a JSON regression fixture next to the campaign results,
ready to be replayed as a standalone test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults import FaultSchedule
from ..options import engine_options
from ..sim.machine import MachineConfig
from ..sim.watchdog import WatchdogError
from ..workload.mix import QueryMix
from .resilience import run_resilient_cluster

#: Per-point seed stride (prime, far from the shard stride) so point
#: traffic/fault streams never collide across the grid.
POINT_SEED_STRIDE = 7_368_787

#: The campaign's traffic population: a light slice of the paper grid
#: (two strategies, one problem size) so a full campaign stays cheap.
CAMPAIGN_MIX = QueryMix.paper(
    cardinalities=(5_000,), strategies=("SP", "FP"), relations=6
)


def campaign_machine_config() -> MachineConfig:
    """The scaled-down machine every campaign point simulates (the
    benchmark-suite constants: fast enough to sweep, slow enough to
    queue)."""
    return MachineConfig(
        tuple_unit=0.001,
        process_startup=0.008,
        handshake=0.012,
        network_latency=0.05,
        batches=8,
    )


def campaign_engine_options(
    machine_size: int,
    config: Optional[MachineConfig] = None,
    **overrides,
) -> Dict:
    """A complete per-shard engine-options dict at the campaign's
    values (the table's defaults otherwise); ``overrides`` patch
    individual keys, unknown ones are rejected."""
    values = dict(
        machine_size=machine_size,
        policy="guideline",
        config=config if config is not None else campaign_machine_config(),
        rejected_retry_delay=0.25,
        watchdog_limit=200_000,
    )
    values.update(overrides)
    return engine_options(**values)


@dataclass(frozen=True)
class ChaosPoint:
    """One cell of the campaign grid — everything needed to replay it."""

    index: int
    shards: int
    machine_size: int
    crash_rate: float
    queries: int
    arrival_rate: float
    horizon: float
    repair_time: Optional[float]
    retry_budget: int
    placement: str
    seed: int

    def label(self) -> str:
        return (
            f"point {self.index}: {self.shards}x{self.machine_size}p, "
            f"crash_rate {self.crash_rate:g}/s, {self.queries} queries"
        )

    def schedule(self) -> FaultSchedule:
        """The point's shard-level fault schedule (``machine_size`` of
        the Poisson draw is the *shard count* — crashes name shards)."""
        return FaultSchedule.generate(
            machine_size=self.shards,
            horizon=self.horizon,
            seed=self.seed,
            crash_rate=self.crash_rate,
            repair_time=self.repair_time,
        )

    def arrivals(self):
        """The point's seeded open-loop arrival stream."""
        rng = random.Random(self.seed)
        arrivals = []
        time = 0.0
        for _ in range(self.queries):
            time += rng.expovariate(self.arrival_rate)
            arrivals.append((time, CAMPAIGN_MIX.sample(rng)))
        return arrivals


def build_points(
    *,
    cluster_shapes: Sequence[Tuple[int, int]],
    crash_rates: Sequence[float],
    queries: int,
    arrival_rate: float,
    horizon: float,
    repair_time: Optional[float],
    retry_budget: int,
    placement: str,
    seed: int,
) -> List[ChaosPoint]:
    """The campaign grid, in deterministic (shape-major) order."""
    points: List[ChaosPoint] = []
    for shards, machine_size in cluster_shapes:
        for crash_rate in crash_rates:
            index = len(points)
            points.append(
                ChaosPoint(
                    index=index,
                    shards=shards,
                    machine_size=machine_size,
                    crash_rate=crash_rate,
                    queries=queries,
                    arrival_rate=arrival_rate,
                    horizon=horizon,
                    repair_time=repair_time,
                    retry_budget=retry_budget,
                    placement=placement,
                    seed=seed + POINT_SEED_STRIDE * index,
                )
            )
    return points


def rows_digest(rows: Sequence[Dict]) -> str:
    """Canonical digest of a row population (the determinism pin)."""
    text = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_invariants(result) -> List[Tuple[str, str]]:
    """The per-run invariant battery; each violation is
    ``(invariant, detail)``."""
    violations: List[Tuple[str, str]] = []
    terminal = 0
    for row in result.rows():
        states = [
            bool(row["completed"] is not None),
            bool(row["rejected"]),
            bool(row["failed"]),
            bool(row["cancelled"]),
        ]
        count = sum(states)
        if count != 1:
            violations.append(
                (
                    "conservation",
                    f"query {row['query']} ended in {count} terminal "
                    f"states (completed={states[0]}, rejected={states[1]}, "
                    f"failed={states[2]}, cancelled={states[3]})",
                )
            )
        else:
            terminal += 1
    submitted = result.submitted_count()
    if terminal != submitted:
        violations.append(
            (
                "conservation",
                f"{submitted} submitted but {terminal} single-terminal "
                "queries",
            )
        )
    return violations


def _run_point_payload(payload: Dict) -> Dict:
    """Run one campaign point end to end (module-level and picklable —
    the process-pool entry point)."""
    point = ChaosPoint(**payload["point"])
    schedule = FaultSchedule.from_payload(payload["schedule"])
    extra = payload.get("extra_invariants")
    report: Dict = {
        "point": payload["point"],
        "schedule_events": schedule.event_count,
        "violations": [],
        "summary": None,
        "rows_digest": None,
    }
    try:
        result = run_resilient_cluster(
            open_arrivals=point.arrivals(),
            shards=point.shards,
            engine_options=campaign_engine_options(point.machine_size),
            placement=point.placement,
            shard_faults=schedule,
            retry_budget=point.retry_budget,
        )
    except WatchdogError as exc:
        report["violations"].append(["watchdog", str(exc).splitlines()[0]])
        return report
    except RuntimeError as exc:
        report["violations"].append(["conservation", str(exc)])
        return report
    violations = check_invariants(result)
    if extra is not None:
        violations.extend(extra(result, point))
    report["violations"] = [list(v) for v in violations]
    report["rows_digest"] = rows_digest(result.rows())
    res = result.resilience
    report["summary"] = {
        "completed": result.completed_count(),
        "failed": result.failed_count(),
        "rejected": result.rejected_count(),
        "submitted": result.submitted_count(),
        "makespan": result.makespan,
        "shard_crashes": res["shard_crashes"],
        "shard_repairs": res["shard_repairs"],
        "retries": res["retries"],
        "rerouted": res["rerouted"],
    }
    return report


@dataclass
class CampaignResult:
    """One campaign: per-point reports, violations, emitted fixtures."""

    points: List[ChaosPoint]
    reports: List[Dict]
    fixtures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations()

    def violations(self) -> List[Dict]:
        found = []
        for report in self.reports:
            for invariant, detail in report["violations"]:
                found.append(
                    {
                        "point": report["point"]["index"],
                        "invariant": invariant,
                        "detail": detail,
                    }
                )
        return found

    def to_payload(self) -> Dict:
        return {
            "points": [asdict(point) for point in self.points],
            "reports": self.reports,
            "violations": self.violations(),
            "fixtures": list(self.fixtures),
        }

    def summary(self) -> str:
        violations = self.violations()
        status = (
            "all invariants held"
            if not violations
            else f"{len(violations)} INVARIANT VIOLATIONS"
        )
        crashes = sum(
            r["summary"]["shard_crashes"]
            for r in self.reports
            if r["summary"] is not None
        )
        return (
            f"chaos campaign: {len(self.points)} points, "
            f"{crashes} shard crashes injected, {status}"
        )


def run_chaos_campaign(
    *,
    cluster_shapes: Sequence[Tuple[int, int]] = ((2, 8), (4, 8)),
    crash_rates: Sequence[float] = (0.0, 0.05),
    queries: int = 30,
    arrival_rate: float = 2.0,
    horizon: float = 60.0,
    repair_time: Optional[float] = 15.0,
    retry_budget: int = 3,
    placement: str = "hash",
    seed: int = 0,
    workers: Optional[int] = None,
    extra_invariants: Optional[Callable] = None,
    fixture_dir=None,
    shrink: bool = True,
) -> CampaignResult:
    """Sweep fault × traffic campaigns over cluster shapes.

    Points fan out over a process pool when ``workers`` > 1 — each
    point is self-contained (its own seeds, schedule, and arrival
    stream) and reports are collected in point order, so the campaign
    payload is identical at any worker count.  ``extra_invariants``
    (``fn(result, point) -> [(invariant, detail), ...]``) joins the
    built-in battery, letting tests force violations end to end; it
    must be picklable to ride the pool (the fan-out falls back to
    serial if not).

    On a violation the point's schedule is shrunk to a minimal repro
    (ddmin) and, when ``fixture_dir`` is given, written there as a
    JSON regression fixture.
    """
    points = build_points(
        cluster_shapes=cluster_shapes,
        crash_rates=crash_rates,
        queries=queries,
        arrival_rate=arrival_rate,
        horizon=horizon,
        repair_time=repair_time,
        retry_budget=retry_budget,
        placement=placement,
        seed=seed,
    )
    payloads = [
        {
            "point": asdict(point),
            "schedule": point.schedule().to_payload(),
            "extra_invariants": extra_invariants,
        }
        for point in points
    ]
    reports = _execute_points(payloads, workers)
    result = CampaignResult(points=points, reports=reports)
    if not shrink:
        return result
    for point, report in zip(points, reports):
        if not report["violations"]:
            continue
        schedule = point.schedule()
        shrunk = schedule
        if schedule.event_count > 0:
            shrunk = shrink_schedule(
                schedule,
                lambda candidate: _still_violates(
                    point, candidate, extra_invariants
                ),
            )
        report["shrunk_schedule"] = dict(shrunk.to_payload())
        if fixture_dir is not None:
            path = _emit_fixture(fixture_dir, point, schedule, shrunk, report)
            result.fixtures.append(str(path))
    return result


def _execute_points(
    payloads: List[Dict], workers: Optional[int]
) -> List[Dict]:
    if workers is not None and workers > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(payloads))
            ) as pool:
                return list(pool.map(_run_point_payload, payloads))
        except Exception:
            # Parallelism is an optimization, never a correctness
            # risk: anything the pool cannot finish re-runs serially.
            pass
    return [_run_point_payload(payload) for payload in payloads]


def _still_violates(
    point: ChaosPoint, schedule: FaultSchedule, extra_invariants
) -> bool:
    """The shrinking predicate: does the point still violate *any*
    invariant under ``schedule``?"""
    report = _run_point_payload(
        {
            "point": asdict(point),
            "schedule": schedule.to_payload(),
            "extra_invariants": extra_invariants,
        }
    )
    return bool(report["violations"])


def _emit_fixture(
    fixture_dir, point: ChaosPoint, schedule, shrunk, report
) -> Path:
    directory = Path(fixture_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"chaos_point{point.index}_seed{point.seed}.json"
    payload = {
        "point": asdict(point),
        "violations": report["violations"],
        "schedule": dict(schedule.to_payload()),
        "shrunk_schedule": dict(shrunk.to_payload()),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# -- schedule shrinking (delta debugging) ----------------------------------


def _events_of(schedule: FaultSchedule) -> List[Tuple[str, object]]:
    events: List[Tuple[str, object]] = []
    events.extend(("crash", c) for c in schedule.crashes)
    events.extend(("stall", s) for s in schedule.stalls)
    events.extend(("link", w) for w in schedule.link_faults)
    return events


def _from_events(
    events: Sequence[Tuple[str, object]], seed: int
) -> FaultSchedule:
    return FaultSchedule(
        crashes=tuple(e for kind, e in events if kind == "crash"),
        stalls=tuple(e for kind, e in events if kind == "stall"),
        link_faults=tuple(e for kind, e in events if kind == "link"),
        seed=seed,
    )


def _split(events: List, n: int) -> List[List]:
    """``n`` chunks, as even as possible, preserving order."""
    size, extra = divmod(len(events), n)
    chunks = []
    start = 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        if end > start:
            chunks.append(events[start:end])
        start = end
    return chunks


def shrink_schedule(
    schedule: FaultSchedule,
    predicate: Callable[[FaultSchedule], bool],
) -> FaultSchedule:
    """Minimal sub-schedule of ``schedule`` still satisfying
    ``predicate`` — Zeller's ddmin over the schedule's event list.

    ``predicate(candidate)`` must return True when the candidate still
    reproduces the failure; it must hold for the input schedule.  The
    result is 1-minimal: removing any single remaining event makes the
    predicate fail.
    """
    if not predicate(schedule):
        raise ValueError("predicate does not hold on the input schedule")
    events = _events_of(schedule)
    if len(events) <= 1:
        return schedule
    holds = lambda subset: predicate(_from_events(subset, schedule.seed))
    n = 2
    while len(events) >= 2:
        chunks = _split(events, n)
        reduced = False
        for i, chunk in enumerate(chunks):
            if holds(chunk):
                events = chunk
                n = 2
                reduced = True
                break
            complement = [
                event
                for j, other in enumerate(chunks)
                if j != i
                for event in other
            ]
            if complement and holds(complement):
                events = complement
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(events):
                break
            n = min(len(events), 2 * n)
    return _from_events(events, schedule.seed)


__all__ = [
    "CAMPAIGN_MIX",
    "POINT_SEED_STRIDE",
    "CampaignResult",
    "ChaosPoint",
    "build_points",
    "campaign_engine_options",
    "campaign_machine_config",
    "check_invariants",
    "rows_digest",
    "run_chaos_campaign",
    "shrink_schedule",
]
