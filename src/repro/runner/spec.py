"""Declarative sweep specifications.

The paper's evaluation is a grid — strategy × tree shape × processor
count × problem size (plus, in this reproduction's ablations, skew and
machine-constant variations).  A :class:`SweepSpec` names such a grid
declaratively; :meth:`SweepSpec.expand` turns it into a deterministic,
ordered list of independent :class:`Job`\\ s that the executor
(:mod:`repro.runner.execute`) fans out over worker processes.

Every job is content-addressed: :meth:`Job.key` hashes the *complete*
configuration (including every machine constant and cost-model
coefficient), so the on-disk result cache is automatically invalidated
when any parameter changes and shared between sweeps that overlap.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.cost import CostModel
from ..core.shapes import SHAPE_NAMES
from ..core.strategies import strategy_names
from ..faults.schedule import FaultSchedule
from ..sim.machine import MachineConfig

#: Bump when the job payload or result-row layout changes incompatibly;
#: part of every cache key, so stale cache entries are never read.
CACHE_VERSION = 1


def _default_strategies() -> Tuple[str, ...]:
    return tuple(strategy_names())


@dataclass(frozen=True)
class WorkloadTraffic:
    """Traffic shape of a workload-mode sweep cell.

    A job with a ``scheduler`` runs a whole workload
    (:func:`repro.api.run_workload`) instead of one query; this frozen
    block carries the traffic knobs that are not already sweep axes.
    """

    arrivals: str = "poisson"
    rate: float = 0.05
    duration: float = 120.0
    seed: int = 0
    policy: str = "exclusive"
    share: Optional[int] = None
    queue_limit: Optional[int] = None
    shed: Optional[str] = None
    pool_size: Optional[int] = None
    scheduling_cost: float = 0.0
    #: Attempt the turbo fast path for hosted epochs no pending event
    #: can act on (each query alone on its claimed processors).  Like
    #: ``workers``, this is an execution detail, not an experiment
    #: parameter: results are bit-identical either way, so it is
    #: deliberately absent from the cache payload — both settings
    #: share one content address.
    fast_path: bool = True
    #: Cluster axis: ``shards > 1`` runs the cell through
    #: :func:`repro.api.run_cluster` (``processors`` is the per-shard
    #: machine size) with this placement and autoscaling policy.  The
    #: defaults describe the classic single-engine cell and are deleted
    #: from the cache payload at ``shards == 1``, so every pre-cluster
    #: cache entry keeps its content address.
    shards: int = 1
    placement: str = "hash"
    autoscale: str = "static"
    scale_max: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.pool_size is not None and self.pool_size < 1:
            raise ValueError("pool_size must be positive")
        if self.scheduling_cost < 0:
            raise ValueError("scheduling_cost must be non-negative")
        if self.shards < 1:
            raise ValueError("a cluster needs at least one shard")
        from ..cluster import AUTOSCALE_NAMES, PLACEMENT_NAMES

        if self.placement not in PLACEMENT_NAMES:
            raise ValueError(
                f"unknown placement {self.placement!r}; expected one of "
                f"{PLACEMENT_NAMES}"
            )
        if self.autoscale not in AUTOSCALE_NAMES:
            raise ValueError(
                f"unknown autoscale policy {self.autoscale!r}; expected "
                f"one of {AUTOSCALE_NAMES}"
            )
        if self.scale_max is not None and self.scale_max < 1:
            raise ValueError("scale_max must be positive")


@dataclass(frozen=True)
class Job:
    """One experiment point: everything needed to reproduce one cell."""

    shape: str
    strategy: str
    processors: int
    cardinality: int
    skew_theta: float = 0.0
    relations: int = 10
    config: MachineConfig = field(default_factory=MachineConfig.paper)
    cost_model: CostModel = field(default_factory=CostModel)
    faults: Optional[FaultSchedule] = None
    deadline: Optional[float] = None
    #: A scheduler name turns the cell into a *workload* point: the
    #: executor runs :func:`repro.api.run_workload` with this queue
    #: ordering (``processors`` becomes the machine size) instead of
    #: one single-query simulation.
    scheduler: Optional[str] = None
    workload: Optional[WorkloadTraffic] = None

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (simulated seconds)")
        if self.scheduler is not None:
            from ..workload.sched import SCHEDULER_NAMES

            if self.scheduler not in SCHEDULER_NAMES:
                raise ValueError(
                    f"unknown scheduler {self.scheduler!r}; expected one "
                    f"of {SCHEDULER_NAMES}"
                )
        if self.workload is not None and self.scheduler is None:
            raise ValueError(
                "workload traffic needs a scheduler (single-query cells "
                "have no admission queue)"
            )
        if (
            self.workload is not None
            and self.workload.shards > 1
            and self.faults is not None
        ):
            raise ValueError(
                "cluster cells (shards > 1) do not take a fault schedule; "
                "elasticity already drives the fault/repair machinery"
            )

    def payload(self) -> Dict:
        """The job's full configuration as plain JSON-able data.

        The ``faults``, ``deadline``, ``scheduler``, and ``workload``
        keys appear only when set, so every pre-existing cache entry
        keeps its content address.
        """
        data = {
            "shape": self.shape,
            "strategy": self.strategy,
            "processors": self.processors,
            "cardinality": self.cardinality,
            "skew_theta": self.skew_theta,
            "relations": self.relations,
            "config": asdict(self.config),
            "cost_model": asdict(self.cost_model),
        }
        if self.faults is not None:
            data["faults"] = self.faults.to_payload()
        if self.deadline is not None:
            data["deadline"] = self.deadline
        if self.scheduler is not None:
            data["scheduler"] = self.scheduler
            data["workload"] = asdict(self.workload or WorkloadTraffic())
            # Bit-identical either way (house invariant), so the fast
            # path must not split the cache address space.
            del data["workload"]["fast_path"]
            if data["workload"]["shards"] == 1:
                # A 1-shard cell is byte-identical to the pre-cluster
                # single-engine cell (house invariant), so the cluster
                # keys must not split its cache address either.
                for key in ("shards", "placement", "autoscale", "scale_max"):
                    del data["workload"][key]
        return data

    def key(self) -> str:
        """Content address: sha256 over the canonical payload JSON."""
        canonical = json.dumps(
            {"v": CACHE_VERSION, **self.payload()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human label for progress lines."""
        parts = [f"{self.strategy}@{self.processors}p",
                 self.shape, str(self.cardinality)]
        if self.skew_theta:
            parts.append(f"theta={self.skew_theta}")
        if self.faults is not None and not self.faults.is_empty:
            parts.append(f"faults={self.faults.event_count}")
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline:g}s")
        if self.scheduler is not None:
            parts.append(f"sched={self.scheduler}")
        return " ".join(parts)


@dataclass(frozen=True)
class SweepSpec:
    """A grid of experiment points.

    Expansion order is fixed (shapes, cardinalities, configs,
    cost_models, fault_schedules, deadlines, schedulers, skew_thetas,
    strategies, processors — processors innermost) so that job
    indices, JSONL row order and progress numbering are identical from
    run to run regardless of worker count.
    """

    shapes: Tuple[str, ...] = ("wide_bushy",)
    strategies: Tuple[str, ...] = field(default_factory=_default_strategies)
    processors: Tuple[int, ...] = (20, 30, 40, 50, 60, 70, 80)
    cardinalities: Tuple[int, ...] = (5_000,)
    skew_thetas: Tuple[float, ...] = (0.0,)
    configs: Tuple[MachineConfig, ...] = field(
        default_factory=lambda: (MachineConfig.paper(),)
    )
    cost_models: Tuple[CostModel, ...] = field(
        default_factory=lambda: (CostModel(),)
    )
    #: Fault-schedule axis; ``None`` entries are fault-free points.
    fault_schedules: Tuple[Optional[FaultSchedule], ...] = (None,)
    #: Deadline axis (simulated seconds); ``None`` entries are unbounded.
    deadlines: Tuple[Optional[float], ...] = (None,)
    #: Scheduler axis: ``None`` entries are classic single-query cells;
    #: a scheduler name runs the cell as a whole workload under that
    #: queue ordering (``workload`` shapes its traffic).
    schedulers: Tuple[Optional[str], ...] = (None,)
    workload: Optional[WorkloadTraffic] = None
    relations: int = 10

    def __post_init__(self) -> None:
        for shape in self.shapes:
            if shape not in SHAPE_NAMES:
                raise ValueError(f"unknown shape {shape!r}")
        known = set(strategy_names())
        for strategy in self.strategies:
            if strategy not in known:
                raise ValueError(f"unknown strategy {strategy!r}")
        if not all(p >= 1 for p in self.processors):
            raise ValueError("processor counts must be positive")
        if not all(c >= 1 for c in self.cardinalities):
            raise ValueError("cardinalities must be positive")
        if self.relations < 2:
            raise ValueError("a join tree needs at least two relations")
        for axis in ("shapes", "strategies", "processors",
                     "cardinalities", "skew_thetas", "configs",
                     "cost_models", "fault_schedules", "deadlines",
                     "schedulers"):
            if not getattr(self, axis):
                raise ValueError(f"sweep axis {axis!r} is empty")
        for schedule in self.fault_schedules:
            if schedule is not None and not isinstance(schedule, FaultSchedule):
                raise ValueError(
                    "fault_schedules entries must be FaultSchedule or None"
                )
        for deadline in self.deadlines:
            if deadline is not None and deadline <= 0:
                raise ValueError("deadlines entries must be positive or None")
        for scheduler in self.schedulers:
            if scheduler is not None:
                from ..workload.sched import SCHEDULER_NAMES

                if scheduler not in SCHEDULER_NAMES:
                    raise ValueError(
                        f"unknown scheduler {scheduler!r}; expected one of "
                        f"{SCHEDULER_NAMES} or None"
                    )
        if self.workload is not None and all(
            scheduler is None for scheduler in self.schedulers
        ):
            raise ValueError(
                "workload traffic needs at least one scheduler entry"
            )

    def expand(self) -> List[Job]:
        """The grid as an ordered job list (deterministic)."""
        jobs: List[Job] = []
        for shape in self.shapes:
            for cardinality in self.cardinalities:
                for config in self.configs:
                    for cost_model in self.cost_models:
                        for faults in self.fault_schedules:
                            for deadline in self.deadlines:
                                for scheduler in self.schedulers:
                                    for theta in self.skew_thetas:
                                        for strategy in self.strategies:
                                            for procs in self.processors:
                                                jobs.append(Job(
                                                    shape=shape,
                                                    strategy=strategy,
                                                    processors=procs,
                                                    cardinality=cardinality,
                                                    skew_theta=theta,
                                                    relations=self.relations,
                                                    config=config,
                                                    cost_model=cost_model,
                                                    faults=faults,
                                                    deadline=deadline,
                                                    scheduler=scheduler,
                                                    workload=(
                                                        self.workload
                                                        if scheduler
                                                        is not None
                                                        else None
                                                    ),
                                                ))
        return jobs

    def __len__(self) -> int:
        return (
            len(self.shapes) * len(self.strategies) * len(self.processors)
            * len(self.cardinalities) * len(self.skew_thetas)
            * len(self.configs) * len(self.cost_models)
            * len(self.fault_schedules) * len(self.deadlines)
            * len(self.schedulers)
        )

    @classmethod
    def paper(cls, shape: str, cardinality: int) -> "SweepSpec":
        """The spec of one paper figure sweep (one shape, one size)."""
        from ..bench.workloads import (
            LARGE_CARDINALITY,
            LARGE_PROCESSORS,
            SMALL_PROCESSORS,
        )

        processors = (
            LARGE_PROCESSORS if cardinality >= LARGE_CARDINALITY
            else SMALL_PROCESSORS
        )
        return cls(
            shapes=(shape,),
            cardinalities=(cardinality,),
            processors=processors,
        )
