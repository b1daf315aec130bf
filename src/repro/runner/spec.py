"""Declarative sweep specifications.

The paper's evaluation is a grid — strategy × tree shape × processor
count × problem size (plus, in this reproduction's ablations, skew and
machine-constant variations).  A :class:`SweepSpec` names such a grid
declaratively; :meth:`SweepSpec.expand` turns it into a deterministic,
ordered list of independent :class:`Job`\\ s that the executor
(:mod:`repro.runner.execute`) fans out over worker processes.

A job is exactly one paper point — shape × strategy × processors ×
cardinality × skew × relations × machine config × cost model — run as
one fault-free, unbounded single-query simulation.  Multi-query,
cluster, fault and deadline experiments are not runner cells: their
sweeps (``open_loop_curve``, ``overload_sweep``, ``fairness_sweep``,
``fault_rate_sweep``) call :func:`repro.api.run_workload` directly.

Every job is content-addressed: :meth:`Job.key` hashes the *complete*
configuration (including every machine constant and cost-model
coefficient), so the on-disk result cache is automatically invalidated
when any parameter changes and shared between sweeps that overlap.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

from ..core.cost import CostModel
from ..core.shapes import SHAPE_NAMES
from ..core.strategies import strategy_names
from ..sim.machine import MachineConfig

#: Bump when the job payload or result-row layout changes incompatibly;
#: part of every cache key, so stale cache entries are never read.
CACHE_VERSION = 1


def _default_strategies() -> Tuple[str, ...]:
    return tuple(strategy_names())


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

    def payload(self) -> Dict:
        """The job's full configuration as plain JSON-able data."""
        return {
            "shape": self.shape,
            "strategy": self.strategy,
            "processors": self.processors,
            "cardinality": self.cardinality,
            "skew_theta": self.skew_theta,
            "relations": self.relations,
            "config": asdict(self.config),
            "cost_model": asdict(self.cost_model),
        }

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
        return " ".join(parts)


@dataclass(frozen=True)
class SweepSpec:
    """A grid of experiment points.

    Expansion order is fixed (shapes, cardinalities, configs,
    cost_models, skew_thetas, strategies, processors — processors
    innermost) so that job indices, JSONL row order and progress
    numbering are identical from run to run regardless of worker count.
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
                     "cost_models"):
            if not getattr(self, axis):
                raise ValueError(f"sweep axis {axis!r} is empty")

    def expand(self) -> List[Job]:
        """The grid as an ordered job list (deterministic)."""
        jobs: List[Job] = []
        for shape in self.shapes:
            for cardinality in self.cardinalities:
                for config in self.configs:
                    for cost_model in self.cost_models:
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
                                    ))
        return jobs

    def __len__(self) -> int:
        return (
            len(self.shapes) * len(self.strategies) * len(self.processors)
            * len(self.cardinalities) * len(self.skew_thetas)
            * len(self.configs) * len(self.cost_models)
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
