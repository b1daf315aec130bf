"""Query specifications and seeded workload mixes.

A :class:`QuerySpec` names one query the way the paper's experiments
do — a Figure 8 shape, a relation count, a cardinality, and a
strategy (or ``"auto"`` to defer to the Section 5 guidelines at
admission time).  A :class:`QueryMix` is a weighted population of
specs; sampling it with an explicit seed gives reproducible traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from ..core.cost import Catalog
from ..core.shapes import SHAPE_NAMES, make_shape, paper_relation_names
from ..core.trees import Node

#: Strategy names a spec may carry; "auto" defers to the guidelines.
STRATEGY_CHOICES = ("SP", "SE", "RD", "FP", "auto")


@dataclass(frozen=True)
class QuerySpec:
    """One query of the workload, in the paper's own vocabulary.

    ``deadline`` is this query's response-time bound in simulated
    seconds *relative to its arrival* (``None``: no deadline).  A
    per-spec deadline overrides any workload-level deadline the engine
    carries.

    ``tenant`` tags the query with the tenant that submitted it
    (``None``: untenanted).  The engine resolves the tag against its
    :class:`~repro.workload.sched.TenantSpec` table for fair-share
    weights, priorities, default deadlines, and per-tenant caps.
    """

    shape: str
    cardinality: int = 5_000
    strategy: str = "FP"
    relations: int = 10
    deadline: Optional[float] = None
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shape not in SHAPE_NAMES:
            raise ValueError(
                f"unknown shape {self.shape!r}; expected one of {SHAPE_NAMES}"
            )
        if self.strategy not in STRATEGY_CHOICES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{STRATEGY_CHOICES}"
            )
        if self.cardinality < 1:
            raise ValueError("cardinality must be positive")
        if self.relations < 2:
            raise ValueError("a join query needs at least two relations")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (seconds from arrival)")
        if self.tenant is not None and not self.tenant:
            raise ValueError("tenant must be a non-empty name or None")

    def tree(self) -> Node:
        return make_shape(self.shape, paper_relation_names(self.relations))

    def catalog(self) -> Catalog:
        return Catalog.regular(
            paper_relation_names(self.relations), self.cardinality
        )

    def label(self) -> str:
        return f"{self.shape}/{self.cardinality}/{self.strategy}"

    def model_key(self) -> Tuple[str, int, str, int]:
        """The fields the analytic model reads: the cache key of every
        per-class service estimate (tenant and deadline do not split
        it)."""
        return (self.shape, self.cardinality, self.strategy, self.relations)


@dataclass(frozen=True)
class QueryMix:
    """A weighted population of query specs."""

    specs: Tuple[QuerySpec, ...]
    weights: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a mix needs at least one spec")
        if self.weights is not None:
            if len(self.weights) != len(self.specs):
                raise ValueError("one weight per spec")
            if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
                raise ValueError("weights must be non-negative, sum > 0")

    def sample(self, rng: random.Random) -> QuerySpec:
        """Draw one spec; ``rng`` is the caller's seeded generator."""
        if len(self.specs) == 1:
            return self.specs[0]
        weights = self.weights or tuple([1.0] * len(self.specs))
        cumulative = list(accumulate(weights))
        point = rng.random() * cumulative[-1]
        for spec, bound in zip(self.specs, cumulative):
            if point < bound:
                return spec
        return self.specs[-1]

    @classmethod
    def single(cls, spec: QuerySpec) -> "QueryMix":
        return cls(specs=(spec,))

    @classmethod
    def uniform(cls, specs: Sequence[QuerySpec]) -> "QueryMix":
        return cls(specs=tuple(specs))

    @classmethod
    def paper(
        cls,
        cardinalities: Sequence[int] = (5_000, 40_000),
        strategies: Sequence[str] = ("SP", "SE", "RD", "FP"),
        relations: int = 10,
    ) -> "QueryMix":
        """The full experimental grid as one uniform mix: the five
        Figure 8 shapes × the paper's problem sizes × strategies."""
        return cls.uniform(
            [
                QuerySpec(shape, cardinality, strategy, relations)
                for shape in SHAPE_NAMES
                for cardinality in cardinalities
                for strategy in strategies
            ]
        )


def sample_specs(mix: QueryMix, count: int, seed: int = 0) -> List[QuerySpec]:
    """``count`` seeded draws from ``mix`` — the open-loop query list."""
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = random.Random(seed)
    return [mix.sample(rng) for _ in range(count)]
