"""Deterministic trace record and replay.

A :class:`Trace` is a frozen, JSON-round-trippable description of an
open-loop workload: one :class:`TraceQuery` per arrival (arrival time,
tenant, shape, cardinality, strategy, relations, deadline) plus the
seed the traffic was generated with.  Traces are the cluster's
first-class benchmark input — record one from any workload run
(:meth:`Trace.from_workload`), synthesize one at scale
(:func:`synthesize_trace`), ship it as JSON, and replay it
bit-for-bit into :func:`repro.api.run_cluster`.

Determinism contract: the JSON form is canonical (sorted keys, fixed
separators), so ``Trace.from_json(trace.to_json()).to_json()`` is
byte-identical to ``trace.to_json()``; and :func:`synthesize_trace`
partitions the horizon into a *fixed* number of segments, each drawn
from its own derived seed, so a (rate, duration, seed, segments)
tuple names one trace byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..workload.arrivals import poisson_arrivals
from ..workload.mix import QueryMix, QuerySpec, sample_specs

#: Bump on an incompatible trace-payload change; recorded in every
#: trace so a reader can reject formats it does not understand.
TRACE_VERSION = 1

#: Per-segment seed stride of :func:`synthesize_trace` — a prime far
#: from the engine's per-client (1_000_003) and per-tenant strides so
#: segment streams never collide with in-run generators.
_SEGMENT_SEED_STRIDE = 9_973


@dataclass(frozen=True)
class TraceQuery:
    """One arrival of a trace: when, and what query."""

    arrival: float
    shape: str
    cardinality: int = 5_000
    strategy: str = "FP"
    relations: int = 10
    deadline: Optional[float] = None
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError("arrival must be non-negative")
        # Delegate shape/strategy/cardinality validation to QuerySpec
        # so a malformed trace fails at construction, not mid-replay.
        self.spec()

    def spec(self) -> QuerySpec:
        """The engine-facing query specification."""
        return QuerySpec(
            self.shape,
            self.cardinality,
            self.strategy,
            self.relations,
            deadline=self.deadline,
            tenant=self.tenant,
        )

    def to_payload(self) -> Dict:
        """Plain JSON-able dict; optional fields appear only when set
        so the canonical JSON stays minimal and stable."""
        data = {
            "arrival": self.arrival,
            "shape": self.shape,
            "cardinality": self.cardinality,
            "strategy": self.strategy,
            "relations": self.relations,
        }
        if self.deadline is not None:
            data["deadline"] = self.deadline
        if self.tenant is not None:
            data["tenant"] = self.tenant
        return data

    @classmethod
    def from_payload(cls, data: Dict) -> "TraceQuery":
        known = {
            "arrival", "shape", "cardinality", "strategy", "relations",
            "deadline", "tenant",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown trace-query keys {unknown}; accepted: "
                f"{sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_spec(cls, arrival: float, spec: QuerySpec) -> "TraceQuery":
        return cls(
            arrival=arrival,
            shape=spec.shape,
            cardinality=spec.cardinality,
            strategy=spec.strategy,
            relations=spec.relations,
            deadline=spec.deadline,
            tenant=spec.tenant,
        )


@dataclass(frozen=True)
class Trace:
    """A frozen open-loop arrival stream plus its generation seed."""

    queries: Tuple[TraceQuery, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        arrivals = [q.arrival for q in self.queries]
        if arrivals != sorted(arrivals):
            raise ValueError("trace queries must be in arrival-time order")

    def __len__(self) -> int:
        return len(self.queries)

    def arrivals(self) -> List[Tuple[float, QuerySpec]]:
        """The ``(time, spec)`` pairs the workload engine consumes."""
        return [(q.arrival, q.spec()) for q in self.queries]

    def horizon(self) -> float:
        """The last arrival instant (0.0 for an empty trace)."""
        return self.queries[-1].arrival if self.queries else 0.0

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> Dict:
        return {
            "version": TRACE_VERSION,
            "seed": self.seed,
            "queries": [q.to_payload() for q in self.queries],
        }

    @classmethod
    def from_payload(cls, data: Dict) -> "Trace":
        if not isinstance(data, dict):
            raise TypeError("a trace payload must be a JSON object")
        version = data.get("version")
        if version != TRACE_VERSION:
            raise ValueError(
                f"unsupported trace version {version!r}; this reader "
                f"understands version {TRACE_VERSION}"
            )
        unknown = sorted(set(data) - {"version", "seed", "queries"})
        if unknown:
            raise ValueError(
                f"unknown trace keys {unknown}; accepted: "
                f"['queries', 'seed', 'version']"
            )
        return cls(
            queries=tuple(
                TraceQuery.from_payload(q) for q in data.get("queries", ())
            ),
            seed=int(data.get("seed", 0)),
        )

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, fixed separators — the same
        trace always serializes to the same bytes."""
        return json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_payload(json.loads(text))

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def read(cls, path: Union[str, Path]) -> "Trace":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # -- recording --------------------------------------------------------

    @classmethod
    def from_arrivals(
        cls,
        arrivals: Sequence[Tuple[float, QuerySpec]],
        seed: int = 0,
    ) -> "Trace":
        # Stable sort: ties keep their submission order.
        ordered = sorted(arrivals, key=lambda pair: pair[0])
        return cls(
            queries=tuple(
                TraceQuery.from_spec(time, spec) for time, spec in ordered
            ),
            seed=seed,
        )

    @classmethod
    def from_workload(cls, result, seed: int = 0) -> "Trace":
        """Record the arrival stream of a finished workload run.

        Works on any :class:`~repro.workload.WorkloadResult` — open or
        closed loop.  A closed-loop run replays as an *open*-loop trace
        (the recorded arrival instants are fixed; think-time feedback
        is not re-simulated), which is exactly what production trace
        replay does.
        """
        return cls(
            queries=tuple(
                TraceQuery.from_spec(record.arrival, record.spec)
                for record in sorted(
                    result.records, key=lambda r: (r.arrival, r.index)
                )
            ),
            seed=seed,
        )


# -- synthesis ------------------------------------------------------------


def _segment_seed(seed: int, segment: int) -> int:
    return seed + _SEGMENT_SEED_STRIDE * (segment + 1)


def synthesize_trace(
    mix: Union[QueryMix, QuerySpec, str],
    *,
    rate: float = 1.0,
    duration: float = 60.0,
    seed: int = 0,
    segments: int = 8,
) -> Trace:
    """Generate a Poisson trace at scale, one horizon segment at a time.

    The horizon is split into ``segments`` equal windows — a *fixed*
    partition — each generated from its own derived seed.
    Concatenating independent Poisson streams over disjoint windows is
    again a Poisson stream, and the partition and per-segment seeds fix
    the result byte for byte.
    """
    if isinstance(mix, str):
        mix = QuerySpec(mix)
    if isinstance(mix, QuerySpec):
        mix = QueryMix.single(mix)
    if rate <= 0:
        raise ValueError("rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if segments < 1:
        raise ValueError("segments must be positive")
    length = duration / segments
    queries: List[TraceQuery] = []
    for index in range(segments):
        sub_seed = _segment_seed(seed, index)
        times = poisson_arrivals(rate, length, sub_seed, start=index * length)
        specs = sample_specs(mix, len(times), sub_seed)
        queries.extend(
            TraceQuery.from_spec(time, spec) for time, spec in zip(times, specs)
        )
    return Trace(queries=tuple(queries), seed=seed)
