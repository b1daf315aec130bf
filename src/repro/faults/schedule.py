"""Deterministic fault schedules for the simulated machine.

A :class:`FaultSchedule` is a frozen, hashable description of every
perturbation a run will experience — crash-stop processor failures
(optionally repaired later), transient straggler windows, and message
delay/loss windows on the shared interconnect.  Because the schedule
is pure data generated ahead of time (either listed explicitly or
drawn from a seeded Poisson process by :meth:`FaultSchedule.generate`),
a faulted run is replayable bit-for-bit: the same schedule against the
same workload produces the same event sequence in every process.

The schedule says *what* happens *when*; :mod:`repro.faults.injector`
wires it into a simulation or workload engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class CrashFault:
    """Crash-stop failure of one processor at ``at`` seconds; the node
    rejoins the free pool at ``repair_at`` (``None`` = never)."""

    processor: int
    at: float
    repair_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.processor < 0:
            raise ValueError("processor id must be non-negative")
        if self.at < 0:
            raise ValueError("crash time must be non-negative")
        if self.repair_at is not None and self.repair_at <= self.at:
            raise ValueError("repair must happen after the crash")


@dataclass(frozen=True)
class StallFault:
    """Straggler window: the processor's service rate is divided by
    ``factor`` for chunks whose service starts in ``[start, end)``."""

    processor: int
    start: float
    end: float
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.processor < 0:
            raise ValueError("processor id must be non-negative")
        if self.start < 0 or self.end <= self.start:
            raise ValueError("stall window must have positive extent")
        if self.factor <= 0:
            raise ValueError("stall factor must be positive")


@dataclass(frozen=True)
class LinkFault:
    """Interconnect degradation window: every delivery sent in
    ``[start, end)`` takes ``extra_delay`` additional seconds, and a
    pipelined data batch is dropped with probability ``loss``."""

    start: float
    end: float
    extra_delay: float = 0.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("link-fault window must have positive extent")
        if self.extra_delay < 0:
            raise ValueError("extra delay must be non-negative")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError("loss must be a probability")


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, replayable list of faults plus the seed for the
    per-batch loss draws.  Hashable, so it can ride inside a frozen
    :class:`repro.runner.Job` and participate in cache keys."""

    crashes: Tuple[CrashFault, ...] = ()
    stalls: Tuple[StallFault, ...] = ()
    link_faults: Tuple[LinkFault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stalls", tuple(self.stalls))
        object.__setattr__(self, "link_faults", tuple(self.link_faults))

    @classmethod
    def empty(cls) -> "FaultSchedule":
        """A schedule with no faults — attaching it is a strict no-op."""
        return cls()

    @property
    def is_empty(self) -> bool:
        return not (self.crashes or self.stalls or self.link_faults)

    @property
    def event_count(self) -> int:
        return len(self.crashes) + len(self.stalls) + len(self.link_faults)

    @classmethod
    def generate(
        cls,
        *,
        machine_size: int,
        horizon: float,
        seed: int = 0,
        crash_rate: float = 0.0,
        repair_time: Optional[float] = None,
        stall_rate: float = 0.0,
        stall_duration: float = 4.0,
        stall_factor: float = 4.0,
        link_rate: float = 0.0,
        link_duration: float = 4.0,
        link_delay: float = 0.0,
        link_loss: float = 0.1,
    ) -> "FaultSchedule":
        """Draw a schedule from seeded machine-wide Poisson processes.

        Rates are events per simulated second across the whole machine;
        each crash/stall picks a uniformly random processor.  Every
        fault category uses its own derived RNG stream, so changing one
        rate never shifts the draws of another — essential for clean
        fault-rate sweeps at a fixed seed.
        """
        if machine_size < 1:
            raise ValueError("machine must have at least one processor")
        # An infinite rate draws zero gaps and an infinite horizon is
        # never reached, so either would keep the draw loop running
        # until memory runs out; NaN fails every comparison, so a
        # plain ``<= 0`` test would let it through.
        if not (math.isfinite(horizon) and horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {horizon}")
        for name, rate in (
            ("crash_rate", crash_rate),
            ("stall_rate", stall_rate),
            ("link_rate", link_rate),
        ):
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {rate}"
                )
        # Integer-derived sub-seeds: string seeds would go through
        # per-process randomized hashing and break replayability.
        crash_rng = random.Random(seed * 4 + 0)
        stall_rng = random.Random(seed * 4 + 1)
        link_rng = random.Random(seed * 4 + 2)
        crashes = [
            CrashFault(
                processor=crash_rng.randrange(machine_size),
                at=at,
                repair_at=None if repair_time is None else at + repair_time,
            )
            for at in _poisson_times(crash_rng, crash_rate, horizon)
        ]
        stalls = [
            StallFault(
                processor=stall_rng.randrange(machine_size),
                start=at,
                end=at + stall_duration,
                factor=stall_factor,
            )
            for at in _poisson_times(stall_rng, stall_rate, horizon)
        ]
        link_faults = [
            LinkFault(
                start=at,
                end=at + link_duration,
                extra_delay=link_delay,
                loss=link_loss,
            )
            for at in _poisson_times(link_rng, link_rate, horizon)
        ]
        return cls(
            crashes=tuple(crashes),
            stalls=tuple(stalls),
            link_faults=tuple(link_faults),
            seed=seed,
        )

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> Mapping[str, object]:
        """JSON-ready representation (cache keys, CLI round-trips)."""
        return {
            "seed": self.seed,
            "crashes": [
                [c.processor, c.at, c.repair_at] for c in self.crashes
            ],
            "stalls": [
                [s.processor, s.start, s.end, s.factor] for s in self.stalls
            ],
            "link_faults": [
                [w.start, w.end, w.extra_delay, w.loss]
                for w in self.link_faults
            ],
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "FaultSchedule":
        unknown = sorted(
            set(payload) - {"seed", "crashes", "stalls", "link_faults"}
        )
        if unknown:
            raise ValueError(f"unknown fault-schedule keys {unknown}")
        return cls(
            crashes=tuple(
                CrashFault(processor=int(p), at=float(at), repair_at=rep)
                for p, at, rep in payload.get("crashes", [])
            ),
            stalls=tuple(
                StallFault(
                    processor=int(p), start=float(s), end=float(e),
                    factor=float(f),
                )
                for p, s, e, f in payload.get("stalls", [])
            ),
            link_faults=tuple(
                LinkFault(
                    start=float(s), end=float(e), extra_delay=float(d),
                    loss=float(ls),
                )
                for s, e, d, ls in payload.get("link_faults", [])
            ),
            seed=int(payload.get("seed", 0)),
        )


def _poisson_times(
    rng: random.Random, rate: float, horizon: float
) -> List[float]:
    """Arrival times of a Poisson process with ``rate`` on [0, horizon)."""
    times: List[float] = []
    if rate <= 0:
        return times
    t = rng.expovariate(rate)
    while t < horizon:
        times.append(t)
        t += rng.expovariate(rate)
    return times


__all__ = [
    "CrashFault",
    "StallFault",
    "LinkFault",
    "FaultSchedule",
]
