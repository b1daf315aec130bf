"""Arrival processes of the multi-query workload.

The paper runs one query at a time; a traffic-serving system sees a
*stream* of queries.  Two open-loop arrival processes cover the
standard modelling ground: Poisson arrivals (memoryless, the classic
open-system assumption) and fixed-interval arrivals (a deterministic
load generator).  Closed-loop think-time behaviour lives in the
engine (:meth:`repro.workload.WorkloadEngine.run_closed`), because it
depends on completions.

Everything here is seed-deterministic: the same ``(rate, duration,
seed)`` always yields the same arrival times, which is what makes
workload JSONL byte-identical across runs.
"""

from __future__ import annotations

import math
import random
from typing import List

#: The open-loop arrival kinds :func:`make_arrivals` accepts.
ARRIVAL_KINDS = ("poisson", "fixed")


def poisson_arrivals(
    rate: float, duration: float, seed: int = 0, start: float = 0.0
) -> List[float]:
    """Poisson arrival times in ``[start, start + duration)``.

    ``rate`` is the offered load in queries per simulated second;
    inter-arrival gaps are exponential draws from ``random.Random(seed)``.
    """
    _check(rate, duration)
    rng = random.Random(seed)
    out: List[float] = []
    now = start
    while True:
        now += rng.expovariate(rate)
        if now >= start + duration:
            return out
        out.append(now)


def fixed_arrivals(
    rate: float, duration: float, start: float = 0.0
) -> List[float]:
    """Evenly spaced arrivals at ``rate`` per second, first at ``start``."""
    _check(rate, duration)
    interval = 1.0 / rate
    out: List[float] = []
    index = 0
    while index * interval < duration:
        out.append(start + index * interval)
        index += 1
    return out


def make_arrivals(
    kind: str, rate: float, duration: float, seed: int = 0, start: float = 0.0
) -> List[float]:
    """Dispatch on ``kind`` (``"poisson"`` or ``"fixed"``)."""
    if kind == "poisson":
        return poisson_arrivals(rate, duration, seed, start)
    if kind == "fixed":
        return fixed_arrivals(rate, duration, start)
    raise ValueError(
        f"unknown arrival kind {kind!r}; expected one of {ARRIVAL_KINDS}"
    )


def _check(rate: float, duration: float) -> None:
    # NaN fails every comparison and an infinite rate or horizon never
    # ends the arrival loop: both would hang the generators.
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"arrival rate must be finite and positive, got {rate}")
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(
            f"duration must be finite and non-negative, got {duration}"
        )
