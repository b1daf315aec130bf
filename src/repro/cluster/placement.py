"""Tenant-to-shard placement policies.

The cluster router (:mod:`repro.cluster.resilience`) assigns every
arriving query to one of N shards.  A plain run places each arrival
once, over every shard (``place``), so placement must be a pure
function of the arrival stream — never of simulated execution state.
A reactive run asks the same policies live, restricted to the shards
it may use right now (``choose``); with every shard usable both pick
the same shard.  Three policies:

``hash``
    A consistent-hash ring over SHA-1 digests (never Python's
    randomized ``hash()``) with virtual nodes per shard.  Keyed on the
    query's tenant (untenanted queries key on their submission index,
    which spreads them uniformly).  Adding or removing a shard moves
    only ~1/N of the tenants — the classic stability property, pinned
    by a test.

``least_loaded``
    Tracks an analytic occupancy forecast per shard: each placement
    advances the chosen shard's forecasted busy-until horizon by the
    query's predicted service time (the Section 3 cost model at
    advised parallelism, :class:`LoadForecast`).  Ties break to the
    lowest shard index, so tied forecasts place deterministically.

``round_robin``
    Submission order modulo the shard count.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from ..model import analytic
from ..workload.mix import QuerySpec

#: The placement policies :func:`make_placement` accepts.
PLACEMENT_NAMES = ("hash", "least_loaded", "round_robin")

#: Virtual nodes per shard on the consistent-hash ring.  More replicas
#: smooth the key distribution; 64 keeps the ring small while holding
#: the add-a-shard movement near the ideal 1/N.
RING_REPLICAS = 64

#: Forecasted service seconds charged for a spec the analytic model
#: cannot cost (infeasible plans are rejected at admission anyway).
_FALLBACK_SERVICE = 1.0

#: Analytic response time of a spec at advised parallelism on a shard
#: of a given size (``None`` when infeasible) — the model's own function.
predict_service_time = analytic.predict_spec_service_time


def _digest(key: str) -> int:
    """Stable 64-bit hash point (SHA-1 prefix) — identical across
    processes and Python versions, unlike built-in ``hash``."""
    return int.from_bytes(
        hashlib.sha1(key.encode("utf-8")).digest()[:8], "big"
    )


class LoadForecast:
    """The router's one analytic load forecast.

    ``estimate`` is the Section 3 service time of a spec at advised
    parallelism on a ``machine_size`` shard
    (:func:`~repro.model.analytic.predict_spec_service_time`, charged
    :data:`_FALLBACK_SERVICE` when no plan fits), cached per query
    class (:meth:`~repro.workload.mix.QuerySpec.model_key`), so tenant
    and deadline never split the cache.
    ``book`` advances a shard's busy-until horizon by that estimate
    (``max(busy_until, now) + estimate``).  It serves ``least_loaded``
    placement, the coordinated router's hedge trigger, and the
    ``predictive`` autoscaler.
    """

    def __init__(
        self,
        shards: int = 0,
        machine_size: int = 40,
        config=None,
        cost_model=None,
    ):
        self.machine_size = machine_size
        self.config = config
        self.cost_model = cost_model
        self.busy_until = [0.0] * shards
        self._estimates: Dict[Tuple, float] = {}

    def estimate(self, spec: QuerySpec) -> float:
        key = spec.model_key()
        estimate = self._estimates.get(key)
        if estimate is None:
            estimate = analytic.predict_spec_service_time(
                spec, self.machine_size, self.config, self.cost_model
            )
            if estimate is None:
                estimate = _FALLBACK_SERVICE
            self._estimates[key] = estimate
        return estimate

    def book(self, shard: int, now: float, spec: QuerySpec) -> None:
        self.busy_until[shard] = (
            max(self.busy_until[shard], now) + self.estimate(spec)
        )

    def least_loaded(self, pool: Iterable[int], now: float) -> int:
        """The shard of ``pool`` (ascending) with the earliest horizon;
        ``min`` is stable, so tied forecasts go to the lowest index."""
        return min(pool, key=lambda s: max(self.busy_until[s], now))


class PlacementPolicy:
    """Base: stateful per-run, deterministic, reset before each run.

    ``choose`` picks among a pool of shards (ascending indices) and
    changes nothing; a reactive router calls it with its live pool.
    ``place`` is the plain step: choose among every shard, then commit
    the arrival there.  ``context`` sizes the
    :class:`LoadForecast` every policy carries (``machine_size``,
    ``config``, ``cost_model``).
    """

    name = "base"

    def reset(self, shards: int, context: Optional[Dict] = None) -> None:
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.shards = shards
        context = context or {}
        self.forecast = LoadForecast(
            shards,
            context.get("machine_size", 40),
            context.get("config"),
            context.get("cost_model"),
        )

    def choose(
        self, index: int, arrival: float, spec: QuerySpec, pool
    ) -> int:
        raise NotImplementedError

    def place(self, index: int, arrival: float, spec: QuerySpec) -> int:
        return self.choose(index, arrival, spec, range(self.shards))


class HashPlacement(PlacementPolicy):
    """Consistent tenant→shard hashing with virtual nodes; a key whose
    owner is outside the pool walks clockwise to the next one in it."""

    name = "hash"

    def reset(self, shards: int, context: Optional[Dict] = None) -> None:
        super().reset(shards, context)
        self._ring = build_ring(shards)

    def key_of(self, index: int, spec: QuerySpec) -> str:
        return spec.tenant if spec.tenant is not None else f"query:{index}"

    def choose(
        self, index: int, arrival: float, spec: QuerySpec, pool
    ) -> int:
        return ring_lookup_live(self._ring, self.key_of(index, spec), pool)


class LeastLoadedPlacement(PlacementPolicy):
    """Route to the shard with the earliest analytic busy-until
    forecast; deterministic tie-break on the lowest shard index."""

    name = "least_loaded"

    def choose(
        self, index: int, arrival: float, spec: QuerySpec, pool
    ) -> int:
        return self.forecast.least_loaded(pool, arrival)

    def place(self, index: int, arrival: float, spec: QuerySpec) -> int:
        shard = super().place(index, arrival, spec)
        self.forecast.book(shard, arrival, spec)
        return shard


class RoundRobinPlacement(PlacementPolicy):
    """Submission order modulo the shard count; a slot outside the
    pool passes to the next shard in it."""

    name = "round_robin"

    def choose(
        self, index: int, arrival: float, spec: QuerySpec, pool
    ) -> int:
        shard = index % self.shards
        while shard not in pool:
            shard = (shard + 1) % self.shards
        return shard


def make_placement(policy) -> PlacementPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, PlacementPolicy):
        return policy
    if policy == "hash":
        return HashPlacement()
    if policy == "least_loaded":
        return LeastLoadedPlacement()
    if policy == "round_robin":
        return RoundRobinPlacement()
    raise ValueError(
        f"unknown placement policy {policy!r}; expected one of "
        f"{PLACEMENT_NAMES}"
    )


# -- the consistent-hash ring ---------------------------------------------


def build_ring(
    shards: int, replicas: int = RING_REPLICAS
) -> Tuple[List[int], List[int]]:
    """``(points, owners)`` sorted by hash point; ``owners[i]`` is the
    shard owning ``points[i]``."""
    if shards < 1:
        raise ValueError("a ring needs at least one shard")
    pairs = sorted(
        (_digest(f"shard:{shard}:replica:{replica}"), shard)
        for shard in range(shards)
        for replica in range(replicas)
    )
    return [point for point, _ in pairs], [owner for _, owner in pairs]


def ring_lookup(ring: Tuple[List[int], List[int]], key: str) -> int:
    """First ring point clockwise of the key's hash (wrapping)."""
    points, owners = ring
    position = bisect.bisect_right(points, _digest(key))
    if position == len(points):
        position = 0
    return owners[position]


def ring_lookup_live(
    ring: Tuple[List[int], List[int]], key: str, alive
) -> Optional[int]:
    """First ring point clockwise of the key whose owner is in
    ``alive`` (wrapping).  This is consistent-hash failover: a dead
    shard's keys walk clockwise onto the *next* live owner, so only
    ~1/N of the keyspace moves per dead shard, and a repaired shard's
    keys snap back to their original owner (the walk stops at the
    first point again).  Returns ``None`` when no live shard exists.
    """
    points, owners = ring
    if not alive:
        return None
    start = bisect.bisect_right(points, _digest(key))
    for offset in range(len(points)):
        owner = owners[(start + offset) % len(points)]
        if owner in alive:
            return owner
    return None


def ring_assignments(keys, shards: int) -> Dict[str, int]:
    """Map every key to its shard on a fresh ring — the stability
    test's helper (compare assignments at N and N+1 shards)."""
    ring = build_ring(shards)
    return {key: ring_lookup(ring, key) for key in keys}
