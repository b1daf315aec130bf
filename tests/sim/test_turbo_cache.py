"""Cache-correctness properties of the turbo-v2 profile cache.

The profile cache replays a captured timing profile for a repeated
``(tree, strategy, processors, config, skew)`` spec.  The one disaster
mode of such a cache is *cross-key contamination*: serving a memoized
profile for the wrong spec.  These tests interleave runs of deliberately
near-identical specs — differing in exactly one key dimension — against
a warm shared cache and require every result to equal a fresh-cache
(cold) run of the same spec, bit for bit.
"""

import pytest

from repro.core import Catalog, get_strategy, make_shape, paper_relation_names
from repro.sim import MachineConfig
from repro.sim.run import ScheduleSimulation
from repro.sim import turbo


def run_spec(
    shape="wide_bushy",
    strategy="FP",
    processors=8,
    skew=0.0,
    cardinality=300,
    relations=6,
    config=None,
):
    names = paper_relation_names(relations)
    tree = make_shape(shape, names)
    catalog = Catalog.regular(names, cardinality)
    schedule = get_strategy(strategy).schedule(tree, catalog, processors)
    sim = ScheduleSimulation(
        schedule, catalog, config or MachineConfig.paper(), None, skew
    )
    assert turbo.execute(sim)
    return sim.result()


def observables(result):
    return (
        result.response_time,
        result.events,
        result.result_tuples,
        result.operation_processes,
        result.stream_count,
        tuple(result.task_timings),
        tuple(sorted((k, tuple(v)) for k, v in result.intervals.items())),
    )


#: Near-identical spec variants: each differs from the base in exactly
#: one dimension that MUST be part of the cache key.
VARIANTS = {
    "base": dict(),
    "cardinality": dict(cardinality=301),
    "skew": dict(skew=0.3),
    "processors": dict(processors=9),
    "strategy": dict(strategy="SE"),
    "shape": dict(shape="left_linear"),
    "config": dict(config=MachineConfig.paper().scaled(tuple_unit=2.0)),
}


@pytest.fixture(scope="module")
def cold_results():
    """Reference result per variant, each from a completely cold cache."""
    reference = {}
    for name, overrides in VARIANTS.items():
        turbo.clear_cache()
        reference[name] = observables(run_spec(**overrides))
    turbo.clear_cache()
    return reference


def test_every_variant_is_distinguishable(cold_results):
    """Sanity: the variants genuinely produce different answers, so a
    cross-key cache hit could not hide behind identical results."""
    seen = {}
    for name, obs in cold_results.items():
        for other, prior in seen.items():
            assert obs != prior, f"{name} and {other} are indistinguishable"
        seen[name] = obs


def test_interleaved_specs_never_cross_keys(cold_results):
    """Two interleaved passes over every variant against one warm
    cache: every repeat must serve its *own* profile."""
    turbo.clear_cache()
    for round_number in range(2):
        for name, overrides in VARIANTS.items():
            assert observables(run_spec(**overrides)) == cold_results[name], (
                f"variant {name!r} diverged on round {round_number} — "
                "the profile cache served a wrong or stale entry"
            )
    stats = turbo.cache_stats()
    assert stats["profile_misses"] == len(VARIANTS)
    assert stats["profile_hits"] == len(VARIANTS)


def test_cold_vs_warm_identical(cold_results):
    """A warm replay is the captured compute, so it cannot drift."""
    turbo.clear_cache()
    cold = observables(run_spec())
    warm = observables(run_spec())
    assert turbo.cache_stats()["profile_hits"] == 1
    assert cold == warm == cold_results["base"]


def test_eviction_recomputes_not_corrupts(monkeypatch, cold_results):
    """With a cache capped at one entry, every variant evicts the
    previous one; evicted specs must recompute to the same answer."""
    monkeypatch.setattr(turbo, "_PROFILE_CACHE_MAX", 1)
    turbo.clear_cache()
    for _ in range(2):
        for name, overrides in VARIANTS.items():
            assert observables(run_spec(**overrides)) == cold_results[name]
            assert turbo.cache_stats()["profile_entries"] <= 1
    # Everything was evicted before its repeat: all misses, no hits.
    assert turbo.cache_stats()["profile_hits"] == 0
