"""Cache-correctness properties of turbo's profile cache.

:func:`repro.sim.run.simulate` keys the cache on each task's
derivation (shares, sides, work scale, result, algorithm, wiring), the
machine constants and the cost coefficients, and a hit returns the
stored result without building the simulation.  The one disaster mode
of such a cache is *cross-key contamination*: serving a stored result
for the wrong spec.  These tests interleave runs of deliberately
near-identical specs — differing in exactly one key dimension — against
a warm shared cache and require every result to equal a fresh-cache
(cold) run of the same spec, bit for bit.
"""

import pytest

from repro.core import (
    Catalog,
    CostModel,
    Join,
    get_strategy,
    make_shape,
    paper_relation_names,
)
from repro.core.cost import selectivity_estimator
from repro.sim import MachineConfig
from repro.sim.run import ScheduleSimulation, simulate
from repro.sim import turbo


def plan_spec(
    shape="wide_bushy",
    strategy="FP",
    processors=8,
    cardinality=300,
    relations=6,
    selectivity=None,
    cost_model=None,
    root_work=None,
):
    """``(schedule, catalog)`` of one spec; ``root_work`` scales the
    root join's natural cost into an explicit ``work`` override."""
    names = paper_relation_names(relations)
    tree = make_shape(shape, names)
    catalog = Catalog.regular(names, cardinality)
    if selectivity is not None:
        catalog = Catalog(
            catalog.cardinalities, estimator=selectivity_estimator(selectivity)
        )
    if root_work is not None:
        natural = (cost_model or CostModel()).annotate(tree, catalog)[tree].cost
        tree = Join(tree.left, tree.right, label=tree.label, work=natural * root_work)
    schedule = get_strategy(strategy).schedule(
        tree, catalog, processors, cost_model or CostModel()
    )
    return schedule, catalog


def run_spec(skew=0.0, config=None, cost_model=None, **spec):
    schedule, catalog = plan_spec(cost_model=cost_model, **spec)
    return simulate(
        schedule, catalog, config or MachineConfig.paper(),
        cost_model=cost_model, skew_theta=skew,
    )


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
    "result_coeff": dict(cost_model=CostModel(result_coeff=3.0)),
    "selectivity": dict(selectivity=0.002),
    "skew_0.7": dict(skew=0.7),
    # SE runs the root alone on every processor, so an explicit root
    # work changes its work scale and nothing else.
    "work_scale": dict(strategy="SE", root_work=1.5),
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


def test_grid_points_sharing_a_derivation_share_an_entry():
    """SP and SE plan ``left_linear`` at 5K tuples on 20 processors
    alike, down to every share: the second is a hit, and still reports
    its own strategy and its own schedule's labels."""
    turbo.clear_cache()
    results = []
    for strategy in ("SP", "SE"):
        schedule, catalog = plan_spec(
            "left_linear", strategy, 20, cardinality=5000, relations=10
        )
        result = simulate(schedule, catalog, MachineConfig.paper())
        assert result.strategy == strategy
        assert [t.label for t in result.task_timings] == [
            task.join.label or str(task.index) for task in schedule.tasks
        ]
        results.append(result)
    stats = turbo.cache_stats()
    assert (stats["profile_misses"], stats["profile_hits"]) == (1, 1)
    assert observables(results[0]) == observables(results[1])


@pytest.fixture
def init_calls(monkeypatch):
    """How many :class:`ScheduleSimulation` objects get built."""
    calls = []
    shipped = ScheduleSimulation.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        shipped(self, *args, **kwargs)

    monkeypatch.setattr(ScheduleSimulation, "__init__", counting)
    return calls


def test_a_hit_builds_nothing_and_leaks_nothing(init_calls):
    """A hit builds no simulation, hands back the busy totals the cold
    result walked, and owns its lists: mutating them leaves the entry
    — and so the next hit — as it was."""
    turbo.clear_cache()
    cold = run_spec()
    busy = (cold.busy_time(), cold.busy_by_kind())
    assert len(init_calls) == 1
    hit = run_spec()
    assert len(init_calls) == 1
    assert turbo.cache_stats()["profile_hits"] == 1
    assert observables(hit) == observables(cold)
    assert (hit.busy_time(), hit.busy_by_kind()) == busy
    expected = observables(hit)
    for spans in hit.intervals.values():
        spans.clear()
    hit.intervals[999] = [(0.0, 1.0, "J0")]
    hit.task_timings.reverse()
    cold.intervals.clear()
    cold.task_timings.clear()
    again = run_spec()
    assert len(init_calls) == 1
    assert observables(again) == expected
    assert (again.busy_time(), again.busy_by_kind()) == busy


def test_faults_and_deadlines_bypass_the_cache():
    """Only a run today's cache could serve is looked up: one with a
    fault schedule or a deadline neither reads nor fills it."""
    from repro.faults import FaultSchedule

    turbo.clear_cache()
    schedule, catalog = plan_spec()
    config = MachineConfig.paper()
    simulate(schedule, catalog, config, deadline=1e6)
    simulate(schedule, catalog, config, faults=FaultSchedule(seed=1))
    stats = turbo.cache_stats()
    assert stats["profile_hits"] == stats["profile_misses"] == 0
    assert stats["profile_entries"] == 0


def test_a_declined_run_is_never_stored():
    """The ideal machine is turbo-ineligible: its runs are looked up
    but never remembered, so every repeat misses again."""
    turbo.clear_cache()
    for _ in range(2):
        run_spec(config=MachineConfig.ideal())
    stats = turbo.cache_stats()
    assert (stats["profile_misses"], stats["profile_hits"]) == (2, 0)
    assert stats["profile_entries"] == 0
