"""An owned simulation builds its process graph only when it is needed.

Turbo computes an eligible owned run from the tasks' derivations alone,
so :func:`repro.sim.run.simulate` on a cold profile cache builds no
process, port or heap event.  The graph is built when turbo declines,
when something reads the objects (a fault injector, :meth:`abort`, a
test), or when the owned clock is run directly; objects built after
turbo computed the run take its outcome (``turbo.write_back``).

The first test holds the lazy path to the built one over the paper's
whole 5K grid and the profile cache's key variants: the same
simulation, its objects forced built before ``run()``, takes turbo's
write-back path, and every observable must be equal to the bit.
"""

from dataclasses import replace

import pytest

from repro.bench.workloads import SMALL_CARDINALITY, SMALL_PROCESSORS
from repro.core import (
    Catalog,
    CostModel,
    Join,
    get_strategy,
    make_shape,
    paper_relation_names,
)
from repro.core.cost import selectivity_estimator
from repro.faults import FaultInjector, FaultSchedule
from repro.faults.schedule import CrashFault, StallFault
from repro.sim import MachineConfig, QueryAbortedError, turbo
from repro.sim import process as process_module
from repro.sim import streams as streams_module
from repro.sim.run import ScheduleSimulation, simulate

SHAPES = ("wide_bushy", "left_linear", "right_bushy", "right_linear", "left_bushy")
STRATEGIES = ("SP", "SE", "RD", "FP")


def plan(shape, strategy, processors, cardinality=SMALL_CARDINALITY,
         relations=10, cost_model=None, selectivity=None, root_work=None):
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


def observed(result):
    """Every field of the result, and the derived totals as printed."""
    return (
        result,
        repr(result.busy_time()),
        repr(result.busy_by_kind()),
        repr(result.utilization()),
    )


GRID = [
    (shape, strategy, processors, {})
    for shape in SHAPES
    for strategy in STRATEGIES
    for processors in SMALL_PROCESSORS
]
#: The profile cache's key variants, each on a small FP and SE plan.
VARIANTS = [
    (shape, strategy, 20, variant)
    for shape, strategy in (("right_bushy", "FP"), ("wide_bushy", "SE"))
    for variant in (
        dict(cost_model=CostModel(result_coeff=3.0)),
        dict(selectivity=0.0002),
        dict(skew=0.7),
        dict(root_work=1.5),
    )
]


def test_the_lazy_path_is_bit_identical_to_the_built_one():
    for shape, strategy, processors, variant in GRID + VARIANTS:
        variant = dict(variant)
        skew = variant.pop("skew", 0.0)
        cost_model = variant.get("cost_model")
        schedule, catalog = plan(shape, strategy, processors, **variant)
        config = MachineConfig.paper()
        turbo.clear_cache()
        lazy = simulate(
            schedule, catalog, config, cost_model=cost_model, skew_theta=skew
        )
        assert turbo.cache_stats()["profile_misses"] == 1
        sim = ScheduleSimulation(schedule, catalog, config, cost_model, skew)
        assert sim.processors  # the graph, built before the run
        built = sim.run()
        point = (shape, strategy, processors, variant, skew)
        assert sim.analytic, point
        assert observed(lazy) == observed(built), point
        assert sim.clock.events_dispatched == lazy.events, point


@pytest.fixture
def constructed(monkeypatch):
    """How many processes and ports get constructed."""
    counts = {"processes": 0, "ports": 0}

    def counting(cls, key):
        shipped = cls.__init__

        def init(self, *args, **kwargs):
            counts[key] += 1
            shipped(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    counting(process_module.OperationProcess, "processes")
    counting(streams_module.Port, "ports")
    return counts


def fp_point(config=None):
    schedule, catalog = plan("left_bushy", "FP", 40, cardinality=1000)
    return schedule, catalog, config or MachineConfig.paper()


def classic(schedule, catalog, config):
    """The same run drained by the event loop, its graph built first."""
    sim = ScheduleSimulation(schedule, catalog, config)
    assert sim.processors
    sim.clock.run()
    return sim.result()


def test_an_eligible_cold_run_builds_no_process_and_no_port(constructed):
    turbo.clear_cache()
    schedule, catalog, config = fp_point()
    sim = ScheduleSimulation(schedule, catalog, config)
    result = sim.run()
    assert sim.analytic and result.events > 0
    assert constructed == {"processes": 0, "ports": 0}
    assert sim.clock.pending() == 0
    simulate(schedule, catalog, config)  # a hit: nothing either
    assert constructed == {"processes": 0, "ports": 0}


@pytest.mark.parametrize("config", (
    MachineConfig.ideal(batches=8),
    MachineConfig.paper().scaled(network_bandwidth=2_000_000.0),
))
def test_a_declined_run_builds_and_equals_the_classic_loop(constructed, config):
    schedule, catalog, config = fp_point(config)
    turbo.clear_cache()
    sim = ScheduleSimulation(schedule, catalog, config)
    result = sim.run()
    assert not sim.analytic
    assert constructed["processes"] == sum(t.parallelism for t in schedule.tasks)
    assert constructed["ports"] == 2 * constructed["processes"]
    assert result == classic(schedule, catalog, config)


def test_a_same_instant_tie_declines_once():
    """The tie point of ``test_turbo_equiv``: turbo declines, and the run
    goes to the event loop without being offered to turbo again."""
    schedule, catalog = plan("left_bushy", "FP", 12, cardinality=200)
    config = MachineConfig(
        tuple_unit=0.001, process_startup=0.008, handshake=0.012,
        network_latency=0.05, batches=8,
    )
    turbo.clear_cache()
    sim = ScheduleSimulation(schedule, catalog, config)
    result = sim.run()
    assert not sim.analytic
    assert turbo.cache_stats()["tie_declines"] == 1
    assert result == classic(schedule, catalog, config)


def test_objects_read_after_a_computed_run_hold_its_outcome():
    schedule, catalog, config = fp_point()
    turbo.clear_cache()
    lazy = ScheduleSimulation(schedule, catalog, config)
    assert turbo.execute(lazy)
    built = ScheduleSimulation(schedule, catalog, config)
    assert built.runtimes and turbo.execute(built)
    for name in ("released_at", "completion", "done_processes", "remaining_deps"):
        assert [getattr(rt, name) for rt in lazy.runtimes] == [
            getattr(rt, name) for rt in built.runtimes
        ]
    assert [
        (p.start_time, p.done_time, p.out_total, p.done, p.left.processed,
         p.right.pending, p.right.first_arrival)
        for rt in lazy.runtimes for p in rt.processes
    ] == [
        (p.start_time, p.done_time, p.out_total, p.done, p.left.processed,
         p.right.pending, p.right.first_arrival)
        for rt in built.runtimes for p in rt.processes
    ]
    assert {i: (p.intervals, p.busy_until) for i, p in lazy.processors.items()} == {
        i: (p.intervals, p.busy_until) for i, p in built.processors.items()
    }
    assert lazy.clock.pending() == 0  # nothing left to schedule
    assert lazy.result() == built.result()


def test_the_injector_builds_the_graph_and_installs_stalls():
    schedule, catalog, config = fp_point()
    processor = schedule.tasks[0].processors[0]
    sim = ScheduleSimulation(schedule, catalog, config)
    FaultInjector(FaultSchedule(
        stalls=(StallFault(processor, 0.0, 100.0, factor=3.0),)
    )).attach_simulation(sim)
    assert sim.processors[processor].stalls == [(0.0, 100.0, 3.0)]
    stalled = sim.run()
    assert not sim.analytic
    assert stalled.response_time > classic(schedule, catalog, config).response_time


def test_a_crash_is_scheduled_behind_the_graph_events():
    """A crash at the instant of the first release dispatches after it,
    as it did when the graph was built at construction."""
    schedule, catalog, config = fp_point()
    processor = schedule.tasks[0].processors[0]
    sim = ScheduleSimulation(schedule, catalog, config)
    injector = FaultInjector(FaultSchedule(crashes=(CrashFault(processor, 0.0),)))
    injector.attach_simulation(sim)
    with pytest.raises(QueryAbortedError):
        sim.run()
    assert injector.crashes_fired == 1
    assert sim.runtimes[0].processes[0].released


def test_events_pushed_before_the_graph_exists_dispatch_behind_it():
    """An event pushed at time 0 on a fresh owned clock still finds the
    first task released, as when the graph was built at construction."""
    schedule, catalog, config = fp_point()
    sim = ScheduleSimulation(schedule, catalog, config)
    seen = []
    sim.clock.at(0.0, lambda: seen.append(
        [p.released for p in sim.runtimes[0].processes]
    ))
    result = sim.run()
    assert not sim.analytic  # a foreign event keeps the run on the event loop
    assert seen == [[True] * schedule.tasks[0].parallelism]
    reference = classic(schedule, catalog, config)
    assert result.events == reference.events + 1  # the foreign one
    assert replace(result, events=reference.events) == reference


def test_abort_before_run_raises():
    schedule, catalog, config = fp_point()
    sim = ScheduleSimulation(schedule, catalog, config)
    sim.abort("cancelled")
    assert all(p.aborted for rt in sim.runtimes for p in rt.processes)
    with pytest.raises(QueryAbortedError, match="cancelled"):
        sim.run()
