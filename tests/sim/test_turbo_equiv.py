"""Turbo-vs-classic equivalence grid.

The analytic engine of :mod:`repro.sim.turbo` claims to replay the
classic event loop's float arithmetic operation for operation.  These
tests hold it to that: the same :class:`ScheduleSimulation` is built
twice, once drained through the event heap directly (``sim.clock.run()``
— the reference state machines of :mod:`repro.sim.process`) and once
through :func:`turbo.execute`, and every observable of the result must
be *exactly* equal — ``==`` on floats, not ``approx``.

The grid covers every shape × strategy × a mixed processor/skew axis,
plus extra FP-heavy points (deep pipelines, wide sibling fan-out) where
the turbo-v2 drain-structure work concentrates.  :func:`turbo.execute`
always computes, so this file exercises the cold path;
``test_turbo_cache.py`` owns the warm-replay guarantees, which live in
:func:`repro.sim.run.simulate`.

The paper-scale points at the end run the paper's own query (ten
relations, 5K and 40K tuples, 50 and 80 processors), where most of an
FP task's processes inherit their run from the task's first process
(lock-step siblings); ``test_turbo_siblings.py`` checks that mechanism
sibling by sibling, these hold its sum to the classic loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import (
    LARGE_CARDINALITY,
    LARGE_PROCESSORS,
    SMALL_CARDINALITY,
    SMALL_PROCESSORS,
)
from repro.core import Catalog, CostModel, get_strategy, make_shape, paper_relation_names
from repro.sim import MachineConfig
from repro.sim.run import ScheduleSimulation, simulate
from repro.sim import turbo

SHAPES = ("wide_bushy", "left_linear", "right_bushy", "right_linear", "left_bushy")
STRATEGIES = ("SP", "SE", "RD", "FP")
#: (processors, skew_theta) pairs crossed with every shape × strategy.
AXES = ((8, 0.0), (40, 0.7))


def build(shape, strategy, processors, skew, cardinality=400, relations=6,
          cost_model=None, config=None):
    names = paper_relation_names(relations)
    tree = make_shape(shape, names)
    catalog = Catalog.regular(names, cardinality)
    schedule = get_strategy(strategy).schedule(tree, catalog, processors)
    return ScheduleSimulation(
        schedule, catalog, config or MachineConfig.paper(), cost_model, skew
    )


def classic(shape, strategy, processors, skew, **kwargs):
    sim = build(shape, strategy, processors, skew, **kwargs)
    sim.clock.run()
    return sim.result()


def fast(shape, strategy, processors, skew, **kwargs):
    sim = build(shape, strategy, processors, skew, **kwargs)
    assert turbo.execute(sim), "grid point unexpectedly turbo-ineligible"
    return sim.result()


def assert_identical(a, b):
    """Every observable equal to the last bit and the last event."""
    assert a.response_time == b.response_time
    assert a.events == b.events
    assert a.result_tuples == b.result_tuples
    assert a.operation_processes == b.operation_processes
    assert a.stream_count == b.stream_count
    assert len(a.task_timings) == len(b.task_timings)
    for ta, tb in zip(a.task_timings, b.task_timings):
        assert ta == tb
    assert a.intervals == b.intervals


@pytest.mark.parametrize("processors,skew", AXES)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("shape", SHAPES)
def test_grid_point_identical(shape, strategy, processors, skew):
    turbo.clear_cache()
    assert_identical(
        classic(shape, strategy, processors, skew),
        fast(shape, strategy, processors, skew),
    )


@pytest.mark.parametrize("skew", (0.0, 0.7))
@pytest.mark.parametrize("shape", SHAPES)
def test_handshake_free_processes_have_no_streamed_input(shape, skew):
    """Turbo applies arrivals only at a completion or while idle, never
    before a process starts.  That is exact because a process with a
    streamed input pays one startup handshake per producer, and the
    handshake's completion absorbs, in heap order, everything that
    arrived before the start.  So a process whose startup handshakes
    are 0 must see no arrival at all: both its ports are base.

    Checked over the paper's whole grid (Figures 9-14 processor counts,
    both cardinalities, every strategy) and under skew.  It fails if
    ``ScheduleSimulation._build`` ever wires a network input port with
    ``expected_producers=0`` — say, stored results made handshake-free —
    into a task whose output is materialized or the root: that
    process's startup handshakes are 0, yet the producer's stored
    result still reaches it as a timeline entry."""
    names = paper_relation_names(10)
    tree = make_shape(shape, names)
    free = paid = 0
    for cardinality, counts in (
        (SMALL_CARDINALITY, SMALL_PROCESSORS),
        (LARGE_CARDINALITY, LARGE_PROCESSORS),
    ):
        catalog = Catalog.regular(names, cardinality)
        for strategy in STRATEGIES:
            for processors in counts:
                schedule = get_strategy(strategy).schedule(tree, catalog, processors)
                sim = ScheduleSimulation(
                    schedule, catalog, MachineConfig.paper(), None, skew
                )
                for rt in sim.runtimes:
                    for proc in rt.processes:
                        streamed = [
                            port for port in (proc.left, proc.right)
                            if port.mode != "base"
                        ]
                        if proc._startup_handshakes() == 0:
                            assert not streamed, (
                                f"{strategy}/{processors}p/{cardinality}: "
                                f"{proc.name} has no startup handshake but "
                                "a streamed input"
                            )
                            free += 1
                        elif streamed:
                            paid += 1
    assert free and paid  # both kinds occur: the check is not vacuous


@pytest.mark.parametrize("strategy", ("SP", "FP"))
def test_free_operand_stands_down_to_the_classic_loop(strategy):
    """A zero operand coefficient makes chunks free, which turbo has not
    been verified to model exactly: it declines the run untouched, and
    the facade path (``run()`` tries turbo first) lands on the classic
    loop's result."""
    free = CostModel(base_coeff=0.0)
    turbo.clear_cache()
    declined = build("wide_bushy", strategy, 8, 0.0, cost_model=free)
    assert not turbo.execute(declined)
    assert declined.clock.events_dispatched == 0
    via_facade = build("wide_bushy", strategy, 8, 0.0, cost_model=free)
    via_facade.run()
    assert_identical(
        classic("wide_bushy", strategy, 8, 0.0, cost_model=free),
        via_facade.result(),
    )


def test_same_instant_tie_stands_down_to_the_classic_loop():
    """An arrival emitted at the very instant a chunk starts, landing as
    the chunk completes, was pushed in the same instant as that
    completion: which dispatches first is which callback ran first,
    and emit times cannot tell.  Turbo declines such a run (on this
    point, ordering by emit time put the completion first and finished
    1.953 ms early, three events over) and rolls back whatever it had
    computed."""
    point = dict(
        cardinality=200, relations=10,
        config=MachineConfig(
            tuple_unit=0.001, process_startup=0.008, handshake=0.012,
            network_latency=0.05, batches=8,
        ),
    )
    turbo.clear_cache()
    declined = build("left_bushy", "FP", 12, 0.0, **point)
    assert not turbo.execute(declined)
    assert turbo.cache_stats()["tie_declines"] == 1
    assert turbo.cache_stats()["profile_entries"] == 0
    assert declined.clock.events_dispatched == 0
    assert all(not p.intervals and p.busy_until == 0.0
               for p in declined.processors.values())
    declined.clock.run()
    reference = classic("left_bushy", "FP", 12, 0.0, **point)
    assert_identical(reference, declined.result())
    via_facade = build("left_bushy", "FP", 12, 0.0, **point)
    via_facade.run()
    assert_identical(reference, via_facade.result())


class TestFPHeavyShapes:
    """The drain-structure work concentrates on FP: deep pipeline
    chains (every join a pipelined consumer) and wide sibling fan-out
    (one barrier releasing many replicated siblings)."""

    @pytest.mark.parametrize("shape", ("right_linear", "left_linear"))
    def test_deep_pipeline(self, shape):
        turbo.clear_cache()
        assert_identical(
            classic(shape, "FP", 40, 0.0, cardinality=300, relations=10),
            fast(shape, "FP", 40, 0.0, cardinality=300, relations=10),
        )

    def test_wide_fanout(self):
        turbo.clear_cache()
        assert_identical(
            classic("wide_bushy", "FP", 40, 0.0, cardinality=300, relations=12),
            fast("wide_bushy", "FP", 40, 0.0, cardinality=300, relations=12),
        )

    def test_wide_fanout_skewed(self):
        turbo.clear_cache()
        assert_identical(
            classic("wide_bushy", "FP", 24, 0.5, cardinality=300, relations=12),
            fast("wide_bushy", "FP", 24, 0.5, cardinality=300, relations=12),
        )

    def test_deep_pipeline_warm_replay_matches_classic(self):
        """A *warm* FP replay (profile-cache hit) must still equal the
        classic loop — the cached result is the computed one."""
        turbo.clear_cache()
        reference = classic("right_linear", "FP", 40, 0.0, relations=10)
        sim = build("right_linear", "FP", 40, 0.0, relations=10)
        simulate(sim.schedule, sim.catalog, sim.config)  # prime
        warm = simulate(sim.schedule, sim.catalog, sim.config)
        assert turbo.cache_stats()["profile_hits"] == 1
        assert_identical(reference, warm)


class TestLockStepSiblings:
    """Uniform shares: one process per task is simulated in full, the
    others splice its tail.  Each point asserts that they did, so it
    cannot pass by not exercising the mechanism."""

    #: Every shape under FP, plus RD on the right-linear tree — one
    #: pipelined segment of staggered simple hash-joins, which meet
    #: their leader while waiting for the build side to close.
    PAPER_SCALE = [(shape, "FP") for shape in SHAPES] + [("right_linear", "RD")]

    @pytest.mark.parametrize("processors,cardinality", ((80, 5000), (50, 40000)))
    @pytest.mark.parametrize("shape,strategy", PAPER_SCALE)
    def test_paper_scale_point_identical(self, shape, strategy, processors, cardinality):
        point = dict(cardinality=cardinality, relations=10)
        turbo.clear_cache()
        assert_identical(
            classic(shape, strategy, processors, 0.0, **point),
            fast(shape, strategy, processors, 0.0, **point),
        )
        assert turbo.cache_stats()["sibling_splices"] > 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("shape,processors", (("wide_bushy", 40), ("left_linear", 20)))
    def test_skewed_shares_stand_down(self, shape, processors, strategy):
        """Zipf shares are pairwise distinct: no task has a leader, and
        every process is interpreted as before."""
        point = dict(cardinality=400, relations=10)
        turbo.clear_cache()
        assert_identical(
            classic(shape, strategy, processors, 0.7, **point),
            fast(shape, strategy, processors, 0.7, **point),
        )
        stats = turbo.cache_stats()
        assert stats["sibling_runs"] == 0 and stats["sibling_splices"] == 0

    @given(
        shape=st.sampled_from(SHAPES),
        strategy=st.sampled_from(STRATEGIES),
        processors=st.integers(5, 48),
        cardinality=st.integers(50, 1500),
        skew=st.sampled_from((0.0, 0.4)),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_identical_with_and_without_siblings(
        self, shape, strategy, processors, cardinality, skew
    ):
        turbo.clear_cache()
        assert_identical(
            classic(shape, strategy, processors, skew, cardinality=cardinality),
            fast(shape, strategy, processors, skew, cardinality=cardinality),
        )
        stats = turbo.cache_stats()
        assert stats["sibling_splices"] <= stats["sibling_runs"]
        if skew:
            assert stats["sibling_runs"] == 0
