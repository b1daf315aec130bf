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
the turbo-v2 drain-structure work concentrates.  Caches are cleared per
point so this file always exercises the cold compute path;
``test_turbo_cache.py`` owns the warm-replay guarantees.
"""

import pytest

from repro.core import Catalog, CostModel, get_strategy, make_shape, paper_relation_names
from repro.sim import MachineConfig
from repro.sim.run import ScheduleSimulation
from repro.sim import turbo

SHAPES = ("wide_bushy", "left_linear", "right_bushy", "right_linear", "left_bushy")
STRATEGIES = ("SP", "SE", "RD", "FP")
#: (processors, skew_theta) pairs crossed with every shape × strategy.
AXES = ((8, 0.0), (40, 0.7))


def build(shape, strategy, processors, skew, cardinality=400, relations=6,
          cost_model=None):
    names = paper_relation_names(relations)
    tree = make_shape(shape, names)
    catalog = Catalog.regular(names, cardinality)
    schedule = get_strategy(strategy).schedule(tree, catalog, processors)
    return ScheduleSimulation(
        schedule, catalog, MachineConfig.paper(), cost_model, skew
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


@pytest.mark.parametrize("strategy", ("SP", "FP"))
def test_free_operand_stands_down_to_the_classic_loop(strategy):
    """A zero operand coefficient makes chunks free, which the drain
    loops do not model: turbo declines the run untouched, and the
    facade path (``run()`` tries turbo first) lands on the classic
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
        classic loop — the cached profile is the computed one."""
        turbo.clear_cache()
        reference = classic("right_linear", "FP", 40, 0.0, relations=10)
        fast("right_linear", "FP", 40, 0.0, relations=10)  # prime
        warm = fast("right_linear", "FP", 40, 0.0, relations=10)
        assert turbo.cache_stats()["profile_hits"] == 1
        assert_identical(reference, warm)
