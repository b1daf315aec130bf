"""Cross-model oracle: the real executor's result size equals the
simulator's.

The simulator never touches tuples; it derives every task's output
from the catalog and shares it over the task's processors.  On the
paper's regular query (generated Wisconsin data, one-to-one joins) the
tuples the real executor produces must therefore match the simulated
``result_tuples`` — with or without partitioning skew, which moves
tuples between fragments but never creates or loses one.
"""

import pytest

from repro.core import SHAPE_NAMES, Catalog, get_strategy, make_shape, paper_relation_names
from repro.engine.local import execute_schedule
from repro.relational import make_query_relations
from repro.sim.run import simulate

CARDINALITY = 300
NAMES = paper_relation_names(10)


@pytest.fixture(scope="module")
def relations():
    return dict(zip(NAMES, make_query_relations(10, CARDINALITY, seed=0)))


@pytest.mark.parametrize("processors", [9, 16])
@pytest.mark.parametrize("strategy", ["SP", "SE", "RD", "FP"])
@pytest.mark.parametrize("shape", SHAPE_NAMES)
def test_result_size_matches_simulation(shape, strategy, processors, relations):
    catalog = Catalog.regular(NAMES, CARDINALITY)
    schedule = get_strategy(strategy).schedule(
        make_shape(shape, NAMES), catalog, processors
    )
    execution = execute_schedule(schedule, relations)
    for task, done in zip(schedule.tasks, execution.tasks):
        assert len(done.fragments) == task.parallelism
    produced = execution.relation.cardinality()
    for theta in (0.0, 0.7):
        simulated = simulate(schedule, catalog, skew_theta=theta).result_tuples
        assert produced == pytest.approx(simulated, rel=1e-9, abs=0.0)
