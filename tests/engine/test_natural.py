"""Natural-join parallel execution on real data, through the same
executor as the Wisconsin query."""

import pytest

from repro.core import get_strategy
from repro.engine.local import execute_schedule, natural_reference


class TestNaturalExecution:
    @pytest.mark.parametrize("strategy", ["SP", "SE", "RD", "FP"])
    @pytest.mark.parametrize("processors", [2, 5, 9])
    def test_matches_oracle(
        self, strategy, processors, star_database, star_tree, star_catalog
    ):
        schedule = get_strategy(strategy).schedule(
            star_tree, star_catalog, processors
        )
        execution = execute_schedule(schedule, star_database)
        reference = natural_reference(star_tree, star_database)
        assert execution.relation.same_bag(reference)

    def test_result_schema(self, star_database, star_tree, star_catalog):
        schedule = get_strategy("SP").schedule(star_tree, star_catalog, 3)
        execution = execute_schedule(schedule, star_database)
        assert execution.relation.schema.names() == (
            "f", "k1", "k2", "v1", "v2",
        )

    def test_fragments_partition_result(
        self, star_database, star_tree, star_catalog
    ):
        schedule = get_strategy("FP").schedule(star_tree, star_catalog, 4)
        execution = execute_schedule(schedule, star_database)
        total = sum(f.cardinality() for f in execution.tasks[-1].fragments)
        assert total == execution.relation.cardinality() == 300

    def test_build_side_right_still_correct(
        self, star_database, star_tree, star_catalog
    ):
        from repro.core import InputSpec, JoinTask, ParallelSchedule
        from repro.core.trees import joins_postorder

        j0, j1 = joins_postorder(star_tree)
        tasks = [
            JoinTask(
                index=0, join=j0, processors=(0, 1), algorithm="simple",
                left_input=InputSpec("base", "fact"),
                right_input=InputSpec("base", "d1"),
                build_side="right",
            ),
            JoinTask(
                index=1, join=j1, processors=(0, 1), algorithm="simple",
                left_input=InputSpec("materialized", 0),
                right_input=InputSpec("base", "d2"),
                start_after=(0,),
                build_side="right",
            ),
        ]
        schedule = ParallelSchedule("X", star_tree, 2, tasks).validate()
        execution = execute_schedule(schedule, star_database)
        assert execution.relation.same_bag(
            natural_reference(star_tree, star_database)
        )


class TestSnowflake:
    def test_example_module_end_to_end(self):
        """The snowflake example's core path, as a regression test."""
        import examples.snowflake_query as snowflake

        graph = snowflake.foreign_key_graph()
        from repro.optimizer import two_phase_optimize
        from repro.sim import MachineConfig

        plan = two_phase_optimize(
            graph, 12,
            config=MachineConfig(
                tuple_unit=0.001, process_startup=0.005, handshake=0.005,
                network_latency=0.02, batches=6,
            ),
        )
        database = snowflake.build_database()
        execution = execute_schedule(plan.schedule, database)
        assert execution.relation.same_bag(
            natural_reference(plan.tree, database)
        )
