"""Parallel-schedule representation and validation."""

import pytest

from repro.core import (
    Catalog,
    InputSpec,
    Join,
    JoinTask,
    Leaf,
    ParallelSchedule,
    ScheduleError,
    get_strategy,
    make_shape,
    paper_relation_names,
)
from repro.core.trees import joins_postorder


def two_join_tree():
    return Join(Join(Leaf("A"), Leaf("B")), Leaf("C"))


def make_tasks(tree, procs0=(0, 1), procs1=(0, 1), after1=(0,), mode="materialized"):
    j0, j1 = joins_postorder(tree)
    algorithm = "pipelining" if mode == "pipelined" else "simple"
    t0 = JoinTask(
        index=0, join=j0, processors=procs0, algorithm=algorithm,
        left_input=InputSpec("base", "A"), right_input=InputSpec("base", "B"),
    )
    t1 = JoinTask(
        index=1, join=j1, processors=procs1, algorithm=algorithm,
        left_input=InputSpec(mode, 0), right_input=InputSpec("base", "C"),
        start_after=after1,
    )
    return [t0, t1]


class TestInputSpec:
    def test_base_requires_name(self):
        with pytest.raises(ValueError):
            InputSpec("base", 0)

    def test_intermediate_requires_index(self):
        with pytest.raises(ValueError):
            InputSpec("materialized", "A")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            InputSpec("streaming", 0)


class TestJoinTask:
    def test_simple_join_cannot_pipeline_build_operand(self):
        tree = two_join_tree()
        j0, j1 = joins_postorder(tree)
        with pytest.raises(ValueError, match="cannot pipeline its build"):
            JoinTask(
                index=1, join=j1, processors=(0,), algorithm="simple",
                left_input=InputSpec("pipelined", 0),
                right_input=InputSpec("base", "C"),
                build_side="left",
            )

    def test_simple_join_may_pipeline_probe_operand(self):
        tree = two_join_tree()
        _, j1 = joins_postorder(tree)
        task = JoinTask(
            index=1, join=j1, processors=(0,), algorithm="simple",
            left_input=InputSpec("pipelined", 0),
            right_input=InputSpec("base", "C"),
            build_side="right",
        )
        assert task.build_side == "right"

    def test_requires_processors(self):
        tree = two_join_tree()
        j0, _ = joins_postorder(tree)
        with pytest.raises(ValueError, match="no processors"):
            JoinTask(
                index=0, join=j0, processors=(), algorithm="simple",
                left_input=InputSpec("base", "A"),
                right_input=InputSpec("base", "B"),
            )

    def test_duplicate_processors_rejected(self):
        tree = two_join_tree()
        j0, _ = joins_postorder(tree)
        with pytest.raises(ValueError, match="duplicate"):
            JoinTask(
                index=0, join=j0, processors=(1, 1), algorithm="simple",
                left_input=InputSpec("base", "A"),
                right_input=InputSpec("base", "B"),
            )

    def test_unknown_algorithm(self):
        tree = two_join_tree()
        j0, _ = joins_postorder(tree)
        with pytest.raises(ValueError, match="algorithm"):
            JoinTask(
                index=0, join=j0, processors=(0,), algorithm="sort-merge",
                left_input=InputSpec("base", "A"),
                right_input=InputSpec("base", "B"),
            )


class TestValidation:
    def test_valid_schedule_passes(self):
        tree = two_join_tree()
        schedule = ParallelSchedule("X", tree, 2, make_tasks(tree))
        assert schedule.validate() is schedule

    def test_wrong_task_count(self):
        tree = two_join_tree()
        tasks = make_tasks(tree)[:1]
        with pytest.raises(ScheduleError, match="tasks for"):
            ParallelSchedule("X", tree, 2, tasks).validate()

    def test_wrong_source_index(self):
        tree = two_join_tree()
        tasks = make_tasks(tree)
        j1 = tasks[1]
        tasks[1] = JoinTask(
            index=1, join=j1.join, processors=j1.processors, algorithm="simple",
            left_input=InputSpec("materialized", 1),
            right_input=InputSpec("base", "C"), start_after=(0,),
        )
        with pytest.raises(ScheduleError, match="must come from"):
            ParallelSchedule("X", tree, 2, tasks).validate()

    def test_wrong_base_name(self):
        tree = two_join_tree()
        tasks = make_tasks(tree)
        j0 = tasks[0]
        tasks[0] = JoinTask(
            index=0, join=j0.join, processors=j0.processors, algorithm="simple",
            left_input=InputSpec("base", "Z"),
            right_input=InputSpec("base", "B"),
        )
        with pytest.raises(ScheduleError, match="base relation"):
            ParallelSchedule("X", tree, 2, tasks).validate()

    def test_processor_out_of_range(self):
        tree = two_join_tree()
        tasks = make_tasks(tree, procs0=(0, 5))
        with pytest.raises(ScheduleError, match="outside"):
            ParallelSchedule("X", tree, 2, tasks).validate()

    def test_overlapping_concurrent_tasks_rejected(self):
        """Two tasks without an ordering edge must not share processors
        (the paper never lets a processor work on two joins at once)."""
        tree = two_join_tree()
        tasks = make_tasks(tree, after1=(), mode="pipelined")
        # pipelined input means no implicit ordering edge; shared procs.
        with pytest.raises(ScheduleError, match="share"):
            ParallelSchedule("X", tree, 2, tasks).validate()

    def test_materialized_edge_orders_tasks(self):
        """A materialized producer→consumer edge is an implicit
        barrier, so sharing processors is fine."""
        tree = two_join_tree()
        tasks = make_tasks(tree, after1=())  # materialized, no explicit dep
        ParallelSchedule("X", tree, 2, tasks).validate()

    def test_disjoint_pipelined_tasks_allowed(self):
        tree = two_join_tree()
        tasks = make_tasks(tree, procs0=(0,), procs1=(1,), after1=(), mode="pipelined")
        schedule = ParallelSchedule("X", tree, 2, tasks).validate()
        assert schedule.may_overlap(tasks[0], tasks[1])

    def test_self_dependency_rejected(self):
        tree = two_join_tree()
        tasks = make_tasks(tree, after1=(1,))
        with pytest.raises(ScheduleError, match="itself"):
            ParallelSchedule("X", tree, 2, tasks).validate()

    @pytest.mark.parametrize("strategy", ["SP", "SE", "RD", "FP"])
    def test_validate_computes_the_ordering_closure_once(self, strategy, monkeypatch):
        """All 36 task pairs of the paper's query are tested against one
        closure, not one recomputed per pair."""
        names = paper_relation_names(10)
        schedule = get_strategy(strategy).schedule(
            make_shape("wide_bushy", names), Catalog.regular(names, 5000), 50
        )
        entered = []
        closure = ParallelSchedule.happens_before

        def counted(self):
            entered.append(self)
            return closure(self)

        monkeypatch.setattr(ParallelSchedule, "happens_before", counted)
        schedule.validate()
        assert entered == [schedule]


class TestMetrics:
    def test_operation_processes(self):
        names = paper_relation_names(10)
        catalog = Catalog.regular(names, 100)
        tree = make_shape("left_linear", names)
        schedule = get_strategy("SP").schedule(tree, catalog, 80)
        # "So, for the 80 processor case, [#joins × 80] operation
        # processes need to be initialized" (Section 4.4).
        assert schedule.operation_processes() == 9 * 80

    def test_stream_count_left_linear_sp(self):
        names = paper_relation_names(10)
        catalog = Catalog.regular(names, 100)
        tree = make_shape("left_linear", names)
        schedule = get_strategy("SP").schedule(tree, catalog, 80)
        # "a refragmentation of one operand generates 6400 tuple
        # streams" — 8 intermediate operands for the 10-way query.
        assert schedule.stream_count() == 8 * 6400

    def test_fp_uses_one_process_per_processor(self):
        names = paper_relation_names(10)
        catalog = Catalog.regular(names, 100)
        for shape in ("left_linear", "wide_bushy"):
            schedule = get_strategy("FP").schedule(
                make_shape(shape, names), catalog, 80
            )
            assert schedule.operation_processes() == 80

    def test_describe_mentions_all_tasks(self):
        tree = two_join_tree()
        schedule = ParallelSchedule("X", tree, 2, make_tasks(tree)).validate()
        text = schedule.describe()
        assert "join#0" in text and "join#1" in text
