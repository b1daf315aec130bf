"""The threaded dataflow executor (functional concurrency check)."""

import pytest

from repro.core import Catalog, get_strategy, make_shape
from repro.engine import reference_result
from repro.engine.local import natural_reference
from repro.engine.threaded import ThreadedExecutor, execute_threaded
from repro.relational.query import wisconsin_resolution


class TestWisconsinQuery:
    @pytest.mark.parametrize("strategy", ["SP", "SE", "RD", "FP"])
    def test_matches_oracle(self, strategy, names6, relations6, catalog6):
        tree = make_shape("wide_bushy", names6)
        schedule = get_strategy(strategy).schedule(tree, catalog6, 6)
        result = execute_threaded(
            schedule, relations6, timeout=30, resolve=wisconsin_resolution
        )
        assert result.same_bag(reference_result(tree, relations6))

    def test_pipelined_shapes(self, names6, relations6, catalog6):
        """RD and FP stream tuples between live threads."""
        for shape in ("right_linear", "right_bushy"):
            tree = make_shape(shape, names6)
            reference = reference_result(tree, relations6)
            for strategy in ("RD", "FP"):
                schedule = get_strategy(strategy).schedule(tree, catalog6, 5)
                result = execute_threaded(
                    schedule, relations6, timeout=30,
                    resolve=wisconsin_resolution,
                )
                assert result.same_bag(reference)

    def test_single_processor(self, names6, relations6, catalog6):
        tree = make_shape("left_linear", names6)
        schedule = get_strategy("SP").schedule(tree, catalog6, 1)
        result = execute_threaded(
            schedule, relations6, timeout=30, resolve=wisconsin_resolution
        )
        assert len(result) == 200


class TestNaturalQuery:
    def test_star_schema(self):
        import random

        from repro.core.trees import Join, Leaf
        from repro.relational import Relation, Schema

        rng = random.Random(2)
        relations = {
            "fact": Relation(
                Schema.ints("f", "k1", "k2"),
                [(i, rng.randrange(8), rng.randrange(4)) for i in range(120)],
            ),
            "d1": Relation(Schema.ints("k1", "v1"), [(i, i) for i in range(8)]),
            "d2": Relation(Schema.ints("k2", "v2"), [(i, i) for i in range(4)]),
        }
        tree = Join(Join(Leaf("fact"), Leaf("d1")), Leaf("d2"))
        catalog = Catalog({"fact": 120, "d1": 8, "d2": 4})
        reference = natural_reference(tree, relations)
        for strategy in ("SP", "FP"):
            schedule = get_strategy(strategy).schedule(tree, catalog, 3)
            result = execute_threaded(schedule, relations, timeout=30)
            assert result.same_bag(reference)


class TestMechanics:
    def test_timeout_raises(self, names6, relations6, catalog6):
        tree = make_shape("left_linear", names6)
        schedule = get_strategy("SP").schedule(tree, catalog6, 2)
        executor = ThreadedExecutor(
            schedule, relations6, resolve=wisconsin_resolution
        )
        with pytest.raises(TimeoutError):
            executor.run(timeout=0.0)

    def test_bounded_queues_do_not_deadlock(self, names6, relations6, catalog6):
        """Store-and-forward through tiny queues must still complete
        (the done-before-forward ordering)."""
        tree = make_shape("left_linear", names6)
        schedule = get_strategy("SP").schedule(tree, catalog6, 2)
        executor = ThreadedExecutor(
            schedule, relations6, queue_capacity=4,
            resolve=wisconsin_resolution,
        )
        result = executor.run(timeout=30)
        assert len(result) == 200
