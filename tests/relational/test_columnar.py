"""NumPy columnar join kernels vs the row-at-a-time reference joins.

The contract is strict: the vectorized kernels must reproduce the
reference joins' *row sequence*, not merely the same bag — emission
order is part of the executor's observable behaviour.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core import SHAPE_NAMES, get_strategy, make_shape
from repro.engine.local import execute_schedule, reference_result
from repro.relational.columnar import (
    HAVE_NUMPY,
    join_fragment_rows,
    pipelining_join_pairs,
    simple_join_pairs,
)
from repro.relational.hashjoin import PipeliningHashJoin, SimpleHashJoin


def combine(left, right):
    """The Wisconsin combiner shape used by the executor."""
    return (left[1], right[1], left[2])


def make_rows(tag, keys):
    return [(k, i, f"{tag}{i}") for i, k in enumerate(keys)]


def random_keys(rng, n, span):
    """Keys with plenty of duplicates (span << n forces multi-matches)."""
    return [rng.randrange(span) for _ in range(n)]


def reference_simple(build_rows, probe_rows, swap):
    """Drive SimpleHashJoin exactly as the executor does."""
    comb = combine if not swap else (lambda b, p: combine(p, b))
    join = SimpleHashJoin(0, 0, comb)
    for row in build_rows:
        join.build(row)
    join.end_build()
    out = []
    for row in probe_rows:
        out.extend(join.probe(row))
    return out


def reference_pipelining(left_rows, right_rows):
    """Drive PipeliningHashJoin with the executor's alternating rounds."""
    join = PipeliningHashJoin(0, 0, combine)
    out = []
    left_iter = iter(left_rows)
    right_iter = iter(right_rows)
    exhausted = 0
    while exhausted < 2:
        exhausted = 0
        row = next(left_iter, None)
        if row is None:
            exhausted += 1
        else:
            out.extend(join.insert_left(row))
        row = next(right_iter, None)
        if row is None:
            exhausted += 1
        else:
            out.extend(join.insert_right(row))
    return out


class TestKernelProperties:
    """Randomized equivalence on duplicate-heavy key distributions."""

    @pytest.mark.parametrize("seed", range(12))
    def test_simple_join_matches_reference_order(self, seed):
        rng = random.Random(seed)
        nb, nprobe = rng.randrange(0, 60), rng.randrange(0, 60)
        span = rng.choice([1, 3, 10, 50])
        build = make_rows("b", random_keys(rng, nb, span))
        probe = make_rows("p", random_keys(rng, nprobe, span))
        expected = reference_simple(build, probe, swap=False)
        got = join_fragment_rows(build, probe, 0, 0, "simple", "left", combine)
        assert got == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_simple_join_build_right_matches_reference_order(self, seed):
        rng = random.Random(1000 + seed)
        span = rng.choice([2, 7, 25])
        left = make_rows("l", random_keys(rng, rng.randrange(0, 50), span))
        right = make_rows("r", random_keys(rng, rng.randrange(0, 50), span))
        # build side right: build=right rows, probe=left rows, swapped combiner
        expected = reference_simple(right, left, swap=True)
        got = join_fragment_rows(left, right, 0, 0, "simple", "right", combine)
        assert got == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_pipelining_join_matches_reference_order(self, seed):
        rng = random.Random(2000 + seed)
        span = rng.choice([1, 4, 15, 40])
        left = make_rows("l", random_keys(rng, rng.randrange(0, 60), span))
        right = make_rows("r", random_keys(rng, rng.randrange(0, 60), span))
        expected = reference_pipelining(left, right)
        got = join_fragment_rows(left, right, 0, 0, "pipelining", "left", combine)
        assert got == expected

    def test_empty_operands(self):
        assert join_fragment_rows([], [], 0, 0, "simple", "left", combine) == []
        assert join_fragment_rows([], make_rows("r", [1, 2]), 0, 0,
                                  "pipelining", "left", combine) == []
        assert join_fragment_rows(make_rows("l", [1]), [], 0, 0,
                                  "simple", "right", combine) == []

    def test_result_values_are_plain_python_ints(self):
        rows = join_fragment_rows(
            make_rows("l", [5, 5]), make_rows("r", [5]), 0, 0,
            "pipelining", "left", combine,
        )
        assert rows
        for row in rows:
            assert type(row[0]) is int and type(row[1]) is int

    def test_pair_kernels_agree_on_total_matches(self):
        rng = random.Random(7)
        lk = np.array(random_keys(rng, 80, 9), dtype=np.int64)
        rk = np.array(random_keys(rng, 80, 9), dtype=np.int64)
        brute = sum(1 for a in lk.tolist() for b in rk.tolist() if a == b)
        assert simple_join_pairs(lk, rk)[0].size == brute
        assert pipelining_join_pairs(lk, rk)[0].size == brute


def assert_rows_identical(schedule, relations):
    """The columnar executor reproduces the row-at-a-time one, fragment
    by fragment and row for row."""
    pure = execute_schedule(schedule, relations, use_columnar=False)
    fast = execute_schedule(schedule, relations, use_columnar=True)
    for p_task, f_task in zip(pure.tasks, fast.tasks):
        assert p_task.input_sizes == f_task.input_sizes
        for p_frag, f_frag in zip(p_task.fragments, f_task.fragments):
            assert f_frag.schema == p_frag.schema
            assert list(p_frag.rows) == list(f_frag.rows)


@pytest.fixture(scope="module")
def snowflake():
    """The snowflake example's database, tree and optimized schedule."""
    import examples.snowflake_query as example
    from repro.optimizer import catalog_for, two_phase_optimize

    graph = example.foreign_key_graph()
    plan = two_phase_optimize(graph, processors=24)
    return example.build_database(), plan, catalog_for(graph)


class TestExecutorEquivalence:
    """execute_schedule(use_columnar=True) == use_columnar=False, row for row."""

    @pytest.mark.parametrize("strategy", ["SP", "SE", "RD", "FP"])
    def test_fragment_rows_identical(self, strategy, names6, relations6, catalog6):
        tree = make_shape("wide_bushy", names6)
        schedule = get_strategy(strategy).schedule(tree, catalog6, 7)
        assert_rows_identical(schedule, relations6)

    @pytest.mark.parametrize("strategy", ["SP", "SE", "RD", "FP"])
    def test_star_schema_rows_identical(
        self, strategy, star_database, star_tree, star_catalog
    ):
        schedule = get_strategy(strategy).schedule(star_tree, star_catalog, 5)
        assert_rows_identical(schedule, star_database)

    @pytest.mark.parametrize("strategy", [None, "SP", "SE", "RD", "FP"])
    def test_snowflake_rows_identical(self, strategy, snowflake):
        """The example's optimized plan (``None``) and every strategy
        over its tree."""
        database, plan, catalog = snowflake
        schedule = plan.schedule if strategy is None else (
            get_strategy(strategy).schedule(plan.tree, catalog, 8)
        )
        assert_rows_identical(schedule, database)

    @pytest.mark.parametrize("shape", SHAPE_NAMES)
    def test_columnar_matches_oracle(self, shape, names6, relations6, catalog6):
        tree = make_shape(shape, names6)
        schedule = get_strategy("FP").schedule(tree, catalog6, 6)
        result = execute_schedule(schedule, relations6, use_columnar=True)
        assert result.relation.same_bag(reference_result(tree, relations6))

    def test_auto_defaults_to_columnar_when_numpy_present(
        self, names6, relations6, catalog6
    ):
        assert HAVE_NUMPY
        tree = make_shape("left_linear", names6)
        schedule = get_strategy("SP").schedule(tree, catalog6, 4)
        auto = execute_schedule(schedule, relations6)
        pinned = execute_schedule(schedule, relations6, use_columnar=True)
        assert auto.relation.same_bag(pinned.relation)
