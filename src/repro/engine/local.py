"""Real (non-simulated) execution of parallel schedules.

This engine executes any :class:`~repro.core.schedule.ParallelSchedule`
on actual :class:`~repro.relational.Relation` data, faithfully
following the plan's data movement: base relations start with the
ideal initial fragmentation of Section 4.1 (hashed on the join
attribute over the consuming join's processors), intermediate results
are hash-redistributed between tasks, and each (join, processor) pair
runs its own instance of the plan's hash-join algorithm on its
fragments.

Each task's join semantics are a
:class:`~repro.relational.query.JoinResolution` resolved once from its
operand schemas — by default (:func:`~repro.relational.query.
resolve_join`) the paper's regular query when both operands are
Wisconsin relations, the natural join of star/snowflake foreign-key
queries otherwise.

It is the reproduction's correctness check: whatever strategy,
processor count, or shape is chosen, the result must be bag-equal to
the sequential oracle — :func:`reference_result` for the Wisconsin
query, :func:`natural_reference` for natural joins.  Performance is
*not* modelled here — that is the simulator's job — but per-fragment
statistics are reported so the tests can check the non-skew
assumption the simulator relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.schedule import InputSpec, JoinTask, ParallelSchedule
from ..core.trees import Leaf, Node
from ..relational import columnar
from ..relational.hashjoin import Combine, PipeliningHashJoin, SimpleHashJoin
from ..relational.partition import bucket
from ..relational.query import JoinResolution, natural_join, resolve_join
from ..relational.relation import Relation, Row
from ..relational.schema import Schema
from ..relational.wisconsin import wisconsin_join_project


@dataclass
class TaskExecution:
    """What one task's parallel execution produced."""

    index: int
    fragments: List[Relation]
    #: Tuples consumed per fragment from (left, right) operands.
    input_sizes: List[tuple]

    def result(self) -> Relation:
        """The task result as one relation (union of fragments)."""
        return Relation.union_all(self.fragments)

    def fragment_sizes(self) -> List[int]:
        return [f.cardinality() for f in self.fragments]


@dataclass
class ExecutionResult:
    """Result of executing a whole schedule on real data."""

    schedule: ParallelSchedule
    tasks: List[TaskExecution]

    @property
    def relation(self) -> Relation:
        """The query result."""
        return self.tasks[-1].result()


#: A task's (left operand schema, right operand schema, resolution).
TaskJoin = Tuple[Schema, Schema, JoinResolution]


def execute_schedule(
    schedule: ParallelSchedule,
    relations: Mapping[str, Relation],
    *,
    resolve=None,
    use_columnar: Optional[bool] = None,
) -> ExecutionResult:
    """Execute ``schedule`` on real relations; returns all task results.

    ``relations`` maps leaf names to base relations.
    ``resolve(left_schema, right_schema) -> JoinResolution`` supplies
    each join's semantics (see :func:`resolve_tasks`).  Any
    topological execution order gives the same answer; postorder is
    used, mirroring the schedule's task order.

    ``use_columnar`` selects the fragment-join kernel: ``None`` (the
    default) takes the vectorized :mod:`repro.relational.columnar`
    path whenever numpy is importable, ``True`` requires it, and
    ``False`` pins the row-at-a-time reference joins.  Both kernels
    produce identical row sequences, not merely equal bags.
    """
    if use_columnar is None:
        use_columnar = columnar.HAVE_NUMPY
    elif use_columnar and not columnar.HAVE_NUMPY:
        raise RuntimeError("use_columnar=True requires numpy")
    join_rows = columnar.join_fragment_rows if use_columnar else _join_rows
    joins = resolve_tasks(schedule, relations, resolve)
    executions: Dict[int, TaskExecution] = {}
    for task in schedule.tasks:
        left_schema, right_schema, resolution = joins[task.index]
        left_key = left_schema.index_of(resolution.left_key)
        right_key = right_schema.index_of(resolution.right_key)
        fragments: List[Relation] = []
        input_sizes: List[tuple] = []
        for left, right in zip(
            _fragments(task, task.left_input, left_key, relations, executions),
            _fragments(task, task.right_input, right_key, relations, executions),
        ):
            rows = join_rows(
                left, right, left_key, right_key,
                task.algorithm, task.build_side, resolution.combine,
            )
            fragments.append(Relation(resolution.result_schema, rows))
            input_sizes.append((len(left), len(right)))
        executions[task.index] = TaskExecution(task.index, fragments, input_sizes)
    return ExecutionResult(schedule, [executions[t.index] for t in schedule.tasks])


def resolve_tasks(
    schedule: ParallelSchedule, relations: Mapping[str, Relation], resolve=None
) -> Dict[int, TaskJoin]:
    """Every task's join, resolved once from its operand schemas by
    ``resolve`` — :func:`~repro.relational.query.resolve_join` when
    ``None`` — keyed by task index."""
    resolve = resolve or resolve_join
    joins: Dict[int, TaskJoin] = {}

    def schema_of(spec: InputSpec) -> Schema:
        if not spec.is_base:
            return joins[spec.source][2].result_schema
        try:
            return relations[spec.source].schema
        except KeyError:
            raise KeyError(
                f"schedule references base relation {spec.source!r} "
                f"not supplied to the executor"
            ) from None

    for task in schedule.tasks:
        left = schema_of(task.left_input)
        right = schema_of(task.right_input)
        joins[task.index] = (left, right, resolve(left, right))
    return joins


def _fragments(
    task: JoinTask,
    spec: InputSpec,
    key_index: int,
    relations: Mapping[str, Relation],
    executions: Dict[int, TaskExecution],
) -> List[List[Row]]:
    """One operand's rows hashed on its join key over the task's
    processors: a base relation's ideal initial fragmentation (Section
    4.1), or the redistribution of an intermediate result."""
    parallelism = task.parallelism
    parts = (
        [relations[spec.source]] if spec.is_base
        else executions[spec.source].fragments
    )
    buckets: List[List[Row]] = [[] for _ in range(parallelism)]
    for part in parts:
        for row in part:
            buckets[bucket(row[key_index], parallelism)].append(row)
    return buckets


def _join_rows(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    left_key: int,
    right_key: int,
    algorithm: str,
    build_side: str,
    combine: Combine,
) -> List[Row]:
    """One fragment join, row at a time, with the task's algorithm —
    the reference the columnar kernel reproduces row for row."""
    rows: List[Row] = []
    if algorithm == "simple":
        if build_side == "left":
            join = SimpleHashJoin(left_key, right_key, combine)
            build, probe = left_rows, right_rows
        else:
            # SimpleHashJoin hands (build_row, probe_row); the combiner
            # is defined on the join's (left_row, right_row).
            join = SimpleHashJoin(right_key, left_key, lambda b, p: combine(p, b))
            build, probe = right_rows, left_rows
        for row in build:
            join.build(row)
        join.end_build()
        for row in probe:
            rows.extend(join.probe(row))
        return rows
    # The pipelining join takes one tuple from each operand per round,
    # as two producers streaming concurrently would.
    join = PipeliningHashJoin(left_key, right_key, combine)
    for index in range(max(len(left_rows), len(right_rows))):
        if index < len(left_rows):
            rows.extend(join.insert_left(left_rows[index]))
        if index < len(right_rows):
            rows.extend(join.insert_right(right_rows[index]))
    return rows


def reference_result(tree: Node, relations: Mapping[str, Relation]) -> Relation:
    """The sequential oracle: fold the paper's join/projection bottom-up."""
    return _fold(tree, relations, wisconsin_join_project)


def natural_reference(tree: Node, relations: Mapping[str, Relation]) -> Relation:
    """Sequential oracle: fold natural joins bottom-up over the tree."""
    return _fold(tree, relations, natural_join)


def _fold(tree: Node, relations: Mapping[str, Relation], join) -> Relation:
    def evaluate(node: Node) -> Relation:
        if isinstance(node, Leaf):
            return relations[node.name]
        return join(evaluate(node.left), evaluate(node.right))

    return evaluate(tree)
