"""Parallel schedules: the common output language of all four strategies.

A strategy turns (join tree, catalog, processor count) into a
:class:`ParallelSchedule`: one :class:`JoinTask` per join, each with an
explicit processor set, join algorithm, per-operand input mode, and
barrier dependencies.  The execution engines (real and simulated)
consume this representation, so strategies stay pure planning code.

Input modes (how a join operand reaches the task's processes):

* ``base`` — a base relation with ideal initial fragmentation
  (Section 4.1): the fragments already sit in the local memories of the
  task's own processors, hashed on the join attribute, so consuming a
  tuple costs 1 unit and no redistribution streams are needed.
* ``materialized`` — an intermediate result stored at the producer's
  processors; it is redistributed over the network once the producer
  has completed (and, for simple hash-joins, may then be consumed).
  Costs 2 units per tuple and n×m handshakes.
* ``pipelined`` — an intermediate result streamed tuple-wise while the
  producer is still running.  Same per-tuple and handshake costs as
  ``materialized``; the difference is purely temporal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple, Union

from .trees import Join, Leaf, Node, joins_postorder

#: Valid input modes (see module docstring).
INPUT_MODES = ("base", "materialized", "pipelined")

#: Valid join algorithms: the paper's two hash joins (Section 2.3.2).
ALGORITHMS = ("simple", "pipelining")


@dataclass(frozen=True)
class InputSpec:
    """How one operand of a join task is delivered.

    ``source`` is the leaf name for ``base`` mode, or the producing
    task's postorder index for intermediate modes.
    """

    mode: str
    source: Union[str, int]

    def __post_init__(self) -> None:
        if self.mode not in INPUT_MODES:
            raise ValueError(f"unknown input mode {self.mode!r}")
        if self.mode == "base" and not isinstance(self.source, str):
            raise ValueError("base inputs are sourced from a relation name")
        if self.mode != "base" and not isinstance(self.source, int):
            raise ValueError("intermediate inputs are sourced from a task index")

    @property
    def is_base(self) -> bool:
        return self.mode == "base"


@dataclass(frozen=True)
class JoinTask:
    """One join operation of the schedule.

    ``index`` is the join's postorder position in the tree — the stable
    identifier every map in the engines is keyed by.  ``start_after``
    lists task indices that must *complete* before this task's
    processes begin working (strategy-imposed barriers, e.g. SP's
    sequential chain or RD's segment ordering).
    """

    index: int
    join: Join
    processors: Tuple[int, ...]
    algorithm: str
    left_input: InputSpec
    right_input: InputSpec
    start_after: Tuple[int, ...] = ()
    build_side: str = "left"
    phase: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.build_side not in ("left", "right"):
            raise ValueError(f"build_side must be 'left' or 'right'")
        if not self.processors:
            raise ValueError(f"task {self.index} has no processors")
        if len(set(self.processors)) != len(self.processors):
            raise ValueError(f"task {self.index} has duplicate processors")
        if self.algorithm == "simple":
            build = self.left_input if self.build_side == "left" else self.right_input
            if build.mode == "pipelined":
                raise ValueError(
                    "the simple hash-join cannot pipeline its build operand "
                    f"(task {self.index})"
                )

    def inputs(self) -> Tuple[InputSpec, InputSpec]:
        return (self.left_input, self.right_input)

    @property
    def parallelism(self) -> int:
        """Degree of intra-operator parallelism of this join."""
        return len(self.processors)


class ScheduleError(ValueError):
    """A structurally invalid parallel schedule."""


@dataclass
class ParallelSchedule:
    """A complete parallel execution plan for a join tree.

    ``tasks`` are in postorder (consistent with their ``index``
    fields).  :meth:`validate` checks the invariants every engine
    relies on; strategies call it before returning.
    """

    strategy: str
    tree: Node
    processors: int
    tasks: List[JoinTask]

    def task_for(self, join: Join) -> JoinTask:
        """The task executing ``join`` (identity lookup)."""
        for task in self.tasks:
            if task.join is join:
                return task
        raise KeyError(f"no task for join {join}")

    def root_task(self) -> JoinTask:
        """The task producing the query result (the last postorder task)."""
        return self.tasks[-1]

    def operation_processes(self) -> int:
        """Total operation processes the scheduler must initialize.

        The paper's startup metric: SP uses #joins × #processors of
        these (800 at 80 processors), FP only one per processor.
        """
        return sum(task.parallelism for task in self.tasks)

    def stream_count(self) -> int:
        """Total network tuple streams (sender × receiver per
        redistributed operand) — the paper's coordination metric."""
        streams = 0
        by_index = {t.index: t for t in self.tasks}
        for task in self.tasks:
            for spec in task.inputs():
                if not spec.is_base:
                    producer = by_index[spec.source]
                    streams += producer.parallelism * task.parallelism
        return streams

    # -- ordering -------------------------------------------------------

    def ordering_edges(self) -> Set[Tuple[int, int]]:
        """Direct (before, after) pairs: barriers plus materialized
        producer→consumer edges."""
        edges: Set[Tuple[int, int]] = set()
        for task in self.tasks:
            for dep in task.start_after:
                edges.add((dep, task.index))
            for spec in task.inputs():
                if spec.mode == "materialized":
                    edges.add((spec.source, task.index))
        return edges

    def happens_before(self) -> Dict[int, Set[int]]:
        """Transitive closure: for each task, the tasks strictly before it."""
        direct: Dict[int, Set[int]] = {t.index: set() for t in self.tasks}
        for before, after in self.ordering_edges():
            direct[after].add(before)
        closed: Dict[int, Set[int]] = {}
        for task in self.tasks:  # postorder: dependencies have lower depth
            pending = list(direct[task.index])
            seen: Set[int] = set()
            while pending:
                dep = pending.pop()
                if dep in seen:
                    continue
                seen.add(dep)
                pending.extend(closed.get(dep, direct[dep]))
            closed[task.index] = seen
        return closed

    def may_overlap(self, a: JoinTask, b: JoinTask) -> bool:
        """Whether two tasks can be active simultaneously."""
        before = self.happens_before()
        return a.index not in before[b.index] and b.index not in before[a.index]

    # -- validation -------------------------------------------------------

    def validate(self) -> "ParallelSchedule":
        """Check structural invariants; returns self for chaining.

        * exactly one task per join of the tree, indices postorder;
        * input sources match the tree's child structure;
        * processor ids within ``range(processors)``;
        * concurrently runnable tasks use disjoint processors (the
          paper never lets one processor work on two joins at once);
        * ordering contains no cycles (guaranteed by index monotonicity
          checks here).
        """
        joins = joins_postorder(self.tree)
        if len(self.tasks) != len(joins):
            raise ScheduleError(
                f"{len(self.tasks)} tasks for {len(joins)} joins"
            )
        for i, (task, join) in enumerate(zip(self.tasks, joins)):
            if task.index != i:
                raise ScheduleError(f"task {i} carries index {task.index}")
            if task.join is not join:
                raise ScheduleError(f"task {i} is not bound to postorder join {i}")
        index_of = {id(join): i for i, join in enumerate(joins)}
        for task in self.tasks:
            for side, spec in (("left", task.left_input), ("right", task.right_input)):
                child = getattr(task.join, side)
                if isinstance(child, Leaf):
                    if not spec.is_base or spec.source != child.name:
                        raise ScheduleError(
                            f"task {task.index} {side} input must be base "
                            f"relation {child.name!r}, got {spec}"
                        )
                else:
                    if spec.is_base or spec.source != index_of[id(child)]:
                        raise ScheduleError(
                            f"task {task.index} {side} input must come from "
                            f"task {index_of[id(child)]}, got {spec}"
                        )
            for proc in task.processors:
                if not 0 <= proc < self.processors:
                    raise ScheduleError(
                        f"task {task.index} uses processor {proc} outside "
                        f"0..{self.processors - 1}"
                    )
            for dep in task.start_after:
                if not 0 <= dep < len(self.tasks):
                    raise ScheduleError(f"task {task.index} depends on unknown task {dep}")
                if dep == task.index:
                    raise ScheduleError(f"task {task.index} depends on itself")
        before = self.happens_before()
        for idx, deps in before.items():
            if idx in deps:
                raise ScheduleError(f"ordering cycle through task {idx}")
        for i, a in enumerate(self.tasks):
            for b in self.tasks[i + 1:]:
                # may_overlap(a, b), against the closure computed above.
                if (
                    a.index not in before[b.index]
                    and b.index not in before[a.index]
                    and set(a.processors) & set(b.processors)
                ):
                    raise ScheduleError(
                        f"tasks {a.index} and {b.index} may overlap but share "
                        f"processors {sorted(set(a.processors) & set(b.processors))}"
                    )
        return self

    def describe(self) -> str:
        """Human-readable one-line-per-task summary."""
        lines = [f"{self.strategy} schedule on {self.processors} processors:"]
        for task in self.tasks:
            procs = task.processors
            span = (
                f"{procs[0]}-{procs[-1]}"
                if procs == tuple(range(procs[0], procs[-1] + 1))
                else ",".join(map(str, procs))
            )
            deps = f" after {list(task.start_after)}" if task.start_after else ""
            lines.append(
                f"  join#{task.index} [{task.join.label or ''}] "
                f"{task.algorithm} on procs {span} "
                f"L={task.left_input.mode} R={task.right_input.mode}{deps}"
            )
        return "\n".join(lines)
