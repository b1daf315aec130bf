"""A real threaded dataflow executor.

PRISMA executes a plan as communicating operation processes; this
engine does the same with Python threads and queues: one worker thread
per (join, processor) pair, real tuple queues as streams, real
hash-join objects per worker, barriers for ``start_after``, and
store-and-forward for materialized operands.

Because of the CPython GIL this engine is *functional*, not a
performance instrument (the repository's performance claims all come
from the discrete-event simulator; see DESIGN.md).  Its value is that
the dataflow — including pipelining through both operands of the
symmetric hash-join — actually runs concurrently and must produce the
same answer as the sequential oracle, which the tests assert for all
strategies.  Joins resolve by the same rule as the sequential
executor (:func:`repro.engine.local.resolve_tasks`), so it runs both
the Wisconsin query and arbitrary snowflake queries.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.schedule import JoinTask, ParallelSchedule
from ..relational.hashjoin import PipeliningHashJoin, SimpleHashJoin
from ..relational.partition import bucket
from ..relational.query import JoinResolution
from ..relational.relation import Relation
from ..relational.schema import Schema
from .local import resolve_tasks

#: Stream sentinel: one per producer worker, counted by consumers.
_EOS = object()


@dataclass
class _TaskWiring:
    """Static wiring of one task before threads start."""

    task: JoinTask
    resolution: JoinResolution
    left_schema: Schema
    right_schema: Schema
    result_schema: Schema
    #: queues[worker][side] — the worker's input streams.
    queues: List[Dict[str, "queue.Queue"]] = field(default_factory=list)
    barrier: threading.Event = field(default_factory=threading.Event)
    done: threading.Event = field(default_factory=threading.Event)
    results: List[List[tuple]] = field(default_factory=list)
    producers: Dict[str, int] = field(default_factory=dict)


class ThreadedExecutor:
    """Execute a schedule as communicating threads."""

    def __init__(
        self,
        schedule: ParallelSchedule,
        relations: Mapping[str, Relation],
        queue_capacity: int = 256,
        resolve=None,
    ):
        """``resolve(left_schema, right_schema) -> JoinResolution``
        supplies the join semantics; ``None`` applies
        :func:`repro.relational.query.resolve_join` (Wisconsin
        semantics for Wisconsin operands, natural joins otherwise)."""
        self.schedule = schedule
        self.relations = relations
        self.queue_capacity = queue_capacity
        self.resolve = resolve
        self._wirings: Dict[int, _TaskWiring] = {}
        self._build()

    # -- wiring ----------------------------------------------------------

    def _build(self) -> None:
        joins = resolve_tasks(self.schedule, self.relations, self.resolve)
        for task in self.schedule.tasks:
            left_schema, right_schema, resolution = joins[task.index]
            wiring = _TaskWiring(
                task=task,
                resolution=resolution,
                left_schema=left_schema,
                right_schema=right_schema,
                result_schema=resolution.result_schema,
            )
            for _ in task.processors:
                wiring.queues.append(
                    {
                        "left": queue.Queue(self.queue_capacity),
                        "right": queue.Queue(self.queue_capacity),
                    }
                )
                wiring.results.append([])
            for side, spec in (("left", task.left_input), ("right", task.right_input)):
                if spec.is_base or spec.mode == "materialized":
                    # One feeder thread (base scan) or one store-and-
                    # forward coordinator streams this operand.
                    wiring.producers[side] = 1
                else:
                    wiring.producers[side] = self.schedule.tasks[
                        spec.source
                    ].parallelism
            self._wirings[task.index] = wiring

    # -- stream helpers -----------------------------------------------------

    def _send(self, wiring: _TaskWiring, side: str, key_index: int, row: tuple) -> None:
        worker = bucket(row[key_index], len(wiring.queues))
        wiring.queues[worker][side].put(row)

    def _send_eos(self, wiring: _TaskWiring, side: str) -> None:
        for worker_queues in wiring.queues:
            worker_queues[side].put(_EOS)

    # -- threads -------------------------------------------------------------

    def _feeder(self, wiring: _TaskWiring, side: str, relation: Relation) -> None:
        """Streams a base relation into a task's workers."""
        wiring.barrier.wait()
        key = (
            wiring.resolution.left_key
            if side == "left"
            else wiring.resolution.right_key
        )
        key_index = relation.schema.index_of(key)
        for row in relation:
            self._send(wiring, side, key_index, row)
        self._send_eos(wiring, side)

    def _worker(self, wiring: _TaskWiring, slot: int) -> None:
        task = wiring.task
        wiring.barrier.wait()
        combine = wiring.resolution.combine
        left_key = wiring.left_schema.index_of(wiring.resolution.left_key)
        right_key = wiring.right_schema.index_of(wiring.resolution.right_key)
        out = wiring.results[slot]
        consumer = self._consumer_of(task.index)

        def emit(rows: List[tuple]) -> None:
            out.extend(rows)
            if consumer is not None and consumer[2] == "pipelined":
                target, side, _mode = consumer
                key = (
                    target.resolution.left_key
                    if side == "left"
                    else target.resolution.right_key
                )
                key_index = wiring.result_schema.index_of(key)
                for row in rows:
                    self._send(target, side, key_index, row)

        queues = wiring.queues[slot]
        if task.algorithm == "simple":
            build_side = task.build_side
            probe_side = "right" if build_side == "left" else "left"
            build_key = left_key if build_side == "left" else right_key
            probe_key = right_key if build_side == "left" else left_key
            oriented = (
                combine if build_side == "left" else (lambda b, p: combine(p, b))
            )
            join = SimpleHashJoin(build_key, probe_key, oriented)
            self._drain(queues[build_side], wiring.producers[build_side], join.build)
            join.end_build()
            self._drain(
                queues[probe_side],
                wiring.producers[probe_side],
                lambda row: emit(join.probe(row)),
            )
        else:
            join = PipeliningHashJoin(left_key, right_key, combine)
            self._drain_both(
                queues,
                wiring.producers,
                lambda row: emit(join.insert_left(row)),
                lambda row: emit(join.insert_right(row)),
            )

    @staticmethod
    def _drain(q: "queue.Queue", producers: int, handle) -> None:
        remaining = producers
        while remaining:
            item = q.get()
            if item is _EOS:
                remaining -= 1
            else:
                handle(item)

    @staticmethod
    def _drain_both(queues, producers, handle_left, handle_right) -> None:
        """Consume both operand streams as they arrive (symmetric)."""
        remaining = {"left": producers["left"], "right": producers["right"]}
        while remaining["left"] or remaining["right"]:
            progressed = False
            for side, handle in (("left", handle_left), ("right", handle_right)):
                if not remaining[side]:
                    continue
                try:
                    item = queues[side].get(
                        timeout=0.0005 if progressed else 0.005
                    )
                except queue.Empty:
                    continue
                progressed = True
                if item is _EOS:
                    remaining[side] -= 1
                else:
                    handle(item)

    def _consumer_of(self, index: int) -> Optional[Tuple[_TaskWiring, str, str]]:
        for task in self.schedule.tasks:
            for side, spec in (("left", task.left_input), ("right", task.right_input)):
                if not spec.is_base and spec.source == index:
                    return (self._wirings[task.index], side, spec.mode)
        return None

    def _coordinator(self, wiring: _TaskWiring, workers: List[threading.Thread]) -> None:
        """Releases the task's barrier, forwards its output, signals done."""
        for dep in wiring.task.start_after:
            self._wirings[dep].done.wait()
        wiring.barrier.set()
        for worker in workers:
            worker.join()
        # Signal completion *before* store-and-forward: the consumer's
        # barrier typically waits on this very task, and its queues are
        # bounded, so forwarding first could deadlock.
        wiring.done.set()
        consumer = self._consumer_of(wiring.task.index)
        if consumer is None:
            return
        target, side, mode = consumer
        if mode == "materialized":
            key = (
                target.resolution.left_key
                if side == "left"
                else target.resolution.right_key
            )
            key_index = wiring.result_schema.index_of(key)
            for rows in wiring.results:
                for row in rows:
                    self._send(target, side, key_index, row)
            self._send_eos(target, side)
        else:
            # Pipelined: workers streamed rows as they were produced;
            # the consumer counts one EOS per producer worker.
            for _ in wiring.task.processors:
                self._send_eos(target, side)

    # -- execution --------------------------------------------------------------

    def run(self, timeout: float = 60.0) -> Relation:
        """Run all threads to completion; returns the query result."""
        threads: List[threading.Thread] = []
        for wiring in self._wirings.values():
            workers = [
                threading.Thread(
                    target=self._worker, args=(wiring, slot), daemon=True
                )
                for slot in range(len(wiring.task.processors))
            ]
            for side, spec in (
                ("left", wiring.task.left_input),
                ("right", wiring.task.right_input),
            ):
                if spec.is_base:
                    threads.append(
                        threading.Thread(
                            target=self._feeder,
                            args=(wiring, side, self.relations[spec.source]),
                            daemon=True,
                        )
                    )
            threads.extend(workers)
            threads.append(
                threading.Thread(
                    target=self._coordinator, args=(wiring, workers), daemon=True
                )
            )
        for thread in threads:
            thread.start()
        root = self._wirings[self.schedule.tasks[-1].index]
        if not root.done.wait(timeout):
            raise TimeoutError("threaded execution did not finish in time")
        rows = [row for worker_rows in root.results for row in worker_rows]
        return Relation(root.result_schema, rows)


def execute_threaded(
    schedule: ParallelSchedule,
    relations: Mapping[str, Relation],
    *,
    timeout: float = 60.0,
    resolve=None,
) -> Relation:
    """One-call front end over :class:`ThreadedExecutor`."""
    return ThreadedExecutor(schedule, relations, resolve=resolve).run(timeout)
