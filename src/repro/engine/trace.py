"""Execution traces: Gantt data and JSON export.

Turns a :class:`~repro.sim.metrics.SimulationResult` into structured
trace data — one span per contiguous processor-busy interval, plus
per-task lifecycle marks — suitable for external tooling (the JSON
form loads directly into timeline viewers) and for the repository's
own diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List

from ..sim.machine import HANDSHAKE_SUFFIX
from ..sim.metrics import SimulationResult


@dataclass(frozen=True)
class Span:
    """One contiguous busy interval of one processor."""

    processor: int
    start: float
    end: float
    task: str          # "J<index>"
    kind: str          # "work" | "handshake"

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TaskMark:
    """Lifecycle timestamps of one join task."""

    index: int
    label: str
    released: float
    first_work: float
    completion: float


def spans_of(result: SimulationResult) -> List[Span]:
    """All busy spans, ordered by start time."""
    out: List[Span] = []
    for processor, intervals in result.intervals.items():
        for start, end, label in intervals:
            kind = "handshake" if label.endswith(HANDSHAKE_SUFFIX) else "work"
            task = label.removesuffix(HANDSHAKE_SUFFIX)
            out.append(Span(processor, start, end, task, kind))
    out.sort(key=lambda span: (span.start, span.processor))
    return out


def task_marks(result: SimulationResult) -> List[TaskMark]:
    """Lifecycle marks for every task."""
    return [
        TaskMark(
            index=t.index,
            label=t.label,
            released=t.released,
            first_work=t.first_work if t.first_work is not None else t.released,
            completion=t.completion,
        )
        for t in result.task_timings
    ]


def critical_path(result: SimulationResult) -> List[TaskMark]:
    """Tasks whose completion gates the response time, latest first.

    A simple backward walk: starting from the last-finishing task,
    repeatedly step to the latest-finishing task that completed before
    the current one was released.  On barrier-structured plans (SP,
    SE, RD) this is the actual critical chain; on FP it degenerates to
    the root task alone (everything overlaps).
    """
    marks = sorted(task_marks(result), key=lambda m: m.completion, reverse=True)
    if not marks:
        return []
    path = [marks[0]]
    while True:
        current = path[-1]
        gating = [
            m for m in marks
            if m.completion <= current.released + 1e-12 and m is not current
        ]
        if not gating or current.released == 0.0:
            break
        path.append(max(gating, key=lambda m: m.completion))
    return path


def to_json(result: SimulationResult, indent: int = None) -> str:
    """Serialize the full trace as JSON.

    Schema: ``{"meta": {...}, "tasks": [...], "spans": [...]}``;
    spans carry (processor, start, end, task, kind).
    """
    payload = {
        "meta": {
            "strategy": result.strategy,
            "processors": result.processors,
            "response_time": result.response_time,
            "utilization": result.utilization(),
            "operation_processes": result.operation_processes,
            "stream_count": result.stream_count,
            "events": result.events,
        },
        "tasks": [asdict(mark) for mark in task_marks(result)],
        "spans": [asdict(span) for span in spans_of(result)],
    }
    return json.dumps(payload, indent=indent)


def from_json(text: str) -> Dict:
    """Parse a trace produced by :func:`to_json` (round-trip helper)."""
    payload = json.loads(text)
    for key in ("meta", "tasks", "spans"):
        if key not in payload:
            raise ValueError(f"not a trace document: missing {key!r}")
    return payload
