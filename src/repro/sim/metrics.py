"""Simulation results and derived metrics.

Response time is measured exactly as the paper measures it: "the
elapsed time from the moment the scheduler starts scheduling the query
until the last operation process finishes" (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .machine import MachineConfig


@dataclass(frozen=True)
class TaskTiming:
    """Observed timeline of one join task."""

    index: int
    label: str
    released: float        # all barriers resolved
    first_work: Optional[float]   # first CPU second spent (None: no work)
    completion: float      # last of its operation processes finished


@dataclass
class SimulationResult:
    """Everything one simulated execution produced."""

    strategy: str
    processors: int
    response_time: float
    config: MachineConfig
    task_timings: List[TaskTiming]
    #: processor id → completed busy intervals (start, end, label).
    intervals: Dict[int, List[Tuple[float, float, str]]]
    operation_processes: int
    stream_count: int
    events: int
    #: Total result tuples of the root join (fluid count).
    result_tuples: float

    @cached_property
    def _busy(self) -> Tuple[float, float, float]:
        """``(all, work, handshake)`` busy seconds, from one walk over
        the spans: each total adds its spans one by one in span order,
        the whole from the integer 0 as ``ordered_sum`` does, the two
        kinds from 0.0."""
        total = 0
        work = handshake = 0.0
        for spans in self.intervals.values():
            for start, end, label in spans:
                span = end - start
                total += span
                if label.endswith(":hs"):
                    handshake += span
                else:
                    work += span
        return total, work, handshake

    def busy_time(self) -> float:
        """Total CPU-busy seconds over all processors."""
        return self._busy[0]

    def busy_by_kind(self) -> Dict[str, float]:
        """CPU seconds split into 'work' and 'handshake' categories."""
        _, work, handshake = self._busy
        return {"work": work, "handshake": handshake}

    def utilization(self, busy_time: Optional[float] = None) -> float:
        """Mean fraction of the response time processors were busy."""
        if self.response_time <= 0 or self.processors == 0:
            return 0.0
        if busy_time is None:
            busy_time = self.busy_time()
        return busy_time / (self.processors * self.response_time)

    def startup_time(self) -> float:
        """Serial scheduler initialization span for this plan."""
        return self.operation_processes * self.config.process_startup

    def task_completion(self, index: int) -> float:
        """Completion time of task ``index``."""
        return self.task_timings[index].completion

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"{self.strategy}@{self.processors}p: "
            f"{self.response_time:.2f}s response, "
            f"{self.utilization():.0%} utilization, "
            f"{self.operation_processes} processes, "
            f"{self.stream_count} streams"
        )
