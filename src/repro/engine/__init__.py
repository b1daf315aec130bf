"""Execution engines: real local execution and machine simulation.

The unified facade :func:`repro.api.run` dispatches between the
engines through one frozen signature.  The four historical front-ends
are no longer exported from this package; they remain importable from
their submodules (:func:`repro.engine.simulate.simulate_strategy`,
:func:`repro.engine.local.execute_schedule`,
:func:`repro.engine.threaded.execute_threaded`,
:func:`repro.engine.ideal.ideal_simulation`) for callers that
genuinely need an engine rather than the facade.

The two real executors — sequential ``execute_schedule`` and the
threaded dataflow — resolve every join by one rule
(:func:`repro.relational.query.resolve_join`: the paper's Wisconsin
query when both operands are Wisconsin relations, the natural join
otherwise) and are checked against the sequential oracles exported
here, :func:`reference_result` and :func:`natural_reference`.
"""

from ..sim.machine import MachineConfig
from ..sim.metrics import SimulationResult
from .ideal import ideal_diagram, label_map_for
from .local import (
    ExecutionResult,
    TaskExecution,
    natural_reference,
    reference_result,
)
from .simulate import simulate_schedule
from .threaded import ThreadedExecutor
from .trace import critical_path, spans_of, task_marks, to_json
from .utilization import busy_fractions, utilization_diagram


__all__ = [
    "ExecutionResult",
    "MachineConfig",
    "SimulationResult",
    "TaskExecution",
    "busy_fractions",
    "critical_path",
    "spans_of",
    "task_marks",
    "to_json",
    "ThreadedExecutor",
    "natural_reference",
    "ideal_diagram",
    "label_map_for",
    "reference_result",
    "simulate_schedule",
    "utilization_diagram",
]
