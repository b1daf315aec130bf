"""Reproduction of Wilschut, Flokstra & Apers,
"Parallel evaluation of multi-join queries" (SIGMOD 1995).

The package implements the paper's four parallel execution strategies
for multi-join queries (SP, SE, RD, FP), the PRISMA/DB-style substrate
they run on (relational algebra with simple and pipelining hash-joins,
an XRA-like plan language, and a discrete-event simulation of a
shared-nothing multiprocessor), the two-phase optimizer context, and a
benchmark harness regenerating every figure and table of the paper's
evaluation.

Quickstart::

    from repro import run

    result = run("wide_bushy", "FP", processors=40)
    print(result.response_time)

(:func:`repro.api.run` is the unified facade over all four execution
backends; :mod:`repro.runner` fans whole experiment grids out over
worker processes.)
"""

from .core import (
    Catalog,
    CostModel,
    Join,
    JoinTask,
    Leaf,
    ParallelSchedule,
    SHAPE_NAMES,
    Strategy,
    example_tree,
    get_strategy,
    make_shape,
    mirror,
    paper_relation_names,
    strategy_names,
)
from .relational import (
    PipeliningHashJoin,
    Relation,
    Schema,
    SimpleHashJoin,
    make_query_relations,
    make_wisconsin,
    wisconsin_join_project,
)

__version__ = "1.0.0"

__all__ = [
    "Catalog",
    "CostModel",
    "Join",
    "JoinTask",
    "Leaf",
    "MachineConfig",
    "ParallelSchedule",
    "PipeliningHashJoin",
    "Relation",
    "SHAPE_NAMES",
    "Schema",
    "SimpleHashJoin",
    "SimulationResult",
    "Strategy",
    "XRAPlan",
    "advise_strategy",
    "compile_schedule",
    "example_tree",
    "get_strategy",
    "make_query_relations",
    "make_shape",
    "make_wisconsin",
    "mirror",
    "paper_relation_names",
    "run",
    "run_cluster",
    "run_workload",
    "simulate_schedule",
    "strategy_names",
    "sweep",
    "two_phase_optimize",
    "wisconsin_join_project",
    "__version__",
]


def __getattr__(name):
    """Lazily expose the heavier subsystems so importing :mod:`repro`
    stays cheap while benchmarks pull in only what they use."""
    if name in ("MachineConfig", "SimulationResult", "simulate_schedule"):
        from . import engine
        return getattr(engine, name)
    if name in ("run", "sweep", "run_workload", "run_cluster"):
        from . import api
        return getattr(api, name)
    if name in ("XRAPlan", "compile_schedule"):
        from . import xra
        return getattr(xra, name)
    if name in ("advise_strategy", "two_phase_optimize"):
        from . import optimizer
        return getattr(optimizer, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
