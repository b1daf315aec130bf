"""Parallel sweep runner for the paper's evaluation grid.

Declarative experiment grids (:class:`SweepSpec`) whose every job is
one single-query paper point, process-pool execution with per-job
timeout, retry and serial fallback (:func:`run_sweep`), a
content-addressed on-disk result cache (:class:`ResultCache`), and
deterministic JSONL result emission.

Quickstart::

    from repro.runner import SweepSpec, run_sweep

    spec = SweepSpec(shapes=("wide_bushy",), cardinalities=(5000,))
    run = run_sweep(spec)            # fans out over worker processes
    run.write_jsonl("sweep.jsonl")   # identical bytes for any workers=
    print(run.summary())
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache, default_cache_dir
from .execute import JobFailed, default_workers, run_job, run_sweep
from .results import (
    JobOutcome,
    SweepRun,
    jsonl_line,
    read_jsonl,
    to_sweep_result,
    write_jsonl,
)
from .spec import CACHE_VERSION, Job, SweepSpec

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "Job",
    "JobFailed",
    "JobOutcome",
    "ResultCache",
    "SweepRun",
    "SweepSpec",
    "default_cache_dir",
    "default_workers",
    "jsonl_line",
    "read_jsonl",
    "run_job",
    "run_sweep",
    "to_sweep_result",
    "write_jsonl",
]
