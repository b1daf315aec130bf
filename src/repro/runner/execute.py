"""Parallel sweep execution.

Experiment points are embarrassingly parallel — each is one planning +
simulation run with no shared state — so the executor fans the job
list of a :class:`~repro.runner.spec.SweepSpec` out over a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* cache hits are resolved first (no process ever starts for them);
* remaining jobs are submitted in job order and collected in job
  order, each with a per-job timeout;
* a job that times out, raises, or loses its worker (broken pool)
  falls back to serial in-process execution with bounded retries —
  parallelism is an optimization, never a correctness risk;
* results are returned (and emitted as JSONL) in deterministic job
  order regardless of completion order or worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.cost import Catalog
from ..core.shapes import make_shape, paper_relation_names
from ..core.strategies import get_strategy
from ..sim.run import QueryAbortedError, simulate
from .cache import ResultCache
from .results import JobOutcome, SweepRun
from .spec import Job, SweepSpec, WorkloadTraffic

try:  # pragma: no cover - import location is version-dependent
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover
    BrokenProcessPool = RuntimeError  # type: ignore[assignment,misc]

#: progress(outcome, done_count, total_count)
ProgressFn = Callable[[JobOutcome, int, int], None]


class JobFailed(RuntimeError):
    """A job kept failing after the serial fallback retries."""

    def __init__(self, job: Job, attempts: int, cause: BaseException):
        super().__init__(
            f"job {job.label()} failed after {attempts} attempts: {cause!r}"
        )
        self.job = job
        self.attempts = attempts
        self.cause = cause


def run_job(job: Job) -> Tuple[Dict, Dict]:
    """Execute one experiment point; returns ``(row, meta)``.

    ``row`` is the deterministic result record (configuration +
    simulation metrics); ``meta`` carries the nondeterministic
    diagnostics (compute seconds, worker pid) that stay out of the row.
    This function is the process-pool entry point, so it must remain a
    module-level, picklable callable.
    """
    started = time.perf_counter()
    if job.scheduler is not None:
        return _run_workload_job(job, started)
    names = paper_relation_names(job.relations)
    tree = make_shape(job.shape, names)
    catalog = Catalog.regular(names, job.cardinality)
    schedule = get_strategy(job.strategy).schedule(
        tree, catalog, job.processors, job.cost_model
    )
    try:
        result = simulate(
            schedule,
            catalog,
            job.config,
            cost_model=job.cost_model,
            skew_theta=job.skew_theta,
            faults=job.faults,
            deadline=job.deadline,
        )
    except QueryAbortedError as exc:
        # A scheduled crash (or an expired deadline) killed the query;
        # record the abort as a deterministic row so sweeps over fault
        # schedules and deadlines still cache and replay bit-for-bit.
        row = {
            **job.payload(),
            "metrics": {
                "aborted": True,
                "aborted_at": exc.at,
                "reason": exc.reason,
            },
        }
        meta = {"elapsed": time.perf_counter() - started, "pid": os.getpid()}
        return row, meta
    breakdown = result.busy_by_kind()
    row = {
        **job.payload(),
        "metrics": {
            "response_time": result.response_time,
            "utilization": result.utilization(),
            "busy_work": breakdown["work"],
            "busy_handshake": breakdown["handshake"],
            "startup_time": result.startup_time(),
            "operation_processes": result.operation_processes,
            "stream_count": result.stream_count,
            "events": result.events,
            "result_tuples": result.result_tuples,
        },
    }
    meta = {"elapsed": time.perf_counter() - started, "pid": os.getpid()}
    return row, meta


def _facade_kwargs(job: Job, traffic: WorkloadTraffic, keywords) -> Dict:
    """Every knob the cell carries, under the facade keyword of the
    same name (``job.processors`` is the facade's ``machine_size``);
    knobs neither the job nor its traffic block has keep the facade
    default."""
    carried = {**vars(job), **vars(traffic), "machine_size": job.processors}
    return {name: carried[name] for name in keywords if name in carried}


def _run_workload_job(job: Job, started: float) -> Tuple[Dict, Dict]:
    """Run a scheduler-bearing cell as a whole workload.

    ``job.processors`` is the shared machine size and ``job.workload``
    (default :class:`WorkloadTraffic`) shapes the open-loop traffic;
    the row's metrics summarize the workload instead of one query.
    """
    traffic = job.workload or WorkloadTraffic()
    if traffic.shards > 1:
        return _run_cluster_job(job, traffic, started)
    from ..api import RUN_WORKLOAD_KEYWORDS, run_workload

    result = run_workload(
        job.shape, **_facade_kwargs(job, traffic, RUN_WORKLOAD_KEYWORDS)
    )
    latency = result.latency_stats()
    row = {
        **job.payload(),
        "metrics": {
            "submitted": len(result.records),
            "completed": len(result.completed()),
            "rejected": result.rejected_count(),
            "shed": result.shed_count(),
            "expired": result.deadline_missed_count(),
            "makespan": result.makespan,
            "throughput": result.throughput(),
            "goodput": result.goodput(),
            "utilization": result.utilization(),
            "latency_p50": latency["p50"],
            "latency_p95": latency["p95"],
            "scheduling_decisions": result.scheduling_decisions,
        },
    }
    meta = {"elapsed": time.perf_counter() - started, "pid": os.getpid()}
    return row, meta


def _run_cluster_job(
    job: Job, traffic: WorkloadTraffic, started: float
) -> Tuple[Dict, Dict]:
    """Run a ``shards > 1`` cell through the cluster front-end.

    ``job.processors`` is the *per-shard* machine size.  The job runs
    its shards serially — the sweep's own process pool is the
    parallelism budget; nesting pools would oversubscribe it.
    """
    from ..api import RUN_CLUSTER_KEYWORDS, run_cluster

    result = run_cluster(
        job.shape, **_facade_kwargs(job, traffic, RUN_CLUSTER_KEYWORDS)
    )
    latency = result.latency_stats()
    row = {
        **job.payload(),
        "metrics": {
            "submitted": result.submitted_count(),
            "completed": result.completed_count(),
            "rejected": result.rejected_count(),
            "useful": result.useful_count(),
            "makespan": result.makespan,
            "throughput": result.throughput(),
            "goodput": result.goodput(),
            "latency_p50": latency["p50"],
            "latency_p95": latency["p95"],
            "latency_p99": latency["p99"],
            "shards": len(result.shards),
            "migrations": result.migrations,
            "scale_ups": result.scale_ups(),
            "scale_downs": result.scale_downs(),
        },
    }
    meta = {"elapsed": time.perf_counter() - started, "pid": os.getpid()}
    return row, meta


def default_workers(pending: int) -> int:
    """Worker-count default: fan out (at least two processes) but never
    start more workers than there are uncached jobs."""
    if pending <= 1:
        return 1
    return min(max(2, os.cpu_count() or 1), pending)


def run_sweep(
    spec: Union[SweepSpec, Sequence[Job]],
    *,
    workers: Optional[int] = None,
    cache: bool = True,
    cache_dir: Optional[Union[str, Path]] = None,
    timeout: float = 300.0,
    retries: int = 1,
    progress: Optional[ProgressFn] = None,
) -> SweepRun:
    """Run every job of ``spec`` and return the ordered results.

    ``workers=None`` picks :func:`default_workers`; ``workers=1``
    forces serial in-process execution (no pool).  ``timeout`` bounds
    each job's wall-clock seconds in the pool; a timed-out or crashed
    job is retried serially up to ``retries`` times before
    :class:`JobFailed` is raised.
    """
    jobs = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
    if retries < 0:
        raise ValueError("retries must be non-negative")
    store = ResultCache(cache_dir) if cache else None
    started = time.perf_counter()
    outcomes: Dict[int, JobOutcome] = {}
    done = 0

    def record(index: int, outcome: JobOutcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        done += 1
        if progress is not None:
            progress(outcome, done, len(jobs))

    pending: List[Tuple[int, Job]] = []
    for index, job in enumerate(jobs):
        row = store.get(job.key()) if store is not None else None
        if row is not None:
            record(index, JobOutcome(job, row, "cache", 0.0, os.getpid(), 0))
        else:
            pending.append((index, job))

    if workers is None:
        workers = default_workers(len(pending))
    workers = max(1, workers)

    failed: List[Tuple[int, Job]] = []
    if pending and workers > 1:
        failed = _run_pool(pending, workers, timeout, record)
    elif pending:
        failed = list(pending)

    # Serial path: both the workers=1 mode and the fallback for jobs
    # the pool could not finish.
    for index, job in failed:
        record(index, _run_serial(job, retries))

    if store is not None:
        for index, job in pending:
            store.put(job.key(), outcomes[index].row)

    return SweepRun(
        jobs=jobs,
        outcomes=[outcomes[i] for i in range(len(jobs))],
        workers=workers if pending else 0,
        elapsed=time.perf_counter() - started,
        cache_dir=store.root if store is not None else None,
    )


def _run_pool(
    pending: List[Tuple[int, Job]],
    workers: int,
    timeout: float,
    record: Callable[[int, JobOutcome], None],
) -> List[Tuple[int, Job]]:
    """Fan ``pending`` out over a process pool; returns jobs that must
    be re-run serially (timeout, worker crash, or job exception)."""
    collected: set = set()
    failed: List[Tuple[int, Job]] = []
    pool = ProcessPoolExecutor(max_workers=workers)
    abandoned = False  # a timed-out future may still occupy a worker
    try:
        futures = [(i, job, pool.submit(run_job, job)) for i, job in pending]
        for index, job, future in futures:
            try:
                row, meta = future.result(timeout=timeout)
            except FutureTimeoutError:
                future.cancel()
                abandoned = True
            except BrokenProcessPool:
                # The pool is gone; everything not yet collected falls
                # back to serial execution.
                break
            except Exception:
                pass
            else:
                collected.add(index)
                record(
                    index,
                    JobOutcome(job, row, "pool", meta["elapsed"], meta["pid"], 1),
                )
    finally:
        pool.shutdown(wait=not abandoned, cancel_futures=True)
    failed.extend((i, job) for i, job in pending if i not in collected)
    return failed


def _run_serial(job: Job, retries: int) -> JobOutcome:
    """Run one job in-process, retrying up to ``retries`` extra times."""
    attempts = 0
    last_error: Optional[BaseException] = None
    while attempts <= retries:
        attempts += 1
        try:
            row, meta = run_job(job)
        except Exception as exc:  # noqa: BLE001 - reported via JobFailed
            last_error = exc
        else:
            return JobOutcome(
                job, row, "serial", meta["elapsed"], meta["pid"], attempts
            )
    assert last_error is not None
    raise JobFailed(job, attempts, last_error) from last_error
