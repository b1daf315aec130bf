"""Wiring a :class:`~repro.core.schedule.ParallelSchedule` onto the
simulated machine and running it.

This is the simulated counterpart of PRISMA's query execution engine
(Section 2.2): a single scheduler process serially initializes one
operation process per (join, processor) pair, the processes coordinate
among themselves through tuple streams, and the run ends when the last
process finishes.

A :class:`ScheduleSimulation` normally owns its clock and processors —
one query on a dedicated machine, exactly the paper's setting.  It can
instead be *hosted*: handed an external clock, a mapping of logical to
shared physical processors, a start time, and a completion callback,
so several queries run concurrently on one machine (the substrate of
:mod:`repro.workload`).  A hosted run with the identity mapping
starting at time zero takes the same code path and produces the same
event sequence as an owned run, which is what keeps single-query
results bit-identical.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from ..core.cost import Catalog, CostModel
from ..core.numeric import ordered_sum
from ..core.schedule import JoinTask, ParallelSchedule
from . import turbo
from .events import SimulationClock
from .machine import MachineConfig, NetworkLink, Processor
from .metrics import SimulationResult
from .process import (
    OperationProcess,
    PipeliningHashJoinProcess,
    SimpleHashJoinProcess,
)
from .skew import zipf_shares
from .streams import ConsumerGroup, Port


class QueryAbortedError(RuntimeError):
    """The query was crash-stopped mid-execution — by an injected
    fault, by its deadline (``reason="deadline"``), or by an explicit
    cancellation.

    Raised by :meth:`ScheduleSimulation.run` for an owned (single-query)
    run; a hosted run never raises — the workload engine observes the
    abort through its fault-recovery and lifecycle paths instead.
    """

    def __init__(self, reason: str, at: float):
        super().__init__(f"query aborted at t={at:.3f}s: {reason}")
        self.reason = reason
        self.at = at


#: One input side of a task: ``(mode, coefficient, producer processes,
#: operand total)`` — a base fragment has no producers.
Side = Tuple[str, float, int, float]


class TaskDerivation(NamedTuple):
    """Everything one join task's processes and ports are built from.

    :func:`derive_tasks` makes it from the schedule, the cost
    annotation and the skew; :meth:`ScheduleSimulation._build` builds
    from nothing else.  A whole query's derivations, with the machine
    constants and the cost coefficients, are also the key of turbo's
    profile cache (:func:`simulate`): what is not here cannot reach a
    built process, so equal keys build equal processes.
    """

    index: int
    processors: Tuple[int, ...]
    start_after: Tuple[int, ...]
    #: ``(task index, side)`` the output feeds; ``None`` for the root.
    consumer: Optional[Tuple[int, str]]
    algorithm: str
    build_side: str
    #: Fragment share per process (uniform or Zipf), in process order.
    shares: Tuple[float, ...]
    left: Side
    right: Side
    work_scale: float
    result_total: float
    result_coeff: float


def derive_tasks(
    schedule: ParallelSchedule,
    catalog: Catalog,
    cost_model: CostModel,
    skew_theta: float,
) -> Tuple[TaskDerivation, ...]:
    """Each task's :class:`TaskDerivation`, in schedule order: the tree
    is cost-annotated once, fragment shares are uniform under the
    paper's assumption and Zipfian under skew."""
    annotation = cost_model.annotate(schedule.tree, catalog)
    tasks = schedule.tasks
    consumer_of: Dict[int, Tuple[int, str]] = {}
    for task in tasks:
        if not task.left_input.is_base:
            consumer_of[task.left_input.source] = (task.index, "left")
        if not task.right_input.is_base:
            consumer_of[task.right_input.source] = (task.index, "right")
    base_coeff = cost_model.base_coeff
    intermediate_coeff = cost_model.intermediate_coeff
    result_coeff = cost_model.result_coeff

    def side(spec, total: float) -> Side:
        if spec.is_base:
            return (spec.mode, base_coeff, 0, total)
        producers = tasks[spec.source].parallelism
        return (spec.mode, intermediate_coeff, producers, total)

    derived = []
    for task in tasks:
        cost = annotation[task.join]
        natural = cost_model.join_cost(
            cost.n1, cost.n2, cost.result, cost.left_base, cost.right_base
        )
        derived.append(
            TaskDerivation(
                task.index,
                tuple(task.processors),
                tuple(task.start_after),
                consumer_of.get(task.index),
                task.algorithm,
                task.build_side,
                tuple(zipf_shares(task.parallelism, skew_theta)),
                side(task.left_input, cost.n1),
                side(task.right_input, cost.n2),
                cost.cost / natural if natural > 0 else 1.0,
                cost.result,
                result_coeff,
            )
        )
    return tuple(derived)


@dataclass
class _TaskRuntime:
    """Mutable bookkeeping for one join task during the run."""

    task: JoinTask
    derived: TaskDerivation
    processes: List[OperationProcess] = field(default_factory=list)
    remaining_deps: int = 0
    dependents: List["_TaskRuntime"] = field(default_factory=list)
    done_processes: int = 0
    released_at: float = 0.0
    completion: Optional[float] = None
    output_group: Optional[ConsumerGroup] = None
    output_pipelined: bool = False


class _BuiltOnAccess:
    """An attribute of the process graph (:meth:`ScheduleSimulation._build`
    sets it on the instance): reading it before then builds the graph,
    and later reads find the instance's own value."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, sim, owner=None):
        if sim is None:
            return self
        sim._build()
        return sim.__dict__[self.name]


class _OwnedClock(SimulationClock):
    """The clock of an owned simulation: running it builds the
    simulation's process graph first, and with it the init and release
    events the run starts from."""

    __slots__ = ("_sim",)

    def __init__(self, sim: "ScheduleSimulation") -> None:
        super().__init__()
        self._sim = weakref.ref(sim)

    def run(self, *args, **kwargs) -> float:
        sim = self._sim()
        if sim is not None:
            sim._build()
        return super().run(*args, **kwargs)


class ScheduleSimulation:
    """One simulated execution of a parallel schedule.

    Its process graph — one :class:`~repro.sim.process.OperationProcess`
    per (task, processor) with its ports, the consumer groups, the
    runtimes and the scheduler's init and release events — is built
    from the tasks' derivations (:class:`TaskDerivation`).  A hosted
    run builds it at construction: its events belong on the shared
    clock from then on.  An owned run builds it only when something
    needs it: :meth:`run` first offers the run to turbo
    (:func:`repro.sim.turbo.execute`), which computes from the
    derivations alone, and builds only if turbo declines.  Reading
    :attr:`processors` or :attr:`runtimes` builds it too (a fault
    injector does, so does :meth:`abort`), and so does running the
    owned clock directly.  Objects built after turbo computed the run
    take its outcome (:func:`repro.sim.turbo.write_back`).
    """

    processors = _BuiltOnAccess()
    runtimes = _BuiltOnAccess()

    def __init__(
        self,
        schedule: ParallelSchedule,
        catalog: Catalog,
        config: Optional[MachineConfig] = None,
        cost_model: Optional[CostModel] = None,
        skew_theta: float = 0.0,
        *,
        clock: Optional[SimulationClock] = None,
        processor_pool: Optional[Mapping[int, Processor]] = None,
        start_at: float = 0.0,
        label_prefix: str = "",
        on_complete: Optional[Callable[["ScheduleSimulation"], None]] = None,
        network: Optional[NetworkLink] = None,
        skip_tasks: Collection[int] = (),
        deadline: Optional[float] = None,
        derived: Optional[Tuple[TaskDerivation, ...]] = None,
    ):
        """``skew_theta`` relaxes the paper's non-skew assumption: the
        fragments of every operand follow Zipf(theta) shares instead of
        a uniform split (0.0 reproduces the paper).

        The keyword-only arguments host the run on a shared machine:
        ``clock`` is an external event loop (the run no longer drives
        it — call :meth:`result` from ``on_complete`` instead of
        :meth:`run`), ``processor_pool`` maps this schedule's logical
        processor ids to shared physical :class:`Processor` objects,
        ``start_at`` is the simulated time the scheduler begins
        claiming processes, and ``label_prefix`` distinguishes this
        query's busy intervals on shared processor traces.

        ``skip_tasks`` lists join tasks whose materialized results
        survive from an earlier attempt (the ``reassign`` recovery
        policy): they run no processes and instead replay their stored
        output at ``start_at``.  The set is closed under input sources
        (a reused task's feeders are reused too); the root is never
        reusable, and a reused task whose live consumer expects a
        *pipelined* input is rejected — pipelined (FP) dataflow holds
        its state in the crashed processes, so it must rebuild.

        ``deadline`` is an absolute simulated time (> ``start_at``);
        a query still unfinished then is aborted through the same
        inert-process machinery faults use
        (:class:`QueryAbortedError` with ``reason="deadline"``).  The
        deadline event is cancellable, so a deadline the query beats —
        and ``deadline=None`` — leave the run bit-for-bit identical to
        a deadline-free one.

        ``derived`` is :func:`derive_tasks` of these same arguments, for
        a caller that has already made it (:func:`simulate` keys turbo's
        profile cache on it); ``None`` derives it here.
        """
        self.schedule = schedule
        self.catalog = catalog
        self.config = config or MachineConfig.paper()
        if cost_model is None:
            cost_model = CostModel()
        self.cost_model = cost_model
        self.skew_theta = skew_theta
        self._owns_clock = clock is None
        self.clock = clock if clock is not None else _OwnedClock(self)
        self._pool = processor_pool
        self.start_at = start_at
        self.label_prefix = label_prefix
        self.on_complete = on_complete
        #: One-shot host hook, called with the simulation when its first
        #: build event (a release at ``start_at``) dispatches, before the
        #: run does anything; returning ``True`` means the host ran the
        #: whole epoch analytically (:func:`repro.sim.turbo.execute_hosted`).
        self.on_start: Optional[Callable[["ScheduleSimulation"], bool]] = None
        self.finished_at: Optional[float] = None
        self.aborted_reason: Optional[str] = None
        self.aborted_at: Optional[float] = None
        #: Set by FaultInjector.attach_simulation when any perturbation
        #: (crash, stall, link fault) targets this run; keeps the
        #: analytic fast path (repro.sim.turbo) off perturbed runs.
        self.perturbed = False
        #: Set by :meth:`run`: whether turbo computed the whole run.
        self.analytic = False
        if deadline is not None and deadline <= start_at:
            raise ValueError(
                f"deadline {deadline} must lie after the query's start "
                f"({start_at}); an already-expired query should be shed "
                "at admission, not started"
            )
        self.deadline = deadline
        self._deadline_handle = None
        self._completed_tasks = 0
        #: Hosted runs: per logical processor, this run's own spans of
        #: the shared ``Processor.intervals`` (kept by
        #: ``Processor.acquire``; by the hosted fast path when it
        #: commits an epoch).
        self._spans: Dict[int, List[Tuple[float, float, str]]] = {}
        self.network = (
            network
            if network is not None
            else NetworkLink(self.config.network_bandwidth)
        )
        if derived is None:
            derived = derive_tasks(schedule, catalog, cost_model, skew_theta)
        self.derived = derived
        self.skip_tasks: FrozenSet[int] = self._close_skips(skip_tasks)
        self._built = False
        #: What turbo computed for an owned run before its graph existed:
        #: ``(rows, finals, cpus)`` (:func:`repro.sim.turbo.execute`).
        self._outcome: Optional[tuple] = None
        #: The clock's push count once the graph's own events are on it.
        self._build_seq = 0
        if not self._owns_clock or processor_pool is not None:
            self._build()

    # -- construction -----------------------------------------------------

    def _close_skips(self, requested: Collection[int]) -> FrozenSet[int]:
        """Validate and close ``skip_tasks`` under input sources.

        If a task's result is being replayed, everything that only fed
        that task has nothing left to produce, so it is reused too.  A
        reused task whose live consumer takes its output pipelined is
        rejected.
        """
        if not requested:
            return frozenset()
        tasks = {task.index: task for task in self.schedule.tasks}
        for index in requested:
            if index not in tasks:
                raise ValueError(f"skip_tasks references unknown task {index}")
        skip = set(requested)
        stack = list(skip)
        while stack:
            task = tasks[stack.pop()]
            for spec in (task.left_input, task.right_input):
                if not spec.is_base and spec.source not in skip:
                    skip.add(spec.source)
                    stack.append(spec.source)
        root = self.schedule.tasks[-1].index
        if root in skip:
            raise ValueError(
                "the root task's result cannot be reused; nothing would run"
            )
        by_index = {spec.index: spec for spec in self.derived}
        for spec in self.derived:
            target = spec.consumer
            if spec.index not in skip or target is None or target[0] in skip:
                continue
            consumer = by_index[target[0]]
            mode = (consumer.left if target[1] == "left" else consumer.right)[0]
            if mode == "pipelined":
                raise ValueError(
                    f"task {spec.index} cannot be reused: its output "
                    "is pipelined into a live consumer, and pipelined "
                    "dataflow state died with the crashed processes"
                )
        return frozenset(skip)

    def _processor(self, ident: int) -> Processor:
        if ident not in self.processors:
            if self._pool is not None:
                self.processors[ident] = self._pool[ident]
                self._spans[ident] = []
            else:
                self.processors[ident] = Processor(ident)
        return self.processors[ident]

    def _build(self) -> None:
        """Build the process graph, once: every later call is a no-op."""
        if self._built:
            return
        self._built = True
        self.processors: Dict[int, Processor] = {}
        self.runtimes: List[_TaskRuntime] = [
            _TaskRuntime(task=task, derived=spec)
            for task, spec in zip(self.schedule.tasks, self.derived)
        ]
        # Create processes with their input ports, all from the tasks'
        # derivations.
        by_index = {rt.task.index: rt for rt in self.runtimes}
        ports_by_task_side: Dict[Tuple[int, str], List[Port]] = {}
        for runtime in self.runtimes:
            task = runtime.task
            if task.index in self.skip_tasks:
                continue  # replayed from a surviving materialized result
            derived = runtime.derived
            l_mode, l_coeff, l_producers, l_total = derived.left
            r_mode, r_coeff, r_producers, r_total = derived.right
            name = f"{self.label_prefix}J{task.index}"
            on_done = lambda process, rt=runtime: self._process_done(rt, process)
            simple = derived.algorithm == "simple"
            left_ports = ports_by_task_side[(task.index, "left")] = []
            right_ports = ports_by_task_side[(task.index, "right")] = []
            for proc_id, share in zip(derived.processors, derived.shares):
                left = Port("left", l_mode, l_coeff, l_producers, l_total * share)
                right = Port("right", r_mode, r_coeff, r_producers, r_total * share)
                left_ports.append(left)
                right_ports.append(right)
                kwargs = dict(
                    name=name,
                    processor=self._processor(proc_id),
                    clock=self.clock,
                    config=self.config,
                    left=left,
                    right=right,
                    result_local=derived.result_total * share,
                    result_coeff=derived.result_coeff,
                    output=None,             # wired afterwards
                    output_pipelined=False,  # wired afterwards
                    on_done=on_done,
                    work_scale=derived.work_scale,
                    spans=self._spans.get(proc_id),
                )
                if simple:
                    process = SimpleHashJoinProcess(
                        build_side=derived.build_side, **kwargs
                    )
                else:
                    process = PipeliningHashJoinProcess(**kwargs)
                runtime.processes.append(process)

        # Wire outputs: a task's processes share one consumer group.
        for runtime in self.runtimes:
            target = runtime.derived.consumer
            if target is None:
                continue  # root: result stays in local memories
            consumer_index, side = target
            if consumer_index in self.skip_tasks:
                # Closure guarantees the producer is skipped too: its
                # output is already folded into the consumer's result.
                continue
            consumer = by_index[consumer_index].derived
            mode = (consumer.left if side == "left" else consumer.right)[0]
            group = ConsumerGroup(
                ports_by_task_side[(consumer_index, side)],
                self.config.network_latency,
                shares=consumer.shares,
                network=self.network,
            )
            runtime.output_group = group
            runtime.output_pipelined = mode == "pipelined"
            for process in runtime.processes:
                process.output = group
                process.output_pipelined = runtime.output_pipelined

        # Barriers.
        for runtime in self.runtimes:
            runtime.remaining_deps = len(runtime.task.start_after)
            for dep in runtime.task.start_after:
                by_index[dep].dependents.append(runtime)

        if self._outcome is not None:
            # Turbo computed the run before anything read its objects:
            # they take its outcome, and nothing is left to schedule.
            turbo.write_back(self, self._outcome)
            return

        # Anything pushed on an owned clock before the graph existed (by
        # a tool or a test) goes back behind the graph's own events, as
        # if the graph had been built at construction.
        clock = self.clock
        early = []
        if self._owns_clock:
            early = sorted(clock._queue, key=itemgetter(1))
            clock._queue.clear()

        # Serial scheduler initialization: one process after another,
        # in task order then processor order (Section 2.2).  Hosted
        # runs schedule cancellably and keep the handles: the epoch
        # fast path (repro.sim.turbo.execute_hosted) simulates these
        # events analytically and must then unschedule them.  A
        # cancellable entry that is never cancelled dispatches exactly
        # like a plain one, so the classic hosted path is unchanged.
        hosted = self._pool is not None
        self._build_handles = [] if hosted else None
        schedule_event = clock.at_cancellable if hosted else clock.at
        sequence = 0
        for runtime in self.runtimes:
            for process in runtime.processes:
                sequence += 1
                handle = schedule_event(
                    self.start_at + sequence * self.config.process_startup,
                    process.init_ready,
                )
                if hosted:
                    self._build_handles.append(handle)

        # Release unbarriered tasks at query start; replay the stored
        # results of reused tasks (they bypass barriers — the work that
        # produced them already happened in the aborted attempt).
        self._start_handle = None
        for runtime in self.runtimes:
            if runtime.task.index in self.skip_tasks:
                handle = schedule_event(
                    self.start_at, self._complete_skipped, runtime
                )
            elif runtime.remaining_deps == 0:
                handle = schedule_event(self.start_at, self._release, runtime)
                if self._start_handle is None:
                    self._start_handle = handle
            else:
                continue
            if hosted:
                self._build_handles.append(handle)

        # The deadline is a cancellable event: completion cancels it,
        # so a met deadline never dispatches, never counts, and never
        # advances the clock (bit-for-bit deadline-free identity).
        if self.deadline is not None:
            self._deadline_handle = clock.at_cancellable(
                self.deadline, self._deadline_expired
            )

        # Everything scheduled so far is _build's own; anything else on
        # the clock disqualifies the owned analytic fast path, which
        # only replays _build's events.  A hosted run shares its clock,
        # and its host bounds what else can act on it instead.
        self._build_seq = clock._seq
        for time, _seq, handle, fn, args in early:
            heapq.heappush(clock._queue, (time, clock._seq, handle, fn, args))
            clock._seq += 1

    # -- run-time callbacks -------------------------------------------------

    def _release(self, runtime: _TaskRuntime) -> None:
        if runtime.task.index in self.skip_tasks:
            return  # replayed from memo; completes via _complete_skipped
        on_start = self.on_start
        if on_start is not None:
            # The first release is the first build event to dispatch; its
            # entry has left the heap, so it is no longer the host's to
            # cancel.
            self.on_start = None
            self._build_handles.remove(self._start_handle)
            if on_start(self):
                return
        runtime.released_at = self.clock.now
        for process in runtime.processes:
            process.release()

    def _process_done(self, runtime: _TaskRuntime, process: OperationProcess) -> None:
        runtime.done_processes += 1
        if runtime.done_processes < len(runtime.processes):
            return
        total = ordered_sum(p.out_total for p in runtime.processes)
        self._task_complete(runtime, total, len(runtime.processes))

    def _complete_skipped(self, runtime: _TaskRuntime) -> None:
        """Replay a reused task's stored result at query start."""
        if self.aborted_reason is not None:
            return
        runtime.released_at = self.clock.now
        self._task_complete(
            runtime, runtime.derived.result_total, runtime.task.parallelism
        )

    def _task_complete(
        self, runtime: _TaskRuntime, total: float, producers: int
    ) -> None:
        runtime.completion = self.clock.now
        if runtime.output_group is not None and not runtime.output_pipelined:
            runtime.output_group.deliver_store(self.clock, total, producers)
        for dependent in runtime.dependents:
            dependent.remaining_deps -= 1
            if dependent.remaining_deps == 0:
                self._release(dependent)
        self._completed_tasks += 1
        if self._completed_tasks == len(self.runtimes):
            self.finished_at = self.clock.now
            if self._deadline_handle is not None:
                self._deadline_handle.cancel()
            if self.on_complete is not None:
                self.on_complete(self)

    # -- lifecycle and fault handling -------------------------------------

    def _deadline_expired(self) -> None:
        """The deadline fired before the query finished: crash-stop it
        through the same inert-process machinery faults use."""
        if self.finished_at is not None or self.aborted_reason is not None:
            return
        self.abort("deadline")

    def abort(self, reason: str) -> None:
        """Crash-stop the whole query: every process becomes inert, so
        all of its already-queued events are no-ops and the shared clock
        drains past the wreck instead of deadlocking on half-finished
        pipelines.  Idempotent; a no-op after normal completion."""
        if self.finished_at is not None or self.aborted_reason is not None:
            return
        runtimes = self.runtimes  # builds the graph: its processes go inert
        self.aborted_reason = reason
        self.aborted_at = self.clock.now
        if self._deadline_handle is not None:
            self._deadline_handle.cancel()
        for runtime in runtimes:
            for process in runtime.processes:
                process.abort()

    # -- execution ------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run to completion and package the result."""
        if not self._owns_clock:
            raise RuntimeError(
                "hosted simulations share an external clock; drive that "
                "clock and collect the result from on_complete/result()"
            )
        self.analytic = turbo.execute(self)
        if not self.analytic:
            self.clock.run()  # builds the graph first
        if self.aborted_reason is not None:
            raise QueryAbortedError(self.aborted_reason, self.aborted_at or 0.0)
        return self.result()

    def result(self) -> SimulationResult:
        """Package the finished run as a :class:`SimulationResult`.

        Response time is relative to ``start_at`` — for an owned run
        exactly the paper's measure, for a hosted run the query's
        service time on the shared machine.  On shared processors only
        the run's own busy intervals (:meth:`own_intervals`) are
        attributed to the query.  A run turbo computed before its graph
        was built is packaged from turbo's outcome, building nothing.
        """
        if self.aborted_reason is not None:
            raise QueryAbortedError(self.aborted_reason, self.aborted_at or 0.0)
        outcome = None if self._built else self._outcome
        if outcome is None:
            rows = []
            for runtime in self.runtimes:
                starts = [
                    p.start_time for p in runtime.processes if p.start_time is not None
                ]
                rows.append((
                    runtime.released_at,
                    min(starts) if starts else None,
                    runtime.completion,
                ))
            root = [p.out_total for p in self.runtimes[-1].processes]
        else:
            rows, finals, _cpus = outcome
            root = [final[2] for final in finals[-1]]
        return SimulationResult.build(
            self.schedule,
            self.config,
            self.start_at,
            rows,
            self.own_intervals(),
            self.clock.events_dispatched,
            ordered_sum(root),
            sum(
                len(spec.processors)
                for spec in self.derived
                if spec.index not in self.skip_tasks
            ),
        )

    def own_intervals(self) -> Dict[int, List[Tuple[float, float, str]]]:
        """This run's busy intervals, per logical processor.

        An owned run is alone on its processors, so everything is its
        own; on a shared pool the run reads back exactly the spans it
        recorded — never its neighbours' — so the cost is proportional
        to its own work, not to how long the machine has been serving.
        Valid mid-run too: an aborted attempt's burnt CPU is the sum
        over this.
        """
        if not self._built and self._outcome is not None:
            cpus = self._outcome[2]
            return {ident: list(cpus[ident].intervals) for ident in sorted(cpus)}
        spans = self._spans if self._pool is not None else None
        return {
            ident: list(processor.intervals if spans is None else spans[ident])
            for ident, processor in sorted(self.processors.items())
        }


def simulate(
    schedule: ParallelSchedule,
    catalog: Catalog,
    config: Optional[MachineConfig] = None,
    *,
    cost_model: Optional[CostModel] = None,
    skew_theta: float = 0.0,
    faults=None,
    deadline: Optional[float] = None,
) -> SimulationResult:
    """Build and run a :class:`ScheduleSimulation` in one call.

    ``faults`` accepts a :class:`repro.faults.FaultSchedule` (or a
    prepared :class:`repro.faults.FaultInjector`); a crash that hits
    the query raises :class:`QueryAbortedError` — recovery policies
    live in the workload engine, not here.  ``None`` stays on the exact
    fault-free code path.

    ``deadline`` bounds the query's simulated response time: a run
    still unfinished then raises :class:`QueryAbortedError` with
    ``reason="deadline"``.  A deadline the query beats is a strict
    no-op.

    A run with neither is first looked up in turbo's profile cache
    (:func:`repro.sim.turbo.replay`), keyed on the tasks' derivations,
    the machine constants and the cost coefficients — everything the
    build and turbo's eligibility read.  A hit builds nothing; a run
    turbo computed is remembered.
    """
    if config is None:
        config = MachineConfig.paper()
    if cost_model is None:
        cost_model = CostModel()
    derived = derive_tasks(schedule, catalog, cost_model, skew_theta)
    key = None
    if faults is None and deadline is None:
        key = (config, cost_model.base_coeff, cost_model.intermediate_coeff, derived)
        result = turbo.replay(key, schedule, config)
        if result is not None:
            return result
    sim = ScheduleSimulation(
        schedule, catalog, config, cost_model, skew_theta,
        deadline=deadline, derived=derived,
    )
    if faults is not None:
        from ..faults import FaultInjector

        injector = (
            faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
        )
        injector.attach_simulation(sim)
    result = sim.run()
    if key is not None and sim.analytic:
        turbo.remember(key, result)
    return result
