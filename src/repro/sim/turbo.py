"""Analytic fast path for owned, unperturbed simulations.

The classic :class:`~repro.sim.events.SimulationClock` dispatches every
batch arrival, CPU-chunk completion and handshake as a heap event —
roughly 3 µs of interpreter work per event.  For the paper's own
operating regime (one query, dedicated machine, no faults, no
deadline, infinite interconnect bandwidth) the dataflow graph is
*feed-forward*: a consumer never influences its producers, concurrent
tasks occupy disjoint processors, and tasks that do share processors
are barrier-ordered.  Under those conditions the global event heap is
pure overhead — every process can be simulated to completion with a
tight inline loop, in topological task order, replaying the exact
floating-point operations (and the exact logical event count) of the
event-driven run.

:func:`execute` checks eligibility and either simulates the whole run
analytically (returning ``True``) or declines (returning ``False``) so
the caller falls back to the event loop.  Ineligible runs — hosted
(workload) queries, fault injection, deadlines, finite bandwidth,
watchdogs, skip-replay — keep the classic path, whose behaviour this
module must match bit for bit.  The golden-identity fixtures under
``tests/golden/`` and the deadline/fault byte-identity tests pin that
equivalence continuously.

Turbo reads no process or port.  :func:`_tasks` makes one flat record
per task from its :class:`~repro.sim.run.TaskDerivation` — the task's
constants; a process is that record plus its processor and share — and
:func:`_compute` interprets them on private processor traces
(:class:`_Cpu`), returning the outcome and writing nothing.  Both
entries commit it through one step, :func:`_compute_and_commit`.  An
owned simulation whose process graph was never built keeps the outcome
for its result, so an eligible owned run makes no process, port or
heap event at all; a simulation whose objects exist — a hosted one
always, an owned one something built — gets the outcome written into
them (:func:`write_back`), leaving them as the classic loop leaves a
finished run.

Correctness notes (why this reproduces the event loop exactly):

* **Float identity** — every arithmetic expression below mirrors the
  operand order of :mod:`repro.sim.process` / :mod:`repro.sim.streams`
  (e.g. ``(chunk * coeff + out * rc) * tuple_unit * work_scale``); no
  closed forms are used, because sequential float accumulation does
  not commute with algebraic simplification.
* **Event identity** — ``events_dispatched`` is reconstructed by
  logical accounting: one init per process, one release per
  unbarriered task, one handshake completion per nonzero handshake,
  one completion per CPU chunk, one arrival per emitted batch /
  end-of-stream / stored result.
* **Tie-breaking** — simultaneous events are ordered by the heap's
  push sequence in the classic run.  The loops replicate the cases
  that occur in practice: an arrival beats a completion at the same
  instant iff it was pushed earlier (its emit time precedes the
  chunk's start), lock-stepped sibling processes emit in process
  order, and build-time events (init/release) precede same-time
  arrivals.  The one case emit times cannot settle — an arrival
  emitted at the very instant a chunk started, landing as the chunk
  completes, so both were pushed at one instant in an order set by
  which callback ran first — is declined: nothing has been written, and
  the run stays on the event loop (``cache_stats()["tie_declines"]``).
  Configurations where ties are pervasive (zero startup, latency or
  handshake cost — e.g. ``MachineConfig.ideal()``) are declared
  ineligible and stay on the event loop.
* **One chunk step** — :func:`_run_process` is the classic process's
  kick/completion cycle as a single loop with one site per duty: a
  completion (absorb the arrivals the heap dispatches before it, then
  credit the chunk), the algorithm's chunk selection, and, when no
  chunk is selectable, either the finish (every arrival in and both
  sides closed: pay a materialized output's send-setup handshakes) or
  a wait for the next arrival.  Nothing else needs a loop of its own.
  Draining needs none: once chunks run back to back, ``max(now, busy)``
  is ``now`` and the interval merge holds, so the general step already
  performs a drain's float operations in a drain's order.  Arrivals
  before the start need none: a process with a streamed input pays one
  startup handshake per producer, and that completion absorbs them.

**Lock-step siblings** — the paper fragments every operand uniformly
over a join's processors, so the processes of one task are the same
process run on the same arrival timeline, staggered only by the
scheduler's serial start-up.  :func:`_compute` therefore simulates the
first process of such a task in full (the *leader*, recording a
:class:`_Lead`) and gives each later sibling only the part of the run in
which it can differ: the sibling runs the same :func:`_run_process`
code until its complete dynamic state is ``==`` to one the leader
recorded at a *rendezvous point*, then takes the leader's tail
(:func:`_inherit`) and returns.  There are two rendezvous sites.  At
**start**, before anything is absorbed, the whole state is the start
time: siblings a barrier releases together (SP, SE, most of RD) meet
there and are never interpreted at all.  At **idle**, when no chunk is
selectable and the clock is about to be reset to the next arrival's
time — the one place a staggered sibling's clock rejoins a shared value
— the state is ``(ei, off, b_pend, p_pend, b_done, p_done, out_total,
cur_e)``: the position in the timeline (run and copy), what is pending
and done on each side, the output accumulator, and the end of the open
busy interval (the next chunk's interval-merge test reads it).  What
the comparison leaves out is implied by what it holds: end-of-stream
counts and the closed flags are functions of the position, the open
interval's label of whether anything was processed; ``busy`` is checked
to lie at or before the shared arrival instead of being compared,
because from there on ``max(now, busy)`` is ``now``.  A sibling keeps
what is its own — ``start_time``, base-fragment ``first_arrival``
(functions of its start), the start of the interval open at the
rendezvous, its delivery order and emission ranks — and a sibling that
never meets its leader has simply been simulated in full: no second
code path, no tolerance, no fallback.
Skewed shares are pairwise distinct, so skewed tasks have no leader and
run exactly as before.

**Sibling runs** — what a follower inherits is not copied.  It is
entered in the leader's ``followers`` with the point it met the leader
at and its own ``porder`` and rank shift, and each leader emission
counts the siblings that share it as *copies* of itself
(:func:`_share`).  A consumer's timeline is built once per task as runs
(:func:`_timeline`): one entry and a copy count for arrivals the heap
dispatches back to back.  Where another emission shares a run's
instant, the heap interleaves them by delivery order, so that instant
is expanded copy by copy and folded again.  The consumer keeps the
classic order exactly: a completion absorbs a run by adding its share
once per copy, in sequence; an idle process absorbs one copy and
queues the rest behind its chunk.  Work grows with distinct emissions,
not with the replicas the paper's uniform fragmentation makes of them.

Turbo v2 adds two layers on top of the v1 interpreter:

* **Profile cache** — the analytic run is a pure function of each
  task's derivation (:class:`~repro.sim.run.TaskDerivation`: wiring,
  realized shares, per-side constants, work scale, result), the
  machine constants and the cost coefficients.
  :func:`repro.sim.run.simulate`, the one owned entry point, keys a
  bounded cache on them *before* building anything: a hit
  (:func:`replay`) returns the finished result without building a
  process, a port or a clock.  An entry holds the inputs
  :meth:`~repro.sim.metrics.SimulationResult.build` made the computed
  run's result from — per-task times, per-processor spans, event,
  result and process counts — plus the busy totals walked once when
  :func:`remember` stores it; a hit goes through that same builder,
  with strategy, labels and stream count from the caller's schedule.
  Equal key ⇒ equal build ⇒ equal floats, so a hit is bit-identical —
  this is what closes the FP gap, whose trickle interleaving dominates
  interpreter time.  Everything eligibility reads is in the key, so a stored key
  implies eligibility; :func:`execute` always computes.  The cache
  lives in this process only, so a changed chunk policy (a code
  change) always starts from an empty one; code that alters the
  process model at runtime calls :func:`clear_cache`.
* **Hosted epochs** — :func:`execute_hosted` runs a *hosted* (shared
  clock, processor pool, ``on_complete``) simulation analytically when
  its processors are idle and no pending event that can act on it is
  due before its completion.  Which events can act on it is the
  caller's knowledge: a workload engine that claims the processors for
  the query makes that only cancellations, however many other queries
  run beside it on other processors — plus, on a resilient cluster's
  shared clock, a crash of the query's shard and its hedge siblings;
  without claims, every pending event.  All arithmetic uses absolute
  times with ``start_at`` baked in — never rebased offsets, because
  float addition does not associate — so the result is bit-identical
  to the classic hosted run.  The epoch is committed only if its
  computed completion lies before the caller-supplied event barrier;
  past it, or at a same-instant tie, the computed run is dropped — it
  never left turbo's private traces, so there is nothing to undo — and
  the classic loop proceeds as if turbo had never looked.  The host
  takes that decision when the simulation's first build event
  dispatches (``ScheduleSimulation.on_start``), not when it builds it:
  by then everything its start instant holds before that event — the
  rest of the admitting callback, other completions at the same
  instant — has happened and is visible to the host.
"""

from __future__ import annotations

from itertools import compress, islice
from operator import eq, itemgetter
from typing import Dict, List, Optional, Tuple

from ..core.numeric import ordered_sum
from .machine import HANDSHAKE_SUFFIX
from .metrics import SimulationResult
from .streams import EPSILON

__all__ = [
    "execute",
    "execute_hosted",
    "replay",
    "remember",
    "clear_cache",
    "cache_stats",
]

_INF = float("inf")

#: Bounded profile cache: an owned run's key (:func:`repro.sim.run.simulate`)
#: -> what :func:`replay` makes its result from.
_PROFILE_CACHE: Dict[tuple, tuple] = {}
_PROFILE_CACHE_MAX = 128

_STATS = {
    "profile_hits": 0,
    "profile_misses": 0,
    "hosted_runs": 0,
    "hosted_rollbacks": 0,
    "sibling_runs": 0,
    "sibling_splices": 0,
    "timeline_entries": 0,
    "timeline_runs": 0,
    "tie_declines": 0,
}


class _SameInstantTie(Exception):
    """An arrival and a chunk completion were pushed at one simulated
    instant and land at one time: the heap orders them by which callback
    ran first, which the analytic run cannot see — decline the run."""


def clear_cache() -> None:
    """Drop every cached profile and zero the counters (tests, and any
    caller that mutated process-model semantics at runtime)."""
    _PROFILE_CACHE.clear()
    for key in _STATS:
        _STATS[key] = 0


def cache_stats() -> Dict[str, int]:
    """Counters since the last :func:`clear_cache`, plus the profile
    cache's size as ``profile_entries`` — turbo's only cache (copies;
    mutating the returned dict changes nothing)."""
    stats = dict(_STATS)
    stats["profile_entries"] = len(_PROFILE_CACHE)
    return stats

#: Sort rank placing a stored-result delivery after any (impossible)
#: same-time data batch of the same producer process.
_STORE_RANK = 1 << 30

#: A timeline run is ``(atime, emit, porder, rank, side, count, eos,
#: copies)``; these read its instant and its copy count in bulk.
_STAMP = itemgetter(0, 1)
_COPIES = itemgetter(7)


class _Task:
    """One join task as the interpreter reads it: its
    :class:`~repro.sim.run.TaskDerivation`, the constants the machine
    and its consumer add, and its place in the dataflow by task
    position.  Made per run by :func:`_tasks`; a process is this plus
    its processor and share."""

    __slots__ = (
        "derived", "start_after", "sources", "dependents", "side", "name",
        "hs_label", "simple", "bflag", "pipe_out", "stored_out", "h",
        "close_d", "config",
    )


class _Cpu:
    """One logical processor as the interpreter sees it: when it is next
    free, and the busy spans this run adds to it — the run's own until
    :func:`write_back` commits them to a :class:`~repro.sim.machine.Processor`."""

    __slots__ = ("busy_until", "intervals")

    def __init__(self, busy_until: float) -> None:
        self.busy_until = busy_until
        self.intervals: List[tuple] = []


def _tasks(sim) -> Optional[List[_Task]]:
    """Each task's :class:`_Task`, in schedule order, from the
    simulation's derivations alone; ``None`` if the wiring is one the
    interpreter does not support (a task with no processes or a
    repeated processor, a barrier or input naming no other task, a
    streamed input nothing feeds, a non-positive work scale)."""
    derived = sim.derived
    config = sim.config
    hs_unit = config.handshake
    pos_of = {d.index: i for i, d in enumerate(derived)}
    sources: List[List[Optional[int]]] = [[None, None] for _ in derived]
    for j, d in enumerate(derived):
        if d.consumer is not None:
            i = pos_of.get(d.consumer[0])
            if i is None or i == j:
                return None
            sources[i][d.consumer[1] == "right"] = j
    tasks = []
    for i, d in enumerate(derived):
        procs = d.processors
        if not procs or len(set(procs)) != len(procs) or d.work_scale <= 0:
            return None
        start_after = [pos_of.get(dep) for dep in d.start_after]
        if None in start_after or i in start_after:
            return None
        handshakes = 0
        for (mode, _coeff, producers, _total), source in zip((d.left, d.right), sources[i]):
            if mode != "base":
                if source is None:
                    return None
                handshakes += producers
        task = _Task()
        task.derived = d
        task.start_after = start_after
        task.sources = sources[i]
        task.dependents = []
        task.name = name = f"{sim.label_prefix}J{d.index}"
        task.hs_label = name + HANDSHAKE_SUFFIX
        task.simple = d.algorithm == "simple"
        task.bflag = 1 if task.simple and d.build_side == "right" else 0
        task.config = config
        task.side = 0
        task.pipe_out = task.stored_out = False
        task.close_d = 0.0
        if d.consumer is not None:
            index, side = d.consumer
            consumer = derived[pos_of[index]]
            width = len(consumer.processors)
            task.side = 1 if side == "right" else 0
            if (consumer.right if task.side else consumer.left)[0] == "pipelined":
                task.pipe_out = True
                handshakes += width
            else:
                task.stored_out = True
                task.close_d = width * hs_unit
        task.h = handshakes * hs_unit
        tasks.append(task)
    for i, task in enumerate(tasks):
        for j in task.start_after:
            tasks[j].dependents.append(i)
    return tasks


def _topo_order(tasks: List[_Task]) -> Optional[List[int]]:
    """Order tasks so every barrier predecessor and dataflow source
    precedes its dependents, and verify that tasks *not* ordered by
    barriers occupy disjoint processors — otherwise a per-task
    sequential simulation cannot reproduce the interleaved timeline.

    Returns task positions in simulation order, or ``None`` if the
    schedule's structure is unsupported.
    """
    n = len(tasks)
    all_preds = [
        task.start_after + [s for s in task.sources if s is not None]
        for task in tasks
    ]

    # Kahn's algorithm, stable by original position (determinism only;
    # independent tasks commute — they share no processors).
    remaining = [len(set(preds)) for preds in all_preds]
    dependents: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in set(all_preds[i]):
            dependents[j].append(i)
    order = [i for i in range(n) if remaining[i] == 0]
    head = 0
    while head < len(order):
        for k in dependents[order[head]]:
            remaining[k] -= 1
            if remaining[k] == 0:
                order.append(k)
        head += 1
    if len(order) != n:
        return None  # cycle: broken schedule, let the event loop report

    # Happens-before closure over barriers only; pipelined dataflow
    # runs concurrently, so it creates no ordering for this check.
    ancestors = [0] * n
    for i in order:
        mask = 0
        for j in tasks[i].start_after:
            mask |= (1 << j) | ancestors[j]
        ancestors[i] = mask
    procsets = [frozenset(task.derived.processors) for task in tasks]
    for a in range(n):
        mask_a = ancestors[a]
        mine = procsets[a]
        for b in range(a):
            if not (mask_a >> b) & 1 and not (ancestors[b] >> a) & 1:
                if mine & procsets[b]:
                    return None
    return order


def _plan(sim) -> Optional[tuple]:
    """Checks shared by owned and hosted eligibility, and what the run
    is computed from: ``(tasks, order, cpus)``, or ``None``.  Clock
    ownership and the time origin are checked by the callers.

    Everything read here is in the derivations, the config, the cost
    model and the network — the profile cache's key — except on a
    simulation whose objects exist, whose processors must also be
    stall-free and idle by its start (shared processors carry history
    from earlier queries; label prefixes keep traces disjoint)."""
    if sim.deadline is not None or sim.skip_tasks or sim.perturbed:
        return None
    if sim.aborted_reason is not None:
        return None
    network = sim.network
    if network.faults is not None or network.bandwidth != _INF:
        return None
    config = sim.config
    # Zero-overhead configs make simultaneous events pervasive; the
    # tie-break replication below only covers staggered schedules.
    if (
        config.process_startup <= 0
        or config.network_latency <= 0
        or config.handshake <= 0
        or config.tuple_unit <= 0
    ):
        return None
    # Likewise a free operand (coefficient <= 0), which makes chunks
    # take zero time.  A safety guard: whether the chunk loop below is
    # exact for zero-duration chunks has never been verified.
    cost_model = sim.cost_model
    if cost_model.base_coeff <= 0 or cost_model.intermediate_coeff <= 0:
        return None
    tasks = _tasks(sim)
    if tasks is None:
        return None
    order = _topo_order(tasks)
    if order is None:
        return None
    if sim._built:
        start_at = sim.start_at
        cpus = {}
        for ident, processor in sim.processors.items():
            if processor.stalls or processor.busy_until > start_at:
                return None
            cpus[ident] = _Cpu(processor.busy_until)
    else:
        cpus = {
            ident: _Cpu(0.0) for task in tasks for ident in task.derived.processors
        }
    return tasks, order, cpus


def _eligible(sim) -> Optional[tuple]:
    """:func:`_plan` of an *owned* ``sim`` that can run analytically,
    else ``None``."""
    clock = sim.clock
    if not sim._owns_clock or sim._pool is not None:
        return None
    if sim.on_complete is not None:
        return None
    if clock.watchdog is not None:
        return None
    if clock.now != 0.0 or clock.events_dispatched != 0:
        return None
    # Events scheduled on the clock besides the graph's own would
    # interleave with the analytic run — decline.
    if clock._seq != sim._build_seq:
        return None
    return _plan(sim)


def _eligible_hosted(sim) -> Optional[tuple]:
    """Eligibility for a *hosted* simulation none of whose events has
    run yet (freshly built, or in its ``on_start`` hook): external clock
    at exactly ``start_at``, shared pool with idle processors.  A
    watchdog is allowed — it only observes dispatches, and an epoch
    dispatches at most its first build event and its completion."""
    if sim._owns_clock or sim._pool is None:
        return None
    if sim.on_complete is None:
        return None
    if sim.clock.now != sim.start_at:
        return None
    return _plan(sim)


class _Lead:
    """The first process of a lock-step task, as its siblings see it.

    A task whose fragment shares are all equal runs the same process on
    every processor: same constants, same arrival timeline, staggered
    only by the scheduler's serial start-up.  The leader is simulated in
    full and leaves, per rendezvous point, how far its outputs had got;
    a sibling that reaches one of those points in the same state has the
    leader's future, to the bit.
    """

    __slots__ = (
        "points", "final", "busy", "width", "nemit", "intervals", "ncomp",
        "followers",
    )

    def __init__(self, width: int) -> None:
        #: Dynamic state at a rendezvous -> the leader's ``(emissions,
        #: intervals, completions)`` counts there.
        self.points: Dict[tuple, Tuple[int, int, int]] = {}
        #: The leader's final state (:func:`_run_process`), once it has
        #: finished, and its processor's busy time then.  The three
        #: below are its own outputs, whole.
        self.final: Optional[tuple] = None
        self.busy = 0.0
        #: Processes in the task: the copy count the leader gives its
        #: emissions until the followers say otherwise (:func:`_share`).
        self.width = width
        self.nemit = 0
        self.intervals: List[tuple] = []
        self.ncomp = 0
        #: ``(start, porder, shift)`` per follower that met the leader:
        #: it shares the leader's emissions from index ``start`` on, in
        #: its own delivery order ``porder``, each rank moved by ``shift``.
        self.followers: List[Tuple[int, int, int]] = []


def _inherit(
    cpu: _Cpu,
    lead: _Lead,
    at: Tuple[int, int, int],
    nown: int,
    porder: int,
    ncomp: int,
    open_start: float,
    open_label: Optional[str],
    own: Tuple[float, Optional[float], Optional[float]],
) -> Tuple[int, int, tuple]:
    """Finish a process with the part of its leader's run that follows
    the rendezvous ``at`` — the one definition of what a sibling takes
    from its leader, whichever site they met at.

    Shared from the rendezvous on: every emission's times and count,
    every busy interval, the completion count still to come, and the
    final port and process state.  The sibling's own: its delivery
    order ``porder``, emission ranks that continue its own count of
    ``nown`` (the consumer's timeline breaks same-instant ties on them),
    the start of the interval open at the rendezvous — siblings agree
    on where it ends, not on when it began — and ``own``, its start
    time and first arrivals.  The emissions are not copied: the sibling
    is entered in ``lead.followers``, and each leader emission from the
    rendezvous on counts it as one more copy of itself (:func:`_share`).
    """
    nemit_at, nspan_at, ncomp_at = at
    lead.followers.append((nemit_at, porder, nown - nemit_at))
    spans = lead.intervals[nspan_at:]
    if spans:
        # No span means no interval open here and no CPU time after:
        # neither process ever ran, and this one's processor is as it was.
        if open_label is not None:
            # The leader's next span closes the interval open here.
            _, end, label = spans[0]
            spans[0] = (open_start, end, label)
        cpu.intervals += spans
        cpu.busy_until = lead.busy
    t_start, l_first, r_first = own
    _, done, out_total, l_pend, l_done, l_eos, _, r_pend, r_done, r_eos, _ = lead.final
    _STATS["sibling_splices"] += 1
    return (
        ncomp + lead.ncomp - ncomp_at,
        nown + lead.nemit - nemit_at,
        (t_start, done, out_total, l_pend, l_done, l_eos, l_first,
         r_pend, r_done, r_eos, r_first),
    )


def _run_process(
    task: _Task,
    cpu: _Cpu,
    share: float,
    t_start: float,
    entries: List[tuple],
    emissions: List[tuple],
    first_pos: Tuple[Optional[float], Optional[float]],
    porder: int,
    lead: Optional[_Lead] = None,
) -> Tuple[int, int, tuple]:
    """Simulate one operation process to completion: ``task``'s process
    on ``cpu`` with fragment share ``share``, started at ``t_start``.

    ``entries`` is the task-wide arrival timeline as runs —
    ``(atime, emit, porder, rank, side, count, eos, copies)`` tuples in
    the classic heap order (:func:`_timeline`), each standing for
    ``copies`` identical arrivals that the heap dispatches back to back;
    this process takes ``count * share`` of each batch.  A completion
    absorbs a whole run the heap dispatches before it, adding
    ``count * share`` once per copy, in sequence (never ``copies * c``:
    the float total would differ); end-of-stream counts are integers and
    are added at once.  An idle wait absorbs *one* copy, as the classic
    process does, and starts a chunk: the run splits there, and the
    position in the timeline is ``(ei, off)``, run and copy.
    ``first_pos`` holds the arrival time of the first positive-count
    entry per side (every entry is eventually received, so the port's
    ``first_arrival`` is a task-level constant and need not be tracked
    per apply).  Pipelined output batches are appended to ``emissions``
    already in consumer timeline form, decorated with the task's
    latency and consumer side and this process's delivery order
    ``porder``.  ``lead`` is the task's :class:`_Lead` when its
    processes run in lock step (``None`` otherwise): the first process
    through records its rendezvous points in it, each later one stops
    at the first point it shares and takes the rest of its run from
    there (:func:`_inherit`).

    Busy spans go to ``cpu``; nothing else is written.  Returns
    ``(completion_events, emission_count, final)``, where ``final`` is
    the finished process as :func:`write_back` writes it:
    ``(start_time, done_time, out_total)`` and, for the left then the
    right port, ``(pending, processed, eos_received, first_arrival)``.
    """
    busy = cpu.busy_until
    intervals = cpu.intervals
    nemit = 0  # this process's own emissions so far: the next one's rank

    # This process's own, however much of its run it inherits: its
    # start, and with it when a base fragment is first seen.  Base
    # fragments arrive at process start; streamed sides saw their first
    # positive batch at the precomputed task-wide time (a zero share
    # never registers an arrival, matching receive()).
    derived = task.derived
    l_mode, l_coeff, l_exp, l_total = derived.left
    r_mode, r_coeff, r_exp, r_total = derived.right
    l_total = l_total * share
    r_total = r_total * share
    if l_mode == "base":
        l_first = t_start if l_total > 0 else None
    else:
        l_first = first_pos[0] if share > 0.0 else None
    if r_mode == "base":
        r_first = t_start if r_total > 0 else None
    else:
        r_first = first_pos[1] if share > 0.0 else None

    # Rendezvous at start: nothing absorbed, nothing run — the whole
    # dynamic state is the start time.  Siblings a barrier releases
    # together all meet their leader here.
    if lead is None:
        points = None
        following = False
        imark = 0
        copies = 1
    else:
        points = lead.points
        following = lead.final is not None
        imark = len(intervals)
        # A leader's emission stands for every sibling until _share
        # counts the ones that actually met it.
        copies = 1 if following else lead.width
        if busy <= t_start:
            if following:
                at = points.get(t_start)
                if at is not None:
                    return _inherit(
                        cpu, lead, at, 0, porder, 0, 0.0, None,
                        (t_start, l_first, r_first),
                    )
            else:
                points[t_start] = (0, 0, 0)

    simple = task.simple
    bflag = task.bflag
    # Map left/right onto build/probe scalars (pipelining: b=left, p=right).
    if bflag:
        b_mode, b_coeff, b_exp, b_total = r_mode, r_coeff, r_exp, r_total
        p_mode, p_coeff, p_exp, p_total = l_mode, l_coeff, l_exp, l_total
    else:
        b_mode, b_coeff, b_exp, b_total = l_mode, l_coeff, l_exp, l_total
        p_mode, p_coeff, p_exp, p_total = r_mode, r_coeff, r_exp, r_total
    config = task.config
    tu = config.tuple_unit
    latency = config.network_latency
    side = task.side
    ws = derived.work_scale
    rc = derived.result_coeff
    batches = config.batches
    name = task.name
    hs_label = task.hs_label
    pipe_out = task.pipe_out
    close_d = task.close_d

    # A port's chunk cap: its fragment split into ``batches``.
    b_cap = _INF if b_total <= 0 else max(b_total / batches, EPSILON)
    p_cap = _INF if p_total <= 0 else max(p_total / batches, EPSILON)
    b_base = b_mode == "base"
    p_base = p_mode == "base"
    b_closed = b_base or b_exp <= 0
    p_closed = p_base or p_exp <= 0
    result_local = derived.result_total * share
    if simple:
        rl = result_local
        out_ok = p_total > 0
        density = 0.0
    else:
        # density == 0.0 whenever either total is zero, and the output
        # product ``chunk * done * 0.0`` is exactly +0.0 — no guard
        # needed at the emission sites.
        if b_total > 0 and p_total > 0:
            density = result_local / (b_total * p_total)
        else:
            density = 0.0
        rl = 0.0
        out_ok = False

    EPS = EPSILON
    b_done = 0.0  # "processed" accumulators
    p_done = 0.0
    b_eos = 0
    p_eos = 0
    out_total = 0.0
    ncomp = 0
    ei = 0  # the next run, and how many of its copies are already in
    off = 0
    en = len(entries)
    next_at = entries[0][0] if en else _INF
    # The chunk in flight.  The start handshake completes as an empty
    # one: adding +0.0 leaves an accumulator's bits as they are.
    chunk = 0.0
    out = 0.0
    on_build = False

    # Start: inject base fragments (into empty ports, so the pending
    # count is the fragment itself), then pay the startup handshakes.
    # Arrivals before the start need no step of their own: a streamed
    # side costs one handshake per producer, so h > 0 whenever there
    # are entries, and the handshake's completion absorbs every entry
    # due before it in heap order.  Entries only ever reach streamed
    # sides, so they commute with the injection.
    now = t_start
    b_pend = b_total if b_base and b_total > 0 else 0.0
    p_pend = p_total if p_base and p_total > 0 else 0.0
    h = task.h
    cur_l: Optional[str] = None  # the open busy interval
    cur_s = cur_e = 0.0
    completing = h > 0.0
    if completing:
        s = now if now >= busy else busy
        busy = cur_e = s + h
        cur_s = s
        cur_l = hs_label

    while True:
        if completing:
            # The CPU occupation started at ``now`` completes at
            # ``busy``.  Absorb the arrivals the heap dispatches before
            # it: strictly earlier, or same-time but pushed earlier
            # (emitted before the occupation started).
            if next_at <= busy:
                while ei < en:
                    ent = entries[ei]
                    ea = ent[0]
                    if ea >= busy:
                        if ea > busy or ent[1] > now:
                            break
                        if ent[1] == now:
                            # Both pushed at one instant: their order is
                            # which callback ran first, not visible here.
                            raise _SameInstantTie
                    c = ent[5] * share
                    n = ent[7] - off
                    off = 0
                    if ent[4] == bflag:
                        b_pend += c
                        if n > 1:
                            for _ in range(n - 1):
                                b_pend += c
                        k = ent[6]
                        if k:
                            b_eos += k * n
                            if b_eos >= b_exp:
                                b_closed = True
                    else:
                        p_pend += c
                        if n > 1:
                            for _ in range(n - 1):
                                p_pend += c
                        k = ent[6]
                        if k:
                            p_eos += k * n
                            if p_eos >= p_exp:
                                p_closed = True
                    ei += 1
                next_at = entries[ei][0] if ei < en else _INF
            now = busy
            ncomp += 1
            if on_build:
                b_done += chunk
            else:
                p_done += chunk
            if out > 0.0:
                out_total += out
                if pipe_out:
                    emissions.append(
                        (now + latency, now, porder, nemit, side, out, 0, copies)
                    )
                    nemit += 1
            completing = False

        # Select the next CPU chunk (algorithm hook, inlined).
        have = False
        if simple:
            if not (b_closed and b_pend <= EPS):
                chunk = b_pend if b_pend <= b_cap else b_cap
                b_pend -= chunk
                if b_pend < EPS:
                    b_pend = 0.0
                if chunk > 0.0:
                    have = True
                    on_build = True
                    out = 0.0
                    d = (chunk * b_coeff + out * rc) * tu * ws
            else:
                chunk = p_pend if p_pend <= p_cap else p_cap
                p_pend -= chunk
                if p_pend < EPS:
                    p_pend = 0.0
                if chunk > 0.0:
                    have = True
                    on_build = False
                    out = chunk * rl / p_total if out_ok else 0.0
                    d = (chunk * p_coeff + out * rc) * tu * ws
        else:
            if b_pend > EPS:
                if p_pend > EPS:
                    pb = b_done / b_total if b_total > 0 else 1.0
                    pp = p_done / p_total if p_total > 0 else 1.0
                    on_build = pb <= pp
                else:
                    on_build = True
                have = True
            elif p_pend > EPS:
                on_build = False
                have = True
            if have:
                if on_build:
                    chunk = b_pend if b_pend <= b_cap else b_cap
                    b_pend -= chunk
                    if b_pend < EPS:
                        b_pend = 0.0
                    out = chunk * p_done * density
                    d = (chunk * b_coeff + out * rc) * tu * ws
                else:
                    chunk = p_pend if p_pend <= p_cap else p_cap
                    p_pend -= chunk
                    if p_pend < EPS:
                        p_pend = 0.0
                    out = chunk * b_done * density
                    d = (chunk * p_coeff + out * rc) * tu * ws

        if have:
            s = now if now >= busy else busy
            e_t = s + d
            busy = e_t
            if d > 0.0:
                if cur_l == name and -1e-12 < s - cur_e < 1e-12:
                    cur_e = e_t
                else:
                    if cur_l is not None:
                        intervals.append((cur_s, cur_e, cur_l))
                    cur_s = s
                    cur_e = e_t
                    cur_l = name
            completing = True
            continue

        # No chunk selectable.  With every arrival in and both sides
        # closed the operands are drained: pay a materialized output's
        # send-setup handshakes, then report completion.
        if ei >= en:
            if not (b_closed and p_closed):
                raise RuntimeError(
                    f"turbo simulation starved in {name}: operands not drained "
                    "and no arrivals remain; schedule wiring bug"
                )
            if close_d > 0.0:
                s = now if now >= busy else busy
                e_t = s + close_d
                busy = e_t
                if cur_l == hs_label and -1e-12 < s - cur_e < 1e-12:
                    cur_e = e_t
                else:
                    if cur_l is not None:
                        intervals.append((cur_s, cur_e, cur_l))
                    cur_s = s
                    cur_e = e_t
                    cur_l = hs_label
                now = e_t
                ncomp += 1
            break
        # Otherwise wait for the next arrival: one copy of the next run.
        ent = entries[ei]
        # Rendezvous at idle: the clock is about to be reset to an
        # arrival time every sibling shares, and everything else the
        # rest of the run reads is in the key.
        if points is not None and busy <= ent[0]:
            key = (ei, off, b_pend, p_pend, b_done, p_done, out_total, cur_e)
            if following:
                at = points.get(key)
                if at is not None:
                    return _inherit(
                        cpu, lead, at, nemit, porder, ncomp, cur_s, cur_l,
                        (t_start, l_first, r_first),
                    )
            else:
                points[key] = (nemit, len(intervals) - imark, ncomp)
        off += 1
        if off == ent[7]:
            off = 0
            ei += 1
            next_at = entries[ei][0] if ei < en else _INF
        now = ent[0]
        c = ent[5] * share
        if ent[4] == bflag:
            b_pend += c
            k = ent[6]
            if k:
                b_eos += k
                if b_eos >= b_exp:
                    b_closed = True
        else:
            p_pend += c
            k = ent[6]
            if k:
                p_eos += k
                if p_eos >= p_exp:
                    p_closed = True

    if cur_l is not None:
        intervals.append((cur_s, cur_e, cur_l))
    cpu.busy_until = busy

    if bflag:
        final = (t_start, now, out_total, p_pend, p_done, p_eos, l_first,
                 b_pend, b_done, b_eos, r_first)
    else:
        final = (t_start, now, out_total, b_pend, b_done, b_eos, l_first,
                 p_pend, p_done, p_eos, r_first)
    if points is not None and not following:
        lead.final = final
        lead.busy = busy
        lead.nemit = nemit
        lead.intervals = intervals[imark:]
        lead.ncomp = ncomp
    return ncomp, nemit, final


def _share(emissions: List[tuple], lead: _Lead) -> None:
    """Give each of the leader's emissions its copy count: one for the
    leader and one per follower that met it at or before that emission
    (``_Lead.followers``).  The leader wrote them counting every sibling
    (``lead.width``); only the stretches a follower missed are
    rewritten, so a task whose siblings all meet at the start costs
    nothing here.  The leader ran first: its emissions open the list,
    rank ``j`` at index ``j``."""
    width = lead.width
    bounds = sorted(start for start, _, _ in lead.followers)
    bounds.append(lead.nemit)
    lo = 0
    for copies, hi in enumerate(bounds, 1):
        if lo < hi and copies != width:
            emissions[lo:hi] = [
                (atime, emit, porder, rank, side, count, eos, copies)
                for atime, emit, porder, rank, side, count, eos, _ in emissions[lo:hi]
            ]
        lo = hi


def _timeline(
    entries: List[tuple], followers_of: Dict[int, List[Tuple[int, int, int]]]
) -> List[tuple]:
    """A consumer's arrival timeline: its producers' emissions in the
    classic heap order — ``(atime, emit, porder, rank)`` — as runs of
    identical arrivals dispatched back to back.

    A leader's emission with ``copies > 1`` stands for its own arrival
    and its followers', which share ``(atime, emit)`` and differ only in
    delivery order and rank.  When no other emission shares that instant
    they are adjacent in heap order, and the run is already right.  When
    another does, the heap interleaves them by ``(porder, rank)``: every
    emission at that instant is expanded into its copies, ordered, and
    folded back into runs of equal ``(side, count, eos)``.  ``entries``
    is sorted in place."""
    entries.sort()
    stamps = list(map(_STAMP, entries))
    ties = list(compress(range(len(stamps)), map(eq, stamps, islice(stamps, 1, None))))
    if ties:
        entries = _split_instants(entries, ties, followers_of)
    _STATS["timeline_runs"] += len(entries)
    _STATS["timeline_entries"] += sum(map(_COPIES, entries))
    return entries


def _split_instants(
    entries: List[tuple],
    ties: List[int],
    followers_of: Dict[int, List[Tuple[int, int, int]]],
) -> List[tuple]:
    """``entries`` with every group of emissions sharing one
    ``(atime, emit)`` — ``ties`` holds each index whose successor has
    the same stamp — replaced by its copies in heap order, folded into
    runs of equal ``(side, count, eos)``."""
    out: List[tuple] = []
    done = 0
    t, nt = 0, len(ties)
    while t < nt:
        lo = hi = ties[t]
        t += 1
        while t < nt and ties[t] == hi + 1:
            hi += 1
            t += 1
        out += entries[done:lo]
        done = hi + 2
        copies = []
        for ent in entries[lo:done]:
            porder, rank = ent[2], ent[3]
            copies.append((porder, rank, ent))
            if ent[7] > 1:
                for start, fporder, shift in followers_of[porder]:
                    if start <= rank:
                        copies.append((fporder, rank + shift, ent))
        copies.sort()  # (porder, rank) is unique: entries never compared
        last = None
        for porder, rank, ent in copies:
            if last is not None and (ent is last or (
                ent[4] == last[4] and ent[5] == last[5] and ent[6] == last[6]
            )):
                n += 1
                continue
            if last is not None:
                out.append(head + (n,))
            last = ent
            head = (ent[0], ent[1], porder, rank, ent[4], ent[5], ent[6])
            n = 1
        out.append(head + (n,))
    out += entries[done:]
    return out


def _compute(
    tasks: List[_Task],
    order: List[int],
    cpus: Dict[int, _Cpu],
    start_at: float,
    config,
) -> tuple:
    """The analytic interpreter: simulate every task in ``order`` on
    ``cpus``.  Returns ``(finished_at, nevents, transferred, rows,
    finals)``: per task, in schedule order, ``(released, first_work,
    completion)`` and its processes' :func:`_run_process` finals.
    Nothing else is written — :func:`_compute_and_commit` commits the
    run to the simulation, or discards it."""
    latency = config.network_latency
    startup = config.process_startup

    # Global init order: the scheduler claims processes serially, so
    # a process's sequence number is its task's offset plus its place.
    seq_before = []
    seq = 0
    for task in tasks:
        seq_before.append(seq)
        seq += len(task.derived.processors)

    nevents = 0
    released: List[Optional[float]] = []
    for task in tasks:
        if task.start_after:
            released.append(None)
        else:
            released.append(start_at)
            nevents += 1  # the release event at query start

    emissions_of: List[List[tuple]] = [[] for _ in tasks]
    # A leader's delivery order -> its followers (``_Lead.followers``).
    followers_of: Dict[int, List[Tuple[int, int, int]]] = {}
    rows: List[Optional[tuple]] = [None] * len(tasks)
    finals: List[Optional[List[tuple]]] = [None] * len(tasks)
    transferred = 0.0
    finished_at = 0.0

    for ti in order:
        task = tasks[ti]
        rel = released[ti]
        if rel is None:  # pragma: no cover - excluded by _topo_order
            raise RuntimeError(f"turbo: task at {ti} never released")

        # The task-wide arrival timeline, in classic heap order.
        lsrc, rsrc = task.sources
        if lsrc is not None:
            entries = emissions_of[lsrc]
            if rsrc is not None:
                entries = entries + emissions_of[rsrc]
        elif rsrc is not None:
            entries = emissions_of[rsrc]
        else:
            entries = []
        if entries:
            entries = _timeline(entries, followers_of)
        fp0: Optional[float] = None
        fp1: Optional[float] = None
        for ent in entries:
            if ent[5] > 0.0:
                if ent[4]:
                    if fp1 is None:
                        fp1 = ent[0]
                        if fp0 is not None:
                            break
                elif fp0 is None:
                    fp0 = ent[0]
                    if fp1 is not None:
                        break
        first_pos = (fp0, fp1)

        shares = task.derived.shares
        out_side = task.side
        pipe_flag = task.pipe_out
        task_emissions: List[tuple] = []
        task_finals: List[tuple] = []
        procs = task.derived.processors
        nprocs = len(procs)

        # Equal shares make the task's processes the same process,
        # staggered: the first leads, the rest follow it (see _Lead).
        # Skewed shares are pairwise distinct — nothing to share.
        lead = None
        met = 0  # followers that met the leader
        if nprocs > 1:
            s0 = shares[0]
            if all(sh == s0 for sh in shares):
                lead = _Lead(nprocs)
                _STATS["sibling_runs"] += nprocs - 1
        # ``(done, porder, emissions)`` of each process that owns its
        # end of stream; a follower that met its leader shares the
        # leader's, as it shares the leader's emissions.
        ends: List[Tuple[float, int, int]] = []
        porder = seq_before[ti]
        for ident, share in zip(procs, shares):
            porder += 1
            init_t = start_at + porder * startup
            t_start = init_t if init_t >= rel else rel
            ncomp, nemit, final = _run_process(
                task,
                cpus[ident],
                share,
                t_start,
                entries,
                task_emissions,
                first_pos,
                porder,
                lead,
            )
            task_finals.append(final)
            nevents += 1 + ncomp  # init_ready + hs/chunk completions
            if lead is not None and len(lead.followers) > met:
                met += 1
            else:
                ends.append((final[1], porder, nemit))
            if pipe_flag:
                nevents += nemit + 1  # batch arrivals + EOS arrival
                transferred += final[2]
        if pipe_flag:
            if lead is not None:
                _share(task_emissions, lead)
                if met:
                    followers_of[seq_before[ti] + 1] = lead.followers
            # The first end is the leader's (or a lone process's): it
            # stands for every follower too.
            copies = 1 + met
            for done_t, eporder, nemit in ends:
                task_emissions.append((
                    done_t + latency, done_t, eporder, nemit, out_side, 0.0, 1, copies
                ))
                copies = 1

        completion = max(final[1] for final in task_finals)
        rows[ti] = (rel, min(final[0] for final in task_finals), completion)
        finals[ti] = task_finals
        if completion > finished_at:
            finished_at = completion
        if task.stored_out:
            total = ordered_sum(final[2] for final in task_finals)
            task_emissions.append(
                (
                    completion + latency,
                    completion,
                    porder,  # the task's last process
                    _STORE_RANK,
                    out_side,
                    total,
                    nprocs,
                    1,
                )
            )
            transferred += total
            nevents += 1  # the stored-result arrival
        emissions_of[ti] = task_emissions

        for dpos in task.dependents:
            prev = released[dpos]
            if prev is None or completion > prev:
                released[dpos] = completion

    return finished_at, nevents, transferred, rows, finals


def write_back(sim, outcome: tuple) -> None:
    """Commit a computed run to ``sim``'s objects, leaving them as the
    classic loop leaves a finished run: processor traces and busy times
    (and, hosted, the run's own spans), each task's times and counts,
    and every process's lifecycle and ports.  ``outcome`` is
    ``(rows, finals, cpus)`` from :func:`_compute` and the cpus it ran
    on.  A hosted epoch commits only once its completion is known to
    beat its barrier, so there is never anything to undo."""
    rows, finals, cpus = outcome
    processors = sim.processors
    spans = sim._spans if sim._pool is not None else None
    for ident, cpu in cpus.items():
        processor = processors[ident]
        processor.intervals += cpu.intervals
        processor.busy_until = cpu.busy_until
        if spans is not None:
            spans[ident] += cpu.intervals
    for rt, (released, _first_work, completion), task_finals in zip(
        sim.runtimes, rows, finals
    ):
        rt.released_at = released
        rt.completion = completion
        rt.done_processes = len(rt.processes)
        rt.remaining_deps = 0
        for proc, final in zip(rt.processes, task_finals):
            _finish(proc, final)


def _finish(proc, final: tuple) -> None:
    """Leave ``proc`` and its ports as the classic loop leaves a
    finished process, from its :func:`_run_process` final."""
    left = proc.left
    right = proc.right
    (
        proc.start_time, proc.done_time, proc.out_total,
        left.pending, left.processed, left.eos_received, left.first_arrival,
        right.pending, right.processed, right.eos_received, right.first_arrival,
    ) = final
    proc.ready = proc.released = proc.started = True
    proc.closing = proc.done = True
    proc.cpu_busy = False


def _compute_and_commit(sim, plan: tuple, barrier: float) -> Optional[int]:
    """Compute ``sim``'s run on ``plan``'s private traces
    (:func:`_compute`) and commit it, unless the run meets a
    same-instant tie (``tie_declines``) or would not finish strictly
    before ``barrier`` (``hosted_rollbacks``): a declined run writes
    nothing.  Committing writes the outcome into ``sim``'s objects
    (:func:`write_back`) if they exist, else keeps it as
    ``sim._outcome``, and sets the network's transfer total, the
    completed-task count and ``finished_at``.  Returns the run's logical
    event count, or ``None`` if declined."""
    tasks, order, cpus = plan
    try:
        finished_at, nevents, transferred, rows, finals = _compute(
            tasks, order, cpus, sim.start_at, sim.config
        )
    except _SameInstantTie:
        _STATS["tie_declines"] += 1
        return None
    if finished_at >= barrier:
        _STATS["hosted_rollbacks"] += 1
        return None
    outcome = (rows, finals, cpus)
    if sim._built:
        write_back(sim, outcome)
    else:
        sim._outcome = outcome
    sim.network.transferred += transferred
    sim._completed_tasks = len(tasks)
    sim.finished_at = finished_at
    return nevents


def execute(sim) -> bool:
    """Analytically simulate an *owned* ``sim`` if eligible.  Returns
    ``True`` on success (the simulation is complete, results identical
    to the event loop's); ``False`` declines without touching any
    state.  The outcome is committed as :func:`_compute_and_commit`
    says, for :meth:`~repro.sim.run.ScheduleSimulation.result`."""
    plan = _eligible(sim)
    if plan is None:
        return False
    nevents = _compute_and_commit(sim, plan, _INF)
    if nevents is None:
        return False
    clock = sim.clock
    clock.now = sim.finished_at
    clock.events_dispatched += nevents
    # A built graph's init/release events were simulated analytically,
    # never popped; drop them so pending() reflects reality.
    clock._queue.clear()
    return True


# -- the profile cache ----------------------------------------------------


def replay(key: tuple, schedule, config) -> Optional[SimulationResult]:
    """The result of an owned run of ``schedule`` whose key
    :func:`remember` was given, or ``None`` — counted as a hit or a
    miss.  The key says how the run went; the schedule and the config
    say what the caller asked for (strategy, labels, stream count), so
    :meth:`SimulationResult.build`, which built the remembered run's
    result, builds the caller's from the stored inputs (an owned run
    starts at 0.0).  The lists handed out are fresh: a caller may
    mutate them."""
    entry = _PROFILE_CACHE.get(key)
    if entry is None:
        _STATS["profile_misses"] += 1
        return None
    _STATS["profile_hits"] += 1
    rows, spans, events, result_tuples, processes, busy = entry
    result = SimulationResult.build(
        schedule, config, 0.0, rows,
        {ident: list(own) for ident, own in spans},
        events, result_tuples, processes,
    )
    result._busy = busy  # the cached property, as the first walk left it
    return result


def remember(key: tuple, result: SimulationResult) -> None:
    """Keep what :func:`replay` needs of a result turbo computed: the
    inputs :meth:`SimulationResult.build` made it from — per task its
    released / first-work / completion times, per processor its spans,
    the event and result-tuple counts and the operation-process count —
    and the busy totals, walked once here.  FIFO eviction at
    :data:`_PROFILE_CACHE_MAX` entries."""
    if len(_PROFILE_CACHE) >= _PROFILE_CACHE_MAX:
        _PROFILE_CACHE.pop(next(iter(_PROFILE_CACHE)))
    _PROFILE_CACHE[key] = (
        tuple(
            (timing.released, timing.first_work, timing.completion)
            for timing in result.task_timings
        ),
        tuple((ident, tuple(own)) for ident, own in result.intervals.items()),
        result.events,
        result.result_tuples,
        result.operation_processes,
        result._busy,
    )


# -- hosted epochs ------------------------------------------------------


def execute_hosted(sim, barrier: float) -> Optional[float]:
    """Analytically execute a *hosted* simulation none of whose events
    has run yet as one epoch: from its start to its completion in a
    single step.  The workload engine calls it from the simulation's
    ``on_start`` hook, as its first build event dispatches, so that
    everything its admission instant holds before that event has
    happened.

    ``barrier`` is the earliest simulated time at which a pending event
    that can act on this query is due, the query's own build events
    aside.  The caller vouches that nothing else touches the query's
    processors or reads its state before its completion event: a query
    alone on the machine (every pending event is then a barrier), or
    alone on processors its host claimed for it (a cancellation is; on
    a resilient cluster's clock also its shard's next crash and the
    committed completion of a hedge sibling).  A caller may *speculate*
    — take a barrier it cannot prove, such as a queued hedge sibling
    not acting first — as long as it detects the miss (the workload
    engine's abort guard raises) and discards the run.  If the
    analytically computed completion lies strictly before the barrier,
    the state is committed, the simulation's remaining build events are
    cancelled, and one completion event is scheduled at the finish
    instant to run ``on_complete`` (so the caller's completion logic
    executes at the same clock time as in the classic run, and its
    effects reach other queries only from there).  That event is pushed
    now, where the classic run pushes it from the query's last task: at
    its instant it dispatches ahead of events pushed meanwhile, so the
    caller also keeps such ties out (the workload engine's structural
    one — twin queries admitted at one instant, finishing at one
    instant — by keeping a query classic when a classic query was
    admitted before it at that instant, or any query was admitted onto
    processors still busy, on any engine of the clock).
    Otherwise — or at a same-instant tie — ``None`` is returned,
    nothing having been written (:func:`_compute_and_commit`): the
    classic event loop takes over with the build events still armed.

    ``clock.events_dispatched`` is deliberately left untouched: the
    classic loop only folds its dispatch count in when ``run()``
    returns, so mid-drain observers (``result()`` included) see the
    pre-drain value on both paths.
    """
    plan = _eligible_hosted(sim)
    if plan is None:
        return None
    _STATS["hosted_runs"] += 1
    # The processors are this query's alone until its completion
    # releases them.
    if _compute_and_commit(sim, plan, barrier) is None:
        return None
    finished_at = sim.finished_at
    for handle in sim._build_handles:
        handle.cancel()
    sim.clock.at(finished_at, sim.on_complete, sim)
    return finished_at
