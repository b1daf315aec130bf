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
  which callback ran first — is declined: the run rolls back and stays
  on the event loop (``cache_stats()["tie_declines"]``).
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
— the state is ``(ei, b_pend, p_pend, b_done, p_done, out_total,
cur_e)``: the position in the timeline, what is pending and done on
each side, the output accumulator, and the end of the open busy
interval (the next chunk's interval-merge test reads it).  What the
comparison leaves out is implied by what it holds: end-of-stream counts
and the closed flags are functions of ``ei``, the open interval's label
of whether anything was processed; ``busy`` is checked to lie at or
before the shared arrival instead of being compared, because from there
on ``max(now, busy)`` is ``now``.  A sibling keeps what is its own —
``start_time``, base-fragment ``first_arrival`` (functions of its start),
the start of the interval open at the rendezvous, its delivery order and
emission ranks — and a sibling that never meets its leader has simply
been simulated in full: no second code path, no tolerance, no fallback.
Skewed shares are pairwise distinct, so skewed tasks have no leader and
run exactly as before.

Turbo v2 adds three layers on top of the v1 interpreter:

* **Drain-structure (profile) cache** — the analytic run is a pure
  function of a finite input signature: the schedule's task graph and
  processor assignments, the realized fragment shares, every
  per-process coefficient/total/cap the chunk loops read, the machine
  constants, ``start_at`` and the trace-label prefix.  :func:`execute`
  keys a bounded cache on that exact signature; a hit replays the
  recorded final state (busy intervals, port/process/task finals,
  logical event count, bytes transferred) instead of re-interpreting
  the chunk interleaving.  Equal key ⇒ equal floats by construction,
  so replay is bit-identical — this is what closes the FP gap, whose
  trickle interleaving dominates interpreter time.  The cache lives in
  this process only, so a changed chunk policy (a code change) always
  starts from an empty one; code that alters the process model at
  runtime calls :func:`clear_cache`.
* **Cross-query structure memo** — the topological order and the
  disjointness/graph validation of :func:`_topo_order` depend only on
  the schedule's structure, not on costs or times; workloads rerunning
  one spec thousands of times share a single memo entry.
* **Hosted epochs** — :func:`execute_hosted` runs a *hosted* (shared
  clock, processor pool, ``on_complete``) simulation analytically when
  its processors are idle and no pending event that can act on it is
  due before its completion.  Which events can act on it is the
  caller's knowledge: a workload engine that claims the processors for
  the query makes that only cancellations, however many other queries
  run beside it on other processors; without claims, every pending
  event.  All arithmetic uses absolute times with ``start_at``
  baked in — never rebased offsets, because float addition does not
  associate — so the result is bit-identical to the classic hosted
  run.  If the computed completion would overlap the caller-supplied
  event barrier, or the run meets a same-instant tie, every mutation
  is rolled back and the classic loop proceeds as if turbo had never
  looked.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.numeric import ordered_sum
from .streams import EPSILON

__all__ = [
    "execute",
    "execute_hosted",
    "clear_cache",
    "cache_stats",
]

_INF = float("inf")

#: Bounded profile cache: full input signature -> recorded final state.
_PROFILE_CACHE: Dict[tuple, tuple] = {}
_PROFILE_CACHE_MAX = 128

#: Structure memo: pure schedule-shape signature -> topo order or None.
_STRUCTURE_CACHE: Dict[tuple, Optional[List[int]]] = {}
_STRUCTURE_CACHE_MAX = 256

_STATS = {
    "profile_hits": 0,
    "profile_misses": 0,
    "structure_hits": 0,
    "structure_misses": 0,
    "hosted_runs": 0,
    "hosted_rollbacks": 0,
    "sibling_runs": 0,
    "sibling_splices": 0,
    "tie_declines": 0,
}


class _SameInstantTie(Exception):
    """An arrival and a chunk completion were pushed at one simulated
    instant and land at one time: the heap orders them by which callback
    ran first, which the analytic run cannot see — decline the run."""


def clear_cache() -> None:
    """Drop every cached profile and structure memo (tests, and any
    caller that mutated process-model semantics at runtime)."""
    _PROFILE_CACHE.clear()
    _STRUCTURE_CACHE.clear()
    for key in _STATS:
        _STATS[key] = 0


def cache_stats() -> Dict[str, int]:
    """Counters since the last :func:`clear_cache` (copies; mutating
    the returned dict changes nothing)."""
    stats = dict(_STATS)
    stats["profile_entries"] = len(_PROFILE_CACHE)
    stats["structure_entries"] = len(_STRUCTURE_CACHE)
    return stats

#: Sort rank placing a stored-result delivery after any (impossible)
#: same-time data batch of the same producer process.
_STORE_RANK = 1 << 30


def _topo_order(sim) -> Optional[List[int]]:
    """Order tasks so every barrier predecessor and dataflow source
    precedes its dependents, and verify that tasks *not* ordered by
    barriers occupy disjoint processors — otherwise a per-task
    sequential simulation cannot reproduce the interleaved timeline.

    Returns runtime positions in simulation order, or ``None`` if the
    schedule's structure is unsupported.
    """
    runtimes = sim.runtimes
    n = len(runtimes)
    pos_of = {rt.task.index: i for i, rt in enumerate(runtimes)}
    barrier_preds: List[List[int]] = [[] for _ in range(n)]
    all_preds: List[List[int]] = [[] for _ in range(n)]
    procsets: List[frozenset] = []
    for i, rt in enumerate(runtimes):
        task = rt.task
        if not rt.processes:
            return None
        if len(set(task.processors)) != len(task.processors):
            return None
        for dep in task.start_after:
            j = pos_of.get(dep)
            if j is None or j == i:
                return None
            barrier_preds[i].append(j)
            all_preds[i].append(j)
        for spec in (task.left_input, task.right_input):
            if not spec.is_base:
                j = pos_of.get(spec.source)
                if j is None or j == i:
                    return None
                all_preds[i].append(j)
        procsets.append(frozenset(task.processors))

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
        for j in barrier_preds[i]:
            mask |= (1 << j) | ancestors[j]
        ancestors[i] = mask
    for a in range(n):
        mask_a = ancestors[a]
        mine = procsets[a]
        for b in range(a):
            if not (mask_a >> b) & 1 and not (ancestors[b] >> a) & 1:
                if mine & procsets[b]:
                    return None
    return order


def _structure_key(sim) -> tuple:
    """The pure schedule-shape signature :func:`_topo_order` depends
    on: task graph, processor assignments, input wiring, and process
    counts — no costs, no times.  Identical across every rerun of one
    spec, which is what makes the memo a cross-query win."""
    parts = []
    for rt in sim.runtimes:
        task = rt.task
        parts.append(
            (
                task.index,
                tuple(task.processors),
                tuple(task.start_after),
                (task.left_input.is_base, task.left_input.source),
                (task.right_input.is_base, task.right_input.source),
                len(rt.processes),
            )
        )
    return tuple(parts)


def _topo_memo(sim) -> Optional[List[int]]:
    """Memoized :func:`_topo_order` (structure-keyed; see above)."""
    key = _structure_key(sim)
    try:
        order = _STRUCTURE_CACHE[key]
        _STATS["structure_hits"] += 1
        return order
    except KeyError:
        pass
    _STATS["structure_misses"] += 1
    order = _topo_order(sim)
    if len(_STRUCTURE_CACHE) >= _STRUCTURE_CACHE_MAX:
        _STRUCTURE_CACHE.pop(next(iter(_STRUCTURE_CACHE)))
    _STRUCTURE_CACHE[key] = order
    return order


def _common_eligible(sim, *, hosted: bool) -> Optional[List[int]]:
    """Checks shared by owned and hosted eligibility; returns the topo
    order or ``None``.  Clock-ownership and time-origin checks live
    with the callers."""
    if sim.deadline is not None or sim.skip_tasks:
        return None
    if getattr(sim, "perturbed", False):
        return None
    # Events scheduled on the clock after _build's own would interleave
    # with the analytic run — decline.
    if sim.clock._seq != getattr(sim, "_build_seq", -1):
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
    start_at = sim.start_at
    for processor in sim.processors.values():
        if processor.stalls:
            return None
        if hosted:
            # Shared processors carry history from earlier queries; all
            # that matters is that none is still busy when this query's
            # scheduler starts (label prefixes keep traces disjoint).
            if processor.busy_until > start_at:
                return None
        elif processor.busy_until != 0.0 or processor.intervals:
            return None
    for rt in sim.runtimes:
        if not rt.processes:
            return None
        for process in rt.processes:
            if process.work_scale <= 0 or process.aborted:
                return None
    return _topo_memo(sim)


def _eligible(sim) -> Optional[List[int]]:
    """The simulation-order task positions if an *owned* ``sim`` can
    run analytically, else ``None``."""
    clock = sim.clock
    if not sim._owns_clock or sim._pool is not None:
        return None
    if sim.on_complete is not None:
        return None
    if clock.watchdog is not None:
        return None
    if clock.now != 0.0 or clock.events_dispatched != 0:
        return None
    return _common_eligible(sim, hosted=False)


def _eligible_hosted(sim) -> Optional[List[int]]:
    """Eligibility for a freshly built *hosted* simulation: external
    clock at exactly ``start_at``, shared pool with idle processors,
    cancellable build events to unwind.  A watchdog is allowed — it
    only observes dispatches, and the fast path dispatches one
    completion event per epoch."""
    if sim._owns_clock or sim._pool is None:
        return None
    if sim.on_complete is None:
        return None
    if sim.clock.now != sim.start_at:
        return None
    if getattr(sim, "_build_handles", None) is None:
        return None
    return _common_eligible(sim, hosted=True)


class _Lead:
    """The first process of a lock-step task, as its siblings see it.

    A task whose fragment shares are all equal runs the same process on
    every processor: same constants, same arrival timeline, staggered
    only by the scheduler's serial start-up.  The leader is simulated in
    full and leaves, per rendezvous point, how far its outputs had got;
    a sibling that reaches one of those points in the same state has the
    leader's future, to the bit.
    """

    __slots__ = ("points", "proc", "emissions", "intervals", "ncomp")

    def __init__(self) -> None:
        #: Dynamic state at a rendezvous -> the leader's ``(emissions,
        #: intervals, completions)`` counts there.
        self.points: Dict[tuple, Tuple[int, int, int]] = {}
        #: The leader, once it has finished; its final state is read
        #: off it.  The three below are its own outputs, whole.
        self.proc = None
        self.emissions: List[tuple] = []
        self.intervals: List[tuple] = []
        self.ncomp = 0


def _finish(proc, done_time: float, out_total: float) -> None:
    """Leave ``proc`` in the lifecycle state the classic loop leaves a
    finished process in — whichever analytic path finished it (run,
    inherited from a leader, or replayed from a profile)."""
    proc.ready = True
    proc.released = True
    proc.started = True
    proc.cpu_busy = False
    proc.closing = True
    proc.done = True
    proc.done_time = done_time
    proc.out_total = out_total


def _inherit(
    proc,
    lead: _Lead,
    at: Tuple[int, int, int],
    emissions: List[tuple],
    rank0: int,
    porder: int,
    ncomp: int,
    open_start: float,
    open_label: Optional[str],
) -> Tuple[float, int, int]:
    """Finish ``proc`` with the part of its leader's run that follows
    the rendezvous ``at`` — the one definition of what a sibling takes
    from its leader, whichever site they met at.

    Shared from the rendezvous on: every emission's times and count,
    every busy interval, the completion count still to come, and the
    final port, processor and process state.  The sibling's own: its
    delivery order ``porder``, emission ranks that continue its own
    count (the consumer's sort breaks same-instant ties on them), and
    the start of the interval open at the rendezvous — siblings agree on
    where it ends, not on when it began.
    """
    nemit_at, nspan_at, ncomp_at = at
    shift = len(emissions) - rank0 - nemit_at
    emissions += [
        (atime, emit, porder, rank + shift, side, count, eos)
        for (atime, emit, _, rank, side, count, eos) in lead.emissions[nemit_at:]
    ]
    leader = lead.proc
    spans = lead.intervals[nspan_at:]
    if spans:
        # No span means no interval open here and no CPU time after:
        # neither process ever ran, and this one's processor is as it was.
        if open_label is not None:
            # The leader's next span closes the interval open here.
            _, end, label = spans[0]
            spans[0] = (open_start, end, label)
        processor = proc.processor
        processor.intervals += spans
        processor.busy_until = leader.processor.busy_until
    for port, source in ((proc.left, leader.left), (proc.right, leader.right)):
        port.pending = source.pending
        port.processed = source.processed
        port.eos_received = source.eos_received
    _finish(proc, leader.done_time, leader.out_total)
    _STATS["sibling_splices"] += 1
    return (
        leader.done_time,
        ncomp + lead.ncomp - ncomp_at,
        len(emissions) - rank0,
    )


def _run_process(
    proc,
    entries: List[tuple],
    share: float,
    t_start: float,
    emissions: List[tuple],
    first_pos: Tuple[Optional[float], Optional[float]],
    latency: float,
    porder: int,
    side: int,
    lead: Optional[_Lead] = None,
) -> Tuple[float, int, int]:
    """Simulate one operation process to completion.

    ``entries`` is the task-wide arrival timeline —
    ``(atime, emit, porder, rank, side, count, eos)`` tuples sorted by
    the classic heap order; this process takes ``count * share`` of
    each batch.  ``first_pos`` holds the arrival time of the first
    positive-count entry per side (every entry is eventually received,
    so the port's ``first_arrival`` is a task-level constant and need
    not be tracked per apply).  Pipelined output batches are appended
    to ``emissions`` already in consumer timeline form — ``latency``,
    ``porder`` and ``side`` are this process's delivery decoration.
    ``lead`` is the task's :class:`_Lead` when its processes run in lock
    step (``None`` otherwise): the first process through records its
    rendezvous points in it, each later one stops at the first point it
    shares and takes the rest of its run from there (:func:`_inherit`).
    Returns ``(done_time, completion_events, emission_count)``.
    """
    left = proc.left
    right = proc.right
    processor = proc.processor
    busy = processor.busy_until
    intervals = processor.intervals
    rank0 = len(emissions)

    # This process's own, however much of its run it inherits: its
    # start, and with it when a base fragment is first seen.  Base
    # fragments arrive at process start; streamed sides saw their first
    # positive batch at the precomputed task-wide time (a zero share
    # never registers an arrival, matching receive()).
    proc.start_time = t_start
    for port, first in ((left, first_pos[0]), (right, first_pos[1])):
        if port.mode == "base":
            port.first_arrival = t_start if port.local_total > 0 else None
        else:
            port.first_arrival = first if share > 0.0 else None

    # Rendezvous at start: nothing absorbed, nothing run — the whole
    # dynamic state is the start time.  Siblings a barrier releases
    # together all meet their leader here.
    if lead is None:
        points = None
        following = False
        imark = 0
    else:
        points = lead.points
        following = lead.proc is not None
        imark = len(intervals)
        if busy <= t_start:
            if following:
                at = points.get(t_start)
                if at is not None:
                    return _inherit(
                        proc, lead, at, emissions, rank0, porder, 0, 0.0, None
                    )
            else:
                points[t_start] = (0, 0, 0)

    simple = proc.algorithm == "simple"
    if simple:
        bflag = 1 if proc.build is right else 0
    else:
        bflag = 0
    # Map left/right onto build/probe scalars (pipelining: b=left, p=right).
    b_port = right if bflag else left
    p_port = left if bflag else right
    config = proc.config
    tu = config.tuple_unit
    hs_unit = config.handshake
    ws = proc.work_scale
    rc = proc.result_coeff
    batches = config.batches
    name = proc.name
    hs_label = f"{name}:hs"
    pipe_out = proc.output is not None and proc.output_pipelined
    has_close = proc.output is not None and not proc.output_pipelined
    close_d = len(proc.output.ports) * hs_unit if has_close else 0.0

    b_total = b_port.local_total
    p_total = p_port.local_total
    b_coeff = b_port.coefficient
    p_coeff = p_port.coefficient
    b_cap = b_port.chunk_cap(batches)
    p_cap = p_port.chunk_cap(batches)
    b_exp = b_port.expected_producers
    p_exp = p_port.expected_producers
    b_base = b_port.mode == "base"
    p_base = p_port.mode == "base"
    b_closed = b_base or b_exp <= 0
    p_closed = p_base or p_exp <= 0
    if simple:
        rl = proc.result_local
        out_ok = p_total > 0
        density = 0.0
    else:
        # density == 0.0 whenever either total is zero, and the output
        # product ``chunk * done * 0.0`` is exactly +0.0 — no guard
        # needed at the emission sites.
        if b_total > 0 and p_total > 0:
            density = proc.result_local / (b_total * p_total)
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
    ei = 0
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
    h = proc._startup_handshakes() * hs_unit
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
                        (now + latency, now, porder, len(emissions) - rank0, side, out, 0)
                    )
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
        # Otherwise wait for the next arrival.
        ent = entries[ei]
        # Rendezvous at idle: the clock is about to be reset to an
        # arrival time every sibling shares, and everything else the
        # rest of the run reads is in the key.
        if points is not None and busy <= ent[0]:
            key = (ei, b_pend, p_pend, b_done, p_done, out_total, cur_e)
            if following:
                at = points.get(key)
                if at is not None:
                    return _inherit(
                        proc, lead, at, emissions, rank0, porder, ncomp, cur_s, cur_l
                    )
            else:
                points[key] = (len(emissions) - rank0, len(intervals) - imark, ncomp)
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
    processor.busy_until = busy

    b_port.pending = b_pend
    b_port.processed = b_done
    b_port.eos_received = b_eos
    p_port.pending = p_pend
    p_port.processed = p_done
    p_port.eos_received = p_eos
    _finish(proc, now, out_total)
    if points is not None and not following:
        lead.proc = proc
        lead.emissions = emissions[rank0:]
        lead.intervals = intervals[imark:]
        lead.ncomp = ncomp
    return now, ncomp, len(emissions) - rank0


def _compute(sim, order: List[int]) -> Tuple[float, int, float]:
    """The v1 analytic interpreter: simulate every task in ``order``,
    mutating processor traces, ports, processes and runtimes in place.
    Returns ``(finished_at, nevents, transferred)``; committing those
    to the network/clock/sim is the caller's job (owned and hosted
    callers commit differently, and the hosted caller may roll back)."""
    config = sim.config
    latency = config.network_latency
    startup = config.process_startup
    start_at = sim.start_at
    runtimes = sim.runtimes
    pos_of = {rt.task.index: i for i, rt in enumerate(runtimes)}

    # Global init order: the scheduler claims processes serially, so
    # a process's sequence number is its task's offset plus its place.
    seq_before = []
    seq = 0
    for rt in runtimes:
        seq_before.append(seq)
        seq += len(rt.processes)

    nevents = 0
    released: List[Optional[float]] = []
    for rt in runtimes:
        if rt.remaining_deps == 0:
            released.append(start_at)
            nevents += 1  # the release event at query start
        else:
            released.append(None)

    # Which input side of its (single) consumer each task feeds;
    # producers decorate their emissions with it up front so the
    # consumer's timeline needs no per-entry rewriting.
    consumer_side = [0] * len(runtimes)
    for rt in runtimes:
        for sidx, spec in ((0, rt.task.left_input), (1, rt.task.right_input)):
            if not spec.is_base:
                consumer_side[pos_of[spec.source]] = sidx

    emissions_of: List[List[tuple]] = [[] for _ in runtimes]
    transferred = 0.0
    finished_at = 0.0

    for ti in order:
        rt = runtimes[ti]
        rel = released[ti]
        if rel is None:  # pragma: no cover - excluded by _topo_order
            raise RuntimeError(f"turbo: task {rt.task.index} never released")
        rt.released_at = rel

        # The task-wide arrival timeline, in classic heap order.
        lspec = rt.task.left_input
        rspec = rt.task.right_input
        if not lspec.is_base:
            entries = emissions_of[pos_of[lspec.source]]
            if not rspec.is_base:
                entries = entries + emissions_of[pos_of[rspec.source]]
        elif not rspec.is_base:
            entries = emissions_of[pos_of[rspec.source]]
        else:
            entries = []
        entries.sort()
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

        shares = rt.shares
        out_side = consumer_side[ti]
        pipe_flag = rt.output_group is not None and rt.output_pipelined
        task_emissions: List[tuple] = []
        procs = rt.processes
        nprocs = len(procs)

        # Equal shares make the task's processes the same process,
        # staggered: the first leads, the rest follow it (see _Lead).
        # Skewed shares are pairwise distinct — nothing to share.
        lead = None
        if nprocs > 1:
            s0 = shares[0]
            if all(sh == s0 for sh in shares):
                lead = _Lead()
                _STATS["sibling_runs"] += nprocs - 1
        porder = seq_before[ti]
        for pi, proc in enumerate(procs):
            porder += 1
            init_t = start_at + porder * startup
            t_start = init_t if init_t >= rel else rel
            done_t, ncomp, nemit = _run_process(
                proc,
                entries,
                shares[pi],
                t_start,
                task_emissions,
                first_pos,
                latency,
                porder,
                out_side,
                lead,
            )
            nevents += 1 + ncomp  # init_ready + hs/chunk completions
            if pipe_flag:
                task_emissions.append(
                    (done_t + latency, done_t, porder, nemit, out_side, 0.0, 1)
                )
                nevents += nemit + 1  # batch arrivals + EOS arrival
                transferred += proc.out_total
        rt.done_processes = nprocs

        completion = max(p.done_time for p in rt.processes)
        rt.completion = completion
        if completion > finished_at:
            finished_at = completion
        if rt.output_group is not None and not rt.output_pipelined:
            total = ordered_sum(p.out_total for p in rt.processes)
            task_emissions.append(
                (
                    completion + latency,
                    completion,
                    porder,  # the task's last process
                    _STORE_RANK,
                    out_side,
                    total,
                    len(rt.processes),
                )
            )
            transferred += total
            nevents += 1  # the stored-result arrival
        emissions_of[ti] = task_emissions

        for dependent in rt.dependents:
            dpos = pos_of[dependent.task.index]
            prev = released[dpos]
            if prev is None or completion > prev:
                released[dpos] = completion
        rt.remaining_deps = 0

    return finished_at, nevents, transferred


# -- the drain-structure (profile) cache --------------------------------


def _signature(sim) -> tuple:
    """The complete input signature of the analytic run — everything
    :func:`_compute` reads.  Two simulations with equal signatures
    perform identical float operations in identical order, so the
    recorded final state of one is bit-for-bit the final state of the
    other.  Costs enter through the *realized* per-process values
    (coefficients, totals, caps, shares, work scales), so catalog,
    cost-model and skew changes all change the key."""
    config = sim.config
    parts: List[object] = [
        sim.start_at,
        sim.label_prefix,
        config.tuple_unit,
        config.process_startup,
        config.handshake,
        config.network_latency,
        config.batches,
    ]
    for rt in sim.runtimes:
        task = rt.task
        pparts = []
        for p in rt.processes:
            left = p.left
            right = p.right
            pparts.append(
                (
                    p.algorithm,
                    1 if (p.algorithm == "simple" and p.build is right) else 0,
                    p.work_scale,
                    p.result_coeff,
                    p.result_local,
                    p.processor.ident,
                    p.output_pipelined,
                    len(p.output.ports) if p.output is not None else -1,
                    (left.mode, left.coefficient, left.expected_producers,
                     left.local_total),
                    (right.mode, right.coefficient, right.expected_producers,
                     right.local_total),
                )
            )
        parts.append(
            (
                task.index,
                tuple(task.processors),
                tuple(task.start_after),
                (task.left_input.is_base, task.left_input.source),
                (task.right_input.is_base, task.right_input.source),
                tuple(rt.shares),
                tuple(pparts),
            )
        )
    return tuple(parts)


def _capture(sim, finished_at: float, nevents: int, transferred: float) -> tuple:
    """Record the final observable state of a just-computed owned run
    as an immutable profile (fresh processors: the whole trace is this
    run's own)."""
    procs = tuple(
        (ident, proc.busy_until, tuple(proc.intervals))
        for ident, proc in sim.processors.items()
    )
    tasks = []
    for rt in sim.runtimes:
        pstates = tuple(
            (
                p.start_time,
                p.done_time,
                p.out_total,
                (p.left.pending, p.left.processed,
                 p.left.eos_received, p.left.first_arrival),
                (p.right.pending, p.right.processed,
                 p.right.eos_received, p.right.first_arrival),
            )
            for p in rt.processes
        )
        tasks.append((rt.released_at, rt.completion, pstates))
    return (finished_at, nevents, transferred, procs, tuple(tasks))


def _replay(sim, profile: tuple) -> None:
    """Write a recorded profile onto a freshly built owned simulation —
    the same final state :func:`_compute` would produce, without
    re-interpreting the drain."""
    finished_at, nevents, transferred, procs, tasks = profile
    processors = sim.processors
    for ident, busy, spans in procs:
        processor = processors[ident]
        processor.intervals.extend(spans)
        processor.busy_until = busy
    for rt, (released_at, completion, pstates) in zip(sim.runtimes, tasks):
        rt.released_at = released_at
        rt.completion = completion
        rt.done_processes = len(rt.processes)
        rt.remaining_deps = 0
        for proc, state in zip(rt.processes, pstates):
            _finish(proc, state[1], state[2])
            proc.start_time = state[0]
            (proc.left.pending, proc.left.processed,
             proc.left.eos_received, proc.left.first_arrival) = state[3]
            (proc.right.pending, proc.right.processed,
             proc.right.eos_received, proc.right.first_arrival) = state[4]
    sim.network.transferred += transferred
    sim._completed_tasks = len(sim.runtimes)
    sim.finished_at = finished_at
    clock = sim.clock
    clock.now = finished_at
    clock.events_dispatched += nevents
    clock._queue.clear()


def execute(sim) -> bool:
    """Analytically simulate an *owned* ``sim`` if eligible.  Returns
    ``True`` on success (the simulation is complete, results identical
    to the event loop's); ``False`` declines without touching any
    state.  Repeat signatures replay the cached drain structure."""
    order = _eligible(sim)
    if order is None:
        return False
    key = _signature(sim)
    profile = _PROFILE_CACHE.get(key)
    if profile is not None:
        _STATS["profile_hits"] += 1
        _replay(sim, profile)
        return True
    _STATS["profile_misses"] += 1
    try:
        finished_at, nevents, transferred = _compute(sim, order)
    except _SameInstantTie:
        _STATS["tie_declines"] += 1
        # Fresh processors: every trace starts empty and idle.
        _rollback(sim, [(p, 0, 0.0) for p in sim.processors.values()])
        return False
    sim.network.transferred += transferred
    sim._completed_tasks = len(sim.runtimes)
    sim.finished_at = finished_at
    clock = sim.clock
    clock.now = finished_at
    clock.events_dispatched += nevents
    # The build-time init/release events were simulated analytically,
    # never popped; drop them so pending() reflects reality.
    clock._queue.clear()
    if len(_PROFILE_CACHE) >= _PROFILE_CACHE_MAX:
        _PROFILE_CACHE.pop(next(iter(_PROFILE_CACHE)))
    _PROFILE_CACHE[key] = _capture(sim, finished_at, nevents, transferred)
    return True


# -- hosted epochs ------------------------------------------------------


def _rollback(sim, marks: List[Tuple[object, int, float]]) -> None:
    """Undo every mutation :func:`_compute` applied to a freshly built
    hosted simulation: truncate processor traces, restore busy times,
    and reset runtimes/processes/ports to their as-built constants.
    Valid only immediately after ``_build`` — the reset values are the
    constructor's, which is exactly the state the classic loop expects
    to start from."""
    for processor, mark, busy in marks:
        del processor.intervals[mark:]
        processor.busy_until = busy
    for rt in sim.runtimes:
        rt.released_at = 0.0
        rt.completion = None
        rt.done_processes = 0
        rt.remaining_deps = len(rt.task.start_after)
        for proc in rt.processes:
            proc.ready = False
            proc.released = False
            proc.started = False
            proc.cpu_busy = False
            proc.closing = False
            proc.done = False
            proc.start_time = None
            proc.done_time = None
            proc.out_total = 0.0
            for port in (proc.left, proc.right):
                port.pending = 0.0
                port.processed = 0.0
                port.eos_received = 0
                port.first_arrival = None


def execute_hosted(sim, barrier: float) -> Optional[float]:
    """Analytically execute a freshly built *hosted* simulation as one
    epoch: from its start to its completion in a single step.

    ``barrier`` is the earliest simulated time at which a pending event
    that can act on this query is due — found by the caller *before*
    building the simulation, when no entry is the query's own.  The
    caller vouches that nothing else touches the query's processors or
    reads its state before its completion event: a query alone on the
    machine (every pending event is then a barrier), or alone on
    processors its host claimed for it (only a cancellation is).  If
    the analytically computed completion lies strictly before the
    barrier, the state is committed, the simulation's own build events
    are cancelled, and one completion event is scheduled at the finish
    instant to run ``on_complete`` (so the caller's completion logic
    executes at the same clock time as in the classic run, and its
    effects reach other queries only from there).  That event is pushed
    now, where the classic run pushes it from the query's last task: at
    its instant it dispatches ahead of events pushed meanwhile, so the
    caller also keeps such ties out (the workload engine's structural
    one — twin queries admitted at one instant, finishing at one
    instant — by keeping a query classic when a classic query was
    admitted at the same instant).
    Otherwise — or when
    the run meets a same-instant tie it cannot order — every mutation is
    rolled back and ``None`` is returned: the classic event loop takes
    over with the build events still armed.

    ``clock.events_dispatched`` is deliberately left untouched: the
    classic loop only folds its dispatch count in when ``run()``
    returns, so mid-drain observers (``result()`` included) see the
    pre-drain value on both paths.
    """
    order = _eligible_hosted(sim)
    if order is None:
        return None
    marks = [
        (processor, len(processor.intervals), processor.busy_until)
        for processor in sim.processors.values()
    ]
    _STATS["hosted_runs"] += 1
    try:
        finished_at, _nevents, transferred = _compute(sim, order)
    except _SameInstantTie:
        _STATS["tie_declines"] += 1
        _rollback(sim, marks)
        return None
    if finished_at >= barrier:
        _STATS["hosted_rollbacks"] += 1
        _rollback(sim, marks)
        return None
    # The processors are this query's alone until its completion
    # releases them: everything past each mark is this epoch's.
    for ident, (processor, mark, _busy) in zip(sim.processors, marks):
        sim._spans[ident].extend(processor.intervals[mark:])
    sim.network.transferred += transferred
    sim._completed_tasks = len(sim.runtimes)
    sim.finished_at = finished_at
    for handle in sim._build_handles:
        handle.cancel()
    sim.clock.at(finished_at, sim.on_complete, sim)
    return finished_at
