"""Operation-process state machines.

PRISMA/DB executes a query as a set of *operation processes*: one
relational operation on one processor, coordinating among themselves
(Section 2.2).  This module models one such process for each of the
paper's two join algorithms.  A process:

1. becomes *ready* when the (serial) scheduler has initialized it;
2. is *released* when its strategy barriers (``start_after``) resolve;
3. at start, pays the stream handshakes of its network input ports
   (consumer side: one per producer process) and, for a pipelined
   output, of its output streams (producer side: one per consumer);
4. consumes operand tuples in CPU chunks, paying §4.3 unit costs, and
   emits result tuples (pipelined: forwarded per chunk; materialized:
   accumulated for delivery at task completion);
5. when both operands are drained, pays the send-setup handshakes of a
   materialized output and reports completion.

The two subclasses encode exactly what distinguishes the algorithms:
the simple hash-join refuses to touch probe tuples before its build
operand is complete, while the pipelining hash-join consumes both
sides symmetrically and produces matches proportional to the product
of arrived fractions — the source of the bushy-pipeline ramp-up delay
of Section 2.3.3.

Each subclass's :meth:`~OperationProcess.kick` is the algorithm's whole
chunk step, fused: operand selection, chunk size, result tuples, CPU
occupation and the completion event in one straight-line method, with
the constants it reads (tuple unit, per-port chunk caps, match density)
hoisted when the process starts.  Every overlapped query pays this path
once per chunk, so it is written for cost per call; it is also the
single definition of chunking and emission — there are no per-step
hook methods to override.

These state machines are the *reference* semantics.  Owned,
fault-free, deadline-free runs are normally executed by the analytic
engine in :mod:`repro.sim.turbo`, which must reproduce every
observable of this module bit for bit (chunk boundaries, batch
emission times, tie-breaks between arrivals and completions, interval
coalescing).  Any behavioural change to chunking or emission here
therefore needs the matching change in turbo's chunk step, and the
turbo-equivalence grid (``tests/sim/test_turbo_equiv.py``, turbo ≡
this module, ``==`` on every float) and the golden-identity tests
(``tests/sim/test_golden_identity.py``) are the rule that guards the
pairing: both must stay green.  Turbo's profile cache needs no extra
step — it lives in one process, so changed code starts it empty.  (A
restructuring that keeps every float expression's operand order, every
tie-break and every event — like the fusion above — changes neither.)
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from .events import SimulationClock
from .machine import HANDSHAKE_SUFFIX, MachineConfig, Processor
from .streams import ConsumerGroup, EPSILON, Port


class OperationProcess:
    """Base class: lifecycle, completion, and output bookkeeping.

    Subclasses supply :meth:`kick`, the algorithm's fused chunk step.
    """

    #: Subclasses set this to the paper's algorithm name.
    algorithm = "?"

    __slots__ = (
        "name", "processor", "clock", "config", "left", "right",
        "result_local", "result_coeff", "output", "output_pipelined",
        "on_done", "work_scale", "spans",
        "ready", "released", "started", "cpu_busy", "closing", "done",
        "aborted", "done_time", "start_time", "out_total",
        "_tuple_unit", "_left_cap", "_right_cap",
    )

    def __init__(
        self,
        *,
        name: str,
        processor: Processor,
        clock: SimulationClock,
        config: MachineConfig,
        left: Port,
        right: Port,
        result_local: float,
        result_coeff: float,
        output: Optional[ConsumerGroup],
        output_pipelined: bool,
        on_done: Callable[["OperationProcess"], None],
        work_scale: float = 1.0,
        spans: Optional[List[Tuple[float, float, str]]] = None,
    ):
        self.name = name
        self.processor = processor
        self.clock = clock
        self.config = config
        self.left = left
        self.right = right
        left.process = self
        right.process = self
        self.result_local = result_local
        self.result_coeff = result_coeff
        self.output = output
        self.output_pipelined = output_pipelined
        self.on_done = on_done
        # Scales tuple-work durations so a join with an explicit
        # ``work`` override (the Figure 2 example tree) spends exactly
        # that much relative CPU time, preserving the flow shape.
        self.work_scale = work_scale
        #: Where :meth:`Processor.acquire` keeps this run's own spans
        #: of a shared processor's trace (``None``: not tracked).
        self.spans = spans

        self.ready = False
        self.released = False
        self.started = False
        self.cpu_busy = False
        self.closing = False
        self.done = False
        self.aborted = False
        self.done_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.out_total = 0.0

    # -- lifecycle ------------------------------------------------------

    def abort(self) -> None:
        """Crash-stop this process: every already-queued event for it
        (chunk completions, handshake completions, batch arrivals that
        would kick it) becomes a no-op, so the clock drains cleanly
        instead of deadlocking while the process never reports done."""
        if not self.done:
            self.aborted = True

    def init_ready(self) -> None:
        """The scheduler finished initializing this process."""
        if self.aborted:
            return
        self.ready = True
        self._maybe_start()

    def release(self) -> None:
        """All strategy barriers of this process's task completed."""
        if self.aborted:
            return
        self.released = True
        self._maybe_start()

    def _maybe_start(self) -> None:
        if self.started or not (self.ready and self.released):
            return
        self.started = True
        self.start_time = self.clock.now
        self._hoist()
        # Hold the CPU through startup: work must not begin before both
        # ports are populated and the handshakes are paid.
        self.cpu_busy = True
        for port in (self.left, self.right):
            if port.mode == "base" and port.local_total > 0:
                port.inject(port.local_total, self.clock.now)
        if not self._hold_for_handshakes(self._startup_handshakes()):
            self.cpu_busy = False
            self.kick()

    def _hoist(self) -> None:
        """Read the chunk step's constants once, now that the process
        will run (the analytic path builds processes it never starts,
        so construction stays free of this)."""
        self._tuple_unit = self.config.tuple_unit
        self._left_cap = self.left.chunk_cap(self.config.batches)
        self._right_cap = self.right.chunk_cap(self.config.batches)

    def _startup_handshakes(self) -> int:
        """Stream handshakes paid at start: consumer side of each
        network input port, plus producer side of a pipelined output."""
        count = 0
        for port in (self.left, self.right):
            if port.mode != "base":
                count += port.expected_producers
        if self.output is not None and self.output_pipelined:
            count += len(self.output.ports)
        return count

    def _hold_for_handshakes(self, count: int) -> bool:
        """Occupy the CPU for ``count`` stream handshakes; ``False``
        when they cost nothing and there is no completion to wait for."""
        duration = count * self.config.handshake
        if duration <= 0:
            return False
        self.cpu_busy = True
        end = self.processor.acquire(
            self.clock.now, duration, self.name + HANDSHAKE_SUFFIX, self.spans
        )
        self.clock.at(end, self._handshake_done)
        return True

    def _handshake_done(self) -> None:
        if self.aborted:
            return
        self.cpu_busy = False
        self.kick()

    # -- work loop ------------------------------------------------------

    def kick(self) -> None:
        """Try to make progress; called on every arrival (unless the
        CPU is mid-chunk) and on every completion.

        The algorithm's whole chunk step in one straight line: pick the
        operand and the tuple count, compute the result tuples the
        chunk produces, occupy the CPU, schedule :meth:`_chunk_done` —
        or call :meth:`_maybe_finish` when nothing is pending.  Chunk
        size is ``min(port.pending, cap)`` with the remainder snapped
        to zero below ``EPSILON``."""
        raise NotImplementedError

    def _chunk_done(self, port: Port, chunk: float, out: float) -> None:
        if self.aborted:
            return
        port.processed += chunk
        self.cpu_busy = False
        if out > 0:
            self.out_total += out
            if self.output is not None and self.output_pipelined:
                self.output.deliver(self.clock, out)
        self.kick()

    # -- completion -------------------------------------------------------

    def _maybe_finish(self) -> None:
        if self.done or self.cpu_busy:
            return
        if not (self.left.drained and self.right.drained):
            return
        if not self.closing:
            self.closing = True
            # Send setup for a stored (materialized) output: the
            # producer must open its n×m streams before it can ship the
            # stored fragments; paid before completion so a dependent
            # task's barrier sees it.
            if (
                self.output is not None
                and not self.output_pipelined
                and self._hold_for_handshakes(len(self.output.ports))
            ):
                return
        self.done = True
        self.done_time = self.clock.now
        if self.output is not None and self.output_pipelined:
            self.output.deliver_eos(self.clock)
        self.on_done(self)


class SimpleHashJoinProcess(OperationProcess):
    """Two-phase build/probe join: probing blocked until build drained."""

    algorithm = "simple"

    __slots__ = ("build", "probe")

    def __init__(self, *, build_side: str = "left", **kwargs):
        super().__init__(**kwargs)
        if build_side not in ("left", "right"):
            raise ValueError("build_side must be 'left' or 'right'")
        self.build = self.left if build_side == "left" else self.right
        self.probe = self.right if build_side == "left" else self.left

    def kick(self) -> None:
        if not self.started or self.cpu_busy or self.done or self.aborted:
            return
        port = self.build
        pending = port.pending
        if pending > EPSILON or not (
            port.eos_received >= port.expected_producers or port.mode == "base"
        ):  # not port.drained
            building = True
        else:
            port = self.probe
            pending = port.pending
            building = False
        cap = self._left_cap if port is self.left else self._right_cap
        chunk = cap if cap < pending else pending
        if chunk <= 0:
            self._maybe_finish()
            return
        pending -= chunk
        port.pending = 0.0 if pending < EPSILON else pending
        if building or port.local_total <= 0:
            out = 0.0
        else:
            # Probing a complete hash table: results proportional to
            # probe progress (exactly the simple hash-join's output
            # timing).
            out = chunk * self.result_local / port.local_total
        duration = (
            (chunk * port.coefficient + out * self.result_coeff)
            * self._tuple_unit
            * self.work_scale
        )
        self.cpu_busy = True
        clock = self.clock
        end = self.processor.acquire(clock.now, duration, self.name, self.spans)
        clock.at(end, self._chunk_done, port, chunk, out)


class PipeliningHashJoinProcess(OperationProcess):
    """Symmetric one-phase join: consumes both sides as they arrive."""

    algorithm = "pipelining"

    __slots__ = ("_density",)

    def _hoist(self) -> None:
        super()._hoist()
        # A new tuple matches the part of the other operand's hash
        # table built so far; every match is produced exactly once, by
        # whichever side is processed later.  Summed over the run this
        # yields exactly result_local tuples.  Zero when an operand is
        # empty: the chunk's output product is then exactly +0.0.
        left_total, right_total = self.left.local_total, self.right.local_total
        if left_total > 0 and right_total > 0:
            self._density = self.result_local / (left_total * right_total)
        else:
            self._density = 0.0

    def kick(self) -> None:
        if not self.started or self.cpu_busy or self.done or self.aborted:
            return
        left = self.left
        right = self.right
        if left.pending > EPSILON:
            port = left
            if right.pending > EPSILON:
                # Both pending: favour the operand that is furthest
                # behind (a tie goes to the left), mimicking the
                # symmetric algorithm's fair consumption of both inputs.
                total = left.local_total
                behind = 1.0 if total <= 0 else left.processed / total
                total = right.local_total
                if (1.0 if total <= 0 else right.processed / total) < behind:
                    port = right
        elif right.pending > EPSILON:
            port = right
        else:
            self._maybe_finish()
            return
        if port is left:
            cap = self._left_cap
            other = right
        else:
            cap = self._right_cap
            other = left
        pending = port.pending
        chunk = cap if cap < pending else pending
        pending -= chunk
        port.pending = 0.0 if pending < EPSILON else pending
        out = chunk * other.processed * self._density
        duration = (
            (chunk * port.coefficient + out * self.result_coeff)
            * self._tuple_unit
            * self.work_scale
        )
        self.cpu_busy = True
        clock = self.clock
        end = self.processor.acquire(clock.now, duration, self.name, self.spans)
        clock.at(end, self._chunk_done, port, chunk, out)
