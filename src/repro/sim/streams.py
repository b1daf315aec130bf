"""Tuple-stream plumbing of the simulated machine.

Tuples move between operation processes in *batches* of fractional
tuple counts (a fluid approximation — the per-tuple costs are exact in
total, only their timing is batch-granular).  A :class:`Port` is the
receiving side of one join operand on one operation process; a
:class:`ConsumerGroup` is the set of ports a producer's output is
split over.  End-of-stream is tracked per producer process, mirroring
PRISMA's per-stream termination protocol.

Delivery is *batch-coalesced*: a producer's chunk output arrives as a
single event carrying a fractional tuple count, never as per-tuple
events, so event volume scales with chunk count rather than
cardinality.  The analytic fast path (:mod:`repro.sim.turbo`)
replicates exactly this batch granularity — including each batch's
arrival time ``emit + latency`` and its per-producer arrival order —
which is what lets it replay the same float arithmetic off the heap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from .events import SimulationClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .process import OperationProcess

#: Tolerance for "this fractional tuple count is drained".
EPSILON = 1e-9


class Port:
    """One input operand of one operation process.

    ``coefficient`` is the per-tuple consumption cost in §4.3 units
    (1 for a locally resident base fragment, 2 for tuples received
    from the network).  ``local_total`` is the fragment size this
    process will see in total (n_side / parallelism — the paper's
    non-skew assumption); it sizes the processing chunks.
    """

    __slots__ = (
        "process",
        "side",
        "mode",
        "coefficient",
        "expected_producers",
        "local_total",
        "pending",
        "processed",
        "eos_received",
        "first_arrival",
    )

    def __init__(
        self,
        side: str,
        mode: str,
        coefficient: float,
        expected_producers: int,
        local_total: float,
    ):
        self.process: Optional["OperationProcess"] = None
        self.side = side
        self.mode = mode
        self.coefficient = coefficient
        self.expected_producers = expected_producers
        self.local_total = local_total
        self.pending: float = 0.0
        self.processed: float = 0.0
        self.eos_received: int = 0
        self.first_arrival: Optional[float] = None

    def inject(self, count: float, now: float) -> None:
        """Make a locally stored base fragment available (no stream)."""
        self.receive(count, 0, now)

    def receive(self, count: float, eos: int, now: float) -> None:
        """A batch (and/or end-of-stream markers) arrives."""
        if count < 0:
            raise ValueError("negative batch")
        if count > 0:
            self.pending += count
            if self.first_arrival is None:
                self.first_arrival = now
        if eos:
            self.eos_received += eos
            if self.eos_received > self.expected_producers and self.mode != "base":
                raise RuntimeError(
                    f"port {self.side} received {self.eos_received} EOS markers "
                    f"from {self.expected_producers} producers"
                )
        process = self.process
        if process is not None and not process.cpu_busy:
            # Mid-chunk the kick would return at once; the completion
            # kicks anyway and finds this batch pending.
            process.kick()

    @property
    def stream_closed(self) -> bool:
        """No further batches will arrive."""
        if self.mode == "base":
            return True  # injected in full at process start
        return self.eos_received >= self.expected_producers

    @property
    def drained(self) -> bool:
        """Stream closed and every delivered tuple processed."""
        return self.stream_closed and self.pending <= EPSILON

    def take(self, cap: float) -> float:
        """Remove up to ``cap`` pending tuples for processing (the
        operation processes' chunk steps inline exactly this)."""
        chunk = min(self.pending, cap)
        self.pending -= chunk
        if self.pending < EPSILON:
            self.pending = 0.0
        return chunk

    def chunk_cap(self, batches: int) -> float:
        """Preferred CPU chunk size: the fragment split into ``batches``."""
        if self.local_total <= 0:
            return float("inf")
        return max(self.local_total / batches, EPSILON)


class ConsumerGroup:
    """The destination of a producer's output: ports of the consumer task.

    ``deliver`` splits a batch over the ports — evenly under the
    paper's non-skew assumption, or by explicit ``shares`` when the
    simulation models partitioning skew — and schedules a single
    arrival event per batch; ``deliver_eos`` propagates one producer's
    end-of-stream to every port.
    """

    __slots__ = ("ports", "latency", "shares", "network")

    def __init__(
        self,
        ports: List[Port],
        latency: float,
        shares: Optional[List[float]] = None,
        network: Optional[object] = None,
    ):
        if not ports:
            raise ValueError("consumer group needs at least one port")
        if shares is None:
            shares = [1.0 / len(ports)] * len(ports)
        if len(shares) != len(ports):
            raise ValueError("one share per port required")
        if abs(sum(shares) - 1.0) > 1e-9:
            raise ValueError("shares must sum to 1")
        self.ports = ports
        self.latency = latency
        self.shares = shares
        #: Optional shared NetworkLink; transfers queue through it.
        self.network = network

    def _arrival_time(self, clock: SimulationClock, count: float) -> float:
        done = clock.now if self.network is None else self.network.transfer(
            clock.now, count
        )
        latency = self.latency
        if self.network is not None and self.network.faults is not None:
            latency += self.network.faults.extra_delay(clock.now)
        return done + latency

    def deliver(self, clock: SimulationClock, count: float) -> None:
        """Send ``count`` tuples, split by share, arriving after the
        link transfer plus latency.

        During an injected loss window a pipelined data batch may be
        dropped at the send port (the tuples never reach any consumer
        and never occupy the link).  End-of-stream markers and stored
        results are never dropped — PRISMA's per-stream termination
        protocol and bulk transfers are reliable, which is what keeps a
        lossy run terminating instead of wedging a consumer port open.
        """
        if count <= 0:
            return
        if (
            self.network is not None
            and self.network.faults is not None
            and self.network.faults.drops(clock.now)
        ):
            return
        clock.at(self._arrival_time(clock, count), self._arrive, clock, count, 0)

    def deliver_eos(self, clock: SimulationClock) -> None:
        """Propagate one producer's end-of-stream to all ports.

        Routed through the link (zero payload) so it cannot overtake
        data batches still queued on a congested interconnect.
        """
        clock.at(self._arrival_time(clock, 0.0), self._arrive, clock, 0.0, 1)

    def deliver_store(self, clock: SimulationClock, total: float, producers: int) -> None:
        """Deliver a completed, stored result in one shot (materialized
        mode): every port gets its share plus all EOS markers."""
        clock.at(
            self._arrival_time(clock, total), self._arrive, clock, total, producers
        )

    def _arrive(self, clock: SimulationClock, count: float, eos: int) -> None:
        now = clock.now
        for port, share in zip(self.ports, self.shares):
            port.receive(count * share, eos, now)
