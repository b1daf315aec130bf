"""The simulated shared-nothing machine.

PRISMA/DB ran on 100 nodes of one 68020 with 16 MB of memory, a disk
and a communication processor.  :class:`MachineConfig` captures the
behaviourally relevant constants of such a node; :class:`Processor`
models one node's CPU as a serially used resource with a utilization
trace (the raw material of the paper's processor-utilization diagrams).

The cost *structure* — what is charged where — is fixed by the model
(see :mod:`repro.sim.process`); only these constants scale it.  The
defaults of :meth:`MachineConfig.paper` were fitted once against the
ten Figure-14 anchor times (and all Section 4.4 qualitative claims) by
``benchmarks/calibrate.py`` and then frozen; the qualitative results
are insensitive to the exact values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..core.numeric import ordered_sum


@dataclass(frozen=True)
class MachineConfig:
    """Constants of the simulated machine.

    ``tuple_unit``
        Seconds per tuple-action unit — the §4.3 cost unit (one hash,
        probe, network send/receive, or tuple construction).
    ``process_startup``
        Scheduler time to claim and initialize one operation process
        with its XRA operation.  Initialization is serial at the
        scheduler, so a strategy using many processes (SP: #joins ×
        #processors) pays proportionally (§3.5 "startup").
    ``handshake``
        CPU time per tuple-stream handshake endpoint.  A redistribution
        from n producer processes to m consumer processes opens n×m
        streams (§4.3): every consumer shakes hands with its n
        producers and every producer with its m consumers (§3.5
        "coordination").
    ``network_latency``
        Transfer latency per batch between processors.
    ``batches``
        Granularity of the fluid tuple flow: each operand fragment is
        processed in at most this many CPU chunks, and pipelined
        output is forwarded per chunk.  More batches = finer pipeline
        resolution and slower simulation; results converge quickly.
    """

    tuple_unit: float = 0.001
    process_startup: float = 0.008
    handshake: float = 0.016
    network_latency: float = 0.6
    batches: int = 32
    #: Shared-interconnect capacity in tuples/second; ``inf`` (the
    #: default) reproduces the paper's implicit assumption that the
    #: network is never the bottleneck.  Finite values serialize batch
    #: transfers through one link (ablation A8).
    network_bandwidth: float = float("inf")

    @classmethod
    def paper(cls) -> "MachineConfig":
        """The calibrated PRISMA/DB-like configuration used by the
        figure benchmarks (see ``benchmarks/calibrate.py``)."""
        return _PAPER_CONFIG

    @classmethod
    def ideal(cls, batches: int = 64) -> "MachineConfig":
        """Zero-overhead machine for the idealized utilization diagrams
        of Figures 3/4/6/7: one second per unit of work, no startup,
        no handshakes, no latency."""
        return cls(
            tuple_unit=1.0,
            process_startup=0.0,
            handshake=0.0,
            network_latency=0.0,
            batches=batches,
        )

    def scaled(self, **overrides) -> "MachineConfig":
        """A copy with some constants replaced (ablation helper)."""
        return replace(self, **overrides)

    def __post_init__(self) -> None:
        if self.tuple_unit < 0 or self.process_startup < 0:
            raise ValueError("machine constants must be non-negative")
        if self.handshake < 0 or self.network_latency < 0:
            raise ValueError("machine constants must be non-negative")
        if self.batches < 1:
            raise ValueError("need at least one batch")
        if self.network_bandwidth <= 0:
            raise ValueError("network bandwidth must be positive")


class NetworkLink:
    """A shared interconnect, serially acquired by batch transfers.

    With infinite bandwidth every transfer takes zero link time and the
    link never queues — the paper's operating regime.  With finite
    bandwidth, concurrent transfers queue behind each other, which is
    what lets the A8 ablation find the point where the network becomes
    the bottleneck.

    ``faults`` is an optional perturbation state installed by
    :class:`repro.faults.FaultInjector` (duck-typed: ``extra_delay(now)``
    and ``drops(now)``); ``None`` — the default — leaves every delivery
    on the exact fault-free code path.
    """

    __slots__ = ("bandwidth", "busy_until", "transferred", "faults")

    def __init__(self, bandwidth: float):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth
        self.busy_until = 0.0
        self.transferred = 0.0
        self.faults = None

    def transfer(self, now: float, tuples: float) -> float:
        """Occupy the link for ``tuples``; returns transfer-done time."""
        if tuples < 0:
            raise ValueError("negative transfer")
        self.transferred += tuples
        if self.bandwidth == float("inf"):
            return now
        start = max(now, self.busy_until)
        end = start + tuples / self.bandwidth
        self.busy_until = end
        return end


#: Calibrated against Figure 14 by benchmarks/calibrate.py; frozen here.
_PAPER_CONFIG = MachineConfig(
    tuple_unit=0.001,
    process_startup=0.008,
    handshake=0.016,
    network_latency=0.6,
    batches=32,
)


class Processor:
    """One node's CPU: serially acquired, with a labelled busy trace.

    ``stalls`` — installed by :class:`repro.faults.FaultInjector` — is a
    list of ``(start, end, factor)`` straggler windows: a chunk whose
    service *starts* inside a window takes ``factor`` times as long
    (chunk-granular slowdown; windows are sampled at service start, so
    the perturbation is deterministic and replayable).  ``failed_at``
    records the first crash-stop instant for diagnostics; availability
    bookkeeping lives with the owner of the processor pool.
    """

    __slots__ = ("ident", "busy_until", "intervals", "stalls", "failed_at")

    def __init__(self, ident: int):
        self.ident = ident
        self.busy_until: float = 0.0
        #: Completed busy intervals as (start, end, label).
        self.intervals: List[Tuple[float, float, str]] = []
        #: Straggler windows (start, end, factor); empty = fault-free.
        self.stalls: List[Tuple[float, float, float]] = []
        self.failed_at: Optional[float] = None

    def stall_factor(self, time: float) -> float:
        """Service-time multiplier in effect at ``time`` (1.0 outside
        every straggler window; overlapping windows compound)."""
        factor = 1.0
        for start, end, window_factor in self.stalls:
            if start <= time < end:
                factor *= window_factor
        return factor

    def acquire(
        self,
        now: float,
        duration: float,
        label: str,
        spans: Optional[List[Tuple[float, float, str]]] = None,
    ) -> float:
        """Occupy the CPU for ``duration`` starting no earlier than
        ``now``; returns the completion time.

        Work requested while the CPU is busy queues behind it (the
        operation process model never interleaves chunks).  Adjacent
        intervals with the same label are merged to keep traces small.

        ``spans`` is the caller's own record on a shared processor: it
        mirrors what this call does to :attr:`intervals` (an appended
        interval is appended, a merged one replaces its last entry —
        the same label means the same caller, so that entry is the one
        merged), and the caller reads its spans back from it without
        scanning its neighbours'.
        """
        if duration < 0:
            raise ValueError("negative duration")
        busy = self.busy_until
        start = busy if busy > now else now
        if self.stalls and duration > 0:
            duration *= self.stall_factor(start)
        end = start + duration
        self.busy_until = end
        if duration > 0:
            intervals = self.intervals
            if intervals:
                last = intervals[-1]
                if last[2] == label and -1e-12 < last[1] - start < 1e-12:
                    intervals[-1] = span = (last[0], end, label)
                    if spans is not None:
                        spans[-1] = span
                    return end
            span = (start, end, label)
            intervals.append(span)
            if spans is not None:
                spans.append(span)
        return end

    def busy_time(self) -> float:
        """Total CPU-busy seconds."""
        return ordered_sum(end - start for start, end, _ in self.intervals)

    def busy_time_for(self, label: str) -> float:
        """CPU-busy seconds attributed to ``label``."""
        return ordered_sum(
            end - start for start, end, lbl in self.intervals if lbl == label
        )

    def busy_time_between(self, start: float, end: float) -> float:
        """CPU-busy seconds within the window ``[start, end]``.

        The utilization measure of a shared machine hosting many
        queries: clip every busy interval to the window and sum.
        """
        if end < start:
            raise ValueError("window end before start")
        return ordered_sum(
            max(0.0, min(e, end) - max(s, start)) for s, e, _ in self.intervals
        )
