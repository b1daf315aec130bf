"""Processor-utilization diagrams (Figures 3, 4, 6, 7).

The paper explains each strategy with an idealized processor
utilization diagram: the x-axis is time, one line per processor, and
each cell carries the label of the join the processor is working on.
This module renders exactly that from a simulation's interval trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.numeric import ordered_sum
from ..sim.machine import HANDSHAKE_SUFFIX
from ..sim.metrics import SimulationResult

#: Character shown for an idle processor slot.
IDLE = "."


def _cell_label(label: str, label_map: Dict[str, str]) -> str:
    """Single display character for an interval label."""
    base = label.removesuffix(HANDSHAKE_SUFFIX)
    return label_map.get(base, base[-1])


def utilization_diagram(
    result: SimulationResult,
    width: int = 72,
    label_map: Optional[Dict[str, str]] = None,
) -> str:
    """Render the run as the paper's processor-utilization diagram.

    Each row is a processor (highest id on top, like the figures); each
    column is a time bin of ``response_time / width``; a cell shows the
    join that occupied most of that bin, or ``.`` when idle.
    ``label_map`` optionally maps internal task labels (``J0``, ``J1``,
    ...) to display characters — the figure benchmarks map them to the
    example tree's work labels 1/3/4/5.
    """
    if label_map is None:
        label_map = {}
    span = result.response_time
    if span <= 0:
        return "(empty run)"
    bin_width = span / width
    rows: List[str] = []
    procs = sorted(result.intervals, reverse=True)
    for ident in procs:
        cells = []
        spans = result.intervals[ident]
        for b in range(width):
            lo = b * bin_width
            hi = lo + bin_width
            per_label: Dict[str, float] = {}
            for start, end, label in spans:
                overlap = min(end, hi) - max(start, lo)
                if overlap > 0:
                    key = _cell_label(label, label_map)
                    per_label[key] = per_label.get(key, 0.0) + overlap
            if not per_label:
                cells.append(IDLE)
                continue
            best_label, best_overlap = max(per_label.items(), key=lambda kv: kv[1])
            if best_overlap < bin_width * 0.25:
                cells.append(IDLE)
            else:
                cells.append(best_label)
        rows.append(f"{ident:3d} |{''.join(cells)}|")
    header = (
        f"{result.strategy} on {result.processors} processors — "
        f"response {result.response_time:.2f}s, "
        f"utilization {result.utilization():.0%}"
    )
    axis = "    +" + "-" * width + "+"
    return "\n".join([header, axis] + rows + [axis])


def busy_fractions(result: SimulationResult) -> Dict[int, float]:
    """Per-processor busy fraction of the response time."""
    out: Dict[int, float] = {}
    span = result.response_time
    for ident, spans in result.intervals.items():
        busy = ordered_sum(end - start for start, end, _ in spans)
        out[ident] = busy / span if span > 0 else 0.0
    return out
