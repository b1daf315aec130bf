"""Integer processor allocation.

Every strategy except SP distributes a discrete number of processors
over operations proportionally to estimated work.  Because processors
and operations are both discrete, the distribution is generally unfair
— the paper's "4 pieces of candy over 3 kids" discretization error
(Section 3.5).  This module implements the largest-remainder method
the strategies share, contiguous range assignment, and the imbalance
metric the ablation benchmarks report.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .numeric import ordered_sum


def proportional_allocation(
    weights: Sequence[float], processors: int, minimum: int = 1
) -> List[int]:
    """Split ``processors`` over items proportionally to ``weights``.

    Largest-remainder (Hamilton) apportionment with a per-item floor of
    ``minimum``: each item first receives ``minimum`` processors, the
    rest are assigned by proportional quota, ties broken toward earlier
    items for determinism.  The result always sums to ``processors``.

    Raises ``ValueError`` when there are not enough processors to give
    every item its floor — the regime the paper avoids by never letting
    one processor work on two joins concurrently.
    """
    items = len(weights)
    if items == 0:
        raise ValueError("cannot allocate processors to zero items")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if processors < items * minimum:
        raise ValueError(
            f"{processors} processors cannot give {items} operations "
            f"a minimum of {minimum} each"
        )
    total = float(ordered_sum(weights))
    if total == 0.0:
        quotas = [processors / items] * items
    else:
        quotas = [processors * w / total for w in weights]
    counts = [int(q) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    shortfall = processors - sum(counts)
    # Hand out the remaining processors to the largest remainders;
    # ties broken by larger weight, then by position, for determinism.
    order = sorted(
        range(items), key=lambda i: (-remainders[i], -weights[i], i)
    )
    for i in order[:shortfall]:
        counts[i] += 1
    # Enforce the per-item floor by taking from the largest counts
    # (the paper never runs a join on zero processors).
    for i in range(items):
        while counts[i] < minimum:
            donor = max(
                (j for j in range(items) if counts[j] > minimum),
                key=lambda j: counts[j],
            )
            counts[donor] -= 1
            counts[i] += 1
    return counts


def assign_ranges(counts: Sequence[int], start: int = 0) -> List[Tuple[int, ...]]:
    """Turn per-item processor counts into disjoint contiguous id tuples.

    Item ``i`` receives ids ``[start + sum(counts[:i]), ...)``; the
    tuples partition ``range(start, start + sum(counts))``.
    """
    out: List[Tuple[int, ...]] = []
    cursor = start
    for count in counts:
        if count < 0:
            raise ValueError("counts must be non-negative")
        out.append(tuple(range(cursor, cursor + count)))
        cursor += count
    return out


def allocate_ranges(
    weights: Sequence[float], processors: Sequence[int], minimum: int = 1
) -> List[Tuple[int, ...]]:
    """Proportionally partition an explicit processor id list.

    Combines :func:`proportional_allocation` with a split of the given
    (not necessarily contiguous) processor ids, preserving their order.
    """
    counts = proportional_allocation(weights, len(processors), minimum)
    out: List[Tuple[int, ...]] = []
    cursor = 0
    for count in counts:
        out.append(tuple(processors[cursor:cursor + count]))
        cursor += count
    return out


def claim_lowest(free: Sequence[int], count: int) -> Tuple[int, ...]:
    """Deterministically pick the ``count`` lowest ids from ``free``.

    The shared-machine scheduler's claim rule: always the smallest
    free processor ids, so identical workloads claim identical
    processors regardless of release order.  Raises ``ValueError``
    when fewer than ``count`` ids are free.
    """
    if count < 1:
        raise ValueError("must claim at least one processor")
    if len(free) < count:
        raise ValueError(
            f"cannot claim {count} processors from {len(free)} free"
        )
    return tuple(sorted(free)[:count])


def discretization_error(weights: Sequence[float], counts: Sequence[int]) -> float:
    """Load-imbalance factor of an allocation, ≥ 1.0.

    The ratio of the actual makespan ``max_i(w_i / p_i)`` to the ideal
    fluid makespan ``sum(w) / sum(p)``.  1.0 means the discrete
    allocation is as good as splitting processors fractionally; the
    paper predicts the error shrinks as the processor/operation ratio
    grows (Section 3.5).
    """
    if len(weights) != len(counts):
        raise ValueError("weights and counts must have equal length")
    total_work = float(ordered_sum(weights))
    total_procs = sum(counts)
    if total_work == 0.0 or total_procs == 0:
        return 1.0
    ideal = total_work / total_procs
    makespan = 0.0
    for w, p in zip(weights, counts):
        if w > 0 and p == 0:
            return float("inf")
        if p > 0:
            makespan = max(makespan, w / p)
    return makespan / ideal
