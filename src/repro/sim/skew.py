"""Partitioning skew (relaxing the paper's non-skew assumption).

The paper's idealized load balancing argument for SP holds "assuming
non-skewed data partitioning" (Section 3.5), and the experiments took
care to generate uncorrelated keys so hash partitioning stays uniform
(Section 4.1).  This module lets the simulation relax that assumption:
fragment shares follow a Zipf-like profile parameterized by ``theta``
(0 = uniform, larger = more skewed), so the ablation benches can show
how much of each strategy's behaviour depends on uniformity.
"""

from __future__ import annotations

from typing import List

from ..core.numeric import ordered_sum


def zipf_shares(fragments: int, theta: float) -> List[float]:
    """Fragment shares ∝ 1/rank^theta, normalized to sum to 1.

    ``theta = 0`` gives the uniform split the paper assumes; commonly
    quoted "Zipfian" database skew is around ``theta = 1``.
    """
    if fragments <= 0:
        raise ValueError("need at least one fragment")
    if theta < 0:
        raise ValueError("theta must be non-negative")
    raw = [1.0 / (rank ** theta) for rank in range(1, fragments + 1)]
    total = ordered_sum(raw)
    return [value / total for value in raw]


def skew_factor(shares: List[float]) -> float:
    """Max share over mean share — 1.0 means perfectly uniform.

    Matches :func:`repro.relational.partition.skew` so simulated and
    measured skew are on the same scale.
    """
    if not shares:
        return 1.0
    mean = ordered_sum(shares) / len(shares)
    if mean == 0:
        return 1.0
    return max(shares) / mean
