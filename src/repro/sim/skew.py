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

import math
from typing import List

from ..core.numeric import ordered_sum

#: The smallest fragment share the simulator carries.  A join's local
#: work multiplies two shares (build side times probe side); two shares
#: of at least 2**-500 multiply to a normal float, never to zero.
MIN_SHARE = 2.0 ** -500


def zipf_shares(fragments: int, theta: float) -> List[float]:
    """Fragment shares ∝ 1/rank^theta, normalized to sum to 1.

    ``theta = 0`` gives the uniform split the paper assumes; commonly
    quoted "Zipfian" database skew is around ``theta = 1``.  ``theta``
    must be finite and non-negative, and must leave the last fragment
    at least :data:`MIN_SHARE`; anything else raises ``ValueError``.
    """
    if fragments <= 0:
        raise ValueError("need at least one fragment")
    if not 0 <= theta < math.inf:  # NaN fails both comparisons
        raise ValueError(
            f"skew_theta must be finite and non-negative, got {theta!r}"
        )
    try:
        raw = [1.0 / (rank ** theta) for rank in range(1, fragments + 1)]
    except OverflowError:  # the last ranks' weights exceed any float
        raw = None
    if raw is not None:
        total = ordered_sum(raw)
        shares = [value / total for value in raw]
        if shares[-1] >= MIN_SHARE:
            return shares
    raise ValueError(
        f"skew_theta={theta!r} is too skewed for {fragments} fragments: "
        f"the last fragment's share falls below 2**-500, the smallest "
        f"the simulator carries"
    )


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
