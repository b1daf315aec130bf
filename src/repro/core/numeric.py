"""Float accumulation whose value does not depend on the interpreter.

Builtin ``sum()`` over floats adds left to right up to Python 3.11 and
with Neumaier compensation from 3.12, so the same list can total to two
different doubles on two supported interpreters; ``math.fsum`` is a
third value again.  Every total that can reach a simulated output row —
stored-result sizes, busy seconds, fragment shares, refunds — goes
through :func:`ordered_sum` instead: one addition per element, in
iteration order, which is what every golden fixture and expected digest
in this repository holds.
"""

from __future__ import annotations

from typing import Iterable, Union

__all__ = ["ordered_sum"]


def ordered_sum(values: Iterable[float]) -> Union[int, float]:
    """``values`` added one by one, left to right, starting from the
    integer 0 (so an empty total stays ``0``, as ``sum()`` gives)."""
    total = 0
    for value in values:
        total += value
    return total
