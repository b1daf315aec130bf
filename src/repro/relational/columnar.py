"""Columnar (NumPy-vectorized) equi-join kernels for the real executor.

The row-at-a-time hash joins in :mod:`repro.relational.hashjoin` are
the *reference* semantics; this module computes the same joins on
columnar key batches with ``argsort``/``searchsorted``/``repeat``
instead of a Python-level dict probe per tuple.  The kernels return
``(left_index, right_index)`` match pairs **in the exact emission
order of the reference drive** — probe order with build-insertion
tie-breaks for the simple join, alternating-arrival order for the
pipelining join — so the vectorized executor produces not just the
same bag but the same row sequence, and result rows are assembled by
the join's combiner from the original Python row objects (no
``np.int64`` leaking into tuples).

NumPy is optional: the import is gated, ``HAVE_NUMPY`` advertises
availability, and callers fall back to the row-at-a-time classes when
it is absent or when the caller pins ``use_columnar=False``.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

try:  # pragma: no cover - exercised implicitly by HAVE_NUMPY branches
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None

#: Whether the vectorized kernels are usable in this interpreter.
HAVE_NUMPY = _np is not None

Row = Tuple


def _keys(rows: Sequence[Row], key_index: int) -> "_np.ndarray":
    """The key column of ``rows`` as an int64 array."""
    return _np.fromiter(
        (row[key_index] for row in rows), dtype=_np.int64, count=len(rows)
    )


def _match_pairs(
    probe_keys: "_np.ndarray", build_keys: "_np.ndarray"
) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """All (probe_index, build_index) matches, probe-major.

    Pairs come out grouped by probe index in ascending order; within
    one probe row, build indices appear in build *insertion* order
    (the stable argsort preserves it among equal keys) — exactly the
    bucket-list order the dict-based joins emit.
    """
    order = _np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    lo = _np.searchsorted(sorted_keys, probe_keys, side="left")
    hi = _np.searchsorted(sorted_keys, probe_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return empty, empty
    probe_idx = _np.repeat(_np.arange(probe_keys.size), counts)
    starts = _np.cumsum(counts) - counts
    positions = (
        _np.arange(total) - _np.repeat(starts, counts) + _np.repeat(lo, counts)
    )
    return probe_idx, order[positions]


def simple_join_pairs(
    build_keys: "_np.ndarray", probe_keys: "_np.ndarray"
) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """(build_index, probe_index) pairs in ``SimpleHashJoin`` emission
    order: probe rows in arrival order, matches per probe in build
    insertion order."""
    probe_idx, build_idx = _match_pairs(probe_keys, build_keys)
    return build_idx, probe_idx


def pipelining_join_pairs(
    left_keys: "_np.ndarray", right_keys: "_np.ndarray"
) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """(left_index, right_index) pairs in ``PipeliningHashJoin``
    emission order under the executor's alternating drive
    (``insert_left(l_i)`` then ``insert_right(r_i)`` per round).

    A match ``(l, r)`` is emitted when its *second* constituent
    arrives: at the right insert of round ``r`` when ``l <= r`` (the
    same-round left insert precedes it), else at the left insert of
    round ``l``.  Within one insert, matches follow the other table's
    insertion order.
    """
    left_idx, right_idx = _match_pairs(left_keys, right_keys)
    if left_idx.size == 0:
        return left_idx, right_idx
    emitted_right = right_idx >= left_idx
    round_ = _np.where(emitted_right, right_idx, left_idx)
    side = emitted_right.astype(_np.int8)  # left insert (0) precedes right (1)
    other = _np.where(emitted_right, left_idx, right_idx)
    emission = _np.lexsort((other, side, round_))
    return left_idx[emission], right_idx[emission]


def join_fragment_rows(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    left_key: int,
    right_key: int,
    algorithm: str,
    build_side: str,
    combine: Callable[[Row, Row], Row],
) -> List[Row]:
    """One fragment join, vectorized: ``combine(left_row, right_row)``
    for every match, in the same sequence the row-at-a-time executor
    produces, built from the original Python row objects.

    ``left_key`` / ``right_key`` index the (integer) join attribute of
    each operand's rows.
    """
    if _np is None:  # pragma: no cover - callers gate on HAVE_NUMPY
        raise RuntimeError("columnar kernels need numpy")
    left_keys = _keys(left_rows, left_key)
    right_keys = _keys(right_rows, right_key)
    if algorithm == "simple":
        if build_side == "left":
            build_idx, probe_idx = simple_join_pairs(left_keys, right_keys)
            left_of, right_of = build_idx, probe_idx
        else:
            build_idx, probe_idx = simple_join_pairs(right_keys, left_keys)
            left_of, right_of = probe_idx, build_idx
    else:
        left_of, right_of = pipelining_join_pairs(left_keys, right_keys)
    return list(map(
        combine,
        map(left_rows.__getitem__, left_of.tolist()),
        map(right_rows.__getitem__, right_of.tolist()),
    ))


__all__ = [
    "HAVE_NUMPY",
    "join_fragment_rows",
    "pipelining_join_pairs",
    "simple_join_pairs",
]
