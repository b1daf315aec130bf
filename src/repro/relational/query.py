"""Natural-join queries over arbitrary schemas.

The paper closes with: "The experiments reported in this paper are
done using a regular query on a synthetic database.  It would be quite
interesting to use the strategies presented here for real-life
applications."  This module supplies the relational machinery for
that: *natural* equi-joins — the join key is the single attribute name
the two operand schemas share, the result drops the duplicate column —
which is exactly how star/snowflake foreign-key queries compose.

A :class:`JoinResolution` carries one join's semantics to the real
executors (:func:`repro.engine.local.execute_schedule` and
:mod:`repro.engine.threaded`); :func:`resolve_join` is the one rule
both apply by default, so they run the paper's Wisconsin query and
any foreign-key-joinable set of relations alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .operators import wisconsin_combine
from .relation import Relation, Row
from .schema import Schema
from .wisconsin import WISCONSIN_SCHEMA


class JoinKeyError(ValueError):
    """Operand schemas do not determine a unique natural join key."""


def natural_join_key(left: Schema, right: Schema) -> str:
    """The single attribute name shared by both schemas.

    Natural-join composition requires exactly one shared attribute —
    zero means a cartesian product, several an ambiguous predicate;
    both are rejected.
    """
    shared = [name for name in left.names() if name in right]
    if not shared:
        raise JoinKeyError(
            f"no shared attribute between {left.names()} and {right.names()}"
        )
    if len(shared) > 1:
        raise JoinKeyError(
            f"ambiguous natural join: shared attributes {shared}"
        )
    return shared[0]


def natural_result_schema(left: Schema, right: Schema) -> Schema:
    """Result schema: left's columns, then right's minus the join key."""
    key = natural_join_key(left, right)
    kept = [name for name in right.names() if name != key]
    return Schema(tuple(left.attributes) + tuple(right.project(kept).attributes))


def natural_combiner(left: Schema, right: Schema):
    """Row combiner matching :func:`natural_result_schema`."""
    key = natural_join_key(left, right)
    keep = [i for i, name in enumerate(right.names()) if name != key]

    def combine(left_row: Row, right_row: Row) -> Row:
        return left_row + tuple(right_row[i] for i in keep)

    return combine


@dataclass(frozen=True)
class JoinResolution:
    """Everything an executor needs to join two operand schemas."""

    left_key: str
    right_key: str
    combine: "object"          # Combine callable (left_row, right_row) -> row
    result_schema: Schema


def natural_resolution(left: Schema, right: Schema) -> JoinResolution:
    """Natural-join semantics: key = the single shared attribute."""
    key = natural_join_key(left, right)
    return JoinResolution(
        left_key=key,
        right_key=key,
        combine=natural_combiner(left, right),
        result_schema=natural_result_schema(left, right),
    )


def wisconsin_resolution(left: Schema, right: Schema) -> JoinResolution:
    """The paper's regular-query semantics (Section 4.1): join on
    ``unique1``, project to ``(left.unique2, right.unique2,
    left.filler)`` so the result is again a Wisconsin relation."""
    for schema in (left, right):
        if not _is_wisconsin(schema):
            raise ValueError(
                f"wisconsin_resolution needs Wisconsin operands, got "
                f"{schema.names()}"
            )
    return JoinResolution(
        left_key="unique1",
        right_key="unique1",
        combine=wisconsin_combine,
        result_schema=WISCONSIN_SCHEMA,
    )


def resolve_join(left: Schema, right: Schema) -> JoinResolution:
    """The default join semantics of the real executors: the paper's
    regular query when both operands are Wisconsin relations, the
    natural join otherwise.

    A natural join of two Wisconsin schemas is ambiguous (they share
    every attribute), so this rule never overrides a natural join that
    would otherwise resolve.
    """
    if _is_wisconsin(left) and _is_wisconsin(right):
        return wisconsin_resolution(left, right)
    return natural_resolution(left, right)


def _is_wisconsin(schema: Schema) -> bool:
    return schema.names() == WISCONSIN_SCHEMA.names()


def natural_join(left: Relation, right: Relation) -> Relation:
    """Hash-based natural join (the sequential oracle)."""
    key = natural_join_key(left.schema, right.schema)
    left_idx = left.schema.index_of(key)
    right_idx = right.schema.index_of(key)
    combine = natural_combiner(left.schema, right.schema)
    table: Dict[object, List[Row]] = {}
    for row in left:
        table.setdefault(row[left_idx], []).append(row)
    rows: List[Row] = []
    for row in right:
        for match in table.get(row[right_idx], ()):
            rows.append(combine(match, row))
    return Relation(natural_result_schema(left.schema, right.schema), rows)
