"""The paper's cost model (Section 4.3).

For a main-memory join with operand cardinalities ``n1``/``n2`` and
result cardinality ``r``::

    cost = a*n1 + b*n2 + c*r

where ``a`` (resp. ``b``) is 1 if the operand is a base relation and 2
if it is an intermediate result, and ``c`` is always 2.  The unit is
"one action on a tuple" (hash, probe, receive from network, send over
network, create) — all taken to be the same order of magnitude.  The
paper argues a more precise estimate is pointless because the chosen
parallelization itself changes the true costs; the experiments show
this estimate yields plans with good parallel behaviour.

A :class:`Catalog` supplies base cardinalities and a join-result
estimator so the same machinery serves both the regular Wisconsin
query (every result equals its operands in size) and the optimizer's
selectivity-based estimation on irregular queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from .numeric import ordered_sum
from .trees import Join, Leaf, Node, joins_postorder

#: Estimates the result cardinality of a join from operand cardinalities.
ResultEstimator = Callable[[float, float], float]


def one_to_one_estimator(n1: float, n2: float) -> float:
    """The regular query's estimator: joins are 1:1, result = min(n1, n2)."""
    return float(min(n1, n2))


def selectivity_estimator(selectivity: float) -> ResultEstimator:
    """Classic independence estimator: ``r = selectivity * n1 * n2``."""
    if selectivity < 0:
        raise ValueError("selectivity must be non-negative")

    def estimate(n1: float, n2: float) -> float:
        return selectivity * n1 * n2

    return estimate


@dataclass(frozen=True)
class Catalog:
    """Base-relation cardinalities plus a result-cardinality estimator.

    ``estimator`` maps operand cardinalities to a result cardinality;
    when finer estimates are available (the optimizer's query graphs),
    ``subset_estimator`` — mapping the *set of base relations* under a
    join to its cardinality — takes precedence.
    """

    cardinalities: Mapping[str, int]
    estimator: ResultEstimator = one_to_one_estimator
    subset_estimator: Optional[Callable[[frozenset], float]] = None

    @classmethod
    def regular(cls, names, cardinality: int) -> "Catalog":
        """Catalog of the paper's regular query: equal-size relations,
        one-to-one joins (Section 4.1)."""
        return cls({name: cardinality for name in names})

    def cardinality_of(self, name: str) -> int:
        """Cardinality of base relation ``name``."""
        try:
            return self.cardinalities[name]
        except KeyError:
            raise KeyError(f"relation {name!r} not in catalog") from None


@dataclass(frozen=True)
class JoinCost:
    """Annotated per-join quantities the strategies and simulator use."""

    n1: float            # left operand cardinality
    n2: float            # right operand cardinality
    result: float        # result cardinality
    left_base: bool      # left operand is a base relation
    right_base: bool     # right operand is a base relation
    cost: float          # a*n1 + b*n2 + c*r in tuple-action units


@dataclass(frozen=True)
class CostModel:
    """The §4.3 formula with its coefficients exposed for ablations."""

    base_coeff: float = 1.0          # a or b for a base-relation operand
    intermediate_coeff: float = 2.0  # a or b for an intermediate operand
    result_coeff: float = 2.0        # c

    def join_cost(
        self, n1: float, n2: float, result: float, left_base: bool, right_base: bool
    ) -> float:
        """Cost of one join in tuple-action units."""
        a = self.base_coeff if left_base else self.intermediate_coeff
        b = self.base_coeff if right_base else self.intermediate_coeff
        return a * n1 + b * n2 + self.result_coeff * result

    def annotate(self, root: Node, catalog: Catalog) -> Dict[Join, JoinCost]:
        """Cost-annotate every join of ``root`` bottom-up.

        Joins with an explicit ``work`` override (the Figure 2 example
        tree) keep their cardinalities but report ``work`` as cost.
        """
        annotation: Dict[Join, JoinCost] = {}
        leaf_sets: Dict[int, frozenset] = {}

        def cardinality(node: Node) -> float:
            if isinstance(node, Leaf):
                return float(catalog.cardinality_of(node.name))
            return annotation[node].result

        def leaf_set(node: Node) -> frozenset:
            if isinstance(node, Leaf):
                return frozenset((node.name,))
            return leaf_sets[id(node)]

        for join in joins_postorder(root):
            n1 = cardinality(join.left)
            n2 = cardinality(join.right)
            leaf_sets[id(join)] = leaf_set(join.left) | leaf_set(join.right)
            if catalog.subset_estimator is not None:
                result = catalog.subset_estimator(leaf_sets[id(join)])
            else:
                result = catalog.estimator(n1, n2)
            left_base = isinstance(join.left, Leaf)
            right_base = isinstance(join.right, Leaf)
            cost = (
                join.work
                if join.work is not None
                else self.join_cost(n1, n2, result, left_base, right_base)
            )
            annotation[join] = JoinCost(n1, n2, result, left_base, right_base, cost)
        return annotation

    def total_cost(self, root: Node, catalog: Catalog) -> float:
        """Total cost of the tree: the phase-one objective."""
        return ordered_sum(jc.cost for jc in self.annotate(root, catalog).values())

    def subtree_costs(self, root: Node, catalog: Catalog) -> Dict[Join, float]:
        """Total cost of each join's subtree (SE's allocation weight:
        processors proportional to the total amount of work in the
        subtree producing an operand, [CYW92])."""
        annotation = self.annotate(root, catalog)
        totals: Dict[Join, float] = {}
        for join in joins_postorder(root):  # postorder: children first
            total = annotation[join].cost
            for child in (join.left, join.right):
                if isinstance(child, Join):
                    total += totals[child]
            totals[join] = total
        return totals
