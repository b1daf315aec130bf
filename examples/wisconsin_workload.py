"""Executing a parallel plan on real Wisconsin data.

The simulator predicts performance; this example demonstrates
*correctness*: it generates a real (scaled-down) Wisconsin database,
executes the same parallel schedules the simulator times — with actual
hash redistribution and the actual simple/pipelining hash-join
algorithms per processor — and checks that all four strategies return
the exact same bag of tuples as the sequential reference.  The
supplied relations are Wisconsin relations, so the executor resolves
every join as the paper's regular query (join on ``unique1``, project
to a Wisconsin relation); the same call on foreign-key relations runs
natural joins (see ``snowflake_query.py``).

Run:  python examples/wisconsin_workload.py
"""

from repro import make_query_relations, run
from repro.core import Catalog, make_shape, paper_relation_names
from repro.engine import reference_result
from repro.relational import skew

CARDINALITY = 1000
PROCESSORS = 12


def main() -> None:
    names = paper_relation_names(10)
    relations = dict(zip(names, make_query_relations(10, CARDINALITY, seed=1)))
    catalog = Catalog.regular(names, CARDINALITY)
    tree = make_shape("right_bushy", names)
    reference = reference_result(tree, relations)
    print(
        f"query: 10-way Wisconsin join, {CARDINALITY} tuples/relation, "
        f"right-oriented bushy tree, {PROCESSORS} processors"
    )
    print(f"reference result: {reference.cardinality()} tuples\n")

    for name in ("SP", "SE", "RD", "FP"):
        result = run(
            tree, name, PROCESSORS, "local",
            catalog=catalog, relations=relations,
        )
        matches = result.relation.same_bag(reference)
        worst_skew = max(
            skew(task.fragments) for task in result.tasks if task.fragments
        )
        print(
            f"{name}: {result.relation.cardinality()} tuples, "
            f"matches reference: {matches}, "
            f"worst fragment skew {worst_skew:.2f}"
        )
        if not matches:
            raise SystemExit(f"strategy {name} produced a wrong result!")

    print("\nall four strategies compute the identical result — the")
    print("response-time differences in the figures are purely about")
    print("parallel execution, exactly as the paper designs it.")


if __name__ == "__main__":
    main()
