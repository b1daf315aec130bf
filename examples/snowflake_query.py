"""A "real-life" snowflake query through the whole stack.

The paper's closing remark: "It would be quite interesting to use the
strategies presented here for real-life applications."  This example
does exactly that on a small retail snowflake schema:

    sales(order_id, customer_id, product_id, amount)
    customers(customer_id, nation_id, segment)
    nations(nation_id, region_id, nation_name)
    regions(region_id, region_name)
    products(product_id, category_id, price)
    categories(category_id, category_name)

1. phase one picks the cheapest cartesian-free bushy tree from the
   foreign-key query graph (real cardinalities, real selectivities);
2. phase two picks a strategy by simulation;
3. the chosen schedule is executed on *real data* by the same executor
   that runs the paper's Wisconsin query — it resolves each join as a
   natural join because the operands are not Wisconsin relations — and
   checked against the sequential natural-join oracle;
4. the simulated machine reports the expected response time.

Run:  python examples/snowflake_query.py
"""

import random

from repro import run
from repro.core import render
from repro.engine.local import execute_schedule, natural_reference
from repro.optimizer import QueryGraph, catalog_for, optimal_bushy_tree, two_phase_optimize
from repro.relational import Relation, Schema

CARDS = {
    "sales": 4000,
    "customers": 400,
    "nations": 25,
    "regions": 5,
    "products": 120,
    "categories": 12,
}


def build_database(seed: int = 7):
    rng = random.Random(seed)
    regions = Relation(
        Schema.ints("region_id", "region_pop"),
        [(i, rng.randint(1, 9)) for i in range(CARDS["regions"])],
    )
    nations = Relation(
        Schema.ints("nation_id", "region_id", "nation_gdp"),
        [
            (i, rng.randrange(CARDS["regions"]), rng.randint(1, 99))
            for i in range(CARDS["nations"])
        ],
    )
    customers = Relation(
        Schema.ints("customer_id", "nation_id", "segment"),
        [
            (i, rng.randrange(CARDS["nations"]), rng.randrange(5))
            for i in range(CARDS["customers"])
        ],
    )
    categories = Relation(
        Schema.ints("category_id", "margin"),
        [(i, rng.randint(1, 60)) for i in range(CARDS["categories"])],
    )
    products = Relation(
        Schema.ints("product_id", "category_id", "price"),
        [
            (i, rng.randrange(CARDS["categories"]), rng.randint(1, 500))
            for i in range(CARDS["products"])
        ],
    )
    sales = Relation(
        Schema.ints("order_id", "customer_id", "product_id", "amount"),
        [
            (
                i,
                rng.randrange(CARDS["customers"]),
                rng.randrange(CARDS["products"]),
                rng.randint(1, 20),
            )
            for i in range(CARDS["sales"])
        ],
    )
    return {
        "sales": sales,
        "customers": customers,
        "nations": nations,
        "regions": regions,
        "products": products,
        "categories": categories,
    }


def foreign_key_graph() -> QueryGraph:
    """Selectivity of an FK join A.fk = B.pk is 1/|B|."""
    edges = {
        frozenset(("sales", "customers")): 1.0 / CARDS["customers"],
        frozenset(("customers", "nations")): 1.0 / CARDS["nations"],
        frozenset(("nations", "regions")): 1.0 / CARDS["regions"],
        frozenset(("sales", "products")): 1.0 / CARDS["products"],
        frozenset(("products", "categories")): 1.0 / CARDS["categories"],
    }
    return QueryGraph(dict(CARDS), edges)


def main() -> None:
    graph = foreign_key_graph()
    print("=== two-phase optimization of the snowflake query ===")
    plan = two_phase_optimize(graph, processors=24)
    print(render(plan.tree))
    print(plan.summary())

    print("\n=== executing the chosen plan on real data ===")
    database = build_database()
    reference = natural_reference(plan.tree, database)
    execution = execute_schedule(plan.schedule, database)
    print(f"result: {execution.relation.cardinality()} rows, "
          f"schema {execution.relation.schema.names()}")
    assert execution.relation.same_bag(reference), "parallel result differs!"
    print("matches the sequential natural-join oracle: True")

    print("\n=== every strategy computes the same snowflake result ===")
    catalog = catalog_for(graph)
    for name in ("SP", "SE", "RD", "FP"):
        execution = run(
            plan.tree, name, 8, "local", catalog=catalog, relations=database
        )
        ok = execution.relation.same_bag(reference)
        print(f"  {name}: {execution.relation.cardinality()} rows, matches: {ok}")
        assert ok


if __name__ == "__main__":
    main()
