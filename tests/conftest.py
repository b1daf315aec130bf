"""Shared fixtures: small Wisconsin databases and fast machine configs."""

from __future__ import annotations

import pytest

import random

from repro.core import Catalog, paper_relation_names
from repro.core.trees import Join, Leaf
from repro.relational import Relation, Schema, make_query_relations
from repro.sim import MachineConfig


@pytest.fixture(scope="session")
def names6():
    return paper_relation_names(6)


@pytest.fixture(scope="session")
def names10():
    return paper_relation_names(10)


@pytest.fixture(scope="session")
def relations6(names6):
    """Six decorrelated 200-tuple Wisconsin relations."""
    return dict(zip(names6, make_query_relations(6, 200, seed=42)))


@pytest.fixture(scope="session")
def catalog6(names6):
    return Catalog.regular(names6, 200)


@pytest.fixture(scope="session")
def star_database():
    """A 300-row fact table with two dimensions (natural joins)."""
    rng = random.Random(11)
    dims = {
        "d1": Relation(Schema.ints("k1", "v1"), [(i, i * 2) for i in range(20)]),
        "d2": Relation(Schema.ints("k2", "v2"), [(i, i * 3) for i in range(10)]),
    }
    fact = Relation(
        Schema.ints("f", "k1", "k2"),
        [(i, rng.randrange(20), rng.randrange(10)) for i in range(300)],
    )
    return {"fact": fact, **dims}


@pytest.fixture(scope="session")
def star_tree():
    return Join(Join(Leaf("fact"), Leaf("d1")), Leaf("d2"))


@pytest.fixture(scope="session")
def star_catalog():
    return Catalog({"fact": 300, "d1": 20, "d2": 10})


@pytest.fixture(scope="session")
def catalog10(names10):
    return Catalog.regular(names10, 2000)


@pytest.fixture(scope="session")
def fast_config():
    """Machine config with coarse batches for quick simulations."""
    return MachineConfig(
        tuple_unit=0.001,
        process_startup=0.008,
        handshake=0.012,
        network_latency=0.05,
        batches=8,
    )
