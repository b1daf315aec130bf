"""Byte pins for plain and reactive cluster runs and the analytic
forecast.

Each case hashes the row population (``chaos.rows_digest``) and the
shard reports of one small run, and keeps the summary line verbatim;
``tests/golden/cluster_digests.json`` holds the values.  The cases
cover what the routing core decides: every placement under a shard
crash with repair and retries, a stalled shard with hedging, a
breaker, throttled rated tenants and ``failover=False``; plain
``least_loaded`` and ``round_robin`` runs (keyed ``pre_routed/*``: a
plain run places its whole stream before any shard runs);
a plain ``predictive`` autoscaler; and an ``sjf`` workload sized by
the service estimator.

Regenerate deliberately, after a documented semantics change::

    PYTHONPATH=src python tests/cluster/test_cluster_digests.py
"""

import dataclasses
import json
import pathlib

import pytest

from repro import api
from repro.cluster import PLACEMENT_NAMES
from repro.cluster.chaos import rows_digest
from repro.faults import CrashFault, FaultSchedule, StallFault
from repro.sim import MachineConfig

DIGESTS = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden"
    / "cluster_digests.json"
)

FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)

TENANTS = [
    {"name": "a", "weight": 2, "rate": 0.3},
    {"name": "b", "weight": 1, "rate": 0.2},
]


def coordinated(placement, **knobs):
    options = dict(
        shards=3, rate=0.5, duration=40.0, seed=7, machine_size=12,
        share=12, cardinality=500, placement=placement, config=FAST,
        retry_budget=2,
    )
    options.update(knobs)
    return api.run_cluster("wide_bushy", **options)


def crash_repair(placement):
    return coordinated(
        placement,
        shard_faults=FaultSchedule(
            crashes=(CrashFault(0, at=8.0, repair_at=20.0),), seed=0
        ),
    )


def stall_hedge(placement):
    return coordinated(
        placement,
        shard_faults=FaultSchedule(
            stalls=(StallFault(1, start=0.0, end=500.0, factor=6.0),),
            seed=0,
        ),
        hedge={"percentile": 50.0, "min_observations": 3},
        cardinality=1000,
    )


def breaker(placement):
    dead = FaultSchedule(
        crashes=tuple(CrashFault(p, at=1.0) for p in range(12)), seed=0
    )
    return coordinated(
        placement,
        faults={0: dead},
        breaker={"window": 8, "threshold": 0.5, "min_samples": 2},
        duration=60.0,
    )


def throttled(placement):
    return coordinated(
        placement, tenants=TENANTS, rate=None,
        throttle={"burst_seconds": 1.0},
    )


def no_failover(placement):
    return coordinated(
        placement,
        shard_faults=FaultSchedule(crashes=(CrashFault(0, at=10.0),), seed=0),
        failover=False,
    )


def pre_routed(placement):
    return api.run_cluster(
        "paper", shards=3, placement=placement, rate=0.6, duration=40.0,
        seed=5, machine_size=24, policy="guideline", cardinality=500,
        config=FAST, tenants=TENANTS, workers=1,
    )


def predictive():
    return api.run_cluster(
        "wide_bushy", shards=2, autoscale="predictive", scale_max=36,
        rate=0.8, duration=40.0, seed=9, machine_size=12, share=12,
        cardinality=500, config=FAST, workers=1,
    )


def sjf_workload():
    return api.run_workload(
        "paper", arrivals="poisson", rate=0.5, duration=40.0, seed=4,
        machine_size=48, policy="guideline", scheduler="sjf",
        cardinality=300, config=FAST,
    )


CASES = {
    **{
        f"{name}/{placement}": (lambda fn=fn, p=placement: fn(p))
        for name, fn in (
            ("crash_repair", crash_repair),
            ("stall_hedge", stall_hedge),
            ("breaker", breaker),
            ("throttled", throttled),
            ("no_failover", no_failover),
        )
        for placement in PLACEMENT_NAMES
    },
    "pre_routed/least_loaded": lambda: pre_routed("least_loaded"),
    "pre_routed/round_robin": lambda: pre_routed("round_robin"),
    "predictive": predictive,
    "sjf_workload": sjf_workload,
}


def observe(result):
    """The pinned view of one run: row and report digests, the summary."""
    shards = getattr(result, "shards", None)
    reports = (
        [dataclasses.asdict(shard) for shard in shards]
        if shards is not None
        else [result.busy_seconds, result.makespan]
    )
    reports.append(getattr(result, "resilience", None))
    return {
        "rows": rows_digest(result.rows()),
        "reports": rows_digest(reports),
        "summary": result.summary(),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cluster_output_is_pinned(name):
    assert observe(CASES[name]()) == json.loads(DIGESTS.read_text())[name]


def test_the_cases_exercise_their_reactions():
    """Each pinned coordinated case really takes its reaction path."""
    for placement in PLACEMENT_NAMES:
        crash = crash_repair(placement).resilience
        assert crash["shard_crashes"] == crash["shard_repairs"] == 1
        assert crash["retries"] + crash["rerouted"] > 0
        assert stall_hedge(placement).resilience["hedges"] > 0
        assert breaker(placement).resilience["breaker_opens"] > 0
        assert throttled(placement).resilience["throttled"] > 0
        assert no_failover(placement).failed_count() > 0


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps(
            {name: observe(fn()) for name, fn in sorted(CASES.items())},
            indent=2,
        )
        + "\n"
    )
    print(DIGESTS.read_text(), end="")
