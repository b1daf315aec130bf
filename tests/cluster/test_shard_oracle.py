"""The standalone-shard oracle: each shard of a plain cluster reports
exactly what a fresh engine, run alone on that shard's traffic, reports.

The reference engine gets the shard's own arrivals (placed up front
with ``make_placement(...).place``) or its pinned closed-loop clients
(``split_clients``, seeded through ``shard_seed``) and the shard's
engine options (``_shard_engine_options``), and runs on a clock of its
own.  The whole ``ShardReport`` must match, ``makespan`` included: the
instant of the shard's own last event, not the cluster clock's end.
"""

import dataclasses

import pytest

from repro import api
from repro.cluster import (
    DEFAULT_COOLDOWN,
    PLACEMENT_NAMES,
    ShardReport,
    make_placement,
    shard_seed,
    split_clients,
)
from repro.cluster.router import (
    _build_engine,
    _shard_engine_options,
    resolve_shard_faults,
)
from repro.faults import CrashFault, FaultSchedule
from repro.options import engine_options
from repro.sim import MachineConfig
from repro.workload import make_tenants

FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)

BASE = dict(
    shards=3, rate=0.6, duration=40.0, seed=5, machine_size=12, share=12,
    cardinality=500, config=FAST,
)

CLOSED = dict(
    arrivals="closed", clients=5, think_time=1.0, queries_per_client=4
)

TRAFFIC = (
    "arrivals", "rate", "duration", "seed", "clients", "think_time",
    "queries_per_client",
)


def standalone_reports(mix_or_shape, knobs):
    """Every shard's report from a fresh engine run alone."""
    knobs = dict(knobs)
    shards = knobs.pop("shards")
    placement = knobs.pop("placement", "hash")
    autoscale = knobs.pop("autoscale", "static")
    scale_max = knobs.pop("scale_max", None)
    traffic = {key: knobs.pop(key) for key in TRAFFIC if key in knobs}
    mix = api._resolve_mix(mix_or_shape, "FP", knobs.pop("cardinality"), 10)
    options = engine_options(deadline_seed=traffic["seed"], **knobs)
    options["tenants"] = make_tenants(options["tenants"])
    elastic = None
    if autoscale != "static":
        elastic = {
            "policy": autoscale, "scale_max": scale_max, "scale_min": None,
            "scale_cooldown": DEFAULT_COOLDOWN,
        }
    faults = resolve_shard_faults(options["faults"], shards)
    closed = traffic.get("arrivals") == "closed"
    if closed:
        clients = split_clients(traffic["clients"], shards)
    else:
        pairs = api._open_pairs(
            mix, options["tenants"], traffic.get("arrivals", "poisson"),
            traffic["rate"], traffic["duration"], traffic["seed"],
        )
        policy = make_placement(placement)
        policy.reset(shards, options)
        arrivals = [[] for _ in range(shards)]
        for index, (time, spec) in enumerate(pairs):
            arrivals[policy.place(index, time, spec)].append((time, spec))
    reports = []
    for shard in range(shards):
        engine = _build_engine(
            _shard_engine_options(options, shard, fault=faults[shard]),
            elastic,
        )
        if not closed:
            result = engine.run_open(arrivals[shard])
        elif clients[shard]:
            result = engine.run_closed(
                mix, clients[shard],
                think_time=traffic["think_time"],
                queries_per_client=traffic["queries_per_client"],
                duration=traffic["duration"],
                seed=shard_seed(traffic["seed"], shard),
            )
        else:
            result = engine.collect_result()
        reports.append(dataclasses.asdict(ShardReport.of(shard, engine, result)))
    return reports


def check(mix_or_shape, **knobs):
    cluster = api.run_cluster(mix_or_shape, **knobs)
    observed = [dataclasses.asdict(report) for report in cluster.shards]
    assert observed == standalone_reports(mix_or_shape, knobs)
    return observed


@pytest.mark.parametrize("autoscale", ["static", "reactive", "predictive"])
@pytest.mark.parametrize("loop", ["open", "closed"])
@pytest.mark.parametrize("placement", PLACEMENT_NAMES)
def test_every_shard_runs_as_it_would_alone(placement, loop, autoscale):
    knobs = dict(BASE, placement=placement, autoscale=autoscale, scale_max=24)
    if loop == "closed":
        knobs.update(CLOSED)
    check("wide_bushy", **knobs)


def test_shard_makespans_are_their_own():
    """Shards drain at different instants; each reports its own."""
    reports = check("wide_bushy", **dict(BASE, deadline=(2.0, 9.0), rate=1.2))
    assert len({report["makespan"] for report in reports}) == len(reports)


def test_deadline_range_in_a_closed_loop():
    check("wide_bushy", **dict(BASE, **CLOSED, deadline=(2.0, 9.0)))


@pytest.mark.parametrize("loop", ["open", "closed"])
def test_engine_faults_on_one_shard(loop):
    repaired = FaultSchedule(
        crashes=(
            CrashFault(3, at=5.0, repair_at=15.0), CrashFault(4, at=6.0),
        ),
        seed=1,
    )
    knobs = dict(BASE, faults={1: repaired}, recovery="restart")
    if loop == "closed":
        knobs.update(CLOSED)
    check("wide_bushy", **knobs)


@pytest.mark.parametrize("loop", ["open", "closed"])
def test_a_shard_stranded_by_faults(loop):
    """Every processor of shard 0 dies: its queue is shed after the
    drain, at the shard's own instant."""
    dead = FaultSchedule(
        crashes=tuple(CrashFault(p, at=3.0) for p in range(12)), seed=0
    )
    knobs = dict(BASE, faults={0: dead})
    if loop == "closed":
        knobs.update(CLOSED)
    reports = check("wide_bushy", **knobs)
    assert any(row["failed"] or row["rejected"] for row in reports[0]["rows"])


def test_wfq_with_tenants():
    tenants = [
        {"name": "a", "weight": 2, "rate": 0.3, "deadline": 6.0},
        {"name": "b", "weight": 1, "rate": 0.2},
    ]
    check(
        "paper", **dict(
            BASE, rate=None, tenants=tenants, scheduler="wfq",
            policy="guideline", share=None, machine_size=24,
        ),
    )


def test_time_shared_policy():
    """``round_robin`` slices claim nothing, so a query fast-paths only
    when no pending event of *its* shard lands before it completes."""
    reports = check(
        "wide_bushy", **dict(BASE, shards=4, rate=0.8, policy="round_robin"),
    )
    assert sum(report["fast_path_queries"] for report in reports) > 0


@pytest.mark.parametrize("faulted", [False, True])
def test_idle_shard(faulted):
    """A shard left without clients never starts, so even the crash
    events armed on every shard never fire there."""
    knobs = {**BASE, **CLOSED, "shards": 4, "clients": 2, "queries_per_client": 3}
    if faulted:
        knobs["faults"] = FaultSchedule(
            crashes=(CrashFault(2, at=4.0, repair_at=30.0),), seed=0
        )
    reports = check("wide_bushy", **knobs)
    assert [report["rows"] for report in reports[2:]] == [[], []]
    assert [report["makespan"] for report in reports[2:]] == [0.0, 0.0]
