"""Sharded serving under a 2x load surge.

One surge trace — Poisson at a base rate, doubling for a middle
window, then back — is replayed through the same 2-shard cluster under
four capacity plans:

* ``static@base`` — every shard pinned at the base machine size (what
  you provisioned for the average load);
* ``static@peak`` — every shard pinned at the elastic ceiling (what
  you would have to provision statically to absorb the surge);
* ``reactive`` / ``predictive`` — elastic shards starting at the base
  size with the ceiling as ``scale_max``.

The claims this benchmark asserts:

* the surge degrades ``static@base`` p99 latency to at least 2x the
  provisioned-peak p99, so the scenario is a real overload;
* reactive and predictive autoscaling each retain at least 80% of the
  provisioned-peak goodput through the surge.

The house invariants beside them — a 1-shard static cluster is
row-identical to ``run_workload``, and a 4-shard trace replay writes
the same JSONL bytes at ``workers=1`` and ``workers=4`` — are pinned
by ``tests/cluster/test_router.py``.

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py
"""

from __future__ import annotations

from repro import api
from repro.cluster import Trace
from repro.sim import MachineConfig
from repro.workload import QuerySpec
from repro.workload.arrivals import poisson_arrivals
from repro.workload.mix import QueryMix, sample_specs

#: Coarse batches keep each cluster cell to a fraction of a second.
FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)

SHARDS = 2
BASE_SIZE = 10          # per-shard processors (the average-load plan)
PEAK_SIZE = 30          # per-shard elastic ceiling (the surge plan)
SHARE = 10              # exclusive per-query share (FP needs >= 9)
STRATEGY = "FP"
CARDINALITY = 1_000
RATE = 0.3              # base arrival rate; the middle window doubles it
WINDOW = 45.0
COOLDOWN = 5.0
SEED = 7


def surge_trace() -> Trace:
    """Poisson arrivals at ``RATE`` for one window, ``2*RATE`` for the
    next, then ``RATE`` again — each window its own seeded stream, so
    the trace is deterministic and the surge boundary exact."""
    mix = QueryMix.single(QuerySpec("wide_bushy", CARDINALITY, STRATEGY))
    pairs = []
    for index, rate in enumerate((RATE, 2 * RATE, RATE)):
        stream_seed = SEED + 31 * index
        times = poisson_arrivals(rate, WINDOW, stream_seed, start=index * WINDOW)
        pairs.extend(zip(times, sample_specs(mix, len(times), stream_seed)))
    return Trace.from_arrivals(pairs, seed=SEED)


#: The capacity plans' ``run_cluster`` knobs.
ELASTIC = dict(machine_size=BASE_SIZE, scale_max=PEAK_SIZE, scale_cooldown=COOLDOWN)
PLANS = {
    "static@base": dict(machine_size=BASE_SIZE),
    "static@peak": dict(machine_size=PEAK_SIZE),
    "reactive": dict(ELASTIC, autoscale="reactive"),
    "predictive": dict(ELASTIC, autoscale="predictive"),
}


def test_autoscaling_absorbs_the_surge():
    trace = surge_trace()
    results = {
        plan: api.run_cluster(
            trace=trace, shards=SHARDS, placement="round_robin", seed=SEED,
            policy="exclusive", share=SHARE, config=FAST, **knobs,
        )
        for plan, knobs in PLANS.items()
    }
    peak = results["static@peak"]
    base_p99 = results["static@base"].latency_stats()["p99"]
    peak_p99 = peak.latency_stats()["p99"]
    assert base_p99 >= 2.0 * peak_p99, (
        f"static@base p99 {base_p99:.1f}s vs peak {peak_p99:.1f}s"
    )
    for plan in ("reactive", "predictive"):
        goodput = results[plan].goodput()
        assert goodput >= 0.80 * peak.goodput(), (
            f"{plan} goodput {goodput:.3f} vs peak {peak.goodput():.3f}"
        )
