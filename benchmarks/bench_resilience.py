"""The coordinated cluster under failure: failover, hedging, shrinking.

Three claims about ``repro.cluster.resilience`` / ``repro.cluster.chaos``
are asserted here:

* **failover** — killing 1 of 4 shards mid-run, the coordinated
  cluster (failover + retry budgets) retains at least 70% of the
  fault-free goodput;
* **hedging** — against a straggler shard (a shard-level stall fault
  slowing every processor there), hedged requests cut p99 latency to
  at most 0.75x the unhedged run at under 10% duplicate busy time;
* **shrinking** — the chaos harness's ddmin shrinker reduces a
  multi-event failing fault schedule on a real cluster run to a
  single-event minimal repro that still trips the same invariant.

That the ``failover=False`` baseline loses the dead shard's queries,
and that every run ends each query in exactly one terminal state, are
pinned by ``tests/cluster/test_resilience.py``.

    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py
"""

from __future__ import annotations

from repro import api
from repro.cluster import HedgePolicy, shrink_schedule
from repro.faults import CrashFault, FaultSchedule, StallFault
from repro.sim import MachineConfig

#: Coarse batches keep each cluster cell to a fraction of a second.
FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)

SEED = 11
#: ~80% of the 4-shard capacity (exclusive FP keeps each shard serial
#: at roughly 7s per query): loaded enough that losing a shard hurts,
#: unsaturated enough that live shards can absorb failover and hedges.
RATE = 0.45
DURATION = 120.0


def run_cell(rate=RATE, duration=DURATION, **overrides):
    """One coordinated-cluster run over the shared arrival stream.

    Every cell passes ``retry_budget`` so the resilient (single-clock)
    path serves it; identical knobs + seed give identical arrivals, so
    the cells differ only in the fault and policy under test.
    """
    knobs = dict(
        arrivals="poisson", rate=rate, duration=duration, seed=SEED,
        shards=4, machine_size=12, policy="exclusive", share=12,
        strategy="FP", cardinality=1_000, placement="hash", config=FAST,
        retry_budget=3,
    )
    knobs.update(overrides)
    return api.run_cluster("wide_bushy", **knobs)


def busy_seconds(result) -> float:
    """Total busy time across shards — the duplicate-work currency."""
    return sum(report.busy_seconds for report in result.shards)


def test_failover_retains_fault_free_goodput():
    kill = FaultSchedule(crashes=(CrashFault(1, at=0.4 * DURATION),), seed=SEED)
    fault_free = run_cell().goodput()
    failover = run_cell(shard_faults=kill).goodput()
    assert failover >= 0.70 * fault_free, f"{failover:.3f} of {fault_free:.3f}"


def test_hedging_cuts_the_straggler_tail_cheaply():
    stall = FaultSchedule(
        stalls=(StallFault(2, start=0.0, end=3.0 * DURATION, factor=6.0),),
        seed=SEED,
    )
    unhedged = run_cell(shard_faults=stall)
    hedged = run_cell(
        shard_faults=stall,
        hedge=HedgePolicy(percentile=50.0, min_observations=6),
    )
    unhedged_p99 = unhedged.latency_stats()["p99"]
    hedged_p99 = hedged.latency_stats()["p99"]
    assert hedged_p99 <= 0.75 * unhedged_p99, f"{hedged_p99:.1f}s vs {unhedged_p99:.1f}s"
    assert busy_seconds(hedged) < 1.10 * busy_seconds(unhedged)


def test_shrinker_finds_the_single_crash():
    """The victim is a tiny 2-shard no-failover cluster; the invariant
    it violates is "some query fails".  Of the many injected events,
    one crash is enough to trip it — the shrinker must find that out."""
    schedule = FaultSchedule.generate(
        machine_size=2, horizon=30.0, seed=SEED, crash_rate=0.15,
        repair_time=None, stall_rate=0.1, stall_duration=5.0,
    )

    def fails(candidate) -> bool:
        return run_cell(
            rate=0.8, duration=30.0, shards=2, shard_faults=candidate,
            failover=False, retry_budget=0,
        ).failed_count() > 0

    shrunk = shrink_schedule(schedule, fails)
    assert shrunk.event_count == 1 < schedule.event_count
