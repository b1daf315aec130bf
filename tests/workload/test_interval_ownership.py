"""Interval ownership ≡ the label-prefix scan it replaced.

A hosted run used to find its busy intervals by scanning everything a
shared processor ever recorded for its ``label_prefix``; it now reads
back the spans it recorded itself.  The old scan lives on here as the
oracle: every ``result.intervals`` a workload engine hands out, and
every busy-seconds refund it books for an aborted attempt (crash,
deadline, cancelled hedge loser), must equal what the scan would have
produced at that instant — exactly, floats included.
"""

import pytest

from repro import api
from repro.faults import CrashFault, FaultSchedule
from repro.sim import MachineConfig, turbo
from repro.workload import QuerySpec, WorkloadEngine
from repro.workload.policies import make_policy

FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)


def prefix_scan(processor, prefix):
    return [span for span in processor.intervals if span[2].startswith(prefix)]


@pytest.fixture
def oracle(monkeypatch):
    """Check every finish and every abort of every engine against the
    prefix scan; yields the tally of checks made."""
    tally = {"finished": 0, "aborted": 0, "refunded": 0.0}
    finish = WorkloadEngine._finish
    abort_active = WorkloadEngine._abort_active

    def checked_finish(engine, record, sim):
        finish(engine, record, sim)
        assert record.result.intervals == {
            ident: prefix_scan(processor, sim.label_prefix)
            for ident, processor in sorted(sim.processors.items())
        }
        tally["finished"] += 1

    def checked_abort(engine, record, reason):
        _record, sim, allocation, _memory = engine._active[record.index]
        wasted = 0.0
        for physical in allocation.processors:
            wasted += sum(
                end - start
                for start, end, _label in prefix_scan(
                    engine.machine.processors[physical], sim.label_prefix
                )
            )
        before = record.wasted_seconds
        aborted = abort_active(engine, record, reason)
        assert record.wasted_seconds == before + wasted
        tally["aborted"] += 1
        tally["refunded"] += wasted
        return aborted

    monkeypatch.setattr(WorkloadEngine, "_finish", checked_finish)
    monkeypatch.setattr(WorkloadEngine, "_abort_active", checked_abort)
    return tally


#: Solo epochs (committed on the hosted fast path), one that a second
#: arrival interrupts after its optimistic forecast but before its real
#: completion (computed, then rolled back), and a time-shared burst.
ARRIVALS = [
    (0.0, QuerySpec("wide_bushy", 300, "SE", 6)),
    (1.2, QuerySpec("left_linear", 300, "SP", 6)),
    (1.3, QuerySpec("wide_bushy", 300, "FP", 6)),
    (8.0, QuerySpec("wide_bushy", 300, "RD", 6)),
    (12.0, QuerySpec("left_linear", 300, "SE", 6)),
    (12.1, QuerySpec("wide_bushy", 300, "SE", 6)),
    (12.2, QuerySpec("wide_bushy", 300, "FP", 6)),
    (20.0, QuerySpec("wide_bushy", 300, "SP", 6)),
]

CRASH = FaultSchedule(crashes=(CrashFault(2, 12.6, 14.0),))


@pytest.mark.parametrize("faults", [None, CRASH], ids=["healthy", "crash"])
@pytest.mark.parametrize("fast_path", [True, False], ids=["turbo", "classic"])
def test_engine_intervals_and_refunds_match_the_prefix_scan(
    oracle, fast_path, faults
):
    turbo.clear_cache()
    engine = WorkloadEngine(
        12,
        make_policy("round_robin", 6),
        config=FAST,
        fast_path=fast_path,
        faults=faults,
        recovery="restart",
    )
    result = engine.run_open(ARRIVALS)
    assert len(result.completed()) == len(ARRIVALS)
    assert oracle["finished"] == len(ARRIVALS)
    assert result.peak_in_flight > 1
    if faults is None:
        assert oracle["aborted"] == 0
        # Faults keep every query off the fast path; without them the
        # solo epochs commit and the interrupted one rolls back.
        stats = turbo.cache_stats()
        assert (engine.fast_path_queries >= 2) == fast_path
        assert (stats["hosted_rollbacks"] >= 1) == fast_path
    else:
        assert oracle["aborted"] >= 1 and oracle["refunded"] > 0.0
        assert any(record.attempts == 2 for record in result.records)


def test_fast_path_and_classic_hand_out_the_same_intervals():
    """Ownership written by the hosted fast path (the slice past each
    processor's mark) and by ``Processor.acquire`` (span by span)
    describe the same spans."""
    results = []
    for fast_path in (True, False):
        turbo.clear_cache()
        engine = WorkloadEngine(
            12, make_policy("round_robin", 6), config=FAST, fast_path=fast_path
        )
        results.append(engine.run_open(ARRIVALS))
    assert results[0].fast_path_queries >= 2
    for ours, theirs in zip(results[0].records, results[1].records):
        assert ours.result.intervals == theirs.result.intervals


@pytest.mark.parametrize(
    "hedge",
    [None, {"percentile": 50.0, "min_observations": 3, "window": 16}],
    ids=["unhedged", "hedged"],
)
def test_cluster_hedge_loser_refunds_match_the_prefix_scan(oracle, hedge):
    result = api.run_cluster(
        "wide_bushy",
        shards=2,
        rate=0.6,
        duration=40.0,
        seed=1,
        cardinality=300,
        machine_size=12,
        share=12,
        retry_budget=1,
        hedge=hedge,
    )
    assert result.failed_count() == 0
    assert oracle["finished"] >= result.completed_count()
    if hedge is None:
        assert oracle["aborted"] == 0
    else:
        # Every hedge pair ends with one attempt cancelled mid-run
        # (unless the duplicate was still queued): its CPU is refunded.
        assert result.resilience["hedges"] >= 1
        assert oracle["aborted"] >= 1 and oracle["refunded"] > 0.0
