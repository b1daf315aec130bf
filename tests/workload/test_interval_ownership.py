"""Interval ownership ≡ the label-prefix scan it replaced.

A hosted run used to find its busy intervals by scanning everything a
shared processor ever recorded for its ``label_prefix``; it now reads
back the spans it recorded itself.  The old scan lives on here as the
oracle: every ``result.intervals`` a workload engine hands out, and
every busy-seconds refund it books for an aborted attempt (crash,
deadline, cancelled hedge loser), must equal what the scan would have
produced at that instant — exactly, floats included.
"""

from dataclasses import replace

import pytest

from repro import api
from repro.core import Catalog, get_strategy, make_shape, paper_relation_names
from repro.faults import CrashFault, FaultSchedule
from repro.sim import MachineConfig, turbo
from repro.sim.events import SimulationClock
from repro.sim.machine import Processor
from repro.sim.run import ScheduleSimulation
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


# -- lock-step siblings inside a hosted epoch -----------------------------


def hosted_fp(finished):
    """A freshly built hosted FP query (three processes per join, so
    every task has siblings that splice their leader's run) on a pool
    that has served before: each processor carries an older query's
    span and its own idle-since time."""
    names = paper_relation_names(10)
    catalog = Catalog.regular(names, 1000)
    schedule = get_strategy("FP").schedule(make_shape("left_linear", names), catalog, 27)
    clock = SimulationClock()
    clock.now = 5.0
    pool = {}
    for ident in range(27):
        pool[ident] = processor = Processor(ident)
        processor.intervals.append((0.5, 1.0 + ident / 100.0, "Q0:J0"))
        processor.busy_until = 1.0 + ident / 100.0
    return ScheduleSimulation(
        schedule, catalog, MachineConfig.paper(), clock=clock, processor_pool=pool,
        start_at=5.0, label_prefix="Q7:", on_complete=finished.append,
    )


def as_built(sim):
    """Every piece of state ``_compute`` writes and ``_rollback`` must
    restore, plus what ``execute_hosted`` commits."""
    return {
        "processors": [
            (ident, list(processor.intervals), processor.busy_until)
            for ident, processor in sorted(sim.processors.items())
        ],
        "spans": {ident: list(spans) for ident, spans in sim._spans.items()},
        "tasks": [
            (rt.released_at, rt.completion, rt.done_processes, rt.remaining_deps)
            for rt in sim.runtimes
        ],
        "processes": [
            (
                p.ready, p.released, p.started, p.cpu_busy, p.closing, p.done,
                p.start_time, p.done_time, p.out_total,
            )
            for rt in sim.runtimes for p in rt.processes
        ],
        "ports": [
            (port.pending, port.processed, port.eos_received, port.first_arrival)
            for rt in sim.runtimes for p in rt.processes for port in (p.left, p.right)
        ],
        "network": sim.network.transferred,
        "finished_at": sim.finished_at,
    }


def test_hosted_epoch_with_spliced_siblings_commits_the_classic_intervals():
    finished = []
    reference = hosted_fp(finished)
    reference.clock.run()
    turbo.clear_cache()
    sim = hosted_fp(finished)
    assert turbo.execute_hosted(sim, float("inf")) == reference.finished_at
    assert turbo.cache_stats()["sibling_splices"] > 0
    sim.clock.run()
    assert finished == [reference, sim]
    assert sim.own_intervals() == reference.own_intervals()
    # (An epoch leaves the shared clock's dispatch count to the engine.)
    assert replace(sim.result(), events=0) == replace(reference.result(), events=0)
    for ident, processor in sim.processors.items():
        twin = reference.processors[ident]
        assert processor.intervals == twin.intervals
        assert processor.busy_until == twin.busy_until


def test_rollback_after_splices_leaves_the_simulation_as_built():
    finished = []
    turbo.clear_cache()
    sim = hosted_fp(finished)
    built = as_built(sim)
    # A foreign event due an instant after the start: the epoch is
    # computed — siblings spliced and all — and must then be undone.
    assert turbo.execute_hosted(sim, 5.0 + 1e-9) is None
    stats = turbo.cache_stats()
    assert stats["hosted_rollbacks"] == 1 and stats["sibling_splices"] > 0
    assert as_built(sim) == built
    # The build events are still armed: the classic loop takes over and
    # lands where a run turbo never looked at lands.
    sim.clock.run()
    reference = hosted_fp(finished)
    reference.clock.run()
    assert finished == [sim, reference]
    assert sim.result() == reference.result()
    assert sim.own_intervals() == reference.own_intervals()
