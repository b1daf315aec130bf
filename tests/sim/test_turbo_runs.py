"""Sibling runs: turbo ≡ classic wherever a run of copies must split.

A lock-step task's followers share their leader's emissions, so a
consumer's arrival timeline holds each shared emission once, as a run
(``copies`` identical arrivals the heap dispatches back to back).  The
classic loop applies them one at a time, and three places depend on
that: an idle process takes *one* arrival and starts a chunk before the
rest; another emission at the same instant interleaves with the copies
by delivery order; and a batch's share is added once per copy, in
sequence.  Each case below forces one of them (or a neighbouring shape:
an end-of-stream run, a stored result beside a run, skewed shares with
no run at all), asserts the shape really occurs, and holds the run's
outcome to the classic loop's: every float, every event, every port.
The float-order and idle cases also show the shape matters: an
interpreter that absorbs the whole run at idle, or adds ``copies * c``,
moves the outcome.
"""

import inspect
import types

import pytest

from repro.core import Catalog, get_strategy, make_shape, paper_relation_names
from repro.sim import MachineConfig, turbo
from repro.sim.run import ScheduleSimulation, simulate

TRICKLE = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.016,
    network_latency=0.05, batches=4,
)


def build(shape, strategy, processors, cardinality, relations=10, config=None, skew=0.0):
    names = paper_relation_names(relations)
    catalog = Catalog.regular(names, cardinality)
    schedule = get_strategy(strategy).schedule(
        make_shape(shape, names), catalog, processors
    )
    return ScheduleSimulation(
        schedule, catalog, config or MachineConfig.paper(), None, skew
    )


def outcome(sim):
    """Every observable a run leaves: the result, and each process's and
    port's final state.  (Bytes moved are not compared: the classic loop
    totals them batch by batch, turbo process by process.)"""
    result = sim.result()
    finals = [
        (proc.start_time, proc.done_time, proc.out_total) + tuple(
            (port.pending, port.processed, port.eos_received, port.first_arrival)
            for port in (proc.left, proc.right)
        )
        for rt in sim.runtimes
        for proc in rt.processes
    ]
    return (
        result.response_time, result.events, result.result_tuples,
        result.task_timings, result.intervals, finals,
    )


def classic(case):
    sim = build(**case)
    sim.clock.run()
    return outcome(sim)


def analytic(case, module=turbo):
    module.clear_cache()
    sim = build(**case)
    assert module.execute(sim), "case unexpectedly turbo-ineligible"
    return outcome(sim)


@pytest.fixture
def timelines(monkeypatch):
    """Every consumer timeline the next turbo run builds."""
    seen = []
    shipped = turbo._timeline

    def recording(entries, followers_of):
        runs = shipped(entries, followers_of)
        seen.append(runs)
        return runs

    monkeypatch.setattr(turbo, "_timeline", recording)
    return seen


def mutant(edits):
    """``repro.sim.turbo`` recompiled with each ``(old, new)`` applied."""
    source = inspect.getsource(turbo)
    for old, new in edits:
        assert source.count(old) == 1, f"not found as written: {old!r}"
        source = source.replace(old, new)
    module = types.ModuleType("repro.sim.turbo_mutant")
    module.__package__ = "repro.sim"
    exec(compile(source, turbo.__file__, "exec"), module.__dict__)
    return module


#: An idle process absorbs the whole run before choosing its chunk.
WHOLE_RUN_AT_IDLE = [
    ("        off += 1\n        if off == ent[7]:\n",
     "        rest = ent[7] - off - 1\n        off = ent[7]\n        if off == ent[7]:\n"),
] + [
    (f"            {s}_pend += c\n            k = ent[6]\n            if k:\n"
     f"                {s}_eos += k\n",
     f"            {s}_pend += c\n            for _ in range(rest):\n"
     f"                {s}_pend += c\n            k = ent[6]\n            if k:\n"
     f"                {s}_eos += k * (rest + 1)\n")
    for s in "bp"
]

#: A completion adds ``n * c`` for a run of ``n`` copies.
COPIES_TIMES_SHARE = [
    (f"                        {s}_pend += c\n                        if n > 1:\n"
     f"                            for _ in range(n - 1):\n"
     f"                                {s}_pend += c\n",
     f"                        {s}_pend += n * c\n")
    for s in "bp"
]

IDLE_SPLIT = dict(shape="left_bushy", strategy="FP", processors=47, cardinality=100, relations=8)
FLOAT_ORDER = dict(shape="right_bushy", strategy="FP", processors=51, cardinality=300, relations=6)
#: Two inputs, one materialized and one pipelined, on a trickle machine.
MIXED = dict(shape="wide_bushy", strategy="RD", processors=8, cardinality=300,
             relations=6, config=TRICKLE)


def test_an_idle_process_takes_one_copy_and_queues_the_rest():
    assert analytic(IDLE_SPLIT) == classic(IDLE_SPLIT)
    assert analytic(IDLE_SPLIT, mutant(WHOLE_RUN_AT_IDLE)) != classic(IDLE_SPLIT)


def test_copies_add_their_share_one_at_a_time():
    assert analytic(FLOAT_ORDER) == classic(FLOAT_ORDER)
    assert analytic(FLOAT_ORDER, mutant(COPIES_TIMES_SHARE)) != classic(FLOAT_ORDER)


def instants(runs):
    """The runs grouped by ``(atime, emit)``, in timeline order."""
    groups = []
    for run in runs:
        if groups and groups[-1][0][:2] == run[:2]:
            groups[-1].append(run)
        else:
            groups.append([run])
    return groups


def test_a_foreign_payload_inside_a_run_splits_it(timelines):
    """A batch and an end of stream emitted at one instant by every
    sibling reach the consumer interleaved by delivery order: the run of
    copies becomes alternating runs of one."""
    assert analytic(MIXED) == classic(MIXED)
    split = [
        group for runs in timelines for group in instants(runs)
        if any(
            a[4:7] == c[4:7] != b[4:7]
            for i, a in enumerate(group)
            for b, c in zip(group[i + 1:], group[i + 2:])
        )
    ]
    assert split


def test_an_end_of_stream_run(timelines):
    """Empty relations: every process emits only its end of stream, and
    each task's copies of it arrive as one run."""
    case = dict(shape="right_linear", strategy="FP", processors=12, cardinality=0,
                relations=4)
    assert analytic(case) == classic(case)
    assert any(run[6] and run[7] > 1 for runs in timelines for run in runs)


def test_a_stored_result_beside_a_run(timelines):
    assert analytic(MIXED) == classic(MIXED)
    assert any(
        run[3] == turbo._STORE_RANK and any(
            0 <= j < len(runs) and runs[j][7] > 1 for j in (i - 1, i + 1)
        )
        for runs in timelines
        for i, run in enumerate(runs)
    )


def test_skewed_shares_form_no_runs():
    case = dict(shape="left_linear", strategy="FP", processors=20, cardinality=400,
                skew=0.7)
    assert analytic(case) == classic(case)
    stats = turbo.cache_stats()
    assert stats["timeline_runs"] == stats["timeline_entries"] > 0


def test_counters_report_entries_held_as_runs():
    """``timeline_entries`` counts arrivals, ``timeline_runs`` the runs
    holding them; a replay builds no timeline, and ``clear_cache``
    resets both."""
    sim = build(shape="left_linear", strategy="FP", processors=40, cardinality=1000)
    turbo.clear_cache()
    simulate(sim.schedule, sim.catalog, sim.config)
    cold = turbo.cache_stats()
    assert 0 < cold["timeline_runs"] < cold["timeline_entries"]
    simulate(sim.schedule, sim.catalog, sim.config)
    warm = turbo.cache_stats()
    assert warm["profile_hits"] == 1
    assert (warm["timeline_runs"], warm["timeline_entries"]) == (
        cold["timeline_runs"], cold["timeline_entries"]
    )
    turbo.clear_cache()
    assert turbo.cache_stats()["timeline_runs"] == 0
