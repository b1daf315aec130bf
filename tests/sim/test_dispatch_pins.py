"""The dispatch sequence itself is pinned, not just the rows it yields.

Row digests (the golden fixtures, the ladder's ``sim_digest``) would
miss a reordered same-instant tie whose effects happen to cancel out.
These tests hash ``(time, seq, callback qualname)`` of every event the
clock dispatches on two small overlapped runs — a tenanted wfq
workload with one deadline miss and one crash + retry, and a hedged
two-shard cluster — and compare with digests recorded on the commit
*before* the event core was tightened (``tests/golden/
dispatch_digests.json``).  Event-core performance work may change how
fast an event is dispatched, never which event comes next.  Both runs
pin the classic loop (``fast_path=False``): a fast-pathed epoch
dispatches one completion instead of its whole run, by design.

Regenerate deliberately, after a documented semantics change::

    PYTHONPATH=src python tests/sim/test_dispatch_pins.py
"""

import dataclasses
import hashlib
import heapq
import json
import pathlib

import pytest

from repro import api
from repro.faults import CrashFault, FaultSchedule
from repro.sim import events
from repro.workload import QueryMix

DIGESTS = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden"
    / "dispatch_digests.json"
)


class RecordingHeapq:
    """Stands in for the ``heapq`` module inside :mod:`repro.sim.events`:
    every live entry the dispatch loop pops is folded into a digest
    (cancelled tombstones are skipped by the loop, so by this too)."""

    heappush = staticmethod(heapq.heappush)
    heapify = staticmethod(heapq.heapify)

    def __init__(self):
        self.sha = hashlib.sha256()
        self.events = 0

    def heappop(self, queue):
        entry = heapq.heappop(queue)
        time, seq, handle, fn, _args = entry
        if handle is None or not handle.cancelled:
            self.sha.update(repr((time, seq, fn.__qualname__)).encode())
            self.events += 1
        return entry


def overlapped_workload():
    """Poisson arrivals of two wfq tenants on one 48-processor machine
    (up to five queries in flight): tenant ``a``'s 8.3 s deadline
    aborts one running query, and the crash of processor 3 at t=8
    kills one of tenant ``b``'s, which restarts and completes."""
    paper = QueryMix.paper(cardinalities=(300,))
    mix = QueryMix(
        specs=tuple(
            dataclasses.replace(spec, tenant=tenant)
            for tenant in ("a", "b")
            for spec in paper.specs
        ),
        weights=tuple(
            weight for weight in (0.6, 0.4) for _spec in paper.specs
        ),
    )
    return api.run_workload(
        mix,
        arrivals="poisson",
        rate=0.5,
        duration=30.0,
        seed=3,
        machine_size=48,
        policy="guideline",
        scheduler="wfq",
        tenants=[
            {"name": "a", "weight": 2, "deadline": 8.3},
            {"name": "b", "weight": 1},
        ],
        faults=FaultSchedule(crashes=(CrashFault(3, 8.0, 13.0),)),
        recovery="restart",
        fast_path=False,
    )


def hedged_cluster():
    """Two shards on the coordinated clock, hedging early and often."""
    return api.run_cluster(
        "wide_bushy",
        shards=2,
        rate=0.6,
        duration=40.0,
        seed=1,
        cardinality=300,
        machine_size=12,
        share=12,
        retry_budget=1,
        hedge={"percentile": 50.0, "min_observations": 3, "window": 16},
        fast_path=False,
    )


SCENARIOS = {
    "overlapped_workload": overlapped_workload,
    "hedged_cluster": hedged_cluster,
}


def record(scenario):
    recorder = RecordingHeapq()
    events.heapq = recorder
    try:
        result = scenario()
    finally:
        events.heapq = heapq
    return result, {"events": recorder.events, "sha256": recorder.sha.hexdigest()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_dispatch_sequence_is_pinned(name):
    _result, seen = record(SCENARIOS[name])
    assert seen["events"] > 0, "the dispatch loop no longer pops via heapq"
    assert seen == json.loads(DIGESTS.read_text())[name]


def test_the_workload_scenario_covers_what_it_claims():
    result = overlapped_workload()
    assert result.peak_in_flight >= 3
    assert result.fast_path_queries == 0
    missed = [r for r in result.records if r.deadline_missed]
    retried = [r for r in result.records if r.aborts]
    assert len(missed) == 1 and missed[0].tenant == "a"
    assert len(retried) == 1 and retried[0].completed is not None
    assert retried[0].attempts == 2


def test_the_cluster_scenario_hedges():
    result = hedged_cluster()
    assert result.resilience["hedges"] >= 1
    assert result.resilience["hedge_wins"] >= 1


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps(
            {name: record(fn)[1] for name, fn in sorted(SCENARIOS.items())},
            indent=2,
        )
        + "\n"
    )
    print(DIGESTS.read_text(), end="")
