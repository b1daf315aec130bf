"""Byte pins for the admission path: every scheduler, visibility pool,
decision cost and shed policy on one contended traffic.

Each case runs the same two-tenant open-loop traffic on a small
machine with a queue limit, an engine-wide concurrency cap, a tenant
at its own concurrency cap, per-tenant deadlines and a processor
crash with restart recovery, and crosses the admission knobs: the
scheduler (``None`` is the legacy queue), ``pool_size``,
``scheduling_cost`` and the shed policy.  A scheduler-free case takes
neither a pool nor a cost (the engine rejects both).  One sha256 per
case covers the rows, ``scheduling_decisions`` and ``peak_queued``;
``tests/golden/admission_digests.json`` holds the values.

Regenerate deliberately, after a documented semantics change::

    PYTHONPATH=src python tests/workload/test_admission_digests.py
"""

import hashlib
import json
import pathlib

import pytest

from repro import api
from repro.faults import CrashFault, FaultSchedule
from repro.sim import MachineConfig
from repro.workload import SCHEDULER_NAMES
from repro.workload.lifecycle import SHED_POLICY_NAMES

DIGESTS = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden"
    / "admission_digests.json"
)

FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)

TENANTS = [
    {"name": "a", "max_concurrent": 1, "rate": 0.8},
    {"name": "b", "priority": 2, "deadline": 8.0, "rate": 0.8},
    {"name": "c", "weight": 3, "priority": 1, "deadline": 3.0, "rate": 0.8},
]

FAULTS = FaultSchedule(
    crashes=tuple(
        CrashFault(processor, at=6.0, repair_at=10.0)
        for processor in range(0, 24, 4)
    ),
    seed=0,
)


def run(scheduler, pool_size, cost, shed):
    return api.run_workload(
        "paper", rate=None, duration=20.0, seed=3, machine_size=24,
        policy="guideline", share=6, cardinality=300, relations=5,
        config=FAST, tenants=TENANTS, max_concurrent=3, queue_limit=4,
        faults=FAULTS, recovery="restart", retry_backoff=0.5,
        scheduler=scheduler, pool_size=pool_size, scheduling_cost=cost,
        shed=shed,
    )


CASES = {
    f"{scheduler}/pool={pool}/cost={cost}/shed={shed}": (
        scheduler, pool, cost, shed,
    )
    for scheduler in (None,) + SCHEDULER_NAMES
    for pool in (None, 1, 2)
    for cost in (0.0, 0.05)
    for shed in (None,) + SHED_POLICY_NAMES
    if scheduler is not None or (pool is None and cost == 0.0)
}


def digest(result):
    """One sha256 over the rows, the decision count and the peak queue."""
    text = json.dumps(
        [result.rows(), result.scheduling_decisions, result.peak_queued],
        sort_keys=True,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_admission_output_is_pinned(name):
    assert digest(run(*CASES[name])) == json.loads(DIGESTS.read_text())[name]


def test_the_traffic_exercises_every_gate():
    """The pinned traffic really sheds, caps a tenant, crashes and
    restarts, and charges costed decisions."""
    legacy = run(None, None, 0.0, None)
    assert legacy.shed_count() > 0
    assert legacy.peak_queued > 3
    assert any(row["attempts"] > 1 for row in legacy.rows())
    assert legacy.scheduling_decisions == 0
    costed = run("wfq", 2, 0.05, "drop_oldest")
    assert costed.scheduling_decisions > 0


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps(
            {name: digest(run(*case)) for name, case in sorted(CASES.items())},
            indent=2,
        )
        + "\n"
    )
    print(DIGESTS.read_text(), end="")
