"""Hosted-epoch fast path: byte-identity and eligibility.

Turbo v2 lets the workload engine execute a query's whole *epoch* —
admission to completion — analytically instead of draining the event
heap, whenever no pending event can act on the query before it
completes.  Under a claiming allocation (``exclusive``, ``guideline``)
on a standalone engine that is every query alone on *its* processors,
however many others run beside it; a ``cancel_at`` landing mid-run,
or a classic twin admitted at the same instant, keeps it classic.
Time-shared ``round_robin`` slices and
coordinated clusters still need the query alone on the machine.  The
contract is the house invariant: the fast path is pure performance, so
every row, float, and ordering must be byte-identical with the fast
path on or off, at every worker count, across knob combinations.
``fast_path_queries`` is the only observable allowed to differ (it
counts replayed epochs and lives outside the JSONL rows).
"""

import dataclasses
import json
import re

import pytest

from repro import api
from repro.runner import SweepSpec, WorkloadTraffic, run_sweep
from repro.sim import MachineConfig
from repro.sim import turbo
from repro.workload import ExclusivePolicy, QuerySpec, WorkloadEngine

FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)


def rows_json(result):
    return json.dumps(result.rows(), sort_keys=True)


def run_pair(**kwargs):
    """One workload with the fast path on and off, caches cold."""
    turbo.clear_cache()
    on = api.run_workload(fast_path=True, **kwargs)
    turbo.clear_cache()
    off = api.run_workload(fast_path=False, **kwargs)
    return on, off


class TestByteIdentity:
    def test_open_poisson_identical(self):
        on, off = run_pair(
            mix_or_shape="wide_bushy", arrivals="poisson", rate=0.2,
            duration=40.0, seed=7, machine_size=12, policy="exclusive",
            strategy="FP", cardinality=400, config=FAST,
        )
        assert rows_json(on) == rows_json(off)
        assert off.fast_path_queries == 0

    def test_closed_loop_identical(self):
        on, off = run_pair(
            mix_or_shape="paper", arrivals="closed", clients=3,
            think_time=2.0, queries_per_client=3, duration=500.0,
            seed=11, machine_size=12, policy="round_robin", share=6,
            strategy="SE", cardinality=300, config=FAST,
        )
        assert rows_json(on) == rows_json(off)

    def test_scheduler_and_tenants_identical(self):
        tenants = {
            "tenants": [
                {"name": "gold", "weight": 3.0, "rate": 0.15},
                {"name": "bronze", "weight": 1.0, "rate": 0.15},
            ]
        }
        on, off = run_pair(
            mix_or_shape="wide_bushy", arrivals="poisson", duration=40.0,
            seed=5, machine_size=12, policy="exclusive", strategy="FP",
            cardinality=300, config=FAST, scheduler="wfq", tenants=tenants,
        )
        assert rows_json(on) == rows_json(off)

    def test_deadline_identical_and_ineligible(self):
        """Deadline-bearing queries never fast-path (a deadline abort
        mid-epoch cannot be replayed), and stay byte-identical."""
        on, off = run_pair(
            mix_or_shape="wide_bushy", arrivals="closed", clients=1,
            think_time=1.0, queries_per_client=4, duration=1e6, seed=3,
            machine_size=12, policy="exclusive", strategy="FP",
            cardinality=300, config=FAST, deadline=500.0,
        )
        assert rows_json(on) == rows_json(off)
        assert on.fast_path_queries == 0


class TestEligibility:
    def test_single_occupancy_closed_loop_replays_every_query(self):
        """clients=1 + exclusive: every epoch is single-occupancy, so
        every completed query must ride the fast path."""
        turbo.clear_cache()
        result = api.run_workload(
            "wide_bushy", arrivals="closed", clients=1, think_time=1.0,
            queries_per_client=5, duration=1e6, seed=3, machine_size=12,
            policy="exclusive", strategy="FP", cardinality=300, config=FAST,
        )
        assert result.fast_path_queries == len(result.completed()) == 5
        assert turbo.cache_stats()["hosted_rollbacks"] == 0

    def test_fast_path_off_never_replays(self):
        turbo.clear_cache()
        result = api.run_workload(
            "wide_bushy", arrivals="closed", clients=1, think_time=1.0,
            queries_per_client=3, duration=1e6, seed=3, machine_size=12,
            policy="exclusive", strategy="FP", cardinality=300,
            config=FAST, fast_path=False,
        )
        assert result.fast_path_queries == 0
        assert turbo.cache_stats()["hosted_runs"] == 0

    def test_overlapping_queries_fall_back(self):
        """Many clients with zero think time overlap from t=0: the
        engine must decline or roll back, never corrupt."""
        turbo.clear_cache()
        on, off = run_pair(
            mix_or_shape="wide_bushy", arrivals="closed", clients=4,
            think_time=0.0, queries_per_client=3, duration=1e6, seed=3,
            machine_size=12, policy="round_robin", share=6,
            strategy="SE", cardinality=300, config=FAST,
        )
        assert rows_json(on) == rows_json(off)

    def test_summary_reports_fast_path(self):
        turbo.clear_cache()
        result = api.run_workload(
            "wide_bushy", arrivals="closed", clients=1, think_time=1.0,
            queries_per_client=2, duration=1e6, seed=3, machine_size=12,
            policy="exclusive", strategy="FP", cardinality=300, config=FAST,
        )
        assert "fast path: 2 queries" in result.summary()


class TestRunnerFanout:
    """The fast path must survive the runner's process-pool fan-out:
    identical JSONL at workers=1 and workers=4, fast path on or off,
    and one shared cache address for both settings."""

    def spec(self, fast_path):
        return SweepSpec(
            shapes=("wide_bushy",),
            strategies=("FP",),
            processors=(12,),
            cardinalities=(400,),
            configs=(FAST,),
            schedulers=("fifo",),
            workload=WorkloadTraffic(
                rate=0.15, duration=30.0, seed=7, fast_path=fast_path
            ),
        )

    def test_workers_and_fast_path_rows_identical(self):
        baseline = run_sweep(self.spec(True), workers=1, cache=False).rows()
        for fast_path in (True, False):
            for workers in (1, 4):
                run = run_sweep(
                    self.spec(fast_path), workers=workers, cache=False
                )
                assert run.rows() == baseline, (
                    f"rows diverged at workers={workers}, "
                    f"fast_path={fast_path}"
                )

    def test_fast_path_shares_the_cache_address(self):
        (on_job,) = self.spec(True).expand()
        (off_job,) = self.spec(False).expand()
        assert on_job.key() == off_job.key()
        assert "fast_path" not in on_job.payload()["workload"]


def observed(result):
    """Everything a caller can read off a workload result except the
    fast-path count: rows, busy seconds, makespan and the summary line
    without its fast-path clause."""
    summary = re.sub(
        r" \| fast path: \d+ queries replayed analytically", "", result.summary()
    )
    return (rows_json(result), result.busy_seconds, result.makespan, summary)


#: Traffic shapes of the knob grid: an overloaded open loop, and closed
#: loops with and without think time.
OPEN = dict(arrivals="poisson", rate=4.0, duration=5.0)
CLOSED = dict(arrivals="closed", clients=3, queries_per_client=3, duration=1e6)

#: Knob combinations: claiming policies at several shares, time-shared
#: slices, schedulers with cost and pool, admission gates, cancellations
#: and both machine configurations (``config=None`` is the paper's).
KNOBS = {
    "exclusive-whole-fifo": dict(policy="exclusive", scheduler="fifo", **OPEN),
    "exclusive-half-wfq-costed": dict(
        policy="exclusive", share=24, scheduler="wfq", scheduling_cost=0.05,
        pool_size=2, **OPEN,
    ),
    "exclusive-third-closed": dict(
        policy="exclusive", share=16, think_time=0.0, **CLOSED
    ),
    "exclusive-third-closed-sjf": dict(
        policy="exclusive", share=16, think_time=1.5, scheduler="sjf", **CLOSED
    ),
    "exclusive-half-queue-limit": dict(
        policy="exclusive", share=24, queue_limit=1, **OPEN
    ),
    "exclusive-third-max-concurrent-paper": dict(
        policy="exclusive", share=16, max_concurrent=2, config=None, **OPEN
    ),
    "exclusive-third-cancellations": dict(
        policy="exclusive", share=16,
        cancellations=[(0.6, 2), (1.2, 5), (2.0, 9), (3.0, 40)], **OPEN,
    ),
    "guideline-wfq": dict(policy="guideline", scheduler="wfq", **OPEN),
    "guideline-closed-costed-paper": dict(
        policy="guideline", think_time=1.5, scheduler="fifo",
        scheduling_cost=0.05, config=None, **CLOSED,
    ),
    "guideline-queue-limit-cancellations": dict(
        policy="guideline", queue_limit=2, cancellations=[(4.0, 3)], **OPEN
    ),
    "round-robin-open": dict(policy="round_robin", share=16, **OPEN),
    "round-robin-closed-sjf": dict(
        policy="round_robin", share=16, think_time=0.0, scheduler="sjf",
        pool_size=2, **CLOSED,
    ),
}


class TestKnobCombinations:
    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_fast_path_on_equals_off(self, name):
        on, off = run_pair(**dict(
            dict(mix_or_shape="paper", seed=5, machine_size=48,
                 cardinality=300, config=FAST),
            **KNOBS[name],
        ))
        assert observed(on) == observed(off)
        assert off.fast_path_queries == 0
        if KNOBS[name]["policy"] != "round_robin":
            # Claimed shares fast-path beside each other.
            assert on.fast_path_queries > 0

    def test_cluster_with_autoscale(self):
        reports = []
        for fast_path in (True, False):
            turbo.clear_cache()
            result = api.run_cluster(
                "wide_bushy", shards=2, rate=0.6, duration=30.0, seed=4,
                cardinality=300, machine_size=12, config=FAST,
                autoscale="reactive", scale_max=24, workers=1,
                fast_path=fast_path,
            )
            reports.append([dataclasses.asdict(s) for s in result.shards])
        on, off = reports
        assert sum(r.pop("fast_path_queries") for r in on) > 0
        assert sum(r.pop("fast_path_queries") for r in off) == 0
        assert any(r["scale_events"] for r in on)
        assert on == off

    def test_overlapped_open_loop_fast_paths_every_query(self):
        """The ladder's ``overlap_open`` shape: two wfq tenants on
        guideline shares.  Every completed query rides the fast path
        although several are in flight at once."""
        tenants = [
            {"name": "a", "weight": 2, "rate": 0.5},
            {"name": "b", "weight": 1, "rate": 0.3},
        ]
        on, off = run_pair(
            mix_or_shape="paper", arrivals="poisson", duration=30.0, seed=1,
            machine_size=80, policy="guideline", scheduler="wfq",
            tenants=tenants, cardinality=300, config=FAST,
        )
        assert observed(on) == observed(off)
        assert on.peak_in_flight > 1
        assert on.fast_path_queries == len(on.completed()) > 0
        assert off.fast_path_queries == 0


#: The same-instant tie: query 2 (right_bushy FP) runs alone on the
#: machine, and an arrival is emitted at the very instant one of its
#: chunks starts and lands as that chunk completes (the traces first
#: part at t=6.968, on ``Q2:J8``).  Ordering it by emit time put the
#: completion first; the event loop dispatched the arrival first, and
#: the query finished 1.953 ms later than that ordering predicted.
TIE = dict(
    mix_or_shape="paper", arrivals="poisson", rate=0.5, duration=20.0,
    seed=398700, machine_size=48, policy="exclusive", share=12,
    cardinality=200, config=FAST,
)


class TestSameInstantTie:
    def test_tie_declines_and_stays_identical(self):
        turbo.clear_cache()
        on = api.run_workload(fast_path=True, **TIE)
        assert turbo.cache_stats()["tie_declines"] > 0
        turbo.clear_cache()
        off = api.run_workload(fast_path=False, **TIE)
        assert observed(on) == observed(off)
        assert on.records[2].completed == off.records[2].completed
        assert off.records[2].completed == 7.416050718396726


def twins(deadline_tenant, rate):
    """Two tenants' fixed arrival streams: twin queries (one spec, one
    instant) land together on the two halves of the machine and finish
    at the same instant; one tenant's queries carry a deadline, which
    keeps them classic, and never fire."""
    tenants = [{"name": "a", "rate": rate}, {"name": "b", "rate": rate}]
    for tenant in tenants:
        if tenant["name"] == deadline_tenant:
            tenant["deadline"] = 1000.0
    return run_pair(
        mix_or_shape="wide_bushy", strategy="FP", arrivals="fixed",
        tenants=tenants, duration=20.0, machine_size=24, policy="exclusive",
        share=12, cardinality=300, config=FAST,
    )


class TestClassicTwin:
    def test_a_classic_twin_admitted_first_keeps_the_other_classic(self):
        """A fast-path completion is pushed at admission, a classic one
        by the query's last task: behind a classic twin a fast one would
        finish first instead of second, and the queue head would claim
        the other half of the machine."""
        on, off = twins("a", 1.0)
        assert observed(on) == observed(off)
        assert on.peak_in_flight == 2
        assert on.fast_path_queries == 0

    @pytest.mark.parametrize("rate", [0.2, 1.0])
    def test_a_fast_twin_admitted_first_completes_first(self, rate):
        on, off = twins("b", rate)
        assert observed(on) == observed(off)
        assert on.fast_path_queries > 0


SOLO = QuerySpec("wide_bushy", 300, "FP", 6)


def halves(fast_path, cancels=()):
    """Two queries side by side on the two halves of a 24-processor
    machine, then a third once they are done; ``cancels`` are
    ``cancel_at`` arguments."""
    turbo.clear_cache()
    engine = WorkloadEngine(
        24, ExclusivePolicy(12), config=FAST, fast_path=fast_path
    )
    for time, query in cancels:
        engine.cancel_at(time, query)
    return engine.run_open([(0.0, SOLO), (0.0, SOLO), (50.0, SOLO)])


class TestCancelBarrier:
    def test_side_by_side_queries_fast_path(self):
        result = halves(True)
        assert result.peak_in_flight == 2
        assert result.fast_path_queries == 3
        assert observed(result) == observed(halves(False))

    def test_a_cancel_landing_mid_run_keeps_the_query_classic(self):
        first = halves(False).records[1]
        middle = (first.admitted + first.completed) / 2
        # Aimed at query 1: it is cancelled mid-run on both paths.
        on, off = halves(True, [(middle, 1)]), halves(False, [(middle, 1)])
        assert observed(on) == observed(off)
        assert on.records[1].cancelled
        # Query 0 runs across the cancel too; only query 2 starts after.
        assert on.fast_path_queries == 1
        # A cancel that targets nothing is still a barrier for both.
        noop = halves(True, [(middle, 99)])
        assert observed(noop) == observed(halves(False))
        assert noop.fast_path_queries == 1

    def test_an_unknown_actor_aborting_a_fast_path_epoch_raises(self):
        """An abort the barrier did not see (here: ``cancel`` called
        from a raw clock event instead of ``cancel_at``, which the
        ``cancel`` docstring rules out) must fail loudly, not leave the
        committed epoch's spans in the traces."""
        engine = WorkloadEngine(24, ExclusivePolicy(12), config=FAST)
        engine.machine.clock.at(0.05, engine.cancel, 0)
        with pytest.raises(RuntimeError, match="query 0 aborted at t=0.05"):
            engine.run_open([(0.0, SOLO)])
        assert engine.fast_path_queries == 1
