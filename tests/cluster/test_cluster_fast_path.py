"""Hosted fast path on the coordinated cluster's shared clock.

The resilient router's engines fast-path claimed attempts like
standalone engines do.  The coordinator bounds each epoch by the next
crash of its shard and by its hedge siblings
(``ResilientCluster._attempt_barrier``).  It speculates that a sibling
still queued does not act on its mate first, and when one does it
reruns the whole cluster once without speculating.  The decision waits
for each attempt's first build event and keeps every attempt of an
instant classic once one started on a cancelled loser's still-busy
processors.  The contract is the house invariant: rows and the
``resilience`` dict are byte-identical with the fast path on or off.
Only the shard reports' ``fast_path_queries`` and the process-wide
``resilience.speculation_reruns`` may differ.
"""

import json

import pytest

from repro import api
from repro.cluster import resilience, run_resilient_cluster
from repro.cluster.chaos import (
    build_points,
    campaign_engine_options,
    check_invariants,
    rows_digest,
)
from repro.faults import FaultSchedule
from repro.sim import MachineConfig, turbo

FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)
P50 = {"percentile": 50, "min_observations": 3}
P80 = {"percentile": 80, "min_observations": 2, "window": 8}


def fast_paths(result):
    return sum(shard.fast_path_queries for shard in result.shards)


def observed(result):
    return (
        json.dumps(result.rows(), sort_keys=True),
        json.dumps(result.resilience, sort_keys=True),
    )


def run_pair(**knobs):
    """One cluster with the fast path on, then off, caches cold; checks
    they agree and returns the first with the reruns it took."""
    runs = []
    for fast_path in (True, False):
        turbo.clear_cache()
        before = resilience.speculation_reruns
        result = api.run_cluster(fast_path=fast_path, **knobs)
        runs.append((result, resilience.speculation_reruns - before))
    (on, reruns), (off, off_reruns) = runs
    assert observed(on) == observed(off)
    assert fast_paths(off) == off_reruns == 0
    return on, reruns


def shard_crashes(shards, seed, rate=0.05):
    return FaultSchedule.generate(
        machine_size=shards, crash_rate=rate, horizon=40.0, seed=seed,
        repair_time=3.0,
    )


#: Knob combinations over the coordinated path: hedge policies, retry
#: budgets, placements, claiming and time-shared allocations, shard
#: crashes with repair, breakers, throttled tenants, a queue limit that
#: sheds hedge siblings, deadlines and engine-level faults.
GRID = {
    "hedge-hash-exclusive": dict(hedge=True, retry_budget=2),
    "hedge-p50-least-loaded-guideline": dict(
        hedge=P50, retry_budget=1, placement="least_loaded",
        policy="guideline", share=None,
    ),
    "hedge-p80-round-robin-placement-crashes": dict(
        hedge=P80, placement="round_robin", shards=3,
        shard_faults=shard_crashes(3, 56),
    ),
    "crashes-no-hedge-retry-0": dict(
        retry_budget=0, shards=4, shard_faults=shard_crashes(4, 7),
    ),
    "breaker-guideline-crashes": dict(
        hedge=True, policy="guideline", share=None, shards=3,
        breaker={"window": 4, "min_samples": 2, "reset_timeout": 5.0},
        shard_faults=shard_crashes(3, 11, rate=0.15),
    ),
    "throttle-rated-tenants": dict(
        hedge=P50, throttle=True, rate=None,
        tenants=[
            {"name": "a", "weight": 2, "rate": 0.4},
            {"name": "b", "weight": 1, "rate": 0.4},
        ],
    ),
    "queue-limit-sheds-siblings": dict(
        hedge=P50, queue_limit=0, placement="least_loaded", rate=1.2,
    ),
    "engine-faults-on-one-shard": dict(
        hedge=P80, retry_budget=1, recovery="restart",
        faults={0: FaultSchedule.generate(
            machine_size=24, crash_rate=0.01, horizon=40.0, seed=3,
            repair_time=5.0,
        )},
    ),
    # Classic throughout: time-shared slices share processors, and a
    # deadline can abort any epoch mid-run.
    "round-robin-policy": dict(
        hedge=P50, policy="round_robin", placement="least_loaded",
    ),
    "deadline": dict(hedge=P50, deadline=30.0),
}
CLASSIC = {"round-robin-policy", "deadline"}


class TestOnEqualsOff:
    @pytest.mark.parametrize("name", sorted(GRID))
    def test_grid(self, name):
        knobs = dict(
            mix_or_shape="wide_bushy", shards=2, rate=0.8, duration=40.0,
            seed=3, machine_size=24, policy="exclusive", share=12,
            cardinality=500, config=FAST, workers=1, retry_budget=2,
        )
        knobs.update(GRID[name])
        if knobs["rate"] is None:
            del knobs["rate"]  # the tenants' rates drive arrivals
        on, _reruns = run_pair(**knobs)
        if name in CLASSIC:
            assert fast_paths(on) == 0
        else:
            assert fast_paths(on) > 0

    def test_ladder_shape(self):
        """The benchmark's ``cluster_hedged`` workload: hedge races
        fast-path on both sides and decide the same winners.  Classic
        stay the hedge losers and the queries admitted at an instant
        where a cancelled loser's shard took its next query onto the
        loser's still-busy processors."""
        on, _reruns = run_pair(
            mix_or_shape="wide_bushy", shards=4, rate=0.8, duration=60.0,
            cardinality=1000, seed=1, workers=1, retry_budget=2, hedge=True,
        )
        assert fast_paths(on) >= 25
        assert on.resilience["hedges"] == 36
        assert on.resilience["hedge_wins"] == 25

    def test_a_twin_starting_on_busy_processors_keeps_its_instant_classic(
        self,
    ):
        """Query 30's primary and hedge start at one instant, the
        primary onto processors still finishing a cancelled loser's
        chunk.  It catches up with its twin, and on the classic loop
        finishes at the same instant but first: the primary wins.
        Fast-pathing the hedge made the hedge win."""
        on, _reruns = run_pair(
            mix_or_shape="paper", shards=4, rate=1.1483789704049259,
            duration=36.29030289140887, seed=295759, cardinality=1000,
            machine_size=40, policy="guideline", share=12, config=FAST,
            workers=1, retry_budget=0, hedge=P50, breaker=True,
        )
        assert on.rows()[30]["shard"] == 2
        assert not on.rows()[30]["hedge_won"]
        assert fast_paths(on) > 0


#: Speculation misses found before the busy-start rule: a hedge sibling
#: that started on a cancelled loser's busy processors finished first
#: and cancelled a committed epoch — in the second one ulp earlier (the
#: epoch ends at 62.12144071897848, the twin cancels it at
#: 62.12144071897847).  Holding back the epochs of such an instant
#: leaves nothing to miss.
BUSY_START_MISSES = {
    "wide-bushy-two-shards": dict(
        mix_or_shape="wide_bushy", shards=2, rate=1.2, duration=20.0,
        cardinality=500, seed=11, workers=1, retry_budget=0, hedge=True,
        placement="least_loaded", policy="exclusive", machine_size=40,
    ),
    "left-linear-one-ulp": dict(
        mix_or_shape="left_linear", shards=4, rate=0.5, duration=40.0,
        cardinality=1000, seed=12, workers=1, retry_budget=2, hedge=P80,
        placement="least_loaded", policy="exclusive", machine_size=40,
        breaker=True, shard_faults=FaultSchedule.generate(
            machine_size=4, crash_rate=0.05, horizon=40.0, seed=56,
            repair_time=3.0,
        ),
    ),
}


class TestSpeculationMiss:
    @pytest.mark.parametrize("name", sorted(BUSY_START_MISSES))
    def test_busy_start_twins_no_longer_miss(self, name):
        on, reruns = run_pair(**BUSY_START_MISSES[name])
        assert reruns == 0
        assert fast_paths(on) > 0

    def test_an_evicted_sibling_misses_and_the_cluster_reruns_once(self):
        """``drop_oldest`` evicts a queued hedge sibling at a later
        arrival, and the router cancels its fast-pathed mate: the abort
        guard refuses the committed epoch, and the cluster reruns once
        without speculating — the rerun itself cannot miss, it would
        have raised."""
        on, reruns = run_pair(
            mix_or_shape="wide_bushy", shards=2, rate=0.8, duration=30.0,
            seed=1, cardinality=500, machine_size=24, policy="exclusive",
            share=12, config=FAST, workers=1, retry_budget=1, hedge=P50,
            queue_limit=2, shed="drop_oldest",
        )
        assert reruns == 1
        assert on.shed_counts()["drop_oldest"] > 0
        assert fast_paths(on) > 0


class TestChaosCampaign:
    def test_campaign_cells_on_equal_off(self):
        points = build_points(
            cluster_shapes=((2, 8), (4, 8)), crash_rates=(0.05,),
            queries=30, arrival_rate=2.0, horizon=60.0, repair_time=15.0,
            retry_budget=3, placement="hash", seed=0,
        )
        for point in points:
            digests, fast = [], []
            for fast_path in (True, False):
                turbo.clear_cache()
                result = run_resilient_cluster(
                    open_arrivals=point.arrivals(),
                    shards=point.shards,
                    engine_options=campaign_engine_options(
                        point.machine_size, fast_path=fast_path
                    ),
                    placement=point.placement,
                    shard_faults=point.schedule(),
                    retry_budget=point.retry_budget,
                )
                assert check_invariants(result) == []
                digests.append(rows_digest(result.rows()))
                fast.append(fast_paths(result))
            assert digests[0] == digests[1]
            assert fast[0] > 0 == fast[1]
