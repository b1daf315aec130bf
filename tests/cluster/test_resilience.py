"""The coordinated resilient cluster: shard failover, retry budgets,
hedged requests, circuit breakers, throttling, and conservation."""

import pytest

from repro import api
from repro.cluster import (
    PLACEMENT_NAMES,
    BreakerPolicy,
    HedgePolicy,
    ResilientClusterResult,
    ThrottlePolicy,
    build_ring,
    make_placement,
    resolve_shard_faults,
    ring_lookup,
    ring_lookup_live,
    synthesize_trace,
)
from repro.cluster.chaos import check_invariants
from repro.faults import CrashFault, FaultSchedule, StallFault
from repro.sim import MachineConfig

FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)


def run_cluster(**overrides):
    """A small resilient run: any resilience knob routes api.run_cluster
    onto the coordinated single-clock path."""
    knobs = dict(
        arrivals="poisson", rate=0.4, duration=40.0, seed=3, shards=2,
        machine_size=12, policy="exclusive", share=12, strategy="FP",
        cardinality=500, placement="hash", config=FAST, retry_budget=2,
    )
    knobs.update(overrides)
    return api.run_cluster("wide_bushy", **knobs)


def kill_schedule(shard, at, repair_at=None):
    return FaultSchedule(
        crashes=(CrashFault(shard, at=at, repair_at=repair_at),), seed=0
    )


class TestFailover:
    def test_killed_shard_queries_complete_elsewhere(self):
        result = run_cluster(shard_faults=kill_schedule(0, at=10.0))
        assert isinstance(result, ResilientClusterResult)
        assert result.failed_count() == 0
        assert result.completed_count() == result.submitted_count()
        res = result.resilience
        assert res["shard_crashes"] == 1
        assert res["rerouted"] + res["retries"] > 0
        # The dead shard stops taking traffic.
        dead = res["per_shard"][0]
        assert dead["alive"] is False

    def test_no_failover_baseline_loses_the_dead_shard(self):
        killed = kill_schedule(0, at=10.0)
        resilient = run_cluster(shard_faults=killed)
        baseline = run_cluster(shard_faults=killed, failover=False)
        assert baseline.failed_count() > 0
        assert baseline.completed_count() < resilient.completed_count()
        errors = {
            r.error for r in baseline.records if r.failed and r.error
        }
        assert any("no failover" in e for e in errors)

    def test_repair_rejoins_the_ring(self):
        result = run_cluster(
            shard_faults=kill_schedule(0, at=5.0, repair_at=15.0),
            duration=60.0,
        )
        res = result.resilience
        assert res["shard_crashes"] == 1
        assert res["shard_repairs"] == 1
        assert all(s["alive"] for s in res["per_shard"])
        assert result.failed_count() == 0

    def test_all_shards_dead_exhausts_the_retry_budget(self):
        schedule = FaultSchedule(
            crashes=(CrashFault(0, at=5.0), CrashFault(1, at=5.0)), seed=0
        )
        result = run_cluster(shard_faults=schedule, duration=30.0)
        late = [r for r in result.records if r.arrival >= 5.0]
        assert late
        assert all(r.failed for r in late)
        assert all(
            "retry budget" in (r.error or "") for r in late
        )
        assert check_invariants(result) == []

    def test_retry_budget_zero_fails_immediately(self):
        result = run_cluster(
            shard_faults=kill_schedule(0, at=10.0),
            retry_budget=0,
        )
        assert result.resilience["retries"] == 0
        # Evacuated queries still reroute free of budget; only the
        # in-flight victims (which need a retry) can fail.
        assert check_invariants(result) == []


class TestHedging:
    STALL = FaultSchedule(
        stalls=(StallFault(1, start=0.0, end=500.0, factor=6.0),), seed=0
    )

    def test_hedges_fire_against_a_straggler_and_cut_latency(self):
        knobs = dict(
            shard_faults=self.STALL, shards=4, rate=0.45, duration=120.0,
            cardinality=1_000,
        )
        unhedged = run_cluster(**knobs)
        hedged = run_cluster(
            hedge=HedgePolicy(percentile=50.0, min_observations=6), **knobs
        )
        assert unhedged.resilience["hedges"] == 0
        assert hedged.resilience["hedges"] > 0
        assert hedged.resilience["hedge_wins"] > 0
        assert any(r.hedge_won for r in hedged.records)
        assert (
            hedged.latency_stats()["p99"] < unhedged.latency_stats()["p99"]
        )

    def test_hedge_off_is_identical_to_absent(self):
        assert (
            run_cluster(hedge=None).rows() == run_cluster().rows()
        )

    def test_bare_number_is_the_percentile(self):
        assert HedgePolicy.resolve(90).percentile == 90.0

    def test_unknown_policy_key_rejected(self):
        with pytest.raises(ValueError, match="percentil"):
            HedgePolicy.resolve({"percentil": 90})


class TestBreakerAndThrottle:
    def test_breaker_opens_on_a_crashing_shard(self):
        # Engine-level faults kill every processor of shard 0 early and
        # permanently: each attempt there dies, recovery gives up, and
        # the breaker must open after enough failures.
        engine_faults = FaultSchedule(
            crashes=tuple(CrashFault(p, at=1.0) for p in range(12)), seed=0
        )
        result = run_cluster(
            faults={0: engine_faults, 1: None},
            breaker=BreakerPolicy(window=8, threshold=0.5, min_samples=2),
            duration=60.0,
        )
        assert result.resilience["breaker_opens"] >= 1
        assert check_invariants(result) == []

    def test_throttle_sheds_over_budget_tenants(self):
        # A rated tenant arrives as Poisson at its contracted rate —
        # bursty, so a tight token bucket must shed the bursts.
        result = run_cluster(
            tenants=[{"name": "greedy", "rate": 0.3}],
            rate=None,
            duration=60.0,
            throttle=ThrottlePolicy(burst_seconds=1.0),
        )
        assert result.resilience["throttled"] > 0
        throttled = [r for r in result.records if r.shed == "throttled"]
        assert len(throttled) == result.resilience["throttled"]
        assert check_invariants(result) == []


class TestConservationAndDeterminism:
    def test_every_query_has_exactly_one_terminal_state(self):
        result = run_cluster(
            shard_faults=kill_schedule(0, at=8.0, repair_at=20.0),
            hedge=50.0, breaker=True, duration=60.0,
        )
        assert check_invariants(result) == []

    def test_identical_reruns(self):
        knobs = dict(shard_faults=kill_schedule(1, at=6.0), hedge=60.0)
        assert run_cluster(**knobs).rows() == run_cluster(**knobs).rows()

    def test_workers_are_ignored_rows_identical(self):
        knobs = dict(shard_faults=kill_schedule(1, at=6.0))
        serial = run_cluster(workers=1, **knobs)
        pooled = run_cluster(workers=4, **knobs)
        assert serial.rows() == pooled.rows()

    def test_summary_reports_the_resilience_line(self):
        result = run_cluster(shard_faults=kill_schedule(0, at=10.0))
        assert "resilience:" in result.summary()
        assert "shard crashes" in result.summary()


class TestOneRoutingCore:
    """With nothing to react to, the coordinated router routes every
    query exactly where a plain run's up-front ``place`` would have."""

    @pytest.mark.parametrize("tenanted", [False, True])
    @pytest.mark.parametrize("placement", PLACEMENT_NAMES)
    def test_coordinated_placement_matches_the_pre_routed_split(
        self, placement, tenanted
    ):
        knobs = dict(
            shards=3, placement=placement, retry_budget=0, duration=60.0,
            rate=0.7, seed=11, cardinality=300,
        )
        if tenanted:
            knobs.update(
                rate=None,
                tenants=[{"name": "a", "rate": 0.4},
                         {"name": "b", "rate": 0.2},
                         {"name": "c", "rate": 0.1}],
            )
        result = run_cluster(**knobs)
        assert result.resilience["hedges"] == result.resilience["retries"] == 0
        arrivals = [(record.arrival, record.spec) for record in result.records]
        assert len(arrivals) > 20
        assert any(spec.tenant is not None for _, spec in arrivals) == tenanted
        policy = make_placement(placement)
        policy.reset(3, {"machine_size": 12, "config": FAST, "cost_model": None})
        expected = [
            policy.place(index, time, spec)
            for index, (time, spec) in enumerate(arrivals)
        ]
        assert [row["shard"] for row in result.rows()] == expected


class TestTraceReplayUnderFaults:
    def test_faulted_replay_is_deterministic(self):
        from repro.workload import QueryMix, QuerySpec

        trace = synthesize_trace(
            QueryMix.single(QuerySpec("wide_bushy", 500, "FP")),
            rate=0.4, duration=40.0, seed=9,
        )
        knobs = dict(
            trace=trace, shards=2, machine_size=12, policy="exclusive",
            share=12, config=FAST, seed=3, retry_budget=2,
            shard_faults=kill_schedule(0, at=10.0),
        )
        first = api.run_cluster("wide_bushy", **knobs)
        second = api.run_cluster("wide_bushy", **knobs)
        assert first.submitted_count() == len(trace)
        assert first.rows() == second.rows()
        assert first.resilience == second.resilience


class TestResilientDispatch:
    def test_plain_run_cluster_returns_a_plain_result(self):
        result = api.run_cluster(
            "wide_bushy", shards=2, arrivals="poisson", rate=0.2,
            duration=20.0, seed=3, machine_size=12, policy="exclusive",
            share=12, cardinality=500, config=FAST,
        )
        assert not isinstance(result, ResilientClusterResult)

    def test_any_resilience_knob_selects_the_coordinated_path(self):
        for knob in (
            dict(retry_budget=1),
            dict(hedge=95.0),
            dict(breaker=True),
            dict(throttle=True),
            dict(failover=True),
            dict(shard_faults=kill_schedule(0, at=5.0)),
        ):
            assert isinstance(run_cluster(**knob), ResilientClusterResult)

    def test_closed_loop_without_trace_refused(self):
        with pytest.raises(ValueError, match="open-loop"):
            api.run_cluster(
                "wide_bushy", shards=2, arrivals="closed", clients=2,
                retry_budget=1, machine_size=12, policy="exclusive",
                share=12, cardinality=500, config=FAST,
            )

    @pytest.mark.parametrize("knob", [
        dict(retry_budget=0), dict(hedge=True), dict(breaker=True),
        dict(throttle=True), dict(failover=True),
        dict(shard_faults=FaultSchedule(seed=0)),
    ], ids=lambda knob: next(iter(knob)))
    def test_closed_loop_with_any_reaction_names_the_reason(self, knob):
        with pytest.raises(ValueError, match="follow its logical query"):
            api.run_cluster(
                "wide_bushy", shards=2, arrivals="closed", clients=2,
                queries_per_client=2, machine_size=12, share=12,
                cardinality=500, config=FAST, **knob,
            )

    def test_autoscale_combines_with_resilience(self):
        knobs = dict(
            autoscale="reactive", scale_max=24, rate=0.8,
            shard_faults=kill_schedule(0, at=8.0, repair_at=20.0),
        )
        first = run_cluster(**knobs)
        second = run_cluster(**knobs)
        assert check_invariants(first) == []
        assert first.autoscale == "reactive"
        assert first.resilience["shard_crashes"] == 1
        assert first.resilience["shard_repairs"] == 1
        assert first.scale_ups() > 0
        assert first.rows() == second.rows()
        assert first.per_shard() == second.per_shard()


class TestResolveShardFaults:
    SCHEDULE = kill_schedule(0, at=5.0)

    def test_none_is_fault_free_everywhere(self):
        assert resolve_shard_faults(None, 3) == [None, None, None]

    def test_single_schedule_broadcasts(self):
        assert resolve_shard_faults(self.SCHEDULE, 2) == [
            self.SCHEDULE, self.SCHEDULE,
        ]

    def test_dict_keyed_by_shard(self):
        resolved = resolve_shard_faults({1: self.SCHEDULE}, 3)
        assert resolved == [None, self.SCHEDULE, None]

    def test_dict_with_out_of_range_shard_rejected(self):
        with pytest.raises(ValueError, match="shard"):
            resolve_shard_faults({5: self.SCHEDULE}, 2)

    def test_list_must_match_shard_count(self):
        with pytest.raises(ValueError, match="2"):
            resolve_shard_faults([self.SCHEDULE], 2)

    def test_wrong_type_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            resolve_shard_faults("crash everything", 2)


class TestRingLookupLive:
    KEYS = [f"tenant-{i}" for i in range(400)]

    def test_all_alive_matches_plain_lookup(self):
        ring = build_ring(4)
        for key in self.KEYS:
            assert ring_lookup_live(ring, key, {0, 1, 2, 3}) == ring_lookup(
                ring, key
            )

    def test_one_death_moves_about_one_nth_of_the_keyspace(self):
        shards = 4
        ring = build_ring(shards)
        before = {key: ring_lookup(ring, key) for key in self.KEYS}
        alive = {0, 1, 3}
        moved = sum(
            1
            for key in self.KEYS
            if ring_lookup_live(ring, key, alive) != before[key]
        )
        victims = sum(1 for owner in before.values() if owner == 2)
        # Exactly the dead shard's keys move — nobody else's.
        assert moved == victims
        assert moved <= 2 * len(self.KEYS) / shards

    def test_rejoin_restores_the_original_assignment(self):
        ring = build_ring(4)
        before = {key: ring_lookup(ring, key) for key in self.KEYS}
        after = {
            key: ring_lookup_live(ring, key, {0, 1, 2, 3})
            for key in self.KEYS
        }
        assert after == before

    def test_no_live_shard_is_none(self):
        ring = build_ring(3)
        assert ring_lookup_live(ring, "anyone", set()) is None
