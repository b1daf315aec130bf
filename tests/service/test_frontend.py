"""The JSONL query service."""

import io
import json
import pathlib
import tracemalloc

import pytest

from repro.api import run
from repro.service import QueryService, serve
from repro.service import frontend
from repro.service.frontend import MAX_LINE_CHARS, MAX_QUERY_PROCESSORS

SERVICE = QueryService()


class TestQueryOp:
    def test_matches_the_facade(self):
        response = SERVICE.handle({
            "op": "query", "shape": "left_linear", "strategy": "SP",
            "processors": 10, "cardinality": 500,
        })
        single = run("left_linear", "SP", 10, "sim", cardinality=500)
        assert response["ok"]
        assert response["response_time"] == single.response_time
        assert response["events"] == single.events
        assert response["strategy"] == "SP"

    def test_ideal_backend_allowed(self):
        response = SERVICE.handle({
            "op": "query", "backend": "ideal", "processors": 10,
            "cardinality": 500,
        })
        assert response["ok"]

    @pytest.mark.parametrize("backend", ["local", "threaded", "warp"])
    def test_real_data_backends_refused(self, backend):
        response = SERVICE.handle({"op": "query", "backend": backend})
        assert not response["ok"]
        assert "backend" in response["error"]

    def test_unknown_shape(self):
        response = SERVICE.handle({"op": "query", "shape": "spiral"})
        assert not response["ok"]
        assert "spiral" in response["error"]

    def test_bad_parameter_becomes_an_error_dict(self):
        response = SERVICE.handle({"op": "query", "strategy": "XX"})
        assert not response["ok"]


class TestWorkloadOp:
    REQUEST = {
        "op": "workload", "shape": "wide_bushy", "cardinality": 200,
        "relations": 4, "strategy": "SE", "machine_size": 8,
        "rate": 0.05, "duration": 60, "seed": 1,
    }

    def test_summarizes_the_run(self):
        response = SERVICE.handle(dict(self.REQUEST))
        assert response["ok"]
        assert response["policy"] == "exclusive"
        assert response["completed"] == response["submitted"]
        assert response["latency"]["p95"] >= response["latency"]["p50"]
        assert "rows" not in response

    def test_rows_on_request(self):
        response = SERVICE.handle(dict(self.REQUEST, rows=True))
        assert len(response["rows"]) == response["submitted"]

    def test_deterministic(self):
        assert SERVICE.handle(dict(self.REQUEST)) == SERVICE.handle(
            dict(self.REQUEST)
        )

    def test_unknown_parameter_refused(self):
        response = SERVICE.handle(dict(self.REQUEST, verbosity=3))
        assert not response["ok"]
        assert "verbosity" in response["error"]

    def test_negative_memory_budget_refused(self):
        response = SERVICE.handle(dict(self.REQUEST, memory_budget_bytes=-1.0))
        assert not response["ok"]
        assert "memory_budget_bytes" in response["error"]


class TestDispatch:
    def test_unknown_op(self):
        response = SERVICE.handle({"op": "drop_tables"})
        assert not response["ok"]
        assert "drop_tables" in response["error"]

    def test_non_object_request(self):
        assert not SERVICE.handle([1, 2, 3])["ok"]


class TestServe:
    def pump(self, *lines):
        out = io.StringIO()
        served = serve(io.StringIO("\n".join(lines) + "\n"), out)
        return served, [json.loads(l) for l in out.getvalue().splitlines()]

    def test_one_response_per_request(self):
        served, responses = self.pump(
            json.dumps({"op": "query", "processors": 10,
                        "cardinality": 500}),
            "",
            json.dumps({"op": "nope"}),
        )
        assert served == 2  # the blank line is skipped
        assert responses[0]["ok"]
        assert not responses[1]["ok"]

    def test_bad_json_does_not_kill_the_stream(self):
        served, responses = self.pump(
            "{not json",
            json.dumps({"op": "query", "processors": 10,
                        "cardinality": 500}),
        )
        assert served == 2
        assert not responses[0]["ok"]
        assert "bad JSON" in responses[0]["error"]
        assert responses[1]["ok"]

    def test_deep_nesting_does_not_kill_the_stream(self):
        """200 000 ``[`` overflow the decoder's recursion limit; the
        line is bad JSON, and the stats request after it is answered."""
        served, responses = self.pump("[" * 200_000, '{"stats": true}')
        assert served == 2
        assert not responses[0]["ok"]
        assert responses[0]["error"].startswith("bad JSON: ")
        assert responses[1]["ok"] and responses[1]["op"] == "stats"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_are_bad_json(self, token):
        """Python's decoder accepts these; RFC 8259 does not, and a NaN
        think time used to come back ``ok`` with NaN latencies."""
        served, responses = self.pump(
            '{"op": "workload", "arrivals": "closed", '
            f'"queries_per_client": 2, "think_time": {token}}}'
        )
        assert served == 1
        assert not responses[0]["ok"]
        assert responses[0]["error"] == (
            f"bad JSON: {token} is not valid JSON (RFC 8259)"
        )

    @pytest.mark.timeout(30)
    @pytest.mark.parametrize("rate", ["NaN", "1e999"])
    def test_non_finite_rate_does_not_hang_the_stream(self, rate):
        served, responses = self.pump(
            f'{{"op": "workload", "rate": {rate}}}', '{"stats": true}'
        )
        assert served == 2
        assert not responses[0]["ok"]
        assert responses[1]["ok"]

    def test_extreme_skew_does_not_kill_the_stream(self):
        """An overflowing theta used to end ``repro serve`` with a
        traceback before the stats line was read."""
        served, responses = self.pump(
            '{"op": "query", "skew_theta": 1e308}', '{"stats": true}'
        )
        assert served == 2
        assert not responses[0]["ok"]
        assert "2**-500" in responses[0]["error"]
        assert responses[1]["ok"] and responses[1]["op"] == "stats"

    @pytest.mark.timeout(30)
    def test_oversized_machine_does_not_hold_the_stream(self):
        """FP on 4000 processors took 36 s and 1.2 GB inside one line;
        a million is refused at once, naming the limit, and the stats
        line after it is answered."""
        import time

        started = time.perf_counter()
        served, responses = self.pump(
            '{"op": "query", "processors": 1000000}', '{"stats": true}'
        )
        assert time.perf_counter() - started < 1.0
        assert served == 2
        assert not responses[0]["ok"]
        assert str(MAX_QUERY_PROCESSORS) in responses[0]["error"]
        assert responses[1]["ok"] and responses[1]["op"] == "stats"

    @pytest.mark.timeout(30)
    def test_oversized_workload_machine_is_refused(self):
        """A 2000-processor workload ran 51 s and reached 1.1 GB inside
        one line; the query limit bounds what a workload provisions."""
        import time

        started = time.perf_counter()
        served, responses = self.pump(
            '{"op": "workload", "machine_size": 2000}', '{"stats": true}'
        )
        assert time.perf_counter() - started < 1.0
        assert served == 2
        assert not responses[0]["ok"]
        assert str(MAX_QUERY_PROCESSORS) in responses[0]["error"]
        assert responses[1]["ok"] and responses[1]["op"] == "stats"

    @pytest.mark.parametrize("request_", [
        {"op": "cluster", "shards": 4, "machine_size": 300},
        # Elastic shards provision up to scale_max, by default twice
        # the base machine: 2 x 600 processors.
        {"op": "cluster", "shards": 2, "machine_size": 300, "autoscale": "reactive"},
        {"op": "cluster", "shards": 2, "autoscale": "reactive", "scale_max": 600},
    ])
    def test_oversized_cluster_is_refused(self, request_):
        response = QueryService().handle(request_)
        assert not response["ok"]
        assert str(MAX_QUERY_PROCESSORS) in response["error"]

    def test_the_provisioning_bound_counts_what_is_built(self):
        from repro.service.frontend import _check_provisioned

        # A static cluster never builds its (ignored) scale_max.
        _check_provisioned(
            "cluster", {"shards": 2, "machine_size": 300, "scale_max": 5000}
        )
        _check_provisioned("cluster", {"shards": 4, "machine_size": 256})
        _check_provisioned("workload", {"machine_size": MAX_QUERY_PROCESSORS})
        with pytest.raises(ValueError, match="1025 processors"):
            _check_provisioned("workload", {"machine_size": 1025})

    def test_a_default_workload_line_is_served(self):
        response = QueryService().handle({
            "op": "workload", "arrivals": "closed", "clients": 2,
            "queries_per_client": 2, "cardinality": 500, "seed": 1,
        })
        assert response["ok"] and response["machine_size"] == 40

    def test_the_limit_itself_is_served(self):
        response = QueryService().handle({
            "op": "query", "strategy": "SP", "cardinality": 100,
            "processors": MAX_QUERY_PROCESSORS, "shape": "left_linear",
        })
        assert response["ok"] and response["processors"] == MAX_QUERY_PROCESSORS

    def test_arithmetic_error_is_an_error_dict(self, monkeypatch):
        """``handle`` never raises, whatever arithmetic fails below it."""
        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr("repro.api.run", overflow)
        response = QueryService().handle({"op": "query"})
        assert response == {"ok": False, "error": "math range error"}

    def test_responses_are_sorted_key_json(self):
        _, _ = self.pump(json.dumps({"op": "nope"}))
        out = io.StringIO()
        serve(io.StringIO('{"op": "nope"}\n'), out)
        line = out.getvalue().strip()
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_an_oversized_line_is_refused_without_being_read_whole(self):
        """A 5 MB line gets one ``ok: false`` naming the limit, the line
        after it is answered, and memory never holds the long line."""
        length = 5 * 1024 * 1024
        raw = b"x" * length + b"\n" + json.dumps({"stats": True}).encode() + b"\n"
        stream = io.TextIOWrapper(io.BytesIO(raw), encoding="ascii")
        out = io.StringIO()
        tracemalloc.start()
        try:
            served = serve(stream, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        refused, stats = [json.loads(l) for l in out.getvalue().splitlines()]
        assert served == 2
        assert refused == {
            "ok": False,
            "error": f"request line longer than {MAX_LINE_CHARS} characters",
        }
        assert stats["ok"] and stats["op"] == "stats"
        assert peak < length / 4

    def test_the_limit_holds_for_streams_and_for_lists_of_lines(self, monkeypatch):
        monkeypatch.setattr(frontend, "MAX_LINE_CHARS", 16)
        monkeypatch.setattr(frontend, "_READ_CHARS", 5)
        ok = '{"stats": true}'.ljust(16)
        lines = [ok, ok + " ", ok, "x" * 40]
        for source in (io.StringIO("\n".join(lines)), [l + "\n" for l in lines]):
            out = io.StringIO()
            assert serve(source, out) == 4
            answers = [json.loads(l)["ok"] for l in out.getvalue().splitlines()]
            assert answers == [True, False, True, False]


class TestLifecycle:
    """Deadlines, shedding, and cancellation through the service."""

    WORKLOAD = dict(TestWorkloadOp.REQUEST)

    def test_query_typo_is_refused_with_accepted_keys(self):
        """The satellite case: a misspelt "deadine" must not silently
        run an unbounded query."""
        response = SERVICE.handle({
            "op": "query", "shape": "left_linear", "processors": 10,
            "cardinality": 500, "deadine": 5.0,
        })
        assert not response["ok"]
        assert "deadine" in response["error"]
        assert "deadline" in response["error"]  # listed as accepted

    def test_query_deadline_abort_is_a_structured_response(self):
        response = SERVICE.handle({
            "op": "query", "shape": "left_linear", "strategy": "SP",
            "processors": 10, "cardinality": 500, "deadline": 0.001,
        })
        assert response["ok"]
        assert response["aborted"] is True
        assert response["aborted_at"] == 0.001
        assert response["reason"] == "deadline"

    def test_query_generous_deadline_matches_the_facade(self):
        plain = SERVICE.handle({
            "op": "query", "shape": "left_linear", "processors": 10,
            "cardinality": 500,
        })
        bounded = SERVICE.handle({
            "op": "query", "shape": "left_linear", "processors": 10,
            "cardinality": 500, "deadline": 1e9,
        })
        assert bounded["response_time"] == plain["response_time"]
        assert "aborted" not in bounded

    def test_workload_deadline_and_shed_report_lifecycle(self):
        response = SERVICE.handle(dict(
            self.WORKLOAD, deadline=0.5, shed="deadline_aware",
        ))
        assert response["ok"]
        assert "lifecycle" in response
        lifecycle = response["lifecycle"]
        assert lifecycle["shed"] + lifecycle["deadline_missed"] > 0

    def test_workload_without_lifecycle_activity_omits_the_key(self):
        response = SERVICE.handle(dict(self.WORKLOAD))
        assert response["ok"]
        assert "lifecycle" not in response

    def test_workload_cancellations(self):
        response = SERVICE.handle(dict(
            self.WORKLOAD, cancellations=[[0.01, 0]],
        ))
        assert response["ok"]
        assert response["lifecycle"]["cancelled"] == 1

    def test_workload_bad_cancellation_refused(self):
        response = SERVICE.handle(dict(self.WORKLOAD, cancellations=[[1.0]]))
        assert not response["ok"]
        assert "cancellation" in response["error"]

    def test_workload_deadline_range_accepted(self):
        response = SERVICE.handle(dict(self.WORKLOAD, deadline=[5.0, 50.0]))
        assert response["ok"]


class TestSchedulersAndTenants:
    """The scheduler/tenant keys of the workload op."""

    WORKLOAD = dict(TestWorkloadOp.REQUEST)

    def test_scheduler_reported_when_set(self):
        response = SERVICE.handle(dict(self.WORKLOAD, scheduler="wfq"))
        assert response["ok"]
        assert response["scheduler"] == "wfq"
        assert response["scheduling_decisions"] >= response["completed"]

    def test_scheduler_absent_by_default(self):
        response = SERVICE.handle(dict(self.WORKLOAD))
        assert response["ok"]
        assert "scheduler" not in response
        assert "scheduling_decisions" not in response
        assert "tenants" not in response

    def test_unknown_scheduler_is_an_error_dict(self):
        response = SERVICE.handle(dict(self.WORKLOAD, scheduler="lifo"))
        assert not response["ok"]
        assert "unknown scheduler" in response["error"]

    def test_tenants_summarized(self):
        response = SERVICE.handle(dict(
            self.WORKLOAD,
            scheduler="wfq",
            tenants=[
                {"name": "a", "rate": 0.2},
                {"name": "b", "rate": 0.2, "weight": 2.0},
            ],
        ))
        assert response["ok"]
        assert sorted(response["tenants"]) == ["a", "b"]
        cell = response["tenants"]["a"]
        assert {"submitted", "useful", "goodput", "latency"} <= set(cell)

    def test_lifecycle_carries_per_tenant_shed_counts(self):
        """Satellite: the lifecycle response names each tenant's shed
        and expired counts."""
        response = SERVICE.handle(dict(
            self.WORKLOAD,
            scheduler="fifo",
            rate=None,
            tenants=[
                {"name": "greedy", "rate": 4.0, "deadline": 2.0},
                {"name": "calm", "rate": 0.02, "deadline": 50.0},
            ],
        ))
        assert response["ok"]
        lifecycle = response["lifecycle"]
        assert sorted(lifecycle["tenants"]) == ["calm", "greedy"]
        greedy = lifecycle["tenants"]["greedy"]
        assert greedy["shed"] > 0
        assert greedy["expired"] > 0

    def test_bad_tenant_payload_is_an_error_dict(self):
        response = SERVICE.handle(dict(
            self.WORKLOAD, scheduler="wfq",
            tenants=[{"name": "a", "wieght": 2.0}],
        ))
        assert not response["ok"]
        assert "unknown tenant keys" in response["error"]


class TestClusterOp:
    REQUEST = {
        "op": "cluster", "shape": "wide_bushy", "cardinality": 500,
        "strategy": "FP", "machine_size": 12, "policy": "exclusive",
        "share": 12, "rate": 0.3, "duration": 30, "seed": 3, "shards": 2,
    }

    def test_summarizes_the_cluster_run(self):
        response = SERVICE.handle(dict(self.REQUEST))
        assert response["ok"]
        assert response["shards"] == 2
        assert response["placement"] == "hash"
        assert response["autoscale"] == "static"
        assert response["completed"] == response["submitted"]
        assert len(response["per_shard"]) == 2
        assert "rows" not in response

    def test_rows_on_request_carry_their_shard(self):
        response = SERVICE.handle(dict(self.REQUEST, rows=True))
        assert len(response["rows"]) == response["submitted"]
        assert all("shard" in row for row in response["rows"])

    def test_deterministic(self):
        assert SERVICE.handle(dict(self.REQUEST)) == SERVICE.handle(
            dict(self.REQUEST)
        )

    def test_trace_payload_replays(self):
        from repro.cluster import synthesize_trace

        trace = synthesize_trace(
            "wide_bushy", rate=0.5, duration=20.0, seed=5
        )
        request = dict(self.REQUEST, trace=trace.to_payload())
        for key in ("rate", "duration", "cardinality", "strategy"):
            del request[key]
        response = SERVICE.handle(request)
        assert response["ok"]
        assert response["submitted"] == len(trace)

    def test_bad_trace_is_an_error_dict(self):
        response = SERVICE.handle(
            dict(self.REQUEST, trace={"version": 99, "queries": []})
        )
        assert not response["ok"]
        assert "bad trace" in response["error"]

    def test_unknown_parameter_refused(self):
        """Satellite: strict key validation on the cluster op — a typo
        is an error naming the key, never a silent ignore."""
        response = SERVICE.handle(dict(self.REQUEST, shardss=4))
        assert not response["ok"]
        assert "shardss" in response["error"]

    def test_malformed_faults_payload_is_an_error_dict(self):
        response = SERVICE.handle(
            dict(self.REQUEST, faults={"crashes": []})
        )
        assert not response["ok"]
        assert "bad fault schedule" in response["error"]

    def test_cancellations_still_refused(self):
        """``cancellations`` stays a single-engine-only knob."""
        response = SERVICE.handle(
            dict(self.REQUEST, cancellations=[[1.0, 0]])
        )
        assert not response["ok"]
        assert "cancellations" in response["error"]


class TestClusterResilience:
    """The resilience surface of the cluster op: fault payloads in,
    per-shard abort/retry/hedge telemetry out."""

    def shard_kill_payload(self):
        from repro.faults import CrashFault, FaultSchedule

        return FaultSchedule(
            crashes=(CrashFault(0, at=10.0, repair_at=25.0),), seed=0
        ).to_payload()

    def request(self, **extra):
        base = dict(
            TestClusterOp.REQUEST, machine_size=12, share=12,
            strategy="FP", rate=0.2,
        )
        base.update(extra)
        return base

    def test_shard_faults_payload_runs_the_coordinated_cluster(self):
        service = QueryService()
        response = service.handle(self.request(
            shard_faults=self.shard_kill_payload(), retry_budget=2,
        ))
        assert response["ok"]
        resilience = response["resilience"]
        assert resilience["shard_crashes"] == 1
        assert resilience["shard_repairs"] == 1
        per_shard = resilience["per_shard"]
        assert len(per_shard) == 2
        assert all(
            {"shard", "alive", "dispatches", "hedges", "aborts", "retries"}
            <= set(entry) for entry in per_shard
        )
        stats = service.handle({"op": "stats"})
        engine = stats["engine"]
        assert engine["resilience"] == resilience
        assert "failed" in engine["lifecycle"]

    def test_engine_faults_accepted_in_all_three_forms(self):
        payload = self.shard_kill_payload()
        for faults in (
            payload,
            [payload, None],
            {"0": payload, "1": None},
        ):
            response = SERVICE.handle(self.request(faults=faults))
            assert response["ok"], response
            assert "resilience" not in response

    def test_hedge_retry_budget_and_failover_accepted(self):
        response = SERVICE.handle(self.request(
            retry_budget=1, hedge=95.0, breaker=True, throttle=False,
            failover=True,
        ))
        assert response["ok"]
        assert response["failed"] == 0

    def test_deterministic_resilient_response(self):
        request = self.request(
            shard_faults=self.shard_kill_payload(), retry_budget=2,
        )
        assert SERVICE.handle(dict(request)) == SERVICE.handle(dict(request))

    def test_bad_shard_faults_payload_is_an_error_dict(self):
        response = SERVICE.handle(self.request(shard_faults={"nope": 1}))
        assert not response["ok"]
        assert "bad fault schedule" in response["error"]

    def test_faults_of_wrong_shape_is_an_error_dict(self):
        response = SERVICE.handle(self.request(faults="everything"))
        assert not response["ok"]
        assert "faults" in response["error"]


class TestStatsOp:
    def test_bare_stats_request(self):
        """Satellite: ``{"stats": true}`` with no op is the stats op."""
        service = QueryService()
        response = service.handle({"stats": True})
        assert response["ok"]
        assert response["op"] == "stats"
        assert response["served"] == {}
        assert response["engine"] is None

    def test_served_counters_track_ok_responses(self):
        service = QueryService()
        service.handle({"op": "query", "processors": 10, "cardinality": 500})
        service.handle({"op": "query", "processors": 10, "cardinality": 500})
        service.handle({"op": "query", "backend": "warp"})  # refused
        response = service.handle({"stats": True})
        assert response["served"] == {"query": 2}

    def test_engine_snapshot_follows_the_last_workload(self):
        service = QueryService()
        service.handle({
            "op": "workload", "shape": "wide_bushy", "cardinality": 200,
            "relations": 4, "strategy": "SE", "machine_size": 8,
            "rate": 0.05, "duration": 60, "seed": 1,
        })
        response = service.handle({"stats": True})
        engine = response["engine"]
        assert engine["op"] == "workload"
        assert engine["machine_size"] == 8
        assert engine["lifecycle"]["submitted"] > 0
        assert "peak_queued" in engine

    def test_engine_snapshot_follows_the_last_cluster(self):
        service = QueryService()
        service.handle(dict(TestClusterOp.REQUEST))
        response = service.handle({"stats": True})
        engine = response["engine"]
        assert engine["op"] == "cluster"
        assert len(engine["shards"]) == 2

    def test_unknown_stats_key_refused(self):
        response = SERVICE.handle({"op": "stats", "verbose": True})
        assert not response["ok"]
        assert "verbose" in response["error"]


def _typed_keys():
    from repro.service.frontend import _ROWS

    return [
        (op, key) for op in ("query", "workload", "cluster")
        for key in sorted(_ROWS[op])
    ]


def _wrong_typed(row):
    """JSON values that are not of ``row``'s declared type, worked out
    from the declaration alone (not by asking ``row.accepts``)."""
    kinds = row.kinds
    junk = [] if row.nullable or row.default is None else [None]
    if isinstance(kinds[0], str):  # a choice: any non-string is wrong
        return junk + [7, 2.5, True, [1], {"a": 1}]
    if bool not in kinds:
        junk.append(True)  # a bool is not a number in JSON
    if int not in kinds and float not in kinds:
        junk.append(7)
    if float not in kinds:
        junk.append(2.5)
    junk.append("5")  # no knob takes a bare string
    if list not in kinds:
        junk.append([1])
    if dict not in kinds:
        junk.append({"a": 1})
    return junk


class TestHostileValues:
    """Wrong-typed values are refused at the edge, by key, before
    anything runs — and never take the stream down."""

    GOOD = json.dumps({"op": "query", "processors": 10, "cardinality": 500})

    def pump(self, *lines):
        out = io.StringIO()
        served = serve(io.StringIO("\n".join(lines) + "\n"), out)
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert served == len(lines) == len(responses)
        return responses

    @pytest.mark.parametrize("op,key", _typed_keys())
    def test_every_key_refuses_every_wrong_type(self, op, key):
        from repro.service.frontend import _ROWS

        row = _ROWS[op][key]
        junk = _wrong_typed(row)
        assert junk
        *refused, alive = self.pump(
            *(json.dumps({"op": op, key: value}) for value in junk),
            self.GOOD,
        )
        for value, response in zip(junk, refused):
            assert response["ok"] is False, (key, value)
            assert response["error"].startswith(f"bad value for {key!r}")
            assert row.expected() in response["error"]
        assert alive["ok"] is True

    @pytest.mark.parametrize(
        "request_,names",
        [
            # The two that used to raise AttributeError through handle().
            ({"op": "query", "strategy": None}, "'strategy': expected one of"),
            ({"op": "cluster", "placement": None}, "'placement': expected one of"),
            # The two that used to run: result_tuples 5.0; "no" read as true.
            ({"op": "query", "cardinality": "5"}, "'cardinality': expected int"),
            ({"op": "workload", "fast_path": "no"}, "'fast_path': expected bool"),
        ],
    )
    def test_the_known_offenders(self, request_, names):
        refused, alive = self.pump(json.dumps(request_), self.GOOD)
        assert refused["ok"] is False
        assert names in refused["error"]
        assert alive["ok"] is True

    def test_a_negative_cardinality_is_refused_by_name(self):
        refused, alive = self.pump(
            json.dumps({"op": "query", "cardinality": -5}), self.GOOD
        )
        assert refused == {
            "ok": False, "error": "cardinality must be non-negative, got -5"
        }
        assert alive["ok"] is True

    def test_an_unhashable_op_is_an_unknown_op(self):
        refused, alive = self.pump('{"op": ["query"]}', self.GOOD)
        assert "unknown op ['query']" in refused["error"]
        assert alive["ok"] is True

    def test_null_means_default_where_the_default_is_null(self):
        response = SERVICE.handle(dict(
            TestWorkloadOp.REQUEST, deadline=None, faults=None,
            cancellations=None, tenants=None, share=None,
        ))
        assert response["ok"]
        assert response == SERVICE.handle(dict(TestWorkloadOp.REQUEST))

    def test_right_typed_but_malformed_payloads_are_still_error_dicts(self):
        for request_ in (
            dict(TestWorkloadOp.REQUEST, faults=[]),
            dict(TestWorkloadOp.REQUEST, deadline=[]),
            dict(TestClusterOp.REQUEST, faults=[1, 2]),
            dict(TestClusterOp.REQUEST, trace={}),
        ):
            assert SERVICE.handle(request_)["ok"] is False, request_


#: Request lines that must each get exactly one ``ok: false`` — the
#: same file the CI perf-smoke job pipes through ``python -m repro serve``.
HOSTILE_FILE = pathlib.Path(__file__).with_name("hostile_lines.jsonl")


class TestHostileLinesFile:
    LINES = HOSTILE_FILE.read_text().splitlines()
    STATS = '{"op": "stats"}'

    def pump(self, *lines):
        out = io.StringIO()
        served = serve(io.StringIO("\n".join(lines) + "\n"), out)
        text = out.getvalue()
        return served, text, [json.loads(l) for l in text.splitlines()]

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("index", range(len(LINES)))
    def test_one_error_and_the_stream_goes_on(self, index):
        served, text, responses = self.pump(self.LINES[index], self.STATS)
        assert served == 2
        assert responses[0]["ok"] is False
        assert responses[1]["ok"] is True and responses[1]["op"] == "stats"
        assert "NaN" not in text and "Infinity" not in text

    @pytest.mark.timeout(120)
    def test_the_whole_file_gets_one_error_per_line(self):
        """Including the livelock a repair at 1e300 causes (float
        spacing there swallows every chunk): the watchdog's trip is
        answered with its first line, not its event trace."""
        served, text, responses = self.pump(*self.LINES)
        assert served == len(self.LINES) == len(responses)
        assert all(response["ok"] is False for response in responses)
        assert all("\n" not in response["error"] for response in responses)
        assert any(
            response["error"].startswith("simulation livelock: ")
            for response in responses
        )
        assert "NaN" not in text and "Infinity" not in text
