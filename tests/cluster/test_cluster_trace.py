"""Trace determinism: the frozen record/replay format round-trips
byte for byte, and synthesis is pinned to its bytes."""

import hashlib
import json

import pytest

from repro.cluster import TRACE_VERSION, Trace, TraceQuery, synthesize_trace
from repro.workload import QuerySpec


def small_trace():
    return synthesize_trace("wide_bushy", rate=0.5, duration=30.0, seed=13)


class TestRoundTrip:
    def test_json_round_trip_is_byte_identical(self):
        trace = small_trace()
        text = trace.to_json()
        again = Trace.from_payload(json.loads(text))
        assert again.to_json() == text
        assert again == trace

    def test_file_round_trip_is_byte_identical(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.json"
        trace.write(path)
        first = path.read_bytes()
        Trace.read(path).write(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == first

    def test_canonical_json_is_stable(self):
        # Canonical form: sorted keys, no whitespace — so two equal
        # traces always serialize to the same bytes.
        trace = small_trace()
        payload = json.loads(trace.to_json())
        assert payload["version"] == TRACE_VERSION
        assert trace.to_json() == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )

    def test_optional_fields_survive(self):
        query = TraceQuery(
            arrival=1.5, shape="wide_bushy", cardinality=500,
            strategy="SE", relations=6, deadline=30.0, tenant="acme",
        )
        trace = Trace(queries=(query,), seed=3)
        again = Trace.from_payload(json.loads(trace.to_json()))
        assert again.queries[0].deadline == 30.0
        assert again.queries[0].tenant == "acme"


class TestValidation:
    def test_unknown_payload_key_rejected(self):
        payload = json.loads(small_trace().to_json())
        payload["comment"] = "hand-edited"
        with pytest.raises(ValueError, match="comment"):
            Trace.from_payload(payload)

    def test_unknown_query_key_rejected(self):
        payload = json.loads(small_trace().to_json())
        payload["queries"][0]["priority"] = 9
        with pytest.raises(ValueError, match="priority"):
            Trace.from_payload(payload)

    def test_out_of_order_arrivals_rejected(self):
        queries = (
            TraceQuery(arrival=2.0, shape="wide_bushy"),
            TraceQuery(arrival=1.0, shape="wide_bushy"),
        )
        with pytest.raises(ValueError):
            Trace(queries=queries)

    def test_wrong_version_rejected(self):
        payload = json.loads(small_trace().to_json())
        payload["version"] = TRACE_VERSION + 1
        with pytest.raises(ValueError):
            Trace.from_payload(payload)


class TestSynthesis:
    @pytest.mark.parametrize("rate, duration, seed, segments, queries, digest", [
        (1.0, 60.0, 0, 8, 57,
         "97893c133877a8ad3da3ac70320a5e510cb38bcaced95066620600c1e0f133bd"),
        (0.5, 300.0, 7, 3, 158,
         "3a50fa19d617d28a3c1e9c516e00904d44740a52d4b88470abc6b9c1e8b40459"),
        (4.0, 25.0, 11, 1, 102,
         "59375496eb3b39d881c4589e828797806e5637c9222c38469e144a2e094c92ef"),
    ])
    def test_pinned_digests(self, rate, duration, seed, segments, queries, digest):
        """The segment partition and per-segment seeds fix the bytes,
        so a (rate, duration, seed, segments) tuple names one trace."""
        trace = synthesize_trace(
            "wide_bushy", rate=rate, duration=duration, seed=seed,
            segments=segments,
        )
        assert len(trace) == queries
        assert hashlib.sha256(trace.to_json().encode()).hexdigest() == digest

    def test_seed_changes_the_trace(self):
        a = synthesize_trace("wide_bushy", rate=1.0, duration=30.0, seed=1)
        b = synthesize_trace("wide_bushy", rate=1.0, duration=30.0, seed=2)
        assert a.to_json() != b.to_json()

    def test_arrivals_sorted(self):
        trace = synthesize_trace(
            "wide_bushy", rate=2.0, duration=30.0, seed=5
        )
        times = [q.arrival for q in trace.queries]
        assert times == sorted(times)
        assert len(trace) > 10


class TestFromArrivals:
    def test_from_arrivals_sorts_and_freezes(self):
        spec = QuerySpec("wide_bushy", 500, "SE")
        trace = Trace.from_arrivals([(3.0, spec), (1.0, spec)], seed=4)
        assert [q.arrival for q in trace.queries] == [1.0, 3.0]
        assert trace.seed == 4
        assert trace.arrivals()[0][1].shape == "wide_bushy"
