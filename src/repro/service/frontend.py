"""Request handling for the JSONL query service.

Requests and responses are plain dicts so the service is trivially
testable without any I/O; :func:`serve` adds the line-delimited JSON
transport.  Every response carries ``"ok"``; failures come back as
``{"ok": False, "error": ...}`` instead of raising, so one malformed
request never kills the stream.

Only the simulating backends (``sim`` / ``ideal``) are served: they
are deterministic, run in simulated time, and cannot be wedged by a
request — a network-facing front-end must not fork real-data executor
threads per request.
"""

from __future__ import annotations

import json
from typing import Dict, IO, Iterator, List, Optional

from ..core.shapes import SHAPE_NAMES
from ..options import OPTIONS, QWC, WC, Option

#: Backends a service request may ask for.
SERVICE_BACKENDS = ("sim", "ideal")

#: The most processors one request may provision (12.8x the paper's
#: 80): a ``query`` op's ``processors``, a ``workload`` op's
#: ``machine_size``, a ``cluster`` op's shards times the processors
#: each may hold.  An FP plan opens producers x consumers streams, so a
#: query's cost grows faster than quadratically in its machine size,
#: and one line must not hold the stream for minutes or exhaust memory.
#: The facade (:mod:`repro.api`) itself keeps no limit.
MAX_QUERY_PROCESSORS = 1024

#: The longest request line :func:`serve` reads, in characters (1 MiB
#: of ASCII).  A longer line is answered ``ok: false`` without ever being
#: held whole, and the stream goes on with the next line.
MAX_LINE_CHARS = 1 << 20

#: Characters :func:`serve` asks a stream for in one read.
_READ_CHARS = 1 << 16

#: Request keys that are the service's own rather than facade knobs.
_SERVICE_OPTIONS = (
    Option("shape", SHAPE_NAMES, "wide_bushy", "query tree shape", ops=QWC),
    Option("rows", bool, False, "also return the per-query rows", ops=WC),
    Option(
        "processors", int, 40,
        f"machine size, at most {MAX_QUERY_PROCESSORS}", ops=("query",),
    ),
    Option("backend", SERVICE_BACKENDS, "sim", "simulating backend", ops=("query",)),
)

#: Per op, the keys a request may carry and the table row giving each
#: key's type — computed once: the check runs on every request.  Every
#: op validates strictly: an unknown key (``"deadine"``) is an error
#: naming the accepted keys, a wrong-typed value an error naming the
#: expected type, never a silently ignored typo or a crash downstream.
#: (``stats`` is read for truthiness only, so it carries no type.)
_ROWS: Dict[str, Dict[str, Optional[Option]]] = {
    op: {row.name: row for row in OPTIONS + _SERVICE_OPTIONS if op in row.ops}
    for op in QWC
}
_ROWS["stats"] = {"stats": None}


class QueryService:
    """Handler mapping request dicts to response dicts.

    Request handling is stateless; the service additionally keeps two
    pieces of observability state for the ``stats`` op — per-op served
    counters, and the engine/per-shard occupancy snapshot of the most
    recent workload or cluster run.
    """

    def __init__(self) -> None:
        self._served: Dict[str, int] = {}
        self._engine_stats: Optional[Dict] = None

    def handle(self, request) -> Dict:
        """Serve one request; never raises on bad input."""
        if not isinstance(request, dict):
            return self._error("request must be a JSON object")
        op = request.get("op")
        if op is None and request.get("stats"):
            op = "stats"
        rows = _ROWS.get(op) if isinstance(op, str) else None
        if rows is None:
            return self._error(
                f"unknown op {op!r}; expected 'query', 'workload', "
                f"'cluster', or 'stats'"
            )
        unknown = sorted(key for key in request if key not in rows and key != "op")
        if unknown:
            return self._error(
                f"unknown {op} parameters {unknown}; "
                f"accepted keys: {sorted(rows)}"
            )
        for key, value in request.items():
            row = rows.get(key)
            if row is not None and not row.accepts(value):
                return self._error(
                    f"bad value for {key!r}: expected {row.expected()}, "
                    f"got {value!r}"
                )
        try:
            if op == "stats":
                return self._stats()
            return self._count(op, getattr(self, f"_{op}")(request))
        except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
            return self._error(str(exc))

    def _count(self, op: str, response: Dict) -> Dict:
        if response.get("ok"):
            self._served[op] = self._served.get(op, 0) + 1
        return response

    # -- the operations (handle() dispatches to ``_<op>``) ------------------

    def _query(self, request: Dict) -> Dict:
        from ..api import run
        from ..sim.run import QueryAbortedError

        shape = request.get("shape", "wide_bushy")
        if shape not in SHAPE_NAMES:
            return self._error(
                f"unknown shape {shape!r}; expected one of {SHAPE_NAMES}"
            )
        backend = request.get("backend", "sim")
        if backend not in SERVICE_BACKENDS:
            return self._error(
                f"service backends are {SERVICE_BACKENDS}; got {backend!r}"
            )
        processors = request.get("processors", 40)
        if processors > MAX_QUERY_PROCESSORS:
            return self._error(
                f"processors={processors} exceeds the service limit of "
                f"{MAX_QUERY_PROCESSORS} per query"
            )
        options = {
            key: value for key, value in request.items()
            if key not in ("op", "shape", "backend")
        }
        try:
            result = run(shape, backend=backend, **options)
        except QueryAbortedError as exc:
            # The deadline fired: a well-formed request with a definite
            # (deterministic) outcome, not a service error.
            return {
                "ok": True,
                "op": "query",
                "shape": shape,
                "backend": backend,
                "aborted": True,
                "aborted_at": exc.at,
                "reason": exc.reason,
            }
        busy_time = result.busy_time()
        return {
            "ok": True,
            "op": "query",
            "shape": shape,
            "strategy": result.strategy,
            "processors": result.processors,
            "backend": backend,
            "response_time": result.response_time,
            "busy_time": busy_time,
            "utilization": result.utilization(busy_time),
            "events": result.events,
            "result_tuples": result.result_tuples,
        }

    def _workload(self, request: Dict) -> Dict:
        from ..api import run_workload

        _check_provisioned("workload", request)
        options = _facade_options("workload", request)
        result = run_workload(request.get("shape", "wide_bushy"), **options)
        response = {
            "ok": True,
            "op": "workload",
            "policy": result.policy,
            "machine_size": result.machine_size,
            "submitted": len(result.records),
            "completed": len(result.completed()),
            "rejected": result.rejected_count(),
            "makespan": result.makespan,
            "throughput": result.throughput(),
            "utilization": result.utilization(),
            "latency": result.latency_stats(),
            "queue_delay_mean": result.mean_queue_delay(),
            "peak_in_flight": result.peak_in_flight,
        }
        if result.scheduler is not None:
            response["scheduler"] = result.scheduler
            response["scheduling_decisions"] = result.scheduling_decisions
        tenants = result.tenants()
        if tenants:
            response["tenants"] = result.tenant_summary()
        if result.faults_injected or result.failed_count():
            response["resilience"] = result.resilience_summary()
        if (
            result.shed_count()
            or result.cancelled_count()
            or result.deadline_missed_count()
        ):
            lifecycle = dict(result.lifecycle_summary())
            if tenants:
                lifecycle["tenants"] = {
                    name: {
                        "shed": result.shed_count(name),
                        "expired": result.expired_count(name),
                    }
                    for name in tenants
                }
            response["lifecycle"] = lifecycle
        if request.get("rows"):
            response["rows"] = result.rows()
        self._engine_stats = {
            "op": "workload",
            "machine_size": result.machine_size,
            "utilization": result.utilization(),
            "peak_in_flight": result.peak_in_flight,
            "peak_queued": result.peak_queued,
            "lifecycle": {
                "submitted": len(result.records),
                "completed": len(result.completed()),
                "rejected": result.rejected_count(),
                "shed": result.shed_count(),
                "expired": result.deadline_missed_count(),
                "cancelled": result.cancelled_count(),
                "failed": result.failed_count(),
            },
        }
        return response

    def _cluster(self, request: Dict) -> Dict:
        from ..api import run_cluster

        _check_provisioned("cluster", request)
        options = _facade_options("cluster", request)
        result = run_cluster(request.get("shape", "wide_bushy"), **options)
        response = {
            "ok": True,
            "op": "cluster",
            "shards": len(result.shards),
            "placement": result.placement,
            "autoscale": result.autoscale,
            "submitted": result.submitted_count(),
            "completed": result.completed_count(),
            "rejected": result.rejected_count(),
            "makespan": result.makespan,
            "goodput": result.goodput(),
            "latency": result.latency_stats(),
            "migrations": result.migrations,
            "per_shard": result.per_shard(),
        }
        if result.scale_ups() or result.scale_downs():
            response["scale_ups"] = result.scale_ups()
            response["scale_downs"] = result.scale_downs()
        resilience = getattr(result, "resilience", None)
        if resilience:
            # Coordinated-cluster runs carry the full resilience
            # telemetry, including per-shard abort/retry/hedge counts.
            response["resilience"] = resilience
            response["failed"] = result.failed_count()
        if request.get("rows"):
            response["rows"] = result.rows()
        lifecycle = {
            "submitted": result.submitted_count(),
            "completed": result.completed_count(),
            "useful": result.useful_count(),
            "rejected": result.rejected_count(),
        }
        if resilience:
            lifecycle["failed"] = result.failed_count()
        self._engine_stats = {
            "op": "cluster",
            "shards": result.per_shard(),
            "placement": result.placement,
            "autoscale": result.autoscale,
            "migrations": result.migrations,
            "lifecycle": lifecycle,
        }
        if resilience:
            self._engine_stats["resilience"] = resilience
        return response

    def _stats(self) -> Dict:
        return {
            "ok": True,
            "op": "stats",
            "served": dict(sorted(self._served.items())),
            "engine": self._engine_stats,
        }

    @staticmethod
    def _error(message: str) -> Dict:
        return {"ok": False, "error": message}


# -- request values JSON cannot spell ---------------------------------------


def _schedule(payload):
    from ..faults import FaultSchedule

    if not isinstance(payload, dict):
        raise TypeError("a fault schedule payload is a JSON object")
    return FaultSchedule.from_payload(payload)


def _cluster_faults(value):
    """Engine-level faults of a cluster: one schedule for every shard,
    a per-shard list (null = fault-free shard), or a {shard: payload}
    map — JSON object keys are strings, so the map form converts them
    back to shard indices."""
    if isinstance(value, dict) and "seed" in value:
        return _schedule(value)
    if isinstance(value, dict):
        return {
            int(shard): None if payload is None else _schedule(payload)
            for shard, payload in value.items()
        }
    return [None if payload is None else _schedule(payload) for payload in value]


def _trace(payload):
    from ..cluster import Trace

    return Trace.from_payload(payload)


def _cancellations(pairs):
    return [(float(when), int(index)) for when, index in pairs]


def _check_provisioned(op: str, request: Dict) -> None:
    """Refuse a workload or cluster request that provisions more than
    :data:`MAX_QUERY_PROCESSORS`: its ``machine_size``, for a cluster
    times ``shards``, and an elastic cluster's shards at their ceiling
    (``scale_max``, by default twice ``machine_size``)."""
    rows = _ROWS[op]
    size = request.get("machine_size", rows["machine_size"].default)
    total = size
    if op == "cluster":
        if request.get("autoscale") not in (None, "static"):
            scale_max = request.get("scale_max")
            size = max(size, 2 * size if scale_max is None else scale_max)
        total = size * request.get("shards", rows["shards"].default)
    if total > MAX_QUERY_PROCESSORS:
        raise ValueError(
            f"{op} request provisions {total} processors, over the "
            f"service limit of {MAX_QUERY_PROCESSORS} per request"
        )


def _facade_options(op: str, request: Dict) -> Dict:
    """The facade keywords of a workload/cluster request: every key but
    the service's own, with the values JSON cannot spell rebuilt — a
    two-element deadline list as the (lo, hi) tuple, the
    ``to_payload()`` dict forms as schedules and traces.  A payload
    that does not parse raises :class:`ValueError` naming it."""
    options = {
        key: value for key, value in request.items()
        if key not in ("op", "shape", "rows")
    }
    if isinstance(options.get("deadline"), list):
        options["deadline"] = tuple(options["deadline"])
    for key, what, parse in (
        ("cancellations", "cancellations (expected [time, query] pairs)", _cancellations),
        ("trace", "trace", _trace),
        ("shard_faults", "fault schedule", _schedule),
        ("faults", "fault schedule", _schedule if op == "workload" else _cluster_faults),
    ):
        if options.get(key) is not None:
            try:
                options[key] = parse(options[key])
            except (TypeError, KeyError, ValueError) as exc:
                raise ValueError(f"bad {what}: {exc}") from None
    return options


def _reject_constant(token: str):
    """``json.loads`` hook for ``NaN``/``Infinity``/``-Infinity``:
    Python accepts them, RFC 8259 does not, and a non-finite knob would
    poison every number it reaches."""
    raise ValueError(f"{token} is not valid JSON (RFC 8259)")


def serve(
    in_stream: IO[str],
    out_stream: IO[str],
    service: Optional[QueryService] = None,
) -> int:
    """Pump line-delimited JSON requests through a service.

    Blank lines are skipped; unparseable lines — bad syntax, the
    non-finite constants, nesting too deep to parse — and lines longer
    than :data:`MAX_LINE_CHARS` produce an error response on their line
    rather than aborting the stream.  Returns the number of requests
    served.
    """
    service = service or QueryService()
    served = 0
    for line in _request_lines(in_stream):
        if line is None:
            response = {
                "ok": False,
                "error": f"request line longer than {MAX_LINE_CHARS} characters",
            }
        else:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line, parse_constant=_reject_constant)
            except (ValueError, RecursionError) as exc:
                response = {"ok": False, "error": f"bad JSON: {exc}"}
            else:
                response = service.handle(request)
        out_stream.write(json.dumps(response, sort_keys=True) + "\n")
        out_stream.flush()
        served += 1
    return served


def _request_lines(in_stream) -> Iterator[Optional[str]]:
    """The lines of ``in_stream``, ``None`` for one longer than
    :data:`MAX_LINE_CHARS`.

    A stream with ``readline`` is read :data:`_READ_CHARS` characters at
    a time: a line is held only up to the limit, and the rest of an
    oversized one is discarded read by read, up to its newline.  Any
    other iterable holds its lines already, and they are only measured.
    """
    readline = getattr(in_stream, "readline", None)
    if readline is None:
        for line in in_stream:
            yield line if len(line.rstrip("\r\n")) <= MAX_LINE_CHARS else None
        return
    pieces: Optional[List[str]] = []
    held = 0
    while True:
        piece = readline(_READ_CHARS)
        ended = piece.endswith("\n")
        if pieces is not None:
            held += len(piece) - ended
            pieces.append(piece)
            if held > MAX_LINE_CHARS:
                pieces = None  # too long: keep nothing more of it
        if ended or not piece:
            if pieces is None:
                yield None
            elif held or ended:
                yield "".join(pieces)
            if not piece:
                return
            pieces = []
            held = 0
