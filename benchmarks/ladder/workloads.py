"""The five workloads: input generation, the timed calls, output checks.

Runs in the child process of one repetition.  ``prepare`` builds a
workload's inputs from ``(seed, scale)`` and is part of ``setup_s``;
``run`` makes the timed calls — only the frozen v1 surface
(``run_sweep``/``SweepSpec``, ``run_workload``, ``run_cluster``,
``serve``/``QueryService``, ``QueryMix``) — and then, outside the
timed region, checks the outputs and canonicalises them for the digest.

In host time every workload is a closed loop with one client (call,
wait, call).  The Poisson arrivals are *simulated* time.

**What the seed does.**  The driver compares runs made with different
seeds, so a seed may change the inputs only where that leaves the
amount of work alone.  ``service_mixed`` is a fixed multiset of request
lines in seeded order; ``overlap_open`` hands the API a seed chosen by
:func:`equal_work_seed`, so every seed's Poisson stream carries the
nominal number of simulated events.  ``solo_grid`` is the paper's grid
and the ``cluster_*`` pair the reference traffic: both ignore the seed
(README.md says why).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import run_cluster, run_workload
from repro.bench.paperdata import PAPER_FIGURE_14
from repro.bench.workloads import LARGE_CARDINALITY, SIZE_LABELS, SMALL_CARDINALITY
from repro.core.shapes import SHAPE_NAMES
from repro.runner import SweepSpec, jsonl_line, run_sweep
from repro.service import QueryService, serve
from repro.workload import QueryMix, make_arrivals, sample_specs

_clock = time.perf_counter


@dataclass
class Timed:
    """What the timed calls of one repetition returned."""

    wall_s: float
    #: Host seconds of each blocking call the caller made.
    latencies: List[float]
    result: object
    counters: Dict[str, Optional[float]] = field(default_factory=dict)


@dataclass
class Checked:
    """The verdict on one repetition's outputs."""

    #: Canonical simulated output, one JSON text per row / response.
    lines: List[str]
    ops: int
    failed: int
    counters: Dict[str, Optional[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode("utf-8")).hexdigest()


def equal_work_seed(
    mix: QueryMix,
    rate: float,
    duration: float,
    seed: int,
    weight: Callable,
    tolerance: float = 0.004,
) -> Tuple[int, List[Tuple[float, object]]]:
    """The API seed for benchmark seed ``seed``, and the stream it makes.

    ``run_workload`` draws its own Poisson arrivals and specs from one
    integer, so the work of a run varies by ±10–20 % with it.  This
    scans the candidates ``seed * 100_003 + k`` and keeps the first
    whose stream — reproduced with the public ``make_arrivals`` and
    ``sample_specs`` the facade is documented to use — weighs within
    ``tolerance`` of the nominal ``rate × duration × mean weight``.
    That is rejection sampling: the streams are still Poisson,
    conditioned on their total work.
    """
    weights = mix.weights or (1.0,) * len(mix.specs)
    mean = sum(w * weight(s) for w, s in zip(weights, mix.specs)) / sum(weights)
    nominal = rate * duration * mean
    for candidate in range(seed * 100_003, (seed + 1) * 100_003):
        times = make_arrivals("poisson", rate, duration, candidate)
        specs = sample_specs(mix, len(times), candidate)
        if abs(sum(weight(s) for s in specs) / nominal - 1.0) <= tolerance:
            return candidate, list(zip(times, specs))
    raise RuntimeError("no equal-work stream found; widen the tolerance")


def check_traffic(inputs, timed: Timed) -> Checked:
    """Every query was served to completion — nothing may shed — and,
    where the stream was generated here, it is the one that was served."""
    expected, result = inputs[-1], timed.result
    rows = result.rows()
    failed = sum(1 for row in rows if row["completed"] is None)
    notes = []
    if expected is not None:
        got = sorted((r["arrival"], r["shape"], r["strategy_requested"]) for r in rows)
        if got != sorted((t, s.shape, s.strategy) for t, s in expected):
            # The facade no longer derives its stream the documented
            # way: the run measured some other amount of work.
            failed = max(failed, len(expected))
            notes.append("input drift: served stream differs from the generated one")
    return Checked([jsonl_line(row) for row in rows], len(rows), failed, notes=notes)


# -- solo_grid ------------------------------------------------------------


def prepare_solo_grid(seed: int, scale: float, workdir: str):
    """The paper's whole grid, one sweep per figure panel.  It has no
    duration or request count, so ``scale`` does not touch it, and it
    is the paper's input, so neither does ``seed``."""
    panels = [
        SweepSpec.paper(shape, cardinality)
        for cardinality in (SMALL_CARDINALITY, LARGE_CARDINALITY)
        for shape in SHAPE_NAMES
    ]
    return panels, workdir


def call_solo_grid(inputs, tracer=None) -> Timed:
    panels, workdir = inputs
    # Every spec is first-seen: a fresh cache directory per repetition.
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    try:
        rows, latencies = [], []
        started = _clock()
        for index, panel in enumerate(panels):
            if tracer is not None:
                tracer.op = index
            call = _clock()
            sweep = run_sweep(panel, workers=1, cache=True, cache_dir=cache_dir)
            latencies.append(_clock() - call)
            rows.extend(sweep.rows())
        timed = Timed(_clock() - started, latencies, rows)
        if tracer is not None:
            # Reads measured beside the writes: the same grid again,
            # every point now a disk-cache hit.  Not part of ``wall_s``.
            timed.counters["runner.cache_hits"] = sum(
                run_sweep(panel, workers=1, cache=True, cache_dir=cache_dir).cached_count()
                for panel in panels
            )
        return timed
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def check_solo_grid(inputs, timed: Timed) -> Checked:
    rows = timed.result
    failed = 0
    for row in rows:
        tuples = row["metrics"].get("result_tuples")
        if tuples is None or abs(tuples - row["cardinality"]) > 1e-9 * row["cardinality"]:
            failed += 1
    return Checked([jsonl_line(row) for row in rows], len(rows), failed, figure_14(rows))


def figure_14(rows: Sequence[Dict]) -> Dict[str, float]:
    """The simulator's error against the reference the repo holds."""
    best: Dict[Tuple[str, str], Tuple[float, str]] = {}
    for row in rows:
        cell = (row["shape"], SIZE_LABELS[row["cardinality"]])
        found = (row["metrics"]["response_time"], row["strategy"])
        if cell not in best or found < best[cell]:
            best[cell] = found
    errors, winners = [], 0
    for cell, (printed, strategy, _processors) in PAPER_FIGURE_14.items():
        ours, our_strategy = best[cell]
        errors.append(abs(ours - printed) / printed)
        winners += our_strategy == strategy
    return {"fig14_err_max": max(errors), "fig14_winners": winners}


# -- overlap_open ---------------------------------------------------------

#: Tenants of ``overlap_open``: (name, wfq weight, arrival rate).
TENANTS = (("a", 2, 0.25), ("b", 1, 0.15))

#: Weight of a spec in :func:`equal_work_seed`: the simulated events of
#: one cardinality-1000 query on the 17 processors the guideline policy
#: grants it here (``repro.api.run(shape, strategy, 17,
#: cardinality=1000).events`` at the commit that added the benchmark).
#: Host time per query follows it within ±12 %.
OVERLAP_EVENTS = {
    "left_linear": {"SP": 10226, "SE": 10226, "RD": 10226, "FP": 17951},
    "left_bushy": {"SP": 10192, "SE": 7213, "RD": 9034, "FP": 9317},
    "wide_bushy": {"SP": 10175, "SE": 4199, "RD": 6242, "FP": 4525},
    "right_bushy": {"SP": 10192, "SE": 7213, "RD": 4882, "FP": 9979},
    "right_linear": {"SP": 10226, "SE": 10226, "RD": 7642, "FP": 17951},
}


def prepare_overlap_open(seed: int, scale: float, workdir: str):
    """Two tenants' Poisson streams as one: a mix that draws the tenant
    with the spec, at the summed rate, is their superposition."""
    paper = QueryMix.paper(cardinalities=(1000,))
    mix = QueryMix(
        specs=tuple(
            dataclasses.replace(spec, tenant=name)
            for name, _weight, _rate in TENANTS
            for spec in paper.specs
        ),
        weights=tuple(
            rate for _name, _weight, rate in TENANTS for _spec in paper.specs
        ),
    )
    rate = sum(rate for _name, _weight, rate in TENANTS)
    api_seed, expected = equal_work_seed(
        mix, rate, 400.0 * scale, seed,
        weight=lambda spec: OVERLAP_EVENTS[spec.shape][spec.strategy],
    )
    options = dict(
        arrivals="poisson", rate=rate, duration=400.0 * scale, seed=api_seed,
        machine_size=80, policy="guideline", scheduler="wfq",
        tenants=[{"name": name, "weight": weight} for name, weight, _rate in TENANTS],
    )
    return mix, options, expected


def call_overlap_open(inputs, tracer=None) -> Timed:
    mix, options, _expected = inputs
    started = _clock()
    result = run_workload(mix, **options)
    wall = _clock() - started
    return Timed(wall, [wall], result, {
        "workload.fast_path_queries": result.fast_path_queries,
        "workload.sched_decisions": result.scheduling_decisions,
        "workload.peak_in_flight": result.peak_in_flight,
    })


# -- cluster_plain / cluster_hedged ---------------------------------------


#: The API seed of the cluster pair.  Their work varies by ±10 % with
#: it and nothing cheap predicts how (fast-path eligibility and hedge
#: decisions follow simulated latencies), so ``--seed`` leaves it alone.
CLUSTER_SEED = 1


def prepare_cluster(seed: int, scale: float, workdir: str, **resilience):
    options = dict(
        shards=4, rate=0.8, duration=120.0 * scale, cardinality=1000,
        seed=CLUSTER_SEED, workers=1, **resilience,
    )
    return options, None


def call_cluster(inputs, tracer=None) -> Timed:
    options, _expected = inputs
    started = _clock()
    result = run_cluster("wide_bushy", **options)
    wall = _clock() - started
    resilience = getattr(result, "resilience", None) or {}
    return Timed(wall, [wall], result, {
        "workload.fast_path_queries": sum(s.fast_path_queries for s in result.shards),
        "workload.sched_decisions": sum(s.scheduling_decisions for s in result.shards),
        "workload.peak_in_flight": max(s.peak_in_flight for s in result.shards),
        "cluster.hedges": resilience.get("hedges", 0),
        "cluster.hedges_won": resilience.get("hedge_wins", 0),
        "cluster.retries": resilience.get("retries", 0),
    })


# -- service_mixed --------------------------------------------------------

#: Lines that must each get exactly one well-formed ``ok: false`` row.
HOSTILE_LINES = (
    '{"op": "query", "shape": ',                # bad JSON
    '{"op": "query", "shpae": "wide_bushy"}',   # unknown key
    '{"op": "explode"}',                        # unknown op
    '[1, 2, 3]',                                # not an object
)


def zipf_counts(total: int, ranks: int, exponent: float = 1.1) -> List[int]:
    """``total`` requests over ``ranks`` keys in exact Zipf proportion
    (largest remainder), so every seed sends the same multiset."""
    raw = [rank ** -exponent for rank in range(1, ranks + 1)]
    shares = [total * value / sum(raw) for value in raw]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(ranks), key=lambda i: (counts[i] - shares[i], i))
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def prepare_service_mixed(seed: int, scale: float, workdir: str):
    """1200 request lines: 93 % ``query`` ops Zipf(1.1) over the paper
    grid, 3 % ``workload`` ops, 2 % ``stats``, 2 % hostile lines.

    The 260 specs outnumber turbo's 128-entry profile cache while the
    hot head fits.  Popularity rank → spec is a fixed stride through
    the grid (so sizes and strategies interleave), the counts are exact
    and the query lines come in one fixed shuffled order: which
    requests miss a cache is then the same for every seed.  (p99 is the
    sixth-largest of 600 latencies, in a steep tail of cold
    many-processor FP queries; one of them re-missed moves it by 25 %.)
    The seed places the other lines among the queries.
    """
    total = max(len(HOSTILE_LINES), round(1200 * scale))
    workloads, stats, hostile = round(0.03 * total), round(0.02 * total), round(0.02 * total)
    grid = [
        (job.shape, job.strategy, job.processors, job.cardinality)
        for cardinality in (SMALL_CARDINALITY, LARGE_CARDINALITY)
        for shape in SHAPE_NAMES
        for job in SweepSpec.paper(shape, cardinality).expand()
    ]
    counts = zipf_counts(total - workloads - stats - hostile, len(grid))
    queries: List[Tuple[str, bool]] = []
    for rank, count in enumerate(counts):
        shape, strategy, processors, cardinality = grid[rank * 97 % len(grid)]
        line = json.dumps({
            "op": "query", "shape": shape, "strategy": strategy,
            "processors": processors, "cardinality": cardinality,
        })
        queries.extend([(line, True)] * count)
    random.Random(0).shuffle(queries)
    others = [
        (json.dumps({
            "op": "workload", "arrivals": "closed", "clients": 2,
            "queries_per_client": 2, "cardinality": 500, "rows": True,
            "seed": seed * 1000 + index,
        }), True)
        for index in range(workloads)
    ]
    others.extend([(json.dumps({"op": "stats"}), True)] * stats)
    others.extend(
        (HOSTILE_LINES[index % len(HOSTILE_LINES)], False) for index in range(hostile)
    )
    rng = random.Random(seed)
    rng.shuffle(others)
    slots = set(rng.sample(range(total), len(others)))
    queries, others = iter(queries), iter(others)
    return [next(others if slot in slots else queries) for slot in range(total)]


class _Requests:
    """The in-stream: stamps each line as ``serve`` takes it."""

    def __init__(self, lines: Sequence[str], tracer) -> None:
        self.lines, self.tracer, self.taken = lines, tracer, []

    def __iter__(self):
        for index, line in enumerate(self.lines):
            if self.tracer is not None:
                self.tracer.op = index
            self.taken.append(_clock())
            yield line + "\n"


class _Responses(io.TextIOBase):
    """The out-stream: stamps each response line as it is written."""

    def __init__(self) -> None:
        super().__init__()
        self.lines: List[str] = []
        self.written: List[float] = []

    def write(self, text: str) -> int:
        self.written.append(_clock())
        self.lines.append(text)
        return len(text)


def call_service_mixed(requests, tracer=None) -> Timed:
    source = _Requests([line for line, _ok in requests], tracer)
    sink = _Responses()
    started = _clock()
    served = serve(source, sink, QueryService())
    wall = _clock() - started
    latencies = [done - taken for taken, done in zip(source.taken, sink.written)]
    return Timed(wall, latencies, (served, sink.lines), {
        "service.bytes_out": sum(len(text.encode("utf-8")) for text in sink.lines),
        "service.errors_expected": sum(1 for _line, ok in requests if not ok),
    })


def check_service_mixed(requests, timed: Timed) -> Checked:
    """Exactly one well-formed response line per request, ``ok`` as
    expected — a hostile line *expects* ``ok: false``."""
    served, texts = timed.result
    failed, notes = 0, []
    if served != len(requests) or len(texts) != len(requests):
        failed = len(requests)
        notes.append(f"{len(requests)} requests got {len(texts)} response lines")
    lines = []
    for (_line, expect_ok), text in zip(requests, texts):
        try:
            response = json.loads(text)
            good = (
                text.endswith("\n") and text.count("\n") == 1
                and response["ok"] is expect_ok
                and (expect_ok or isinstance(response["error"], str))
            )
        except (ValueError, KeyError, TypeError):
            good, response = False, {"malformed": text}
        failed += not good
        lines.append(jsonl_line(response))
    return Checked(lines, len(requests), failed, notes=notes)


#: name → (why it is here, prepare, timed calls, output check).  The
#: names are fixed: later issues cite them.
WORKLOADS = {
    "solo_grid": (
        "the paper's whole Figure 9-14 grid, cold, through run_sweep with disk-cache writes",
        prepare_solo_grid, call_solo_grid, check_solo_grid,
    ),
    "overlap_open": (
        "one long-lived engine, overlapped queries: classic loop, watchdog, wfq; turbo bypassed",
        prepare_overlap_open, call_overlap_open, check_traffic,
    ),
    "cluster_plain": (
        "pre-routed router: placement, four independent engines, report merge",
        prepare_cluster, call_cluster, check_traffic,
    ),
    "cluster_hedged": (
        "same traffic on the single-clock resilient router with retries and hedge duplicates",
        functools.partial(prepare_cluster, retry_budget=2, hedge=True),
        call_cluster, check_traffic,
    ),
    "service_mixed": (
        "JSONL service: Zipf queries over warm and cold caches, workload ops, hostile lines",
        prepare_service_mixed, call_service_mixed, check_service_mixed,
    ),
}
