"""The BENCH perf trajectory: simulator hot-path throughput over PRs.

Five numbers institutionalize the performance work so later PRs can
only move them deliberately:

* **simulated events/sec** — the four paper strategies on the
  wide_bushy shape (40 processors, paper machine), best-of-N with GC
  off; the aggregate is the headline.  Since turbo v2, best-of-N
  deliberately includes *warm* runs: repeat specs replay a cached
  drain structure, which is exactly the hot path workloads exercise.
* **queries/sec at the saturation knee** — a closed-loop workload on
  one shared 40-processor machine, stepping the client count until
  throughput stops improving; reported at the knee.
* **workload replay** — a repeat-heavy single-occupancy closed loop
  run with the hosted fast path on and off; the on/off queries-per-
  second ratio is the turbo-v2 workload headline (gated ≥ a floor).
* **cold FP** — the paper's deepest pipeline (left_linear, 80
  processors, 5 000 tuples) interpreted by turbo with its caches
  cleared before every run, against the same simulation drained
  through the classic event loop in the same process.  The events
  block above is warm by design; this is the row a replay cannot
  hide behind, and a ratio of two timings on one box, so its gate
  needs no calibration.
* **sweep wall-clock** — the parallel runner over a small wide_bushy
  grid, end to end (planning + simulation + collection).

Raw events/sec is machine-dependent, so every run also measures a
pure-Python **calibration** proxy and the regression gate compares
*normalized* throughput (events/sec relative to calibration ops/sec).
``PRE_PR_BASELINE`` pins the seed simulator's numbers (measured on the
machine that started the trajectory); ``EXPECTED_SPEEDUP`` pins what
the current code achieves, both in aggregate and — so an FP-only
regression cannot hide behind SP/SE gains — per strategy.  ``--check``
fails when the normalized aggregate or any per-strategy number falls
more than 20% below expectation, or the workload replay ratio or the
cold FP ratio drops under its floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full
    PYTHONPATH=src python benchmarks/bench_perf.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_perf.py --smoke --check

Writes ``BENCH_perf.json`` (override with ``--output``).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time

from repro.core import Catalog, get_strategy, make_shape, paper_relation_names
from repro.sim import MachineConfig, turbo
from repro.sim.run import ScheduleSimulation, simulate

STRATEGIES = ("SP", "SE", "RD", "FP")

#: The seed (pre-fast-path) simulator measured on the trajectory's
#: reference machine: wide_bushy, 40 processors, 5000 tuples, paper
#: machine config, best of 3 with GC disabled.
PRE_PR_BASELINE = {
    "calibration_ops_per_sec": 12_566_475,
    "strategies": {
        "SP": 349_991,
        "SE": 355_138,
        "RD": 313_907,
        "FP": 274_458,
    },
    "aggregate_events_per_sec": 316_847,
}

#: Normalized aggregate speedup vs PRE_PR_BASELINE the current code is
#: expected to deliver (turbo v2: the analytic fast path plus the
#: drain-structure profile cache).  The --check gate trips below 0.8x
#: of this.
EXPECTED_SPEEDUP = {"full": 38.0, "smoke": 30.0}

#: Per-strategy normalized speedups vs the matching PRE_PR_BASELINE
#: strategy number.  Deliberately set below measured (warm sub-ms
#: replays time noisily), but far above what any strategy achieves
#: without its profile cache — losing the cache on one strategy trips
#: its floor even when the aggregate still passes.
EXPECTED_STRATEGY_SPEEDUP = {
    "full": {"SP": 24.0, "SE": 18.0, "RD": 28.0, "FP": 85.0},
    "smoke": {"SP": 22.0, "SE": 12.0, "RD": 26.0, "FP": 95.0},
}

#: Minimum fast-on vs fast-off queries-per-second ratio of the
#: repeat-heavy workload replay trace (the ISSUE-8 acceptance bar is
#: 3x on the full trace; smoke traces are shorter and noisier).
EXPECTED_REPLAY_SPEEDUP = {"full": 3.0, "smoke": 2.0}

#: Minimum classic-loop over cold-turbo time ratio of one FP query.
#: Interpreting every sibling in full gives about 3x, splicing lock-step
#: siblings onto their leader's run about 8x; the floor sits between, so
#: it also trips if the replication silently stops firing.
EXPECTED_COLD_FP_SPEEDUP = 5.0

#: >20% normalized regression fails the gate.
REGRESSION_TOLERANCE = 0.20


def calibrate(loops: int = 3) -> float:
    """Machine-speed proxy: fixed pure-Python arithmetic + dict work,
    reported as ops/sec (best of ``loops``)."""

    def work():
        acc = 0.0
        d = {}
        for i in range(200_000):
            acc += i * 1e-6
            if i & 1023 == 0:
                d[i] = acc
        return acc, d

    best = float("inf")
    for _ in range(loops):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return 200_000 / best


def measure_events(cardinality: int, repeats: int) -> dict:
    """Per-strategy and aggregate simulated events/sec on wide_bushy."""
    names = paper_relation_names(10)
    tree = make_shape("wide_bushy", names)
    catalog = Catalog.regular(names, cardinality)
    config = MachineConfig.paper()
    strategies = {}
    total_events = 0
    total_seconds = 0.0
    for name in STRATEGIES:
        schedule = get_strategy(name).schedule(tree, catalog, 40)
        best = float("inf")
        events = 0
        for _ in range(repeats):
            gc.disable()
            t0 = time.perf_counter()
            result = simulate(schedule, catalog, config)
            elapsed = time.perf_counter() - t0
            gc.enable()
            best = min(best, elapsed)
            events = result.events
        strategies[name] = {
            "events": events,
            "seconds": round(best, 6),
            "events_per_sec": round(events / best),
        }
        total_events += events
        total_seconds += best
    return {
        "cardinality": cardinality,
        "strategies": strategies,
        "aggregate": {
            "events": total_events,
            "seconds": round(total_seconds, 6),
            "events_per_sec": round(total_events / total_seconds),
        },
    }


def measure_knee(cardinality: int, duration: float) -> dict:
    """Closed-loop queries/sec stepping clients until the knee.

    The knee is the first client count whose throughput gain over the
    previous step drops under 5% (or the last step tried).
    """
    from repro.api import run_workload

    steps = []
    previous = 0.0
    knee_clients = 1
    knee_qps = 0.0
    for clients in (1, 2, 4, 8, 16, 32):
        result = run_workload(
            "wide_bushy",
            arrivals="closed",
            clients=clients,
            duration=duration,
            cardinality=cardinality,
            strategy="FP",
            machine_size=40,
            policy="guideline",
        )
        qps = result.throughput()
        steps.append({"clients": clients, "queries_per_sec": round(qps, 4)})
        if qps > knee_qps:
            knee_clients, knee_qps = clients, qps
        if previous > 0.0 and qps < previous * 1.05:
            break
        previous = qps
    return {
        "steps": steps,
        "knee_clients": knee_clients,
        "queries_per_sec_at_knee": round(knee_qps, 4),
    }


def measure_workload_replay(cardinality: int, queries: int) -> dict:
    """Repeat-heavy single-occupancy closed loop, fast path on vs off.

    One client resubmitting the same FP wide_bushy spec is the best
    case the hosted fast path was built for: every epoch is
    single-occupancy and every spec repeats, so turbo v2 replays the
    whole service stack analytically.  The on/off ratio is the
    workload fast-path headline.
    """
    from repro.api import run_workload

    def once(fast_path: bool):
        turbo.clear_cache()
        gc.disable()
        t0 = time.perf_counter()
        result = run_workload(
            "wide_bushy",
            arrivals="closed",
            clients=1,
            think_time=0.5,
            queries_per_client=queries,
            duration=1e9,
            seed=3,
            machine_size=40,
            policy="exclusive",
            strategy="FP",
            cardinality=cardinality,
            fast_path=fast_path,
        )
        elapsed = time.perf_counter() - t0
        gc.enable()
        return result, elapsed

    fast_result, fast_seconds = once(True)
    classic_result, classic_seconds = once(False)
    completed = len(fast_result.completed())
    assert completed == len(classic_result.completed())
    return {
        "queries": completed,
        "fast_path_queries": fast_result.fast_path_queries,
        "fast_seconds": round(fast_seconds, 6),
        "classic_seconds": round(classic_seconds, 6),
        "fast_queries_per_sec": round(completed / fast_seconds, 2),
        "classic_queries_per_sec": round(completed / classic_seconds, 2),
        "replay_speedup": round(classic_seconds / fast_seconds, 2),
    }


def measure_cold_fp(repeats: int) -> dict:
    """One cold FP query, turbo against the classic loop (medians).

    The same :class:`ScheduleSimulation` is built for every run; only
    the drain is timed — ``turbo.execute`` on cleared caches, so it
    interprets rather than replays, and ``sim.clock.run()``.
    """
    names = paper_relation_names(10)
    catalog = Catalog.regular(names, 5_000)
    schedule = get_strategy("FP").schedule(make_shape("left_linear", names), catalog, 80)

    def drain(fast: bool) -> float:
        sim = ScheduleSimulation(schedule, catalog, MachineConfig.paper())
        turbo.clear_cache()
        gc.disable()
        t0 = time.perf_counter()
        if fast:
            assert turbo.execute(sim), "cold FP point unexpectedly turbo-ineligible"
        else:
            sim.clock.run()
        elapsed = time.perf_counter() - t0
        gc.enable()
        return elapsed

    turbo_seconds = statistics.median(drain(True) for _ in range(repeats))
    stats = turbo.cache_stats()
    classic_seconds = statistics.median(drain(False) for _ in range(repeats))
    return {
        "shape": "left_linear",
        "processors": 80,
        "cardinality": 5_000,
        "repeats": repeats,
        "turbo_seconds": round(turbo_seconds, 6),
        "classic_seconds": round(classic_seconds, 6),
        "cold_speedup": round(classic_seconds / turbo_seconds, 2),
        "sibling_runs": stats["sibling_runs"],
        "sibling_splices": stats["sibling_splices"],
    }


def measure_sweep(cardinality: int, processors: tuple) -> dict:
    """Wall-clock of the parallel runner on a wide_bushy grid."""
    from repro.runner import SweepSpec, run_sweep

    spec = SweepSpec(
        shapes=("wide_bushy",),
        strategies=STRATEGIES,
        processors=processors,
        cardinalities=(cardinality,),
        skew_thetas=(0.0,),
    )
    t0 = time.perf_counter()
    run = run_sweep(spec, cache=False, progress=None)
    elapsed = time.perf_counter() - t0
    points = len(run.outcomes)
    return {
        "points": points,
        "wall_clock_seconds": round(elapsed, 4),
        "points_per_sec": round(points / elapsed, 2),
    }


def normalized_speedup(report: dict) -> float:
    """Aggregate events/sec vs the seed, corrected for machine speed."""
    scale = (
        report["calibration_ops_per_sec"]
        / PRE_PR_BASELINE["calibration_ops_per_sec"]
    )
    raw = (
        report["events"]["aggregate"]["events_per_sec"]
        / PRE_PR_BASELINE["aggregate_events_per_sec"]
    )
    return raw / scale


def strategy_speedups(report: dict) -> dict:
    """Per-strategy normalized speedups vs the seed's strategy numbers."""
    scale = (
        report["calibration_ops_per_sec"]
        / PRE_PR_BASELINE["calibration_ops_per_sec"]
    )
    return {
        name: (
            report["events"]["strategies"][name]["events_per_sec"]
            / PRE_PR_BASELINE["strategies"][name]
            / scale
        )
        for name in STRATEGIES
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: smaller cardinality, fewer repeats/steps",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit 1 on a >{REGRESSION_TOLERANCE:.0%} normalized "
             f"regression vs the expected speedup",
    )
    parser.add_argument(
        "--output", default="BENCH_perf.json",
        help="report path (default: BENCH_perf.json)",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    cardinality = 2_000 if args.smoke else 5_000
    repeats = 2 if args.smoke else 3
    knee_duration = 40.0 if args.smoke else 120.0
    sweep_processors = (20, 40) if args.smoke else (10, 20, 40, 80)

    gc.collect()
    report = {
        "schema": 2,
        "mode": mode,
        "baseline": PRE_PR_BASELINE,
        "calibration_ops_per_sec": round(calibrate()),
        "events": measure_events(cardinality, repeats),
        "workload": measure_knee(
            cardinality=500 if args.smoke else 1_000,
            duration=knee_duration,
        ),
        "workload_replay": measure_workload_replay(
            cardinality=1_000 if args.smoke else 2_000,
            queries=8 if args.smoke else 24,
        ),
        "cold_fp": measure_cold_fp(repeats=3 if args.smoke else 5),
        "sweep": measure_sweep(cardinality, sweep_processors),
    }
    speedup = normalized_speedup(report)
    per_strategy = strategy_speedups(report)
    replay = report["workload_replay"]["replay_speedup"]
    report["speedup_vs_pre_pr"] = round(speedup, 2)
    report["strategy_speedups_vs_pre_pr"] = {
        name: round(value, 2) for name, value in per_strategy.items()
    }
    expected = EXPECTED_SPEEDUP[mode]
    floor = expected * (1.0 - REGRESSION_TOLERANCE)
    failures = []
    if speedup < floor:
        failures.append(
            f"aggregate speedup {speedup:.2f}x below the {floor:.2f}x "
            f"floor ({expected}x expected)"
        )
    strategy_floors = {}
    for name, expected_strategy in EXPECTED_STRATEGY_SPEEDUP[mode].items():
        strategy_floor = expected_strategy * (1.0 - REGRESSION_TOLERANCE)
        strategy_floors[name] = round(strategy_floor, 2)
        if per_strategy[name] < strategy_floor:
            failures.append(
                f"{name} speedup {per_strategy[name]:.2f}x below its "
                f"{strategy_floor:.2f}x floor "
                f"({expected_strategy}x expected)"
            )
    replay_floor = EXPECTED_REPLAY_SPEEDUP[mode]
    if replay < replay_floor:
        failures.append(
            f"workload replay speedup {replay:.2f}x below the "
            f"{replay_floor:.2f}x floor"
        )
    cold = report["cold_fp"]["cold_speedup"]
    if cold < EXPECTED_COLD_FP_SPEEDUP:
        failures.append(
            f"cold FP speedup {cold:.2f}x over the classic loop below the "
            f"{EXPECTED_COLD_FP_SPEEDUP:.2f}x floor"
        )
    report["gate"] = {
        "expected_speedup": expected,
        "floor": round(floor, 2),
        "strategy_floors": strategy_floors,
        "replay_floor": replay_floor,
        "cold_fp_floor": EXPECTED_COLD_FP_SPEEDUP,
        "failures": failures,
        "passed": not failures,
    }

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))

    if args.check and failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
