"""The caller-level benchmark ladder.

    PYTHONPATH=src python benchmarks/ladder/run.py            # all five
    python3 benchmarks/ladder/run.py --workload solo_grid --seed 2
    python3 benchmarks/ladder/run.py --selfcheck | --smoke

Five workloads, each repetition in a fresh subprocess, timed with no
instrument installed; then one traced repetition per workload for the
per-layer numbers.  README.md has the tables; ``BENCHMARK.json`` at the
repository root is the contract the driver runs this file under
(``--workload W --seed N --seconds S --trace 0|1``, one JSON object as
the last line of standard output).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(REPO, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOAD_NAMES = (
    "solo_grid", "overlap_open", "cluster_plain", "cluster_hedged", "service_mixed",
)

#: End-to-end metrics: name → unit.  Bounds live in BENCHMARK.json.
END_TO_END = {
    "wall_s": "s",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "fig14_err_max": "ratio",
    "fig14_winners": "count",
}

#: The Figure-14 metrics are properties of the model, measured where
#: the grid runs.  The driver wants every metric from every workload,
#: so the other four report this constant; the tables print ``-``.
NOT_APPLICABLE = 1.0

#: Modules (or whole packages) with a ``<name>.self_s`` metric.
SELF_TIME = (
    "sim.watchdog", "sim.events", "sim.process", "sim.streams", "sim.machine",
    "sim.run", "sim.turbo", "sim.metrics", "core", "optimizer", "model",
    "workload.engine", "workload.sched", "workload.policies", "workload.metrics",
    "workload.lifecycle", "cluster.router", "cluster.resilience",
    "cluster.placement", "runner", "service", "api", "stdlib.json", "other",
)

#: Counts read from results, ``turbo.cache_stats()`` and the probes.
COUNTERS = (
    "sim.events_dispatched", "sim.turbo_profile_hits", "sim.turbo_profile_misses",
    "sim.turbo_hosted_runs", "sim.turbo_hosted_rollbacks",
    "workload.fast_path_queries", "workload.sched_decisions",
    "workload.peak_in_flight", "cluster.hedges", "cluster.hedges_won",
    "cluster.retries", "runner.cache_hits", "service.bytes_out",
    "service.errors_expected",
)

#: Minimum repetitions, and set-up samples, behind every median.
MIN_REPS = 3
SETUP_SAMPLES = 5


def per_layer_units() -> dict:
    """Every per-layer metric name → unit, in printing order."""
    from instruments import BOUNDARIES

    units = {}
    for name, *_rest in BOUNDARIES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    units.update({f"{name}.self_s": "s" for name in SELF_TIME})
    units.update({name: "B" if name.endswith("bytes_out") else "count" for name in COUNTERS})
    units["sim.us_per_event"] = "us"
    units["trace_overhead"] = "ratio"
    return units


# -- one repetition, in the child ------------------------------------------


def child(args) -> None:
    """Run one repetition and print its measurements as one JSON line."""
    sys.path.insert(0, SOURCE)
    import workloads

    _why, prepare, call, check = workloads.WORKLOADS[args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    inputs = prepare(args.seed, args.scale, RESULTS)
    tracer = sampler = None
    if args.trace:
        from instruments import Sampler, Tracer

        tracer, sampler = Tracer(), Sampler(os.path.join(SOURCE, "repro"))
        tracer.install()
    report = {"workload": args.workload, "setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        if sampler is not None:
            sampler.start()
        sampled = time.perf_counter()
        try:
            timed = call(inputs, tracer)
        finally:
            sampled = time.perf_counter() - sampled
            if sampler is not None:
                sampler.stop()
                tracer.uninstall()
        checked = check(inputs, timed)
        report.update(
            wall_s=timed.wall_s,
            latencies=timed.latencies,
            ops=checked.ops,
            failed=checked.failed,
            notes=checked.notes,
            digest=checked.digest(),
            counters={**timed.counters, **checked.counters},
        )
        if tracer is not None:
            report["layers"] = layer_metrics(
                args.workload, tracer, sampler, sampled, report["counters"]
            )
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))


def layer_metrics(workload, tracer, sampler, sampled_wall, reported) -> dict:
    """The traced repetition's per-layer numbers; spans go to a file."""
    layers = tracer.metrics()
    self_seconds = sampler.self_seconds(sampled_wall)
    named = {name: self_seconds.pop(name, 0.0) for name in SELF_TIME}
    # repro modules without a metric of their own count as "other".
    named["other"] += sum(self_seconds.values())
    layers.update({f"{name}.self_s": value for name, value in named.items()})
    counters = dict.fromkeys(COUNTERS, 0)
    counters.update(tracer.counters)
    counters.update({k: v for k, v in reported.items() if k in counters})
    try:
        stats = importlib.import_module("repro.sim.turbo").cache_stats()
    except (ImportError, AttributeError):
        stats = {}
    for key in ("profile_hits", "profile_misses", "hosted_runs", "hosted_rollbacks"):
        counters[f"sim.turbo_{key}"] = stats.get(key)
    layers.update(counters)
    with open(os.path.join(RESULTS, f"trace-{workload}.json"), "w") as handle:
        json.dump({
            "workload": workload,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": tracer.spans,
            "samples": sampler.counts,
            "sampled_wall_s": sampled_wall,
            "missing_boundaries": tracer.missing,
        }, handle)
    return layers


# -- the parent: spawn, aggregate, print -----------------------------------


def spawn(args, workload: str, trace: bool = False, setup_only: bool = False) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(args.seed), "--scale", repr(args.scale),
        "--trace", str(int(trace)),
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned", repr(time.monotonic())]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: repetition exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def timed_pass(args, names) -> dict:
    """Repetitions interleaved round-robin across workloads, so drift
    on the box hits all of them equally.  A workload stops at
    ``--reps``, or with ``--seconds`` when its timed work is nearest
    that budget; set-up is then sampled up to ``SETUP_SAMPLES`` times
    (not when only the traced repetition was asked for).
    """
    runs = {name: {"reps": [], "setups": []} for name in names}
    open_names = list(names)
    while open_names:
        for name in list(open_names):
            reps = runs[name]["reps"]
            reps.append(spawn(args, name))
            if args.reps is not None:
                finished = len(reps) >= args.reps
            else:
                spent = sum(rep["wall_s"] for rep in reps)
                finished = (
                    len(reps) >= MIN_REPS and spent + spent / len(reps) / 2 > args.seconds
                )
            if finished:
                open_names.remove(name)
    for name in names:
        setups = runs[name]["setups"]
        setups.extend(rep["setup_s"] for rep in runs[name]["reps"])
        while args.trace != 1 and len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args, name, setup_only=True)["setup_s"])
    return runs


def percentile_99(values) -> float:
    """A smoothed p99: the mean of the order statistics from the
    98.5th to the 99.5th percentile (nearest ranks).  With 600 requests
    the plain p99 is one latency on the boundary between two classes
    of heavy request and moved by 26 % between identical runs; this
    window moved by 11 %.  With fewer than 67 samples it is the maximum.
    """
    ordered = sorted(values)
    low, high = (math.ceil(q * len(ordered)) - 1 for q in (0.985, 0.995))
    return statistics.fmean(ordered[low:high + 1])


def applies(metric: str, workload: str) -> bool:
    """The Figure-14 pair is measured where the grid runs."""
    return workload == "solo_grid" or not metric.startswith("fig14")


def summarise(run: dict) -> dict:
    """End-to-end samples of one workload, metric → one value per
    repetition (per spawn for ``setup_s``); the metric is their median."""
    reps = run["reps"]
    figure = reps[0]["counters"]
    return {
        "wall_s": [rep["wall_s"] for rep in reps],
        "lat_p50_ms": [1000.0 * statistics.median(rep["latencies"]) for rep in reps],
        "lat_p99_ms": [1000.0 * percentile_99(rep["latencies"]) for rep in reps],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
        "setup_s": run["setups"],
        "fig14_err_max": [figure.get("fig14_err_max", NOT_APPLICABLE)],
        "fig14_winners": [figure.get("fig14_winners", NOT_APPLICABLE)],
    }


def verdict(run: dict, traced: dict = None) -> dict:
    """Attempted / failed operations and the output checks of one
    workload over all its repetitions."""
    reps = run["reps"] + ([traced] if traced else [])
    problems = [note for rep in reps for note in rep["notes"]]
    digests = {rep["digest"] for rep in reps}
    if len(digests) > 1:
        problems.append("sim_digest differs between repetitions of one seed")
    failed = sum(rep["failed"] for rep in reps)
    return {
        "attempted": sum(rep["ops"] for rep in reps),
        "failed": failed,
        "digest": reps[0]["digest"],
        "problems": problems,
        "correct": failed == 0 and not problems,
    }


def finish_layers(traced: dict, timed_wall: float) -> dict:
    """Add the two per-layer numbers that need the timed median."""
    layers = dict(traced["layers"])
    events = layers["sim.events_dispatched"]
    layers["sim.us_per_event"] = 1e6 * timed_wall / events if events else None
    layers["trace_overhead"] = traced["wall_s"] / timed_wall - 1.0
    return {name: layers.get(name) for name in per_layer_units()}


def expected_digest(args, workload: str):
    try:
        with open(os.path.join(HERE, "expected", "digests.json")) as handle:
            table = json.load(handle)
    except OSError:
        return None
    return table.get(f"scale={args.scale!r}", {}).get(f"seed={args.seed}", {}).get(workload)


def print_end_to_end(args, names, result) -> None:
    runs, verdicts = result["runs"], result["verdicts"]
    print(f"{'workload':<15}{'metric':<15}{'median':>12}{'min':>12}{'max':>12}{'n':>4}  unit")
    for name in names:
        for metric, values in result["samples"][name].items():
            if not applies(metric, name):
                continue
            print(
                f"{name:<15}{metric:<15}{statistics.median(values):>12.4f}"
                f"{min(values):>12.4f}{max(values):>12.4f}{len(values):>4}  {END_TO_END[metric]}"
            )
        check = verdicts[name]
        expected = expected_digest(args, name)
        state = "no expectation" if expected is None else (
            "ok" if expected == check["digest"] else "CHANGED"
        )
        print(
            f"{name:<15}ops {check['attempted']}  failed {check['failed']}  "
            f"sim_digest {check['digest'][:16]}  digest: {state}"
        )
        for problem in check["problems"]:
            print(f"{name:<15}PROBLEM: {problem}")
    if {"cluster_plain", "cluster_hedged"} <= set(names):
        plain, hedged = (
            statistics.median(r["wall_s"] for r in runs[n]["reps"])
            for n in ("cluster_plain", "cluster_hedged")
        )
        print(f"derived        hedged_over_plain {hedged / plain:.3f}  "
              f"(cluster_hedged wall_s {hedged:.3f} / cluster_plain wall_s {plain:.3f})")


def print_layers(names, layers) -> None:
    units = per_layer_units()
    print(f"\nper-layer, from the traced repetition\n{'metric':<30}{'unit':<7}"
          + "".join(f"{name:>15}" for name in names))
    for metric, unit in units.items():
        cells = []
        for name in names:
            value = layers[name][metric]
            cells.append("null" if value is None else
                         f"{value:d}" if isinstance(value, int) else f"{value:.4f}")
        print(f"{metric:<30}{unit:<7}" + "".join(f"{cell:>15}" for cell in cells))


def measure(args, names, trace_modes) -> dict:
    """One full measurement: timed pass and/or traced repetitions."""
    runs = timed_pass(args, names)
    traced = {name: spawn(args, name, trace=True) for name in names} if 1 in trace_modes else {}
    samples = {name: summarise(run) for name, run in runs.items()}
    medians = {
        name: {metric: statistics.median(values) for metric, values in samples[name].items()}
        for name in names
    }
    return {
        "runs": runs,
        "samples": samples,
        "medians": medians,
        "verdicts": {name: verdict(runs[name], traced.get(name)) for name in names},
        "layers": {
            name: finish_layers(rep, medians[name]["wall_s"]) for name, rep in traced.items()
        },
    }


def selfcheck(args, names) -> int:
    """Two measurements back to back must agree within the bounds."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    first, second = measure(args, names, (0, 1)), measure(args, names, (0, 1))
    status = 0
    print(f"{'workload':<15}{'metric':<15}{'first':>12}{'second':>12}{'diff':>9}{'bound':>8}")
    for name in names:
        for metric, bound in bounds.items():
            if not applies(metric, name):
                continue
            a, b = first["medians"][name][metric], second["medians"][name][metric]
            difference = abs(b - a) / a
            flag = "" if difference <= bound else "  EXCEEDS"
            status |= bool(flag)
            print(f"{name:<15}{metric:<15}{a:>12.4f}{b:>12.4f}"
                  f"{difference:>9.2%}{bound:>8.0%}{flag}")
        exact = [("sim_digest", first["verdicts"][name]["digest"],
                  second["verdicts"][name]["digest"])]
        exact += [
            (metric, value, second["layers"][name][metric])
            for metric, value in first["layers"][name].items() if metric.endswith(".calls")
        ]
        for metric, a, b in exact:
            if a != b:
                status = 1
                print(f"{name:<15}{metric} differs between the two sets: {a} != {b}")
        status |= not (first["verdicts"][name]["correct"] and second["verdicts"][name]["correct"])
    print("selfcheck:", "FAILED" if status else "ok")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives every generated input; 2 is the hold-out")
    parser.add_argument("--seconds", type=float,
                        help="timed work per workload; repetitions are added to fill it")
    parser.add_argument("--reps", type=int, help="repetitions per workload (default 3)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every simulated duration and request count")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed pass only; 1: traced repetition only (default: both)")
    parser.add_argument("--smoke", action="store_true", help="--scale 0.2 --reps 1")
    parser.add_argument("--selfcheck", action="store_true",
                        help="measure twice, fail when the two disagree beyond the bounds")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args)
        return 0
    if args.smoke:
        args.scale, args.reps = 0.2, 1
    if args.trace == 1:
        # The traced repetition needs one timed wall to compare with.
        args.reps = 1
    elif args.reps is None and args.seconds is None:
        args.reps = 3
    names = (args.workload,) if args.workload else WORKLOAD_NAMES
    if args.selfcheck:
        return selfcheck(args, names)

    result = measure(args, names, (0, 1) if args.trace is None else (args.trace,))
    print(f"ladder: seed {args.seed}, scale {args.scale!r}")
    if args.trace != 1:
        print_end_to_end(args, names, result)
    if result["layers"]:
        print_layers(names, result["layers"])
        for name in names:
            print(f"trace_overhead {name:<15}{result['layers'][name]['trace_overhead']:+.2%}")
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "ladder.json"), "w") as handle:
        json.dump({"seed": args.seed, "scale": args.scale, **result}, handle, indent=1)
    if args.workload:
        # The driver's contract: one JSON object as the last line.
        check = result["verdicts"][args.workload]
        if args.trace == 1:
            units, values = per_layer_units(), result["layers"][args.workload]
        else:
            units, values = END_TO_END, result["medians"][args.workload]
        print(json.dumps({
            "correct": check["correct"],
            "attempted": check["attempted"],
            "failed": check["failed"],
            "metrics": {
                name: {"value": values[name], "unit": unit} for name, unit in units.items()
            },
        }))
        return 0
    return 0 if all(check["correct"] for check in result["verdicts"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
