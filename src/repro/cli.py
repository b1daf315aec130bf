"""Command-line interface.

Every major capability of the reproduction behind one entry point::

    python -m repro simulate --shape wide_bushy --cardinality 5000 \\
                             --strategy FP --processors 40
    python -m repro plan     --shape right_bushy --strategy RD --processors 20
    python -m repro sweep    --shape wide_bushy --cardinality 5000
    python -m repro diagram  --strategy SE --processors 10
    python -m repro advise   --shape left_bushy --cardinality 40000 --processors 80
    python -m repro memory   --shape wide_bushy --cardinality 40000 \\
                             --strategy FP --processors 30
    python -m repro optimize --relations 10 --cardinality 5000 --processors 40
    python -m repro workload --shape wide_bushy --arrivals poisson \\
                             --rate 5 --duration 60 --seed 1
    python -m repro cluster  --shards 4 --placement hash \\
                             --autoscale reactive --rate 4 --duration 60
    python -m repro faults   --strategies SP,SE,RD,FP \\
                             --crash-rates 0,0.002,0.01 --recovery restart
    python -m repro perf     --profile --top 25
    python -m repro serve    < requests.jsonl
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from .core import Catalog, get_strategy, make_shape, paper_relation_names
from .core.shapes import SHAPE_NAMES
from .options import OPTIONS
from .sim import MachineConfig

#: Default directory for CLI result artifacts (JSONL, traces).  The
#: subcommands used to drop ``workload_*.jsonl``/``faults_*.jsonl``
#: into the current directory; they now land here unless ``--out``/
#: ``--jsonl`` says otherwise, so a default run never litters the
#: repository root.
RESULTS_DIR = pathlib.Path("benchmarks") / "results"


def _results_path(name: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR / name


def _add_common(parser: argparse.ArgumentParser, strategy: bool = True) -> None:
    parser.add_argument(
        "--shape", choices=SHAPE_NAMES, default="wide_bushy",
        help="query tree shape (Figure 8)",
    )
    parser.add_argument(
        "--relations", type=int, default=10, help="number of base relations"
    )
    parser.add_argument(
        "--cardinality", type=int, default=5000,
        help="tuples per relation (5000 and 40000 are the paper's sizes)",
    )
    parser.add_argument(
        "--processors", type=int, default=40, help="machine size"
    )
    if strategy:
        parser.add_argument(
            "--strategy", choices=["SP", "SE", "RD", "FP"], default="FP",
            help="parallel execution strategy (Section 3)",
        )


def _context(args):
    names = paper_relation_names(args.relations)
    tree = make_shape(args.shape, names)
    catalog = Catalog.regular(names, args.cardinality)
    return names, tree, catalog


def _cmd_simulate(args) -> int:
    from .sim.run import QueryAbortedError, simulate

    _names, tree, catalog = _context(args)
    schedule = get_strategy(args.strategy).schedule(tree, catalog, args.processors)
    try:
        result = simulate(
            schedule, catalog, MachineConfig.paper(), skew_theta=args.skew,
            deadline=args.deadline,
        )
    except QueryAbortedError as exc:
        print(f"aborted at t={exc.at:.3f}s: {exc.reason}")
        return 1
    print(result.summary())
    breakdown = result.busy_by_kind()
    print(
        f"  work {breakdown['work']:.1f}s CPU, "
        f"handshakes {breakdown['handshake']:.1f}s CPU, "
        f"startup span {result.startup_time():.2f}s, "
        f"{result.events} events"
    )
    if args.diagram:
        from .engine import utilization_diagram

        print(utilization_diagram(result, width=args.width))
    return 0


def _cmd_plan(args) -> int:
    from .xra import generate_plan_text

    _names, tree, catalog = _context(args)
    print(generate_plan_text(tree, catalog, args.strategy, args.processors))
    return 0


def _cmd_sweep(args) -> int:
    from .bench import Experiment, evaluate_claims
    from .bench.plot import ascii_plot
    from .runner import SweepSpec, run_sweep, to_sweep_result

    processors = tuple(
        range(args.min_processors, args.processors + 1, args.step)
    )
    spec = SweepSpec(
        shapes=(args.shape,),
        cardinalities=(args.cardinality,),
        processors=processors,
        skew_thetas=(args.skew,),
    )

    def progress(outcome, done, total):
        if args.quiet:
            return
        source = outcome.source
        timing = "" if source == "cache" else f" {outcome.elapsed:.2f}s"
        print(
            f"  [{done}/{total}] {outcome.job.label()} ({source}{timing})",
            file=sys.stderr,
        )

    run = run_sweep(
        spec,
        workers=args.workers,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        timeout=args.timeout,
        progress=progress,
    )
    jsonl_path = args.jsonl
    if jsonl_path is None:
        name = f"sweep_{args.shape}_{args.cardinality}.jsonl"
        if run.cache_dir is not None:
            jsonl_path = run.cache_dir / name
        else:
            jsonl_path = _results_path(name)
    run.write_jsonl(jsonl_path)

    experiment = Experiment(args.shape, args.cardinality, processors)
    sweep = to_sweep_result(run.rows(), experiment)
    print(sweep.table())
    print()
    print(ascii_plot(sweep, width=args.width))
    seconds, strategy, procs = sweep.best_cell()
    print(f"\nbest: {seconds:.2f}s ({strategy}@{procs})")
    if args.claims:
        for outcome in evaluate_claims(sweep):
            print(outcome.line())
    print(f"runner: {run.summary()}")
    print(f"results: {jsonl_path}")
    return 0


def _cmd_diagram(args) -> int:
    from .engine import ideal_diagram

    print(ideal_diagram(args.strategy, args.processors, width=args.width))
    return 0


def _cmd_advise(args) -> int:
    from .optimizer import advise_strategy

    _names, tree, catalog = _context(args)
    advice = advise_strategy(
        tree, catalog, args.processors,
        memory_holds_one_join=not args.disk_bound,
    )
    print(advice)
    if advice.runner_up:
        print(f"runner-up: {advice.runner_up}")
    return 0


def _cmd_memory(args) -> int:
    from .core.memory import memory_report, minimum_processors

    _names, tree, catalog = _context(args)
    strategy = get_strategy(args.strategy)
    schedule = strategy.schedule(tree, catalog, args.processors)
    print(memory_report(schedule, catalog))
    floor = minimum_processors(strategy, tree, catalog)
    if floor is None:
        print("does not fit at any machine size up to 512 nodes")
    else:
        print(f"smallest machine that fits this plan: {floor} nodes")
    return 0


def _cmd_optimize(args) -> int:
    from .optimizer import QueryGraph, two_phase_optimize
    from .core import render

    names = paper_relation_names(args.relations)
    graph = QueryGraph.regular(names, args.cardinality)
    plan = two_phase_optimize(
        graph, args.processors, mode="guidelines" if args.guidelines else "simulate"
    )
    print(render(plan.tree))
    print(plan.summary())
    return 0


def _add_knobs(parser: argparse.ArgumentParser, command: str) -> None:
    """One ``--flag`` per table row that ``command`` exposes
    (:data:`repro.options.OPTIONS`), at the facade default; a
    sub-command whose own default differs says so with
    ``set_defaults``."""
    for row in OPTIONS:
        if command not in row.cli:
            continue
        kinds = row.kinds
        typed = {"choices": kinds} if isinstance(kinds[0], str) else {"type": kinds[0]}
        parser.add_argument(
            row.flag or "--" + row.name.replace("_", "-"),
            dest=row.name, default=row.default, help=row.help, **typed,
        )


def _knobs(args, command: str) -> dict:
    """The facade keywords ``command`` parsed from its table flags."""
    return {row.name: getattr(args, row.name) for row in OPTIONS if command in row.cli}


def _add_serving(parser: argparse.ArgumentParser, command: str) -> None:
    """What ``workload`` and ``cluster`` share: the table flags plus
    the CLI-only spellings (file paths, rates that generate schedules,
    negated toggles) of knobs no flag can carry verbatim."""
    parser.add_argument("--shape", choices=SHAPE_NAMES, default="wide_bushy",
                        help="query tree shape (Figure 8)")
    parser.add_argument("--paper-mix", action="store_true",
                        help="draw from all five shapes instead of --shape")
    _add_knobs(parser, command)
    parser.add_argument("--tenants", default=None, metavar="SPEC_JSON",
                        help="path to a tenant spec file: "
                             '{"tenants": [{"name": ..., "weight": ..., '
                             '"rate": ...}, ...]}')
    parser.add_argument("--no-fast-path", action="store_true",
                        help="force every query onto the classic event loop "
                             "(results are bit-identical either way)")
    parser.add_argument("--crash-rate", type=float, default=0.0,
                        help="seeded processor crash rate (crashes/second "
                             "per machine; 0 = fault-free; each shard draws "
                             "its own schedule)")
    parser.add_argument("--repair-time", type=float, default=60.0,
                        help="seconds until a crashed processor rejoins")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line")


def _serving_kwargs(args, command: str) -> dict:
    """The facade keywords of a ``workload``/``cluster`` invocation:
    the table flags, plus ``tenants`` and ``fast_path`` from their
    CLI-only spellings."""
    import json

    kwargs = _knobs(args, command)
    if args.tenants is not None:
        kwargs["tenants"] = json.loads(pathlib.Path(args.tenants).read_text())
    kwargs["fast_path"] = not args.no_fast_path
    return kwargs


def _processor_faults(args, seed: int):
    from .faults import FaultSchedule

    return FaultSchedule.generate(
        machine_size=args.machine_size,
        horizon=args.duration,
        seed=seed,
        crash_rate=args.crash_rate,
        repair_time=args.repair_time,
    )


def _cmd_workload(args) -> int:
    from .api import run_workload

    kwargs = _serving_kwargs(args, "workload")
    if args.crash_rate > 0:
        kwargs["faults"] = _processor_faults(args, args.seed)
    if args.memory_budget_mb is not None:
        kwargs["memory_budget_bytes"] = args.memory_budget_mb * 1024 * 1024
    result = run_workload("paper" if args.paper_mix else args.shape, **kwargs)
    jsonl_path = args.jsonl
    if jsonl_path is None:
        jsonl_path = _results_path(
            f"workload_{args.shape}_{args.arrivals}.jsonl"
        )
    result.write_jsonl(jsonl_path)
    if not args.quiet:
        print(result.summary())
        print(f"results: {jsonl_path}")
    return 0


def _cmd_cluster(args) -> int:
    from .api import _open_pairs, _resolve_mix, run_cluster
    from .cluster import Trace, shard_seed
    from .workload import make_tenants

    kwargs = _serving_kwargs(args, "cluster")
    shape = "paper" if args.paper_mix else args.shape
    if args.crash_rate > 0:
        # Engine-level (processor) faults, one independent seeded
        # schedule per shard — shards fail on their own timelines.
        kwargs["faults"] = [
            _processor_faults(args, shard_seed(args.seed, shard))
            for shard in range(args.shards)
        ]
    if args.shard_crash_rate > 0:
        from .faults import FaultSchedule

        # Cluster-level faults: crash events name whole shards.
        kwargs["shard_faults"] = FaultSchedule.generate(
            machine_size=args.shards,
            horizon=args.duration,
            seed=args.seed,
            crash_rate=args.shard_crash_rate,
            repair_time=args.shard_repair_time,
        )
    kwargs.update(
        hedge=args.hedge,
        breaker=True if args.breaker else None,
        throttle=True if args.throttle else None,
        failover=False if args.no_failover else None,
    )
    if args.trace is not None:
        # A trace is the open-loop stream, whatever --arrivals says.
        kwargs.update(trace=Trace.read(args.trace), arrivals="poisson")
    elif args.record is not None and args.arrivals != "closed":
        # Freeze the exact stream this run will serve, then replay
        # it — the recorded trace reproduces this run bit for bit.
        mix = _resolve_mix(
            shape, args.strategy, args.cardinality, args.relations
        )
        pairs = _open_pairs(
            mix, make_tenants(kwargs.get("tenants")), args.arrivals,
            args.rate, args.duration, args.seed,
        )
        trace = Trace.from_arrivals(pairs, seed=args.seed)
        trace.write(args.record)
        if not args.quiet:
            print(f"trace: {args.record} ({len(trace)} queries)")
        kwargs["trace"] = trace
    result = run_cluster(shape, **kwargs)
    jsonl_path = args.jsonl
    if jsonl_path is None:
        jsonl_path = _results_path(
            f"cluster_{args.shards}x_{args.placement}_{args.autoscale}.jsonl"
        )
    result.write_jsonl(jsonl_path)
    if not args.quiet:
        print(result.summary())
        print(f"results: {jsonl_path}")
    return 0


def _cmd_chaos(args) -> int:
    import json

    from .cluster import run_chaos_campaign

    shapes = []
    for token in args.shapes.split(","):
        token = token.strip()
        if not token:
            continue
        shards, _, size = token.partition("x")
        shapes.append((int(shards), int(size)))
    rates = [float(r) for r in args.crash_rates.split(",")]
    fixture_dir = args.fixtures
    if fixture_dir is None:
        fixture_dir = RESULTS_DIR / "chaos_fixtures"
    result = run_chaos_campaign(
        cluster_shapes=tuple(shapes),
        crash_rates=tuple(rates),
        queries=args.queries,
        arrival_rate=args.rate,
        horizon=args.horizon,
        repair_time=args.repair_time,
        retry_budget=args.retry_budget,
        placement=args.placement,
        seed=args.seed,
        workers=args.workers,
        fixture_dir=fixture_dir,
    )
    out_path = args.out
    if out_path is None:
        out_path = _results_path("chaos_campaign.json")
    pathlib.Path(out_path).write_text(
        json.dumps(result.to_payload(), indent=2, sort_keys=True) + "\n"
    )
    if not args.quiet:
        print(result.summary())
        for violation in result.violations():
            print(
                f"  VIOLATION point {violation['point']} "
                f"[{violation['invariant']}]: {violation['detail']}"
            )
        for fixture in result.fixtures:
            print(f"  shrunken repro: {fixture}")
        print(f"results: {out_path}")
    return 0 if result.ok else 1


def _cmd_faults(args) -> int:
    from .faults import fault_rate_sweep
    from .runner.results import write_jsonl

    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    rates = [float(r) for r in args.crash_rates.split(",")]
    points = fault_rate_sweep(
        strategies=strategies,
        crash_rates=rates,
        repair_time=args.repair_time,
        **_knobs(args, "faults"),
    )
    if not args.quiet:
        print(
            f"{'strategy':>8} {'crash/s':>9} {'done':>5} {'fail':>5} "
            f"{'retry':>6} {'goodput':>9} {'wasted':>7} {'mttr':>8}"
        )
        for pt in points:
            mttr = "n/a" if pt.mttr is None else f"{pt.mttr:.1f}s"
            print(
                f"{pt.strategy:>8} {pt.crash_rate:>9.4f} {pt.completed:>5} "
                f"{pt.failed:>5} {pt.retries:>6} {pt.goodput:>9.4f} "
                f"{pt.wasted_fraction:>7.1%} {mttr:>8}"
            )
    jsonl_path = args.jsonl
    if jsonl_path is None:
        jsonl_path = _results_path(f"faults_{args.recovery}.jsonl")
    write_jsonl(jsonl_path, [pt.row() for pt in points])
    if not args.quiet:
        print(f"results: {jsonl_path}")
    return 0


def _cmd_perf(args) -> int:
    """A small self-contained bench of the three paths a simulated
    query can take: every strategy solo through the simulator (the
    analytic path, cold then replayed), a one-client closed loop
    (single occupancy, so the hosted fast path), and an overlapped
    open loop (several queries in flight on disjoint processor shares:
    each fast-paths on its own share while the others' events drain
    on the watchdog-armed heap — the path that serves traffic;
    ``--no-fast-path`` drives the same traffic through the classic
    event loop alone).
    Optionally under ``cProfile`` so perf work starts from measured hot
    spots instead of guesses (the committed numbers live in
    ``benchmarks/bench_perf.py`` and ``benchmarks/ladder``; this
    command is for finding where the time goes)."""
    import time

    from .api import run, run_workload
    from .sim import turbo

    repeats = 1 if args.smoke else args.repeats
    queries = 8 if args.smoke else 24

    def bench():
        turbo.clear_cache()
        for strategy in ("SP", "SE", "RD", "FP"):
            for _ in range(repeats):
                run(
                    "wide_bushy",
                    strategy,
                    args.processors,
                    cardinality=args.cardinality,
                )
        closed = run_workload(
            "wide_bushy",
            arrivals="closed",
            clients=1,
            think_time=0.5,
            queries_per_client=queries,
            duration=1e9,
            seed=3,
            machine_size=args.processors,
            policy="exclusive",
            strategy="FP",
            cardinality=args.cardinality,
            fast_path=not args.no_fast_path,
        )
        # Arrivals several times faster than one query's service time:
        # they overlap on the guideline policy's processor shares.
        overlapped = run_workload(
            "paper",
            arrivals="poisson",
            rate=0.4,
            duration=2.5 * queries,
            seed=3,
            machine_size=2 * args.processors,
            policy="guideline",
            cardinality=args.cardinality // 2,
            fast_path=not args.no_fast_path,
        )
        return closed, overlapped

    if args.profile:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        bench()
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(args.top)
        print(stream.getvalue(), end="")
    else:
        started = time.perf_counter()
        closed, overlapped = bench()
        elapsed = time.perf_counter() - started
        print(
            f"perf bench: {elapsed:.3f}s wall "
            f"({repeats}x4 strategies @ {args.cardinality} tuples, "
            f"{queries}-query closed loop, {closed.fast_path_queries} "
            f"fast-pathed, {len(overlapped.records)}-query "
            f"open loop with up to {overlapped.peak_in_flight} in flight, "
            f"{overlapped.fast_path_queries} fast-pathed); "
            f"turbo {turbo.cache_stats()}"
        )
    return 0


def _cmd_serve(args) -> int:
    from .service import serve

    if args.requests is not None:
        with open(args.requests, "r", encoding="utf-8") as in_stream:
            served = serve(in_stream, sys.stdout)
    else:
        served = serve(sys.stdin, sys.stdout)
    if not args.quiet:
        print(f"served {served} requests", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Parallel evaluation of multi-join "
        "queries' (SIGMOD 1995)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one strategy on one tree")
    _add_common(p)
    p.add_argument("--skew", type=float, default=0.0,
                   help="Zipf partitioning skew (0 = the paper's assumption)")
    p.add_argument("--diagram", action="store_true",
                   help="also print the processor-utilization diagram")
    p.add_argument("--deadline", type=float, default=None,
                   help="simulated-time response bound; the run aborts "
                        "(exit 1) if still unfinished at the deadline")
    p.add_argument("--width", type=int, default=72)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("plan", help="print the XRA execution plan")
    _add_common(p)
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("sweep", help="one figure: all strategies × processors")
    _add_common(p, strategy=False)
    # The paper's 5K sweeps run to 80 processors; "--processors" is the
    # sweep's upper end here, not a single machine size.
    p.set_defaults(processors=80)
    p.add_argument("--min-processors", type=int, default=20)
    p.add_argument("--step", type=int, default=10)
    p.add_argument("--skew", type=float, default=0.0,
                   help="Zipf partitioning skew for every point")
    p.add_argument("--claims", action="store_true",
                   help="also check the Section 4.4 claims")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: fan out over the CPUs)")
    p.add_argument("--no-cache", action="store_true",
                   help="recompute every point, bypassing .repro_cache/")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: .repro_cache/ "
                        "or $REPRO_CACHE_DIR)")
    p.add_argument("--jsonl", "--out", dest="jsonl", default=None,
                   help="JSONL results path (default: inside the cache "
                        "dir, or benchmarks/results/ without a cache)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-job timeout in seconds")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress on stderr")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("diagram", help="idealized Figure 3/4/6/7 diagram")
    p.add_argument("--strategy", choices=["SP", "SE", "RD", "FP"], default="SP")
    p.add_argument("--processors", type=int, default=10)
    p.add_argument("--width", type=int, default=72)
    p.set_defaults(fn=_cmd_diagram)

    p = sub.add_parser("advise", help="Section 5 strategy guideline")
    _add_common(p, strategy=False)
    p.add_argument("--disk-bound", action="store_true",
                   help="memory cannot hold one join entirely (Section 4.4)")
    p.set_defaults(fn=_cmd_advise)

    p = sub.add_parser("memory", help="per-node memory analysis")
    _add_common(p)
    p.set_defaults(fn=_cmd_memory)

    p = sub.add_parser("optimize", help="two-phase optimization")
    p.add_argument("--relations", type=int, default=10)
    p.add_argument("--cardinality", type=int, default=5000)
    p.add_argument("--processors", type=int, default=40)
    p.add_argument("--guidelines", action="store_true",
                   help="use the Section 5 rules instead of simulation")
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser(
        "workload", help="serve a multi-query workload on one shared machine"
    )
    _add_serving(p, "workload")
    p.add_argument("--memory-budget-mb", type=float, default=None,
                   help="admission gate: analytic memory budget (MB)")
    p.add_argument("--jsonl", "--out", dest="jsonl", default=None,
                   help="per-query JSONL path (default: benchmarks/results/"
                        "workload_<shape>_<arrivals>.jsonl)")
    p.set_defaults(fn=_cmd_workload)

    p = sub.add_parser(
        "cluster",
        help="serve traffic on a shared-nothing cluster of workload shards",
    )
    _add_serving(p, "cluster")
    p.add_argument("--trace", default=None, metavar="TRACE_JSON",
                   help="replay this recorded trace instead of "
                        "generating traffic")
    p.add_argument("--record", default=None, metavar="TRACE_JSON",
                   help="record the generated open-loop stream to this "
                        "trace file, then serve it")
    p.add_argument("--shard-crash-rate", type=float, default=0.0,
                   help="whole-shard crash rate (crashes/second across "
                        "the cluster; switches to the coordinated "
                        "resilient mode)")
    p.add_argument("--shard-repair-time", type=float, default=30.0,
                   help="seconds until a crashed shard rejoins the ring")
    p.add_argument("--hedge", type=float, default=None, metavar="PCT",
                   help="hedge requests whose forecast exceeds this "
                        "percentile of recent latencies (resilient mode)")
    p.add_argument("--breaker", action="store_true",
                   help="per-shard circuit breakers (resilient mode)")
    p.add_argument("--throttle", action="store_true",
                   help="per-tenant token-bucket rate SLOs at cluster "
                        "admission (resilient mode)")
    p.add_argument("--no-failover", action="store_true",
                   help="resilient mode without failover: a dead home "
                        "shard fails its queries (baseline comparisons)")
    p.add_argument("--jsonl", "--out", dest="jsonl", default=None,
                   help="per-query JSONL path (default: benchmarks/results/"
                        "cluster_<shards>x_<placement>_<autoscale>.jsonl)")
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser(
        "chaos",
        help="seeded fault-campaign sweep over cluster shapes with "
             "invariant checks and failure shrinking",
    )
    p.add_argument("--shapes", default="2x8,4x8",
                   help="comma-separated cluster shapes as "
                        "SHARDSxPROCESSORS (e.g. '2x8,4x16')")
    p.add_argument("--crash-rates", default="0,0.05",
                   help="comma-separated whole-shard crash rates "
                        "(crashes/second)")
    p.add_argument("--queries", type=int, default=30,
                   help="open-loop queries per campaign point")
    p.add_argument("--rate", type=float, default=2.0,
                   help="arrival rate per point (queries/second)")
    p.add_argument("--horizon", type=float, default=60.0,
                   help="fault-schedule horizon in simulated seconds")
    p.add_argument("--repair-time", type=float, default=15.0,
                   help="seconds until a crashed shard rejoins")
    p.add_argument("--retry-budget", type=int, default=3,
                   help="cluster-level retries per aborted query")
    p.add_argument("--placement",
                   choices=["hash", "least_loaded", "round_robin"],
                   default="hash", help="routing policy for every point")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (points derive their own)")
    p.add_argument("--workers", type=int, default=None,
                   help="fan campaign points over a process pool "
                        "(payload is identical at any worker count)")
    p.add_argument("--fixtures", default=None, metavar="DIR",
                   help="directory for shrunken-schedule repro fixtures "
                        "(default: benchmarks/results/chaos_fixtures/)")
    p.add_argument("--out", default=None,
                   help="campaign JSON payload path (default: benchmarks/"
                        "results/chaos_campaign.json)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the summary lines")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "faults",
        help="strategy-vs-fault-rate resilience sweep on the workload engine",
    )
    p.add_argument("--strategies", default="SP,SE,RD,FP",
                   help="comma-separated strategies to compare")
    p.add_argument("--crash-rates", default="0,0.002,0.01",
                   help="comma-separated crash rates (crashes/second)")
    _add_knobs(p, "faults")
    # A fault sweep needs recovery on and a long, light run to see it.
    p.set_defaults(recovery="restart", rate=0.05, duration=300.0)
    p.add_argument("--repair-time", type=float, default=60.0,
                   help="seconds until a crashed processor rejoins")
    p.add_argument("--jsonl", "--out", dest="jsonl", default=None,
                   help="per-cell JSONL path (default: benchmarks/results/"
                        "faults_<recovery>.jsonl)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the table")
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser(
        "perf",
        help="micro-bench of the solo, single-occupancy and overlapped "
             "(fast-pathed per processor share) paths, optionally under "
             "cProfile (committed numbers come from "
             "benchmarks/bench_perf.py and benchmarks/ladder)",
    )
    p.add_argument("--profile", action="store_true",
                   help="wrap the bench in cProfile and print the "
                        "hottest functions by cumulative time")
    p.add_argument("--top", type=int, default=25,
                   help="profile rows to print (with --profile)")
    p.add_argument("--repeats", type=int, default=3,
                   help="simulator runs per strategy")
    p.add_argument("--cardinality", type=int, default=2000,
                   help="tuples per relation")
    p.add_argument("--processors", type=int, default=40,
                   help="machine size")
    p.add_argument("--smoke", action="store_true",
                   help="minimal work (CI artifact generation)")
    p.add_argument("--no-fast-path", action="store_true",
                   help="profile the classic event loop instead of "
                        "the turbo fast path")
    p.set_defaults(fn=_cmd_perf)

    p = sub.add_parser(
        "serve", help="JSONL query service: one request per line on stdin"
    )
    p.add_argument("--requests", default=None,
                   help="read requests from this file instead of stdin")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the served-count line on stderr")
    p.set_defaults(fn=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
