"""Tests of the benchmark itself (outside tier-1 ``testpaths``):

    python -m pytest benchmarks/ladder -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import instruments  # noqa: E402
import run as ladder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def ladder_run(*arguments):
    """Run the command; returns (exit code, last stdout line, ladder.json)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *arguments],
        stdout=subprocess.PIPE, text=True, cwd=REPO, timeout=600,
    )
    with open(os.path.join(HERE, "results", "ladder.json")) as handle:
        return done.returncode, done.stdout.splitlines()[-1], json.load(handle)


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_smoke_exits_zero_and_every_workload_is_correct():
    code, _last, result = ladder_run("--smoke")
    assert code == 0
    assert set(result["verdicts"]) == set(ladder.WORKLOAD_NAMES)
    for name, check in result["verdicts"].items():
        assert check["correct"] and check["failed"] == 0, (name, check)
    # Figure 14 as the README states it: 28 % worst cell, 8 of 10 winners.
    solo = result["medians"]["solo_grid"]
    assert solo["fig14_winners"] == 8 and 0.28 < solo["fig14_err_max"] < 0.29
    for name, layers in result["layers"].items():
        assert set(layers) == set(ladder.per_layer_units()), name
        assert None not in layers.values(), name


def test_names_fit_the_contract(contract):
    layer_names = list(ladder.per_layer_units())
    for name in (*ladder.WORKLOAD_NAMES, *ladder.END_TO_END, *layer_names):
        assert NAME.match(name), name
    assert len(ladder.WORKLOAD_NAMES) <= 8
    assert len(ladder.END_TO_END) <= 16
    assert len(layer_names) <= 128 and len(set(layer_names)) == len(layer_names)
    assert [w["name"] for w in contract["workloads"]] == list(ladder.WORKLOAD_NAMES)
    assert contract["paths"] == ["benchmarks/ladder"]


def test_benchmark_json_lists_exactly_what_the_command_prints(contract):
    driver = ("--scale", "0.2", "--workload", "cluster_plain", "--seed", "1", "--seconds", "1")
    code, last, _result = ladder_run(*driver, "--trace", "0")
    printed = json.loads(last)
    assert code == 0 and printed["correct"] and printed["failed"] == 0
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in printed["metrics"].values())

    runs = [ladder_run(*driver, "--trace", "1") for _ in range(2)]
    declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for code, last, _result in runs:
        assert code == 0
        assert {k: v["unit"] for k, v in json.loads(last)["metrics"].items()} == declared
    # Same seed: same simulated output and the same exact counts, twice.
    (_, first, one), (_, second, two) = runs
    assert one["verdicts"]["cluster_plain"]["digest"] == two["verdicts"]["cluster_plain"]["digest"]
    first, second = json.loads(first)["metrics"], json.loads(second)["metrics"]
    counts = [name for name, unit in declared.items() if unit == "count"]
    assert counts and all(first[name] == second[name] for name in counts)


def test_a_missing_boundary_reports_null_and_everything_is_restored():
    from repro.sim import events

    original = events.SimulationClock.run
    tracer = instruments.Tracer(boundaries=(
        ("sim.clock_run", "repro.sim.events", "SimulationClock.run", False, None),
        ("gone.attribute", "repro.sim.events", "SimulationClock.no_such_method", False, None),
        ("gone.module", "repro.no_such_module", "anything", False, None),
    ))
    tracer.install()
    try:
        assert events.SimulationClock.run is not original
        events.SimulationClock().run()
    finally:
        tracer.uninstall()
    assert events.SimulationClock.run is original
    metrics = tracer.metrics()
    assert metrics["sim.clock_run.calls"] == 1
    assert metrics["gone.attribute.calls"] is None and metrics["gone.module.busy_s"] is None


def test_sampler_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGPROF)
    sampler = instruments.Sampler(os.path.join(REPO, "src", "repro"), interval=0.001)
    sampler.start()
    try:
        from repro.api import run as run_query

        run_query("wide_bushy", "FP", 40, cardinality=2000)
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert any(key.startswith("sim.") for key in sampler.counts)
