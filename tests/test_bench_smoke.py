"""Tier-1 smoke of the figure benchmarks: one tiny sweep point per
paper figure, run through the same runner the full benchmarks use, and
proven cache-stable.  Keeps ``pytest -m bench_smoke`` under a few
seconds while still exercising spec expansion, process fan-out, the
disk cache, and the bench bridge for every figure shape."""

import pytest

from repro.bench import FIGURE_OF_SHAPE, Experiment
from repro.core import SHAPE_NAMES
from repro.runner import SweepSpec, run_sweep, to_sweep_result
from repro.sim import MachineConfig

#: Coarse batches keep each point in the low milliseconds.
FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)
CARDINALITY = 400
PROCESSORS = (12,)  # enough for FP's nine pipelining joins


def smoke_spec(shape):
    return SweepSpec(
        shapes=(shape,),
        cardinalities=(CARDINALITY,),
        processors=PROCESSORS,
        configs=(FAST,),
    )


@pytest.mark.bench_smoke
@pytest.mark.parametrize("shape", SHAPE_NAMES)
def test_figure_smoke_point(shape, tmp_path):
    assert shape in FIGURE_OF_SHAPE
    run = run_sweep(smoke_spec(shape), cache_dir=tmp_path)
    sweep = to_sweep_result(
        run.rows(), Experiment(shape, CARDINALITY, PROCESSORS)
    )
    assert set(sweep.series) == {"SP", "SE", "RD", "FP"}
    for strategy, series in sweep.series.items():
        (response_time,) = series.response_times
        assert response_time > 0, f"{strategy} on {shape}"
    # A second run is served entirely from the cache, byte-identical.
    warm = run_sweep(smoke_spec(shape), cache_dir=tmp_path)
    assert warm.cached_count() == len(run.rows())
    assert warm.computed_count() == 0
    assert warm.jsonl() == run.jsonl()


@pytest.mark.bench_smoke
def test_fairness_smoke_point():
    """One tiny fairness cell per scheduler: at 3x abuse the
    well-behaved tenant keeps more goodput under wfq than under fifo
    (the full gate lives in ``benchmarks/bench_fairness.py``)."""
    from repro.workload import fairness_sweep

    points = fairness_sweep(
        schedulers=("fifo", "wfq"),
        abuse_factors=(3.0,),
        good_rate=0.3,
        abuse_fair_rate=0.48,
        deadline=15.0,
        duration=60.0,
        machine_size=40,
        seed=7,
        strategy="FP",
        cardinality=CARDINALITY,
        config=FAST,
    )
    good = {p.scheduler: p for p in points if p.tenant == "good"}
    assert good["wfq"].completed > good["fifo"].completed
    assert good["wfq"].share > good["fifo"].share
