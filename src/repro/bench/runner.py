"""Figure sweeps on the parallel runner.

The figure benchmarks share sweeps (Figure 14 needs all of Figures
9–13); the computation is delegated to the process-parallel sweep
runner (:mod:`repro.runner`), whose content-addressed disk cache
(``.repro_cache/``) makes a repeated sweep a cache read, within a
process and across processes.  The cache keys on every machine
constant, so calibration's config changes never collide.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..sim.machine import MachineConfig
from .workloads import (
    Experiment,
    SweepResult,
    all_paper_experiments,
    paper_experiments,
)


def sweep(
    experiment: Experiment,
    config: Optional[MachineConfig] = None,
    strategies: Optional[Sequence[str]] = None,
) -> SweepResult:
    """One experiment's sweep, computed on the parallel runner."""
    # Imported lazily: repro.runner reaches back into repro.bench
    # for the SweepResult bridge.
    from ..core.strategies import strategy_names
    from ..runner import SweepSpec, run_sweep as run_spec, to_sweep_result

    spec = SweepSpec(
        shapes=(experiment.shape,),
        strategies=tuple(strategies) if strategies else tuple(strategy_names()),
        processors=tuple(experiment.processor_counts),
        cardinalities=(experiment.cardinality,),
        configs=(config if config is not None else MachineConfig.paper(),),
    )
    return to_sweep_result(run_spec(spec).rows(), experiment)


def figure_sweeps(
    shape: str, config: Optional[MachineConfig] = None
) -> Tuple[SweepResult, SweepResult]:
    """The (5K, 40K) sweeps of one figure."""
    small, large = paper_experiments(shape)
    return sweep(small, config), sweep(large, config)


def all_sweeps(
    config: Optional[MachineConfig] = None,
) -> Dict[Tuple[str, str], SweepResult]:
    """Every sweep of the evaluation, keyed (shape, size label)."""
    out: Dict[Tuple[str, str], SweepResult] = {}
    for experiment in all_paper_experiments():
        result = sweep(experiment, config)
        out[(experiment.shape, experiment.size_label)] = result
    return out
