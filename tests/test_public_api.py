"""Public-API consistency: every exported name resolves, and the
facade's signature only changes deliberately (snapshot test)."""

import importlib
import inspect

import pytest

#: Packages with a public surface (``__all__``).
PUBLIC_MODULES = [
    "repro",
    "repro.api",
    "repro.runner",
    "repro.core",
    "repro.sim",
    "repro.relational",
    "repro.bench",
    "repro.model",
    "repro.optimizer",
    "repro.xra",
    "repro.workload",
    "repro.service",
    "repro.faults",
    "repro.cluster",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_names_resolve(module_name):
    """Each name in ``__all__`` is importable (getattr succeeds) —
    catches stale exports after refactors."""
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{module_name} has no __all__"
    assert sorted(set(exported)) == sorted(exported), (
        f"{module_name}.__all__ has duplicates"
    )
    for name in exported:
        assert getattr(module, name, None) is not None, (
            f"{module_name}.__all__ exports unresolvable {name!r}"
        )


def test_engine_all_names_resolve():
    """repro.engine exports resolve."""
    import repro.engine as engine

    for name in engine.__all__:
        assert getattr(engine, name, None) is not None


def test_facade_signature_snapshot():
    """The one signature everything depends on — frozen as the v1
    surface.  Update this snapshot only together with a deliberate,
    documented API change."""
    from repro import api

    assert str(inspect.signature(api.run)) == (
        "(tree_or_shape: 'Union[str, Node]', "
        "strategy: 'Union[str, Strategy]' = 'FP', "
        "processors: 'int' = 40, backend: 'str' = 'sim', *, "
        "catalog: 'Optional[Catalog]' = None, "
        "config: 'Optional[MachineConfig]' = None, "
        "cost_model: 'Optional[CostModel]' = None, "
        "skew_theta: 'float' = 0.0, cardinality: 'int' = 5000, "
        "relations=None, resolve=None, "
        "timeout: 'Optional[float]' = None, faults=None, "
        "deadline: 'Optional[float]' = None, **unknown)"
    )


def test_frozen_keyword_tuples_are_the_signature():
    """RUN_KEYWORDS / RUN_WORKLOAD_KEYWORDS are the documented freeze;
    they must list exactly the keyword-only parameters, in order."""
    from repro import api

    for func, frozen in (
        (api.run, api.RUN_KEYWORDS),
        (api.run_workload, api.RUN_WORKLOAD_KEYWORDS),
        (api.run_cluster, api.RUN_CLUSTER_KEYWORDS),
    ):
        keyword_only = [
            p.name
            for p in inspect.signature(func).parameters.values()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        ]
        assert keyword_only == list(frozen)


def test_facade_backends_are_stable():
    from repro import api

    assert api.BACKENDS == ("sim", "local", "threaded", "ideal")


def test_workload_facade_signature_snapshot():
    """The workload entry point's keyword surface is API too."""
    from repro import api

    params = inspect.signature(api.run_workload).parameters
    assert list(params)[0] == "mix_or_shape"
    for name in ("arrivals", "rate", "duration", "seed", "machine_size",
                 "policy", "share", "strategy", "cardinality", "clients",
                 "think_time", "queries_per_client", "max_concurrent",
                 "queue_limit", "memory_budget_bytes", "config",
                 "cost_model", "skew_theta", "faults", "recovery",
                 "max_retries", "retry_backoff", "rejected_retry_delay",
                 "deadline", "shed", "cancellations", "watchdog_limit"):
        assert name in params, f"run_workload lost {name!r}"
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY


def test_simulating_front_ends_share_keyword_surface():
    """The uniform execution-context keywords thread through every
    simulating entry point with the same names and defaults."""
    from repro.api import run
    from repro.engine.ideal import ideal_simulation
    from repro.engine.simulate import simulate_schedule, simulate_strategy
    from repro.sim.run import simulate

    for func in (run, simulate, simulate_schedule, simulate_strategy,
                 ideal_simulation):
        params = inspect.signature(func).parameters
        for name in ("config", "cost_model", "skew_theta"):
            assert name in params, f"{func.__name__} lost {name!r}"
        assert params["skew_theta"].default == 0.0
        assert params["cost_model"].default is None
        assert params["skew_theta"].kind is inspect.Parameter.KEYWORD_ONLY


def test_version_is_frozen():
    """``repro.__version__`` is part of the v1 freeze: a semver string
    that only changes together with a deliberate API change."""
    import re

    import repro

    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


def test_top_level_lazy_exports():
    """Lazily-exposed top-level names resolve and stay lazy-safe."""
    import repro

    for name in ("run", "sweep", "MachineConfig", "SimulationResult",
                 "simulate_schedule", "XRAPlan",
                 "compile_schedule", "advise_strategy",
                 "two_phase_optimize"):
        assert getattr(repro, name) is not None
    with pytest.raises(AttributeError):
        repro.not_an_export
