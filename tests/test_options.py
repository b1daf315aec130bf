"""The options table against the surfaces derived from it.

``repro.options.OPTIONS`` declares each serving knob once; the CLI
flags, the service's accepted keys, and the engine-options dict are
computed from it.  The snapshots below are *literals captured at the
commit before the table existed*: deriving the surfaces must not have
moved them, and a later change to any surface has to edit this file on
purpose.  The remaining tests pin the table to what stays hand-written
(the facade signatures, the vocabulary tuples of the engine modules,
the engine constructor).
"""

import argparse
import inspect

import pytest

from repro import api
from repro.cli import build_parser
from repro.options import OPTIONS, engine_options
from repro.service import QueryService

_ARRIVALS = ("poisson", "fixed", "closed")
_AUTOSCALE = ("static", "reactive", "predictive")
_PLACEMENT = ("hash", "least_loaded", "round_robin")
_POLICY = ("exclusive", "round_robin", "guideline")
_RECOVERY = ("fail", "restart", "reassign")
_SCHEDULER = ("fifo", "edf", "sjf", "priority", "wfq")
_SHAPE = ("left_linear", "left_bushy", "wide_bushy", "right_bushy", "right_linear")
_SHED = ("drop_newest", "drop_oldest", "deadline_aware")
_STRATEGY = ("SP", "SE", "RD", "FP", "auto")

#: sub-command → option strings → (default, type, choices).
CLI_SURFACE = {
    "workload": {
        "--arrivals": ("poisson", None, _ARRIVALS),
        "--cardinality": (5000, "int", None),
        "--clients": (4, "int", None),
        "--crash-rate": (0.0, "float", None),
        "--deadline": (None, "float", None),
        "--duration": (60.0, "float", None),
        "--jsonl --out": (None, None, None),
        "--machine-size": (40, "int", None),
        "--max-concurrent": (None, "int", None),
        "--memory-budget-mb": (None, "float", None),
        "--no-fast-path": (False, None, None),
        "--paper-mix": (False, None, None),
        "--policy": ("exclusive", None, _POLICY),
        "--pool-size": (None, "int", None),
        "--queries-per-client": (None, "int", None),
        "--queue-limit": (None, "int", None),
        "--quiet": (False, None, None),
        "--rate": (1.0, "float", None),
        "--recovery": ("fail", None, _RECOVERY),
        "--relations": (10, "int", None),
        "--repair-time": (60.0, "float", None),
        "--scheduler": (None, None, _SCHEDULER),
        "--scheduling-cost": (0.0, "float", None),
        "--seed": (0, "int", None),
        "--shape": ("wide_bushy", None, _SHAPE),
        "--share": (None, "int", None),
        "--shed": (None, None, _SHED),
        "--skew": (0.0, "float", None),
        "--strategy": ("FP", None, _STRATEGY),
        "--tenants": (None, None, None),
        "--think": (0.0, "float", None),
    },
    "cluster": {
        "--arrivals": ("poisson", None, _ARRIVALS),
        "--autoscale": ("static", None, _AUTOSCALE),
        "--breaker": (False, None, None),
        "--cardinality": (5000, "int", None),
        "--clients": (4, "int", None),
        "--crash-rate": (0.0, "float", None),
        "--deadline": (None, "float", None),
        "--duration": (60.0, "float", None),
        "--hedge": (None, "float", None),
        "--jsonl --out": (None, None, None),
        "--machine-size": (40, "int", None),
        "--no-failover": (False, None, None),
        "--no-fast-path": (False, None, None),
        "--paper-mix": (False, None, None),
        "--placement": ("hash", None, _PLACEMENT),
        "--policy": ("exclusive", None, _POLICY),
        "--queries-per-client": (None, "int", None),
        "--queue-limit": (None, "int", None),
        "--quiet": (False, None, None),
        "--rate": (1.0, "float", None),
        "--record": (None, None, None),
        "--recovery": ("fail", None, _RECOVERY),
        "--relations": (10, "int", None),
        "--repair-time": (60.0, "float", None),
        "--retry-budget": (None, "int", None),
        "--scale-cooldown": (None, "float", None),
        "--scale-max": (None, "int", None),
        "--scale-min": (None, "int", None),
        "--scheduler": (None, None, _SCHEDULER),
        "--seed": (0, "int", None),
        "--shape": ("wide_bushy", None, _SHAPE),
        "--shard-crash-rate": (0.0, "float", None),
        "--shard-repair-time": (30.0, "float", None),
        "--shards": (2, "int", None),
        "--share": (None, "int", None),
        "--shed": (None, None, _SHED),
        "--skew": (0.0, "float", None),
        "--strategy": ("FP", None, _STRATEGY),
        "--tenants": (None, None, None),
        "--think": (0.0, "float", None),
        "--throttle": (False, None, None),
        "--trace": (None, None, None),
        "--workers": (None, "int", None),
    },
    "faults": {
        "--cardinality": (5000, "int", None),
        "--crash-rates": ("0,0.002,0.01", None, None),
        "--duration": (300.0, "float", None),
        "--jsonl --out": (None, None, None),
        "--machine-size": (40, "int", None),
        "--max-retries": (3, "int", None),
        "--policy": ("exclusive", None, _POLICY),
        "--quiet": (False, None, None),
        "--rate": (0.05, "float", None),
        "--recovery": ("restart", None, _RECOVERY),
        "--relations": (10, "int", None),
        "--repair-time": (60.0, "float", None),
        "--retry-backoff": (1.0, "float", None),
        "--seed": (0, "int", None),
        "--share": (None, "int", None),
        "--strategies": ("SP,SE,RD,FP", None, None),
    },
}

#: op → the accepted-key list its unknown-key error prints.
SERVICE_KEYS = {
    "query": [
        "backend", "cardinality", "deadline", "processors", "shape",
        "skew_theta", "strategy",
    ],
    "workload": [
        "arrivals", "cancellations", "cardinality", "clients", "deadline",
        "duration", "fast_path", "faults", "machine_size", "max_concurrent",
        "max_retries", "memory_budget_bytes", "policy", "pool_size",
        "queries_per_client", "queue_limit", "rate", "recovery", "relations",
        "retry_backoff", "rows", "scheduler", "scheduling_cost", "seed",
        "shape", "share", "shed", "skew_theta", "strategy", "tenants",
        "think_time",
    ],
    "cluster": [
        "arrivals", "autoscale", "breaker", "cardinality", "clients",
        "deadline", "duration", "failover", "fast_path", "faults", "hedge",
        "machine_size", "max_concurrent", "max_retries",
        "memory_budget_bytes", "placement", "policy", "pool_size",
        "queries_per_client", "queue_limit", "rate", "recovery", "relations",
        "retry_backoff", "retry_budget", "rows", "scale_cooldown",
        "scale_max", "scale_min", "scheduler", "scheduling_cost", "seed",
        "shape", "shard_faults", "shards", "share", "shed", "skew_theta",
        "strategy", "tenants", "think_time", "throttle", "trace", "workers",
    ],
    "stats": ["stats"],
}

RUN_WORKLOAD_KEYWORDS = (
    "arrivals", "rate", "duration", "seed", "machine_size", "policy",
    "share", "strategy", "cardinality", "relations", "clients",
    "think_time", "queries_per_client", "max_concurrent", "queue_limit",
    "memory_budget_bytes", "config", "cost_model", "skew_theta", "faults",
    "recovery", "max_retries", "retry_backoff", "rejected_retry_delay",
    "deadline", "shed", "cancellations", "watchdog_limit", "scheduler",
    "pool_size", "scheduling_cost", "tenants", "fast_path",
)

RUN_CLUSTER_KEYWORDS = (
    "trace", "shards", "placement", "autoscale", "scale_max", "scale_min",
    "scale_cooldown", "workers", "arrivals", "rate", "duration", "seed",
    "machine_size", "policy", "share", "strategy", "cardinality",
    "relations", "clients", "think_time", "queries_per_client",
    "max_concurrent", "queue_limit", "memory_budget_bytes", "config",
    "cost_model", "skew_theta", "rejected_retry_delay", "deadline", "shed",
    "watchdog_limit", "scheduler", "pool_size", "scheduling_cost",
    "tenants", "fast_path", "faults", "recovery", "max_retries",
    "retry_backoff", "shard_faults", "retry_budget", "hedge", "breaker",
    "throttle", "failover",
)


@pytest.mark.parametrize("command", sorted(CLI_SURFACE))
def test_cli_surface_did_not_move(command):
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    surface = {
        " ".join(action.option_strings): (
            action.default,
            getattr(action.type, "__name__", None),
            None if action.choices is None else tuple(action.choices),
        )
        for action in subparsers.choices[command]._actions
        if action.option_strings and action.dest != "help"
    }
    assert surface == CLI_SURFACE[command]


@pytest.mark.parametrize("op", sorted(SERVICE_KEYS))
def test_service_accepted_keys_did_not_move(op):
    response = QueryService().handle({"op": op, "no_such_key": 1})
    assert response == {
        "ok": False,
        "error": f"unknown {op} parameters ['no_such_key']; "
                 f"accepted keys: {SERVICE_KEYS[op]}",
    }


def test_frozen_keyword_tuples_did_not_move():
    assert api.RUN_WORKLOAD_KEYWORDS == RUN_WORKLOAD_KEYWORDS
    assert api.RUN_CLUSTER_KEYWORDS == RUN_CLUSTER_KEYWORDS


@pytest.mark.parametrize(
    "facade,func",
    [("workload", api.run_workload), ("cluster", api.run_cluster)],
)
def test_table_is_the_facade_signature(facade, func):
    """Names and defaults: a knob added to one and not the other fails
    here, which is what keeps "row + parameter" a two-step recipe."""
    declared = {
        row.name: row.default for row in OPTIONS if facade in row.takes
    }
    signature = {
        param.name: param.default
        for param in inspect.signature(func).parameters.values()
        if param.kind is inspect.Parameter.KEYWORD_ONLY
    }
    assert declared == signature


def test_rows_are_unique_and_well_formed():
    names = [row.name for row in OPTIONS]
    assert len(names) == len(set(names))
    for row in OPTIONS:
        assert set(row.takes) <= {"workload", "cluster"} and row.takes
        assert set(row.cli) <= {"workload", "cluster", "faults"}
        assert set(row.ops) <= {"query", "workload", "cluster"}
        if row.cli or row.ops:
            assert row.kind is not None, f"{row.name} has no text type"


def test_choice_tuples_match_their_home_modules():
    """The table spells the vocabularies as literals (it imports no
    engine module); the owners' tuples are the truth."""
    from repro.cluster import AUTOSCALE_NAMES, PLACEMENT_NAMES
    from repro.workload import (
        ARRIVAL_KINDS,
        POLICY_NAMES,
        RECOVERY_POLICIES,
        SCHEDULER_NAMES,
        SHED_POLICY_NAMES,
    )
    from repro.workload.mix import STRATEGY_CHOICES

    kinds = {row.name: row.kind for row in OPTIONS}
    assert kinds["arrivals"] == ARRIVAL_KINDS + ("closed",)
    assert kinds["autoscale"] == AUTOSCALE_NAMES
    assert kinds["placement"] == PLACEMENT_NAMES
    assert kinds["policy"] == POLICY_NAMES
    assert kinds["recovery"] == RECOVERY_POLICIES
    assert kinds["scheduler"] == SCHEDULER_NAMES
    assert kinds["shed"] == SHED_POLICY_NAMES
    assert kinds["strategy"] == STRATEGY_CHOICES


class TestEngineOptions:
    """The engine-options dict: one producer (the table), one consumer
    (``WorkloadEngine.from_options`` behind ``router._build_engine``)."""

    def test_build_engine_takes_exactly_the_engine_rows(self):
        from repro.cluster.router import _build_engine
        from repro.workload import WorkloadEngine

        options = engine_options()
        assert set(options) == {
            row.name for row in OPTIONS if row.engine
        } | {"deadline_seed"}
        engine = _build_engine({"engine": options, "autoscale": None})
        assert isinstance(engine, WorkloadEngine)
        assert engine.machine.size == 40
        # Every constructor keyword a knob can reach is in the dict
        # (the policy object is spelled as its name + share).
        constructor = set(
            inspect.signature(WorkloadEngine.__init__).parameters
        ) - {"self", "memory_model", "clock", "on_query_done"}
        assert set(options) == constructor | {"share"}

    def test_a_key_outside_the_table_is_refused_by_both_ends(self):
        from repro.cluster.router import _build_engine

        with pytest.raises(ValueError, match="shceduler"):
            engine_options(shceduler="wfq")
        stray = {**engine_options(), "shceduler": "wfq"}
        with pytest.raises(TypeError, match="shceduler"):
            _build_engine({"engine": stray, "autoscale": None})

    def test_an_incomplete_dict_is_refused(self):
        from repro.cluster.router import _build_engine

        partial = engine_options()
        del partial["machine_size"]
        with pytest.raises(KeyError, match="machine_size"):
            _build_engine({"engine": partial, "autoscale": None})

    def test_elastic_engines_build_from_the_same_dict(self):
        from repro.cluster import ElasticEngine
        from repro.cluster.router import _build_engine

        engine = _build_engine({
            "engine": engine_options(machine_size=8, share=4),
            "autoscale": {
                "policy": "reactive", "scale_max": 16, "scale_min": None,
                "scale_cooldown": 5.0,
            },
        })
        assert isinstance(engine, ElasticEngine)
        assert (engine.base_capacity, engine.scale_max) == (8, 16)
