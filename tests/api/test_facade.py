"""The unified repro.api.run facade: golden equivalence with the four
legacy front-ends, backend dispatch, and argument policing."""

import pytest

from repro import api
from repro.core import Catalog, get_strategy, make_shape, paper_relation_names
from repro.core.shapes import example_tree
from repro.engine.ideal import ideal_simulation
from repro.engine.local import execute_schedule
from repro.engine.simulate import simulate_strategy
from repro.engine.threaded import execute_threaded
from repro.relational.query import wisconsin_resolution
from repro.sim import MachineConfig

NAMES10 = paper_relation_names(10)


class TestGoldenEquivalence:
    """run() must reproduce each legacy front-end byte for byte."""

    @pytest.mark.parametrize("strategy", ["SP", "SE", "RD", "FP"])
    def test_sim_matches_simulate_strategy(self, strategy, fast_config):
        tree = make_shape("wide_bushy", NAMES10)
        catalog = Catalog.regular(NAMES10, 2000)
        legacy = simulate_strategy(
            tree, catalog, strategy, 20, config=fast_config
        )
        facade = api.run(
            tree, strategy, 20, catalog=catalog, config=fast_config
        )
        assert facade.summary() == legacy.summary()
        assert facade.response_time == legacy.response_time
        assert facade.events == legacy.events

    def test_sim_shape_name_builds_paper_defaults(self, fast_config):
        """A shape name means: ten relations, 5K regular catalog."""
        tree = make_shape("left_linear", NAMES10)
        catalog = Catalog.regular(NAMES10, 5000)
        legacy = simulate_strategy(tree, catalog, "SE", 30, config=fast_config)
        facade = api.run("left_linear", "SE", 30, config=fast_config)
        assert facade.summary() == legacy.summary()

    def test_sim_skew_threads_through(self, fast_config):
        tree = make_shape("wide_bushy", NAMES10)
        catalog = Catalog.regular(NAMES10, 2000)
        legacy = simulate_strategy(
            tree, catalog, "SP", 20, config=fast_config, skew_theta=0.7
        )
        facade = api.run(
            tree, "SP", 20, catalog=catalog, config=fast_config,
            skew_theta=0.7,
        )
        assert facade.summary() == legacy.summary()
        assert facade.response_time > api.run(
            tree, "SP", 20, catalog=catalog, config=fast_config
        ).response_time

    def test_ideal_matches_ideal_simulation(self):
        legacy = ideal_simulation(example_tree(), "FP", 10)
        facade = api.run(example_tree(), "FP", 10, "ideal", cardinality=1000)
        assert facade.summary() == legacy.summary()
        assert facade.config == MachineConfig.ideal()

    def test_local_matches_execute_schedule(self, relations6, catalog6, names6):
        tree = make_shape("wide_bushy", names6)
        schedule = get_strategy("SE").schedule(tree, catalog6, 6)
        legacy = execute_schedule(schedule, relations6)
        facade = api.run(
            tree, "SE", 6, "local", catalog=catalog6, relations=relations6
        )
        assert facade.relation.same_bag(legacy.relation)
        assert len(facade.tasks) == len(legacy.tasks)

    def test_threaded_matches_execute_threaded(
        self, relations6, catalog6, names6
    ):
        tree = make_shape("right_bushy", names6)
        schedule = get_strategy("RD").schedule(tree, catalog6, 5)
        legacy = execute_threaded(
            schedule, relations6, timeout=30, resolve=wisconsin_resolution
        )
        facade = api.run(
            tree, "RD", 5, "threaded", catalog=catalog6,
            relations=relations6, resolve=wisconsin_resolution, timeout=30,
        )
        assert facade.same_bag(legacy)

    def test_strategy_instance_accepted(self, fast_config):
        from repro.core.strategies import FullParallel

        by_name = api.run("wide_bushy", "FP", 20, config=fast_config)
        by_instance = api.run(
            "wide_bushy", FullParallel(), 20, config=fast_config
        )
        assert by_instance.summary() == by_name.summary()


class TestBackendDefaults:
    def test_sim_default_config_is_paper(self):
        result = api.run("left_linear", "SP", 20)
        assert result.config == MachineConfig.paper()

    def test_local_generates_wisconsin_data(self):
        result = api.run("wide_bushy", "SE", 4, "local", cardinality=100)
        # Decorrelated Wisconsin joins keep the base cardinality.
        assert len(result.relation) == 100

    def test_threaded_generated_data_uses_wisconsin_semantics(self):
        result = api.run("left_linear", "SP", 4, "threaded", cardinality=100)
        assert len(result) == 100


class TestArgumentPolicing:
    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            api.run("wide_bushy", "FP", 40, "quantum")

    def test_unknown_shape(self):
        with pytest.raises(ValueError, match="unknown shape"):
            api.run("narrow_bushy", "FP", 40)

    def test_tree_type_checked(self):
        with pytest.raises(TypeError, match="shape name or a Node"):
            api.run(42, "FP", 40)

    def test_sim_rejects_relations(self, relations6):
        with pytest.raises(ValueError, match="simulates"):
            api.run("wide_bushy", "FP", 40, relations=relations6)

    def test_local_rejects_config(self, fast_config):
        with pytest.raises(ValueError, match="real data"):
            api.run(
                "wide_bushy", "SE", 4, "local",
                cardinality=100, config=fast_config,
            )

    def test_local_rejects_skew(self):
        with pytest.raises(ValueError, match="skew"):
            api.run(
                "wide_bushy", "SE", 4, "local",
                cardinality=100, skew_theta=0.5,
            )

    def test_local_rejects_resolve(self):
        with pytest.raises(ValueError, match="threaded"):
            api.run(
                "wide_bushy", "SE", 4, "local",
                cardinality=100, resolve=wisconsin_resolution,
            )


class TestTimeout:
    """``timeout`` is honored where it can be and an error where it
    can't — never silently ignored.  The v1 freeze graduated the
    one-release DeprecationWarning into a hard ValueError."""

    @pytest.mark.parametrize("backend", ["sim", "ideal", "local"])
    def test_non_threaded_backends_reject_timeout(self, backend):
        with pytest.raises(ValueError, match="threaded"):
            api.run(
                "wide_bushy", "SE", 4, backend,
                cardinality=100, timeout=5.0,
            )

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            api.run(
                "left_linear", "SP", 4, "threaded",
                cardinality=100, timeout=0.0,
            )

    def test_rejection_message_points_at_deadline(self):
        """The error teaches the migration: simulated-time bounds are
        spelled ``deadline`` on the simulating backends."""
        with pytest.raises(ValueError, match="deadline"):
            api.run(
                "wide_bushy", "SE", 12, "sim",
                cardinality=200, timeout=1e-9,
            )

    def test_non_threaded_rejects_before_positivity_check(self):
        """A nonsensical timeout on a non-threaded backend fails with
        the backend-applicability error, not the threaded backend's
        positivity error."""
        with pytest.raises(ValueError, match="threaded"):
            api.run(
                "wide_bushy", "SE", 12, "sim",
                cardinality=200, timeout=-5.0,
            )

    def test_threaded_receives_the_bound(self, monkeypatch):
        """The value reaches the executor verbatim (it used to be
        dropped on the floor)."""
        import repro.engine.threaded as threaded

        seen = {}

        def fake(schedule, relations, timeout, resolve):
            seen["timeout"] = timeout
            raise TimeoutError("as if the bound fired")

        monkeypatch.setattr(threaded, "execute_threaded", fake)
        with pytest.raises(TimeoutError):
            api.run(
                "left_linear", "SP", 4, "threaded",
                cardinality=50, timeout=2.5,
            )
        assert seen["timeout"] == 2.5

    def test_threaded_defaults_to_sixty_seconds(self, monkeypatch):
        import repro.engine.threaded as threaded

        seen = {}

        def fake(schedule, relations, timeout, resolve):
            seen["timeout"] = timeout
            raise TimeoutError("captured")

        monkeypatch.setattr(threaded, "execute_threaded", fake)
        with pytest.raises(TimeoutError):
            api.run("left_linear", "SP", 4, "threaded", cardinality=50)
        assert seen["timeout"] == 60.0


class TestRemovedAliases:
    """The old repro.engine front-end names are gone (they raised
    RuntimeError for one release); the facade and the engine
    submodules are the two ways in."""

    @pytest.mark.parametrize(
        "name",
        ["simulate_strategy", "execute_schedule",
         "execute_threaded", "ideal_simulation"],
    )
    def test_every_alias_raises_pointing_at_the_facade(self, name):
        import repro.engine as engine

        assert name not in engine.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(engine, name)

    def test_error_names_the_engine_submodule_escape_hatch(self):
        """The submodule escape hatch the removed aliases pointed at
        still reaches every raw engine."""
        import importlib

        for module, name in (
            ("simulate", "simulate_strategy"), ("local", "execute_schedule"),
            ("threaded", "execute_threaded"), ("ideal", "ideal_simulation"),
        ):
            engine = importlib.import_module(f"repro.engine.{module}")
            assert callable(getattr(engine, name))

    def test_undecorated_implementations_still_run(self, recwarn):
        simulate_strategy(
            make_shape("left_linear", NAMES10),
            Catalog.regular(NAMES10, 1000),
            "SP",
            10,
        )
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_top_level_run_is_the_facade(self):
        import repro

        assert repro.run is api.run
        assert repro.sweep is api.sweep


class TestFrozenKeywordSurface:
    """Unknown keywords fail with the full accepted-key list (shared
    validation helper of the v1 freeze)."""

    def test_run_rejects_unknown_keyword_with_accepted_list(self):
        with pytest.raises(TypeError, match="accepted keywords.*deadline"):
            api.run("wide_bushy", "SE", 4, cardinality=100, timeot=5.0)

    def test_run_workload_rejects_unknown_keyword_with_accepted_list(self):
        with pytest.raises(TypeError, match="accepted keywords.*watchdog_limit"):
            api.run_workload("wide_bushy", ratee=2.0)

    def test_error_names_every_offender(self):
        with pytest.raises(TypeError, match="bogus.*wrong"):
            api.run("wide_bushy", "SE", 4, bogus=1, wrong=2)

    def test_frozen_tuples_match_the_signatures(self):
        import inspect

        run_kw = [
            p.name
            for p in inspect.signature(api.run).parameters.values()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        ]
        assert run_kw == list(api.RUN_KEYWORDS)
        wl_kw = [
            p.name
            for p in inspect.signature(api.run_workload).parameters.values()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        ]
        assert wl_kw == list(api.RUN_WORKLOAD_KEYWORDS)
