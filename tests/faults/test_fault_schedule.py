"""FaultSchedule: validation, seeded generation, serialization."""

import functools
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.faults import CrashFault, FaultSchedule, LinkFault, StallFault

NAN = float("nan")
INF = float("inf")


def generate(**bad):
    """``FaultSchedule.generate`` with one argument replaced."""
    return FaultSchedule.generate(
        machine_size=4, horizon=10.0, crash_rate=0.5, **bad
    )


class TestValidation:
    def test_crash_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="non-negative"):
            CrashFault(processor=-1, at=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            CrashFault(processor=0, at=-1.0)
        with pytest.raises(ValueError, match="after the crash"):
            CrashFault(processor=0, at=5.0, repair_at=5.0)

    def test_stall_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="extent"):
            StallFault(processor=0, start=2.0, end=2.0)
        with pytest.raises(ValueError, match="factor"):
            StallFault(processor=0, start=0.0, end=1.0, factor=0.0)

    def test_link_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="extent"):
            LinkFault(start=3.0, end=1.0)
        with pytest.raises(ValueError, match="probability"):
            LinkFault(start=0.0, end=1.0, loss=1.5)

    def test_generate_rejects_bad_dimensions(self):
        with pytest.raises(ValueError, match="at least one"):
            FaultSchedule.generate(machine_size=0, horizon=10.0)
        with pytest.raises(ValueError, match="horizon"):
            FaultSchedule.generate(machine_size=4, horizon=0.0)

    @pytest.mark.parametrize("horizon", [float("inf"), float("nan")])
    def test_generate_rejects_a_non_finite_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            FaultSchedule.generate(
                machine_size=4, horizon=horizon, crash_rate=0.1
            )

    @pytest.mark.parametrize("name", ["crash_rate", "stall_rate", "link_rate"])
    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), -0.5])
    def test_generate_rejects_a_bad_rate(self, name, rate):
        with pytest.raises(ValueError, match=name):
            FaultSchedule.generate(machine_size=4, horizon=10.0, **{name: rate})

    @pytest.mark.parametrize("make, args, names", [
        (CrashFault, (0, NAN), "crash time"),
        (CrashFault, (0, INF), "crash time"),
        (CrashFault, (NAN, 1.0), "processor"),
        (CrashFault, (0, 1.0, NAN), "repair"),
        (CrashFault, (0, 1.0, INF), "repair"),
        (StallFault, (0, NAN, 2.0), "stall window"),
        (StallFault, (0, 1.0, NAN), "stall window"),
        (StallFault, (0, 1.0, INF), "stall window"),
        (StallFault, (0, 1.0, 2.0, NAN), "stall factor"),
        (StallFault, (0, 1.0, 2.0, INF), "stall factor"),
        (LinkFault, (1.0, NAN), "link-fault window"),
        (LinkFault, (1.0, INF), "link-fault window"),
        (LinkFault, (1.0, 2.0, NAN), "extra delay"),
        (LinkFault, (1.0, 2.0, INF), "extra delay"),
        (LinkFault, (1.0, 2.0, 0.0, NAN), "loss"),
        *(
            (functools.partial(generate, **{name: value}), (), name)
            for name, bad in (
                ("repair_time", (NAN, INF, 0.0, -1.0)),
                ("stall_duration", (NAN, INF, 0.0, -1.0)),
                ("stall_factor", (NAN, INF, 0.0, -1.0)),
                ("link_duration", (NAN, INF, 0.0, -1.0)),
                ("link_delay", (NAN, INF, -1.0)),
            )
            for value in bad
        ),
    ])
    def test_non_finite_and_out_of_range_values_are_refused(
        self, make, args, names
    ):
        """NaN fails every comparison, so a plain ``< 0`` check lets it
        through: a NaN repair time used to complete every query at a
        NaN makespan, an infinite one at an infinite makespan.  Each
        refusal names the field or argument."""
        with pytest.raises(ValueError, match=names):
            make(*args)

    def test_an_absent_repair_time_still_means_never(self):
        schedule = FaultSchedule.generate(
            machine_size=4, horizon=10.0, crash_rate=0.5, repair_time=None
        )
        assert schedule.crashes
        assert all(crash.repair_at is None for crash in schedule.crashes)

    def test_an_infinite_rate_is_refused_not_drawn_forever(self):
        """An infinite rate draws zero gaps, so the draw loop never
        reaches the horizon.  Run in a child with a 1 GiB address-space
        cap and a timeout, so a regression fails here instead of
        exhausting the machine."""
        script = textwrap.dedent(
            """
            import resource
            from repro.faults import FaultSchedule
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            try:
                FaultSchedule.generate(
                    machine_size=4, horizon=10.0, crash_rate=float("inf")
                )
            except ValueError as exc:
                print("refused:", exc)
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("refused: crash_rate")


class TestEmpty:
    def test_empty_schedule(self):
        schedule = FaultSchedule.empty()
        assert schedule.is_empty
        assert schedule.event_count == 0

    def test_zero_rates_generate_empty(self):
        schedule = FaultSchedule.generate(machine_size=8, horizon=100.0)
        assert schedule.is_empty


class TestGenerate:
    def test_same_seed_same_schedule(self):
        kwargs = dict(
            machine_size=16, horizon=200.0, seed=9,
            crash_rate=0.05, repair_time=20.0,
            stall_rate=0.05, link_rate=0.02, link_delay=0.1,
        )
        assert FaultSchedule.generate(**kwargs) == FaultSchedule.generate(
            **kwargs
        )

    def test_different_seed_different_schedule(self):
        a = FaultSchedule.generate(
            machine_size=16, horizon=500.0, seed=1, crash_rate=0.05
        )
        b = FaultSchedule.generate(
            machine_size=16, horizon=500.0, seed=2, crash_rate=0.05
        )
        assert a != b

    def test_category_streams_are_independent(self):
        """Adding stalls must not move the crash draws (each category
        has its own derived RNG stream)."""
        just_crashes = FaultSchedule.generate(
            machine_size=16, horizon=300.0, seed=4, crash_rate=0.03
        )
        both = FaultSchedule.generate(
            machine_size=16, horizon=300.0, seed=4, crash_rate=0.03,
            stall_rate=0.1,
        )
        assert both.crashes == just_crashes.crashes
        assert both.stalls and not just_crashes.stalls

    def test_events_stay_inside_the_horizon(self):
        schedule = FaultSchedule.generate(
            machine_size=8, horizon=50.0, seed=3,
            crash_rate=0.2, stall_rate=0.2, link_rate=0.2,
        )
        assert schedule.event_count > 0
        for crash in schedule.crashes:
            assert 0.0 <= crash.at < 50.0
            assert 0 <= crash.processor < 8
        for stall in schedule.stalls:
            assert 0.0 <= stall.start < 50.0

    def test_repair_time_offsets_every_crash(self):
        schedule = FaultSchedule.generate(
            machine_size=8, horizon=100.0, seed=5,
            crash_rate=0.1, repair_time=30.0,
        )
        assert schedule.crashes
        for crash in schedule.crashes:
            assert crash.repair_at == crash.at + 30.0


class TestSerialization:
    def test_payload_round_trip(self):
        schedule = FaultSchedule.generate(
            machine_size=8, horizon=100.0, seed=6,
            crash_rate=0.05, repair_time=10.0,
            stall_rate=0.05, link_rate=0.05, link_delay=0.2, link_loss=0.3,
        )
        assert FaultSchedule.from_payload(schedule.to_payload()) == schedule

    def test_payload_is_json_safe(self):
        import json

        schedule = FaultSchedule(
            crashes=(CrashFault(processor=1, at=2.0),),
            stalls=(StallFault(processor=0, start=1.0, end=3.0),),
            link_faults=(LinkFault(start=0.0, end=5.0, extra_delay=0.1),),
            seed=7,
        )
        wire = json.loads(json.dumps(schedule.to_payload()))
        assert FaultSchedule.from_payload(wire) == schedule

    def test_unknown_payload_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultSchedule.from_payload({"crashs": []})

    def test_schedule_is_hashable(self):
        a = FaultSchedule(crashes=(CrashFault(processor=0, at=1.0),))
        b = FaultSchedule(crashes=(CrashFault(processor=0, at=1.0),))
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
