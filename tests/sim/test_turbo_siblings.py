"""Lock-step siblings: a spliced run ≡ the same sibling simulated alone.

When a task's fragment shares are equal, :mod:`repro.sim.turbo`
simulates its first process in full and lets each later one stop at the
first rendezvous point it shares with that leader and inherit the rest.
The oracle here takes nothing of that on trust: inside a real
``_compute`` run it simulates every follower twice — once alone, with no
leader record, exactly as before the mechanism existed, and once with
it — and requires both to leave the same emissions, processor
intervals, port finals, process finals and completion count, ``==`` on
every float.  The finals are read off the simulation's own process and
ports, as turbo's write-back leaves them (the graph is built before the
run, so the run is written back into it).  A spliced follower writes no emissions for the tail it
shares (the leader's count as its copies in the consumer's timeline),
so its emissions are compared as its own plus that tail in its own
delivery order and ranks.

The compared state is then mutation-checked: the module is recompiled
with one field dropped from the rendezvous key, and some test here must
notice.  For the fields real timelines separate, the oracle rejects the
mutant on a named case; for the three that never differ on their own,
the comparison itself is pinned.
"""

import inspect
import re
import types

import pytest

from repro.core import Catalog, get_strategy, make_shape, paper_relation_names
from repro.sim import MachineConfig, turbo
from repro.sim.run import ScheduleSimulation, simulate

SHAPES = ("wide_bushy", "left_linear", "right_bushy", "right_linear", "left_bushy")

#: The interpreter as shipped, whatever a test has patched over it.
RUN_PROCESS = turbo._run_process


def build(shape, strategy, processors, cardinality=5000, skew=0.0, config=None):
    names = paper_relation_names(10)
    catalog = Catalog.regular(names, cardinality)
    schedule = get_strategy(strategy).schedule(
        make_shape(shape, names), catalog, processors
    )
    return ScheduleSimulation(
        schedule, catalog, config or MachineConfig.paper(), None, skew
    )


def built(sim, tally):
    """``sim`` with its process graph built; ``tally["processes"]`` lists
    its processes by delivery order (the scheduler's init order)."""
    tally["processes"] = [p for rt in sim.runtimes for p in rt.processes]
    return sim


def observed(cpu, mark, emitted, returned, proc):
    """Everything one ``_run_process`` call leaves behind, its final
    written back into ``proc``."""
    turbo._finish(proc, returned[2])
    return {
        "returned": returned,
        "emissions": emitted,
        "intervals": cpu.intervals[mark:],
        "busy_until": cpu.busy_until,
        "ports": [
            (port.pending, port.processed, port.eos_received, port.first_arrival)
            for port in (proc.left, proc.right)
        ],
        "process": (
            proc.start_time, proc.done_time, proc.out_total, proc.ready,
            proc.released, proc.started, proc.cpu_busy, proc.closing, proc.done,
        ),
    }


class Diverged(AssertionError):
    """A follower's real run differs from its run alone."""


def shared_tail(lead, emissions):
    """The leader's emissions the follower that last met ``lead`` stands
    for, decorated as its own: its delivery order, its ranks, one copy
    each (the leader ran first, so its emissions open the task's list)."""
    start, porder, shift = lead.followers[-1]
    return [
        (atime, emit, porder, rank + shift, side, count, eos, 1)
        for atime, emit, _, rank, side, count, eos, _ in emissions[start:lead.nemit]
    ]


def checking(run_process, tally, doctor=None):
    """Wrap ``_run_process``: every follower is first run alone on a
    copy of the emission list, its traces rewound, and then run for
    real; the two must agree on everything.  ``doctor`` rewrites the
    leader's record before a follower sees it."""

    def checked(task, cpu, share, t_start, entries, emissions, first_pos, porder, lead):
        if lead is None or lead.final is None:
            return run_process(
                task, cpu, share, t_start, entries, emissions, first_pos, porder, lead
            )
        if doctor is not None:
            lead = doctor(lead)
        proc = tally["processes"][porder - 1]
        mark, busy = len(cpu.intervals), cpu.busy_until
        before = len(emissions)
        alone = list(emissions)
        returned = run_process(
            task, cpu, share, t_start, entries, alone, first_pos, porder, None
        )
        expected = observed(cpu, mark, alone[before:], returned, proc)
        del cpu.intervals[mark:]
        cpu.busy_until = busy
        met = len(lead.followers)
        returned = run_process(
            task, cpu, share, t_start, entries, emissions, first_pos, porder, lead
        )
        emitted = emissions[before:]
        if len(lead.followers) > met:
            emitted += shared_tail(lead, emissions)
        if observed(cpu, mark, emitted, returned, proc) != expected:
            raise Diverged(f"{proc.name} on processor {proc.processor.ident}, t_start={t_start}")
        tally["followers"] += 1
        return returned

    return checked


@pytest.fixture
def oracle(monkeypatch):
    tally = {"followers": 0}
    monkeypatch.setattr(turbo, "_run_process", checking(RUN_PROCESS, tally))
    turbo.clear_cache()
    return tally


@pytest.mark.parametrize("processors", (20, 50, 80))
@pytest.mark.parametrize("strategy", ("RD", "FP"))
@pytest.mark.parametrize("shape", SHAPES)
def test_every_sibling_matches_its_own_full_run(oracle, shape, strategy, processors):
    sim = built(build(shape, strategy, processors), oracle)
    assert turbo.execute(sim)
    stats = turbo.cache_stats()
    assert oracle["followers"] == stats["sibling_runs"] > 0
    assert 0 < stats["sibling_splices"] <= stats["sibling_runs"]


def test_counters_report_attempts_beside_splices():
    """``sibling_runs`` counts followers entered, ``sibling_splices``
    those that inherited a tail; a replay interprets nothing and adds
    to neither, and ``clear_cache`` resets both."""
    turbo.clear_cache()
    sim = build("left_linear", "FP", 20, 1000)
    simulate(sim.schedule, sim.catalog, sim.config)
    cold = turbo.cache_stats()
    assert cold["sibling_runs"] == 20 - 9  # one leader per join
    assert 0 < cold["sibling_splices"] <= cold["sibling_runs"]
    simulate(sim.schedule, sim.catalog, sim.config)
    warm = turbo.cache_stats()
    assert warm["profile_hits"] == 1
    assert (warm["sibling_runs"], warm["sibling_splices"]) == (
        cold["sibling_runs"], cold["sibling_splices"]
    )
    turbo.clear_cache()
    cleared = turbo.cache_stats()
    assert cleared["sibling_runs"] == cleared["sibling_splices"] == 0


# -- mutation check of the compared state --------------------------------

#: The state compared at an idle rendezvous, as ``_run_process`` writes
#: it; the start site's whole state is ``t_start``.
IDLE_STATE = ("ei", "off", "b_pend", "p_pend", "b_done", "p_done", "out_total", "cur_e")

TRICKLE = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.016,
    network_latency=0.05, batches=4,
)

#: Field -> a case where a key without it splices some sibling onto a
#: future that is not its own, which the oracle then rejects.
SEPARATED_BY = {
    "t_start": dict(shape="left_linear", strategy="FP", processors=12, cardinality=300),
    "cur_e": dict(shape="left_linear", strategy="FP", processors=12, cardinality=300),
    "b_done": dict(shape="left_linear", strategy="FP", processors=50, cardinality=40000),
    "p_done": dict(shape="right_linear", strategy="FP", processors=50, cardinality=40000),
    "out_total": dict(
        shape="right_linear", strategy="FP", processors=50, cardinality=100, config=TRICKLE
    ),
}

#: No timeline found (the cases above, the paper grid, 10 000 random
#: shape x strategy x machine points) brings two siblings to an idle
#: point in states that differ in one of these alone: which arrival is
#: next and what is pending move together with the fields above.  The
#: copy within a run (``off``) cannot differ alone: a process waits
#: mid-run only right after waiting at the copy before it, with no chunk
#: run in between, so two siblings waiting at one copy of a run both
#: waited at its first copy, in states differing in the same fields.
#: The rest of the run reads them all the same, so the comparison is
#: pinned directly: a record that is off in that one field must match
#: nothing.
NEVER_ALONE = ("ei", "off", "b_pend", "p_pend")
NEAR_MISS = dict(shape="right_bushy", strategy="FP", processors=20, cardinality=1000)


def mutant_without(field):
    """``repro.sim.turbo`` recompiled with ``field`` dropped from the
    rendezvous state."""
    source = inspect.getsource(turbo)
    if field == "t_start":
        mutated, count = re.subn(
            r"points(\.get\(|\[)t_start([\)\]])", r"points\g<1>None\2", source
        )
        assert count == 2, "start rendezvous not found as written"
    else:
        written = f"key = ({', '.join(IDLE_STATE)})"
        kept = ", ".join(name for name in IDLE_STATE if name != field)
        assert source.count(written) == 1, "idle rendezvous not found as written"
        mutated = source.replace(written, f"key = ({kept})")
    module = types.ModuleType("repro.sim.turbo_mutant")
    module.__package__ = "repro.sim"
    exec(compile(mutated, turbo.__file__, "exec"), module.__dict__)
    return module


def off_in(field, state=IDLE_STATE):
    """A doctor: the leader's record with every idle state moved by a
    half in ``field`` — a value no run produces for that arrival index,
    so a true ``==`` on the whole state can match none of them."""

    def doctor(lead):
        if field not in state:
            return lead
        at = state.index(field)
        doctored = turbo._Lead(lead.width)
        doctored.final, doctored.busy, doctored.ncomp = lead.final, lead.busy, lead.ncomp
        doctored.nemit, doctored.intervals = lead.nemit, lead.intervals
        doctored.followers = lead.followers
        for key, value in lead.points.items():
            if isinstance(key, tuple):  # the start site's key is a float
                key = key[:at] + (key[at] + 0.5,) + key[at + 1:]
            doctored.points[key] = value
        return doctored

    return doctor


def run_checked(monkeypatch, module, case, doctor=None):
    """Run ``case`` under the oracle with ``module``'s interpreter;
    returns how many followers spliced."""
    run_process = RUN_PROCESS if module is turbo else module._run_process
    tally = {"followers": 0}
    monkeypatch.setattr(turbo, "_run_process", checking(run_process, tally, doctor))
    module.clear_cache()
    turbo.clear_cache()
    assert turbo.execute(built(build(**case), tally))
    assert tally["followers"] > 0
    return module.cache_stats()["sibling_splices"]


@pytest.mark.parametrize("field", sorted(SEPARATED_BY))
def test_a_key_without_the_field_inherits_a_wrong_future(monkeypatch, field):
    case = SEPARATED_BY[field]
    assert run_checked(monkeypatch, turbo, case) > 0
    with pytest.raises(Diverged):
        run_checked(monkeypatch, mutant_without(field), case)


@pytest.mark.parametrize("field", NEVER_ALONE)
def test_a_state_off_in_one_field_is_no_rendezvous(monkeypatch, field):
    assert run_checked(monkeypatch, turbo, NEAR_MISS) > 0
    assert run_checked(monkeypatch, turbo, NEAR_MISS, off_in(field)) == 0
    # ... which a key without the field cannot tell from a rendezvous.
    kept = tuple(name for name in IDLE_STATE if name != field)
    assert run_checked(
        monkeypatch, mutant_without(field), NEAR_MISS, off_in(field, kept)
    ) > 0
