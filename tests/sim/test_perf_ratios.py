"""Two speed ratios that guard real paths, each timed in one process.

Both compare two timings taken back to back on the same machine, so
they need no calibration against a reference box:

* **cold FP** — the paper's deepest pipeline (left_linear, 80
  processors) drained by turbo on cleared caches, so it interprets
  rather than replays, against the same simulation drained through the
  classic event loop.  Interpreting every sibling process in full gives
  about 4x at 1 000 tuples; splicing lock-step siblings onto their
  leader's run gives about 14x, and holding their shared emissions as
  runs in the consumers' timelines about 25x.  The 5x floor sits just
  above full interpretation, and the splice and run counters are
  asserted too, so the test trips when the replication silently stops
  firing or the consumers' timelines stop holding the siblings' copies
  as runs.
* **workload replay** — a one-client closed loop resubmitting one FP
  spec, served with the hosted fast path on and off.  Every epoch is
  single-occupancy, so every query should fast-path; the floor is 3x.
"""

import gc
import time

from repro import api
from repro.core import Catalog, get_strategy, make_shape, paper_relation_names
from repro.sim import MachineConfig, turbo
from repro.sim.run import ScheduleSimulation

COLD_FP_FLOOR = 5.0
REPLAY_FLOOR = 3.0


def timed(fn):
    """``(result, seconds)`` of one call, with the collector paused."""
    gc.disable()
    try:
        started = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - started
    finally:
        gc.enable()


def test_cold_fp_turbo_beats_the_classic_loop():
    names = paper_relation_names(10)
    catalog = Catalog.regular(names, 1_000)
    schedule = get_strategy("FP").schedule(
        make_shape("left_linear", names), catalog, 80
    )

    def drain(fast):
        sim = ScheduleSimulation(schedule, catalog, MachineConfig.paper())
        turbo.clear_cache()
        if fast:
            executed, seconds = timed(lambda: turbo.execute(sim))
            assert executed, "cold FP point unexpectedly turbo-ineligible"
        else:
            _, seconds = timed(sim.clock.run)
        return seconds

    fast = min(drain(True) for _ in range(3))
    stats = turbo.cache_stats()
    classic = min(drain(False) for _ in range(3))
    assert stats["sibling_splices"] > 0
    assert stats["timeline_runs"] < stats["timeline_entries"]
    assert classic / fast >= COLD_FP_FLOOR, (
        f"cold FP {classic / fast:.2f}x over the classic loop "
        f"({classic:.3f}s / {fast:.3f}s)"
    )


def test_workload_replay_fast_path_beats_the_classic_loop():
    def serve(fast_path):
        turbo.clear_cache()
        return timed(lambda: api.run_workload(
            "wide_bushy",
            arrivals="closed",
            clients=1,
            think_time=0.5,
            queries_per_client=24,
            duration=1e9,
            seed=3,
            machine_size=40,
            policy="exclusive",
            strategy="FP",
            cardinality=2_000,
            fast_path=fast_path,
        ))

    fast, fast_seconds = serve(True)
    classic, classic_seconds = serve(False)
    assert fast.rows() == classic.rows()
    assert fast.fast_path_queries == len(fast.completed()) == 24
    assert classic_seconds / fast_seconds >= REPLAY_FLOOR, (
        f"workload replay {classic_seconds / fast_seconds:.2f}x "
        f"({classic_seconds:.3f}s / {fast_seconds:.3f}s)"
    )
