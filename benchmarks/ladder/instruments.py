"""The two instruments of the traced repetition.

Both live in the benchmark's own files and are installed only for the
one traced repetition per workload — never in the timed pass — so the
end-to-end numbers are measured on the unmodified program.

* :class:`Tracer` wraps the public callables in :data:`BOUNDARIES`
  and records one span ``(name, start, end, parent, op)`` per call, in
  memory.  ``<name>.calls`` is exact and repeats run to run;
  ``<name>.busy_s`` is the span's duration minus its child spans.  A
  boundary is resolved by dotted name when the tracer is installed; one
  that no longer exists is reported as ``None``, it never fails a run.
* :class:`Sampler` arms ``ITIMER_PROF`` and attributes each sample to
  the innermost frame under ``src/repro/`` (a leaf inside the stdlib
  ``json`` package counts as ``stdlib.json``), which gives
  ``<pkg>.<module>.self_s`` = share of samples × traced wall.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import signal
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

#: Sampling period of the module sampler (seconds of process CPU time).
SAMPLE_INTERVAL = 0.002


def _clock_events(clock, *_args, **_kwargs) -> int:
    return clock.events_dispatched


def _sim_events(sim, *_args, **_kwargs) -> int:
    return sim.clock.events_dispatched


#: ``(span name, module, attribute path, every subclass too, probe)``.
#: A probe reads a monotone count before and after the call; the
#: difference is added to the counter named in :data:`PROBE_COUNTER`.
#: ``turbo.execute`` accounts its analytic events on the clock without
#: dispatching them, so both it and the clock loop are probed.
BOUNDARIES: Tuple[Tuple[str, str, str, bool, Optional[Callable]], ...] = (
    ("sim.clock_run", "repro.sim.events", "SimulationClock.run", False, _clock_events),
    ("sim.build", "repro.sim.run", "ScheduleSimulation.__init__", False, None),
    ("sim.result", "repro.sim.run", "ScheduleSimulation.result", False, None),
    ("sim.turbo_execute", "repro.sim.turbo", "execute", False, _sim_events),
    ("sim.turbo_hosted", "repro.sim.turbo", "execute_hosted", False, None),
    ("core.plan", "repro.core.strategies.base", "Strategy.schedule", True, None),
    ("model.predict", "repro.model.analytic", "predict_spec_service_time", False, None),
    ("workload.allocate", "repro.workload.policies", "AllocationPolicy.allocate", True, None),
    ("workload.pick", "repro.workload.sched", "Scheduler.pick", True, None),
    ("workload.collect", "repro.workload.engine", "WorkloadEngine.collect_result", False, None),
    ("cluster.place", "repro.cluster.placement", "PlacementPolicy.place", True, None),
    ("cluster.run_shard", "repro.cluster.router", "run_shard", False, None),
    ("runner.run_job", "repro.runner.execute", "run_job", False, None),
    ("runner.job_key", "repro.runner.spec", "Job.key", False, None),
    ("runner.cache_put", "repro.runner.cache", "ResultCache.put", False, None),
    ("runner.cache_get", "repro.runner.cache", "ResultCache.get", False, None),
    ("service.handle", "repro.service.frontend", "QueryService.handle", False, None),
    ("service.decode", "repro.service.frontend", "json.loads", False, None),
    ("service.encode", "repro.service.frontend", "json.dumps", False, None),
    ("api.run", "repro.api", "run", False, None),
)

#: The counter every probe feeds.
PROBE_COUNTER = "sim.events_dispatched"

#: Packages whose modules get a ``self_s`` metric each; every other
#: package under ``src/repro/`` is reported as one number.
_PER_MODULE_PACKAGES = ("sim", "workload", "cluster")


class Tracer:
    """Boundary spans around the callables of :data:`BOUNDARIES`."""

    def __init__(self, boundaries=BOUNDARIES) -> None:
        self.boundaries = boundaries
        #: ``[name, start, end, parent index, op]`` in start order.
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {PROBE_COUNTER: 0}
        self.missing: List[str] = []
        #: Identifier shared by the spans of one request; the workload
        #: loop sets it before each call it makes.
        self.op = 0
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, subclasses, probe in self.boundaries:
            try:
                self._install_one(name, module_name, path, subclasses, probe)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)

    def _install_one(self, name, module_name, path, subclasses, probe) -> None:
        module = importlib.import_module(module_name)
        parts = path.split(".")
        owner = module
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attribute = parts[-1]
        if isinstance(owner, type):
            classes = [owner]
            if subclasses:
                pending = list(owner.__subclasses__())
                while pending:
                    cls = pending.pop()
                    pending.extend(cls.__subclasses__())
                    if attribute in vars(cls):
                        classes.append(cls)
            for cls in classes:
                self._replace(cls, attribute, self._wrap(name, vars(cls)[attribute], probe))
            return
        if isinstance(owner, types.ModuleType) and owner is not module:
            # A foreign module reached through a repro module's global
            # (``frontend.json``): shadow it there, so only that module
            # sees the wrappers and the stdlib itself stays untouched.
            shadow = vars(module)[parts[0]]
            if not isinstance(shadow, types.SimpleNamespace):
                shadow = types.SimpleNamespace(**vars(owner))
                self._replace(module, parts[0], shadow)
            owner = shadow
            setattr(owner, attribute, self._wrap(name, getattr(owner, attribute), probe))
            return
        original = getattr(owner, attribute)
        wrapper = self._wrap(name, original, probe)
        self._replace(owner, attribute, wrapper)
        # ``from .x import f`` binds the function into other modules'
        # globals; rebind those aliases too.
        for other in list(sys.modules.values()):
            if other is module or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._replace(vars(other), key, wrapper)

    def _replace(self, owner, attribute: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attribute, owner[attribute]))
            owner[attribute] = value
        else:
            self._undo.append((owner, attribute, vars(owner)[attribute]))
            setattr(owner, attribute, value)

    def _wrap(self, name: str, fn: Callable, probe: Optional[Callable]) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            before = probe(*args, **kwargs) if probe is not None else 0
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if probe is not None:
                    counters[PROBE_COUNTER] += probe(*args, **kwargs) - before

        return wrapper

    # -- read-out ---------------------------------------------------------

    def metrics(self) -> Dict[str, Optional[float]]:
        """``<name>.calls`` and ``<name>.busy_s`` for every boundary."""
        calls: Dict[str, int] = {}
        busy: Dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start) - child_time[index]
        out: Dict[str, Optional[float]] = {}
        for name, *_rest in self.boundaries:
            if name in self.missing:
                out[f"{name}.calls"] = out[f"{name}.busy_s"] = None
            else:
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.busy_s"] = busy.get(name, 0.0)
        return out


class Sampler:
    """``ITIMER_PROF`` sampler attributing CPU time to repro modules."""

    def __init__(self, source_root: str, interval: float = SAMPLE_INTERVAL) -> None:
        self.interval = interval
        self.counts: Dict[str, int] = {}
        self._root = os.path.join(os.path.realpath(source_root), "")
        self._json_root = os.path.join(os.path.dirname(os.path.realpath(json.__file__)), "")
        self._keys: Dict[str, str] = {}
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _key(self, filename: str) -> str:
        key = self._keys.get(filename)
        if key is None:
            real = os.path.realpath(filename)
            if real.startswith(self._root):
                parts = real[len(self._root):-len(".py")].split(os.sep)
                depth = 2 if parts[0] in _PER_MODULE_PACKAGES else 1
                key = ".".join(parts[:depth])
            elif real.startswith(self._json_root):
                key = "stdlib.json"
            else:
                key = ""
            self._keys[filename] = key
        return key

    def _sample(self, _signum, frame) -> None:
        key = self._key(frame.f_code.co_filename)
        if key != "stdlib.json":
            while frame is not None:
                key = self._key(frame.f_code.co_filename)
                if key and key != "stdlib.json":
                    break
                frame = frame.f_back
            else:
                key = "other"
        self.counts[key] = self.counts.get(key, 0) + 1

    def self_seconds(self, wall: float) -> Dict[str, float]:
        total = sum(self.counts.values())
        if not total:
            return {}
        return {key: wall * count / total for key, count in self.counts.items()}
