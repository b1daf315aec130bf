"""Analytic response-time model.

Section 2.3.3 of the paper leans on an analytical model of pipelined
query execution ([WiA93, WiG93]) to explain the experiments: constant
delay per linear pipeline step, size-proportional delay per bushy
step.  This module provides the same kind of model for the whole
reproduction: closed-form (recurrence-based, no event simulation)
response-time predictions for each strategy, built from the identical
machine constants the simulator uses.

The model is deliberately first-order — its role is explanation and
cross-validation, not replacement of the DES.  Tests pin it to within
a modest tolerance of the simulator across the paper's grid, and the
``bench_extension_model`` benchmark reports the fit like [WiG93] did.

Per-task ingredients (seconds):

* ``work(j)/p_j``      CPU time per processor of join j;
* ``init_end(j)``      when the serial scheduler has initialized j's
                       processes (cumulative process count × startup);
* ``handshakes(j)``    per-processor stream-setup CPU;
* ``hop``              per-pipeline-step delivery delay (latency plus
                       one CPU chunk).

Strategy recurrences:

* barrier tasks (SP/SE, RD's wave starts): ``finish = max(deps,
  init_end) + handshakes + work/p + latency``;
* pipelined consumers (RD segments, FP): ``finish = max(start +
  work/p, feed + hop)`` where ``feed`` is when the last input tuple
  arrived — the classic pipeline bottleneck recurrence; a bushy join
  fed by two still-running producers additionally waits for the
  slower producer's backloaded output ramp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..core.cost import Catalog, CostModel
from ..core.schedule import JoinTask, ParallelSchedule
from ..core.strategies import Strategy, get_strategy
from ..core.trees import Node
from ..sim.machine import MachineConfig


@dataclass(frozen=True)
class Prediction:
    """Predicted response time with its per-task completion profile."""

    strategy: str
    processors: int
    response_time: float
    task_finish: Dict[int, float]

    def finish_of(self, index: int) -> float:
        return self.task_finish[index]


def predict_schedule(
    schedule: ParallelSchedule,
    catalog: Catalog,
    config: Optional[MachineConfig] = None,
    cost_model: CostModel = CostModel(),
) -> Prediction:
    """Predict the response time of ``schedule`` analytically."""
    if config is None:
        config = MachineConfig.paper()
    per_join = cost_model.annotate(schedule.tree, catalog)
    costs = {task.index: per_join[task.join] for task in schedule.tasks}

    # Serial scheduler initialization.
    init_end: Dict[int, float] = {}
    processes = 0
    for task in schedule.tasks:
        processes += task.parallelism
        init_end[task.index] = processes * config.process_startup

    def work_seconds(task: JoinTask) -> float:
        return costs[task.index].cost * config.tuple_unit / task.parallelism

    def startup_handshake_seconds(task: JoinTask) -> float:
        """Consumer-side handshakes, plus the producer side of a
        pipelined output — paid before work starts (as in the sim)."""
        count = 0
        for spec in (task.left_input, task.right_input):
            if not spec.is_base:
                count += schedule.tasks[spec.source].parallelism
        consumer = _consumer_of(schedule, task.index)
        if consumer is not None and _input_mode(consumer, task.index) == "pipelined":
            count += consumer.parallelism
        return count * config.handshake

    def send_handshake_seconds(task: JoinTask) -> float:
        """Send setup of a materialized output — paid before completion."""
        consumer = _consumer_of(schedule, task.index)
        if consumer is not None and _input_mode(consumer, task.index) == "materialized":
            return consumer.parallelism * config.handshake
        return 0.0

    def chunk_seconds(task: JoinTask) -> float:
        cost = costs[task.index]
        biggest = max(cost.n1, cost.n2) / task.parallelism
        per_tuple = cost_model.intermediate_coeff + cost_model.result_coeff
        return biggest / config.batches * per_tuple * config.tuple_unit

    finish: Dict[int, float] = {}
    start: Dict[int, float] = {}
    for task in _topological(schedule):
        ready = max((finish[dep] for dep in task.start_after), default=0.0)
        ready = max(ready, init_end[task.index])
        # Stored operands arrive one latency after their producer; the
        # consumer's handshakes overlap that delivery.
        data_wait = ready
        for spec in (task.left_input, task.right_input):
            if spec.mode == "materialized":
                data_wait = max(
                    data_wait, finish[spec.source] + config.network_latency
                )
        begin = max(ready + startup_handshake_seconds(task), data_wait)
        start[task.index] = begin
        capacity_finish = begin + work_seconds(task)
        feed = begin
        for spec in (task.left_input, task.right_input):
            if spec.mode == "pipelined":
                hop = config.network_latency + chunk_seconds(task)
                feed = max(feed, finish[spec.source] + hop)
        pipelined_inputs = sum(
            1
            for spec in (task.left_input, task.right_input)
            if spec.mode == "pipelined"
        )
        if pipelined_inputs == 2:
            # Bushy pipeline step: both operands arrive backloaded
            # (the producers' output ramps with the product of arrived
            # fractions), so the step drains roughly a quarter of its
            # own work after the last input (Section 2.3.3's
            # size-proportional delay).
            feed += work_seconds(task) / 4.0
        finish[task.index] = max(capacity_finish, feed) + send_handshake_seconds(task)
    response = max(finish.values())
    return Prediction(
        schedule.strategy, schedule.processors, response, finish
    )


def predict(
    tree: Node,
    catalog: Catalog,
    strategy: Union[str, Strategy],
    processors: int,
    config: Optional[MachineConfig] = None,
    cost_model: CostModel = CostModel(),
) -> Prediction:
    """Plan and predict in one call (mirror of ``simulate_strategy``)."""
    if isinstance(strategy, str):
        strategy = get_strategy(strategy)
    schedule = strategy.schedule(tree, catalog, processors, cost_model)
    return predict_schedule(schedule, catalog, config, cost_model)


def _consumer_of(schedule: ParallelSchedule, index: int) -> Optional[JoinTask]:
    for task in schedule.tasks:
        for spec in (task.left_input, task.right_input):
            if not spec.is_base and spec.source == index:
                return task
    return None


def _input_mode(consumer: JoinTask, producer_index: int) -> str:
    for spec in (consumer.left_input, consumer.right_input):
        if not spec.is_base and spec.source == producer_index:
            return spec.mode
    raise ValueError(f"task {consumer.index} does not consume {producer_index}")


def _topological(schedule: ParallelSchedule) -> List[JoinTask]:
    """Tasks ordered so every dependency precedes its dependents.

    Postorder is not enough: RD's wave barriers can point to tasks
    with *higher* postorder indices (independent segments of an
    earlier wave).
    """
    by_index = {task.index: task for task in schedule.tasks}
    order: List[JoinTask] = []
    visited: Dict[int, int] = {}  # 0 = in progress, 1 = done

    def visit(index: int) -> None:
        state = visited.get(index)
        if state == 1:
            return
        if state == 0:
            raise ValueError(f"dependency cycle through task {index}")
        visited[index] = 0
        task = by_index[index]
        for dep in task.start_after:
            visit(dep)
        for spec in (task.left_input, task.right_input):
            if not spec.is_base:
                visit(spec.source)
        visited[index] = 1
        order.append(task)

    for task in schedule.tasks:
        visit(task.index)
    return order


def relative_error(predicted: float, simulated: float) -> float:
    """Symmetric relative deviation of model versus simulation."""
    if simulated <= 0:
        raise ValueError("simulated time must be positive")
    return abs(predicted - simulated) / simulated


def predict_spec_service_time(
    spec,
    machine_size: int,
    config: Optional[MachineConfig] = None,
    cost_model: Optional[CostModel] = None,
) -> Optional[float]:
    """Analytic response time of one workload ``QuerySpec`` at advised
    parallelism on a ``machine_size`` machine.

    Plan the spec (resolving ``"auto"`` through the guideline advisor),
    clamp the advised parallelism to the machine (pipelining needs one
    processor per join to be feasible), and predict.  This is the one
    spelling of the forecast: the SJF/WFQ schedulers' job sizes
    (:class:`~repro.workload.sched.ServiceEstimator`) and the cluster's
    :class:`~repro.cluster.placement.LoadForecast` — ``least_loaded``
    placement, the coordinated router's hedge trigger and the
    ``predictive`` autoscaler — all call it.  Returns ``None`` for a
    spec no plan can run at this capacity.
    """
    from ..core.trees import num_joins
    from ..optimizer.guidelines import (
        advise_parallelism,
        advise_strategy,
        apply_advice,
    )

    cost_model = cost_model or CostModel()
    try:
        tree = spec.tree()
        catalog = spec.catalog()
        strategy = spec.strategy
        if strategy == "auto":
            advice = advise_strategy(tree, catalog, machine_size, cost_model)
            tree = apply_advice(tree, advice)
            strategy = advice.strategy
        processors = advise_parallelism(
            tree, catalog, machine_size, cost_model
        )
        if strategy == "FP":
            # Pipelining needs one processor per join to be feasible.
            processors = max(processors, num_joins(tree))
        processors = max(1, min(processors, machine_size))
        return predict(
            tree, catalog, strategy, processors, config, cost_model
        ).response_time
    except ValueError:
        return None
