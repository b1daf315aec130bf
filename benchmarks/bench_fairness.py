"""Tenant isolation under an abusive tenant.

Two open-loop tenants share one simulated 40-processor machine: a
well-behaved tenant offering a steady rate well inside its fair share,
and an abusive tenant at 3x its fair rate.  Every query carries the
same deadline, so *useful* completions (in-deadline) are what goodput
counts.

The isolation claim this benchmark asserts:

* under ``wfq`` the well-behaved tenant keeps at least 85% of the
  useful completions it gets when running **solo** on the same
  machine;
* under ``fifo`` the same abuse collapses the well-behaved tenant
  below 50% of its solo baseline — the queue is shared, so the
  abuser's backlog pushes everyone past the deadline.

    PYTHONPATH=src python -m pytest benchmarks/bench_fairness.py
"""

from __future__ import annotations

from repro import api
from repro.sim import MachineConfig
from repro.workload import TenantSpec, fairness_sweep

#: Coarse batches keep each workload cell to a fraction of a second.
FAST = MachineConfig(
    tuple_unit=0.001, process_startup=0.008, handshake=0.012,
    network_latency=0.05, batches=8,
)

#: ~1.0 s service time (FP, 400 tuples, FAST machine) means capacity
#: ~0.97 q/s, so a tenant's *fair rate* (half the machine) is ~0.48 q/s.
#: The good tenant offers 0.30 q/s — inside its fair share — while abuse
#: at 3x the fair rate drives the machine deep into overload.
GOOD_RATE = 0.30
FAIR_RATE = 0.48
ABUSE_FACTOR = 3.0
DEADLINE = 15.0
KNOBS = dict(
    mix_or_shape="wide_bushy", duration=200.0, seed=7, machine_size=40,
    policy="exclusive", strategy="FP", cardinality=400, config=FAST,
)


def test_wfq_isolates_the_well_behaved_tenant():
    solo = api.run_workload(
        arrivals="poisson", scheduler="fifo",
        tenants=(TenantSpec("good", deadline=DEADLINE, rate=GOOD_RATE),),
        **KNOBS,
    ).useful_count("good")
    assert solo > 0
    points = fairness_sweep(
        schedulers=("fifo", "wfq"), abuse_factors=(ABUSE_FACTOR,),
        good_rate=GOOD_RATE, abuse_fair_rate=FAIR_RATE, deadline=DEADLINE,
        **KNOBS,
    )
    good = {p.scheduler: p.completed for p in points if p.tenant == "good"}
    assert good["wfq"] >= 0.85 * solo, f"wfq kept {good['wfq']}/{solo}"
    assert good["fifo"] < 0.50 * solo, f"fifo kept {good['fifo']}/{solo}"
