"""Self-contained HTML report of the reproduction.

Assembles the evaluation — Figure 14 table, Figures 9-13 as SVG line
charts, Figures 3/4/6/7 as SVG Gantt charts, and the claim checklist —
into one dependency-free HTML document a reviewer can open in any
browser.  Regenerate with ``python benchmarks/generate_report_html.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple
from xml.sax.saxutils import escape

from ..bench.paperdata import PAPER_FIGURE_14
from ..bench.report import evaluate_claims
from ..bench.workloads import SweepResult
from ..engine.trace import spans_of
from ..sim.metrics import SimulationResult
from .svg import GanttChart, LineChart

_STYLE = """
body { font-family: Georgia, serif; max-width: 960px; margin: 2em auto;
       color: #222; line-height: 1.45; padding: 0 1em; }
h1, h2, h3 { font-family: Helvetica, Arial, sans-serif; }
table { border-collapse: collapse; margin: 1em 0; }
td, th { border: 1px solid #bbb; padding: 4px 10px; text-align: right; }
th { background: #f0f0f0; }
.pass { color: #2ca02c; } .fail { color: #d62728; }
figure { margin: 1.5em 0; }
figcaption { font-size: 0.9em; color: #555; }
"""


def sweep_chart(sweep: SweepResult) -> str:
    """One Figure 9-13 panel as an SVG line chart."""
    chart = LineChart(
        sweep.experiment.title,
        x_label="processors",
        y_label="response time (s)",
    )
    for name, series in sweep.series.items():
        chart.add_series(
            name, list(zip(series.processor_counts, series.response_times))
        )
    return chart.to_svg()


def utilization_gantt(result: SimulationResult, title: str) -> str:
    """One Figure 3/4/6/7 panel as an SVG Gantt chart."""
    chart = GanttChart(title)
    for span in spans_of(result):
        chart.add_span(span.processor, span.start, span.end, span.task)
    return chart.to_svg()


def figure14_html(sweeps: Dict[Tuple[str, str], SweepResult]) -> str:
    rows = [
        "<table><tr><th>shape</th><th>size</th>"
        "<th>measured</th><th>paper</th></tr>"
    ]
    for (shape, size), paper_cell in PAPER_FIGURE_14.items():
        sweep = sweeps.get((shape, size))
        if sweep is None:
            continue
        seconds, strategy, procs = sweep.best_cell()
        p_seconds, p_strategy, p_procs = paper_cell
        rows.append(
            f"<tr><td>{escape(shape)}</td><td>{escape(size)}</td>"
            f"<td>{seconds:.2f}s ({strategy}@{procs})</td>"
            f"<td>{p_seconds:.1f}s ({p_strategy}@{p_procs})</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def claims_html(sweep: SweepResult) -> str:
    items = []
    for outcome in evaluate_claims(sweep):
        cls = "pass" if outcome.holds else "fail"
        mark = "✓" if outcome.holds else "✗"
        items.append(
            f'<li class="{cls}">{mark} {escape(outcome.claim.description)}</li>'
        )
    return "<ul>" + "".join(items) + "</ul>"


def workload_chart(points: List, title: str) -> str:
    """A latency-versus-offered-load panel from workload
    :class:`~repro.workload.LoadPoint` rows (mean, p95 and queueing
    delay against offered load)."""
    chart = LineChart(
        title, x_label="offered load", y_label="latency (s)"
    )
    # Fully rejected load points have no latency (None) — skip them.
    mean = [(p.load, p.latency_mean) for p in points
            if p.latency_mean is not None]
    p95 = [(p.load, p.latency_p95) for p in points
           if p.latency_p95 is not None]
    if mean:
        chart.add_series("mean", mean)
    if p95:
        chart.add_series("p95", p95)
    chart.add_series(
        "queueing", [(p.load, p.queue_delay_mean) for p in points]
    )
    return chart.to_svg()


def workload_html(points: List, knee: Optional[float]) -> str:
    """The multi-query workload section: saturation chart + summary
    table (beyond the paper: the shared-machine service regime)."""
    parts = [
        "<h2>Beyond the paper — multi-query workload saturation</h2>",
        "<p>One shared simulated machine serving a stream of Figure 8 "
        "queries behind admission control; the knee of the "
        "latency-versus-load curve is the machine's capacity.</p>",
        "<figure>",
        workload_chart(points, "Latency versus offered load"),
        "</figure>",
        "<table><tr><th>load</th><th>throughput</th><th>utilization</th>"
        "<th>p50</th><th>p95</th><th>queueing</th></tr>",
    ]
    def seconds(value):
        return "n/a" if value is None else f"{value:.2f}s"

    for p in points:
        parts.append(
            f"<tr><td>{p.load:.2f}</td><td>{p.throughput:.3f}</td>"
            f"<td>{p.utilization:.0%}</td><td>{seconds(p.latency_p50)}</td>"
            f"<td>{seconds(p.latency_p95)}</td>"
            f"<td>{p.queue_delay_mean:.2f}s</td></tr>"
        )
    parts.append("</table>")
    parts.append(
        f"<p>Saturation knee: <b>{knee:g}</b> offered load.</p>"
        if knee is not None
        else "<p>The sweep never saturated the machine.</p>"
    )
    return "\n".join(parts)


def resilience_chart(points: List, title: str) -> str:
    """Goodput-versus-crash-rate panel from
    :class:`~repro.faults.ResiliencePoint` rows, one series per
    strategy."""
    chart = LineChart(
        title, x_label="crash rate (/proc/s)", y_label="goodput (q/s)"
    )
    strategies = sorted({p.strategy for p in points})
    for strategy in strategies:
        series = sorted(
            (p.crash_rate, p.goodput)
            for p in points if p.strategy == strategy
        )
        chart.add_series(strategy, series)
    return chart.to_svg()


def resilience_html(points: List) -> str:
    """The fault-injection section: goodput degradation chart + per-cell
    resilience table (beyond the paper: crash-stop failures with
    recovery)."""
    recoveries = sorted({p.recovery for p in points})
    parts = [
        "<h2>Beyond the paper — resilience under crash-stop faults</h2>",
        "<p>Deterministic fault injection on the shared machine: "
        "processors crash mid-pipeline and the workload engine recovers "
        f"({', '.join(escape(r) for r in recoveries)}). Goodput counts "
        "completed queries only; wasted work is busy time spent on "
        "attempts that later aborted.</p>",
        "<figure>",
        resilience_chart(points, "Goodput versus crash rate"),
        "</figure>",
        "<table><tr><th>strategy</th><th>crash rate</th><th>recovery</th>"
        "<th>done</th><th>failed</th><th>retries</th><th>goodput</th>"
        "<th>wasted</th><th>MTTR</th></tr>",
    ]
    for p in points:
        mttr = "n/a" if p.mttr is None else f"{p.mttr:.1f}s"
        parts.append(
            f"<tr><td>{escape(p.strategy)}</td><td>{p.crash_rate:g}</td>"
            f"<td>{escape(p.recovery)}</td><td>{p.completed}</td>"
            f"<td>{p.failed}</td><td>{p.retries}</td>"
            f"<td>{p.goodput:.3f}</td><td>{p.wasted_fraction:.1%}</td>"
            f"<td>{mttr}</td></tr>"
        )
    parts.append("</table>")
    return "\n".join(parts)


def overload_chart(points: List, title: str) -> str:
    """Goodput-versus-offered-load panel from
    :class:`~repro.workload.OverloadPoint` rows, one series per
    (strategy, shed policy) pair."""
    chart = LineChart(
        title, x_label="offered load (q/s)", y_label="goodput (q/s)"
    )
    pairs = sorted({(p.strategy, p.shed or "none") for p in points})
    for strategy, shed in pairs:
        series = sorted(
            (p.load, p.goodput)
            for p in points
            if p.strategy == strategy and (p.shed or "none") == shed
        )
        chart.add_series(f"{strategy}/{shed}", series)
    return chart.to_svg()


def overload_html(points: List) -> str:
    """The request-lifecycle section: goodput under overload with and
    without load shedding (beyond the paper: deadlines and admission
    policies on the shared machine)."""
    sheds = sorted({p.shed or "none" for p in points})
    parts = [
        "<h2>Beyond the paper — goodput under overload with deadlines</h2>",
        "<p>Every query carries a deadline in simulated time; a query "
        "still running at its deadline is aborted, so late work burns "
        "machine time without producing a result. Without shedding, "
        "goodput collapses past the saturation knee; a deadline-aware "
        "admission policy sheds doomed arrivals up front and holds "
        f"goodput near capacity (policies compared: "
        f"{', '.join(escape(s) for s in sheds)}).</p>",
        "<figure>",
        overload_chart(points, "Goodput versus offered load"),
        "</figure>",
        "<table><tr><th>strategy</th><th>load</th><th>shed policy</th>"
        "<th>offered</th><th>done</th><th>shed</th><th>expired</th>"
        "<th>deadline-aborted</th><th>goodput</th><th>miss rate</th>"
        "<th>utilization</th></tr>",
    ]
    for p in points:
        miss = "n/a" if p.miss_rate is None else f"{p.miss_rate:.0%}"
        parts.append(
            f"<tr><td>{escape(p.strategy)}</td><td>{p.load:g}</td>"
            f"<td>{escape(p.shed or 'none')}</td><td>{p.offered}</td>"
            f"<td>{p.completed}</td><td>{p.shed_count}</td>"
            f"<td>{p.expired}</td><td>{p.deadline_aborted}</td>"
            f"<td>{p.goodput:.3f}</td><td>{miss}</td>"
            f"<td>{p.utilization:.0%}</td></tr>"
        )
    parts.append("</table>")
    return "\n".join(parts)


def fairness_chart(points: List, title: str) -> str:
    """Goodput-share-versus-abuse panel from
    :class:`~repro.workload.FairnessPoint` rows, one series per
    (scheduler, tenant) pair."""
    chart = LineChart(
        title, x_label="abusive tenant load (× fair share)",
        y_label="goodput share",
    )
    pairs = sorted({(p.scheduler, p.tenant) for p in points})
    for scheduler, tenant in pairs:
        series = sorted(
            (p.abuse_factor, p.share)
            for p in points
            if p.scheduler == scheduler and p.tenant == tenant
        )
        chart.add_series(f"{scheduler}/{tenant}", series)
    return chart.to_svg()


def fairness_html(points: List) -> str:
    """The multi-tenant fairness section: goodput-share chart + per-cell
    tenant table (beyond the paper: pluggable schedulers with
    weighted fair queueing)."""
    schedulers = sorted({p.scheduler for p in points})
    parts = [
        "<h2>Beyond the paper — multi-tenant fairness under abuse</h2>",
        "<p>Two tenants share the machine: one well-behaved, one "
        "ramping past its fair arrival rate. Under FIFO the abusive "
        "tenant's queue depth starves the other; weighted fair "
        "queueing keeps the well-behaved tenant's goodput near its "
        f"solo baseline (schedulers compared: "
        f"{', '.join(escape(s) for s in schedulers)}).</p>",
        "<figure>",
        fairness_chart(points, "Goodput share versus abusive load"),
        "</figure>",
        "<table><tr><th>scheduler</th><th>abuse ×</th><th>tenant</th>"
        "<th>offered</th><th>done</th><th>shed</th><th>goodput</th>"
        "<th>share</th><th>p95</th></tr>",
    ]
    for p in points:
        p95 = "n/a" if p.p95_latency is None else f"{p.p95_latency:.2f}s"
        parts.append(
            f"<tr><td>{escape(p.scheduler)}</td><td>{p.abuse_factor:g}</td>"
            f"<td>{escape(p.tenant)}</td><td>{p.offered}</td>"
            f"<td>{p.completed}</td><td>{p.shed}</td>"
            f"<td>{p.goodput:.3f}</td><td>{p.share:.0%}</td>"
            f"<td>{p95}</td></tr>"
        )
    parts.append("</table>")
    return "\n".join(parts)


def cluster_chart(points: List[Dict], title: str) -> str:
    """Cluster-capacity-versus-time panel, one step series per
    capacity plan (static plans are flat lines; elastic plans step up
    through the surge and back down after it)."""
    chart = LineChart(
        title, x_label="simulated time (s)",
        y_label="cluster capacity (processors)",
    )
    for point in points:
        chart.add_series(point["plan"], point["capacity"])
    return chart.to_svg()


def cluster_html(points: List[Dict]) -> str:
    """The sharded-serving section: capacity timeline chart + per-plan
    table (beyond the paper: a trace replayed through shards under
    static and elastic capacity plans)."""
    parts = [
        "<h2>Beyond the paper — sharded serving with elastic "
        "autoscaling</h2>",
        "<p>One recorded arrival trace with a 2&times; load surge in "
        "the middle, replayed bit-for-bit through the same sharded "
        "cluster under four capacity plans. The static base plan "
        "queues through the surge; the static peak plan pays for the "
        "surge around the clock; the elastic plans scale shards up at "
        "the surge and back down after it, retaining the peak plan's "
        "goodput at the base plan's provisioning.</p>",
        "<figure>",
        cluster_chart(points, "Cluster capacity versus time"),
        "</figure>",
        "<table><tr><th>plan</th><th>done</th><th>goodput</th>"
        "<th>p50</th><th>p99</th><th>scale ups</th>"
        "<th>scale downs</th></tr>",
    ]
    def seconds(value):
        return "n/a" if value is None else f"{value:.1f}s"

    for p in points:
        parts.append(
            f"<tr><td>{escape(p['plan'])}</td>"
            f"<td>{p['completed']}/{p['submitted']}</td>"
            f"<td>{p['goodput']:.3f}</td><td>{seconds(p['latency_p50'])}</td>"
            f"<td>{seconds(p['latency_p99'])}</td><td>{p['scale_ups']}</td>"
            f"<td>{p['scale_downs']}</td></tr>"
        )
    parts.append("</table>")
    return "\n".join(parts)


def cluster_resilience_html(points: List[Dict]) -> str:
    """The cluster-resilience section: one table row per scenario dict
    (``scenario``, ``completed``, ``submitted``, ``goodput`` and
    optionally ``failed``, ``retained``, ``retries``, ``hedges``,
    ``hedge_wins``, ``p99``) — beyond the paper: shard failover, retry
    budgets and hedged requests on the coordinated cluster."""
    parts = [
        "<h2>Beyond the paper — cluster resilience under shard "
        "failure</h2>",
        "<p>The coordinated single-clock cluster survives shard "
        "crash-stop failures: queued and in-flight queries on the dead "
        "shard are evacuated and retried against live shards under a "
        "per-query retry budget, and hedged requests duplicate slow "
        "dispatches to a second shard, taking whichever attempt "
        "finishes first. &ldquo;Retained&rdquo; is goodput as a "
        "fraction of the fault-free run.</p>",
        "<table><tr><th>scenario</th><th>done</th><th>failed</th>"
        "<th>goodput</th><th>retained</th><th>retries</th>"
        "<th>hedges</th><th>p99</th></tr>",
    ]
    for p in points:
        retained = (
            "n/a" if p.get("retained") is None else f"{p['retained']:.0%}"
        )
        p99 = "n/a" if p.get("p99") is None else f"{p['p99']:.2f}s"
        hedges = (
            f"{p.get('hedges', 0)} ({p.get('hedge_wins', 0)} won)"
            if p.get("hedges")
            else "0"
        )
        parts.append(
            f"<tr><td>{escape(p['scenario'])}</td>"
            f"<td>{p['completed']}/{p['submitted']}</td>"
            f"<td>{p.get('failed', 0)}</td><td>{p['goodput']:.3f}</td>"
            f"<td>{retained}</td><td>{p.get('retries', 0)}</td>"
            f"<td>{hedges}</td><td>{p99}</td></tr>"
        )
    parts.append("</table>")
    return "\n".join(parts)


def render_report(
    sweeps: Dict[Tuple[str, str], SweepResult],
    diagrams: Optional[Dict[str, SimulationResult]] = None,
    workload_points: Optional[List] = None,
    resilience_points: Optional[List] = None,
    overload_points: Optional[List] = None,
    fairness_points: Optional[List] = None,
    cluster_points: Optional[List[Dict]] = None,
    cluster_resilience_points: Optional[List[Dict]] = None,
) -> str:
    """The full HTML document."""
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>Parallel evaluation of multi-join queries — reproduction</title>",
        f"<style>{_STYLE}</style></head><body>",
        "<h1>Parallel Evaluation of Multi-Join Queries</h1>",
        "<p>Reproduction of Wilschut, Flokstra &amp; Apers, SIGMOD 1995, "
        "on a simulated PRISMA/DB machine. Absolute seconds are "
        "calibrated once against Figure 14; curve shapes, winners and "
        "crossovers are the reproduced content.</p>",
        "<h2>Figure 14 — best response times</h2>",
        figure14_html(sweeps),
    ]
    if diagrams:
        parts.append("<h2>Figures 3, 4, 6, 7 — utilization diagrams</h2>")
        figure_of = {"SP": 3, "SE": 4, "RD": 6, "FP": 7}
        for name, result in diagrams.items():
            parts.append("<figure>")
            parts.append(
                utilization_gantt(
                    result,
                    f"Figure {figure_of.get(name, '?')} — {name} on "
                    f"{result.processors} processors (idealized)",
                )
            )
            parts.append("</figure>")
    parts.append("<h2>Figures 9–13 — response-time sweeps</h2>")
    for (shape, size), sweep in sorted(sweeps.items()):
        parts.append("<figure>")
        parts.append(sweep_chart(sweep))
        parts.append(
            f"<figcaption>Section 4.4 claims for this panel:</figcaption>"
        )
        parts.append(claims_html(sweep))
        parts.append("</figure>")
    if workload_points:
        from ..workload import curve_knee

        parts.append(workload_html(workload_points, curve_knee(workload_points)))
    if resilience_points:
        parts.append(resilience_html(resilience_points))
    if overload_points:
        parts.append(overload_html(overload_points))
    if fairness_points:
        parts.append(fairness_html(fairness_points))
    if cluster_points:
        parts.append(cluster_html(cluster_points))
    if cluster_resilience_points:
        parts.append(cluster_resilience_html(cluster_resilience_points))
    parts.append("</body></html>")
    return "\n".join(parts)
