"""The serving knobs, declared once.

Every keyword of :func:`repro.api.run_workload` and
:func:`repro.api.run_cluster` is one :class:`Option` row of
:data:`OPTIONS`.  The other surfaces are derived from the rows instead
of re-spelling them: the ``workload`` / ``cluster`` / ``faults`` CLI
flags and their forwarding (:mod:`repro.cli`), the service's accepted
keys and per-key type check (:mod:`repro.service.frontend`), the
per-shard engine-options dict (:func:`engine_options`, consumed by
``WorkloadEngine.from_options``).  The facade signatures and the frozen
``RUN_*_KEYWORDS`` tuples stay literal — they are the v1 surface — and
``tests/test_options.py`` pins table ≡ signatures, so adding a knob is:
a row here, the facade parameter, and the engine line that uses it.

Surfaces differ on purpose in a few places (``python -m repro cluster``
has no ``--pool-size``, only ``faults`` has ``--max-retries``, the
service does not take ``watchdog_limit``, ...); the ``cli`` / ``ops``
columns record those asymmetries as data.  This module stays a leaf:
the choice tuples are literals, pinned against their home modules by
the same test.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from .sim.watchdog import DEFAULT_MAX_EVENTS_PER_INSTANT

# Surface sets for the ``takes`` / ``cli`` / ``ops`` columns.
W = ("workload",)
C = ("cluster",)
WC = W + C
WCF = WC + ("faults",)
QWC = ("query",) + WC


class Option(NamedTuple):
    """One knob.

    ``name``
        The API keyword, which is also the JSON key and the argparse
        ``dest``.
    ``kind``
        What a JSON/CLI value looks like: ``int`` / ``float`` /
        ``bool``, a tuple of choice strings, a tuple of types for
        structured payloads (a CLI flag takes the first), or ``None``
        for Python objects no text surface can spell.
    ``default``
        The facade default (``None`` also means "null is accepted").
    ``takes``
        Which of ``run_workload`` / ``run_cluster`` take the keyword.
    ``cli`` / ``ops``
        The CLI sub-commands exposing it as a derived ``--flag``
        (``flag`` when the spelling is not ``--name-with-dashes``), and
        the service ops accepting it as a request key.
    ``engine``
        Forwarded to :class:`~repro.workload.WorkloadEngine`.
    ``nullable``
        ``null`` is accepted although the default is not ``None``.
    """

    name: str
    kind: object
    default: object
    help: str
    takes: Tuple[str, ...] = WC
    cli: Tuple[str, ...] = ()
    ops: Tuple[str, ...] = ()
    engine: bool = False
    flag: Optional[str] = None
    nullable: bool = False

    @property
    def kinds(self) -> tuple:
        """``kind`` as a tuple: the choices, or the accepted types."""
        return self.kind if isinstance(self.kind, tuple) else (self.kind,)

    def accepts(self, value) -> bool:
        """Whether a decoded JSON ``value`` has this knob's type.
        Choice rows check for a string only: the vocabulary belongs to
        the validators downstream, whose messages name it."""
        if value is None:
            return self.nullable or self.default is None
        kinds = self.kinds
        if isinstance(kinds[0], str):
            return isinstance(value, str)
        if isinstance(value, bool):  # an int to Python, not to JSON
            return bool in kinds
        if isinstance(value, int):
            return int in kinds or float in kinds
        return isinstance(value, kinds)

    def expected(self) -> str:
        """The type, for error messages: ``int``, ``float or list``,
        ``one of ('hash', ...)``; ``or null`` where accepted."""
        kinds = self.kinds
        if isinstance(kinds[0], str):
            text = f"one of {kinds}"
        else:
            text = " or ".join(kind.__name__ for kind in kinds)
        return text + (" or null" if self.accepts(None) else "")


_STRATEGIES = ("SP", "SE", "RD", "FP", "auto")
_POLICIES = ("exclusive", "round_robin", "guideline")
_SCHEDULERS = ("fifo", "edf", "sjf", "priority", "wfq")
_SHED = ("drop_newest", "drop_oldest", "deadline_aware")
_FAULTS = "fault schedule payload (cluster: also a per-shard list or {shard: payload} map)"

OPTIONS: Tuple[Option, ...] = (
    # -- the cluster itself ------------------------------------------------
    Option("trace", dict, None, "recorded trace to replay instead of generating traffic",
           takes=C, ops=C),
    Option("shards", int, 2, "independent workload-engine shards", takes=C, cli=C, ops=C),
    Option("placement", ("hash", "least_loaded", "round_robin"), "hash",
           "tenant→shard routing policy", takes=C, cli=C, ops=C),
    Option("autoscale", ("static", "reactive", "predictive"), "static",
           "per-shard elasticity policy", takes=C, cli=C, ops=C, nullable=True),
    Option("scale_max", int, None,
           "elastic capacity ceiling per shard (default: 2x --machine-size)",
           takes=C, cli=C, ops=C),
    Option("scale_min", int, None, "elastic capacity floor per shard (default: --machine-size)",
           takes=C, cli=C, ops=C),
    Option("scale_cooldown", float, None, "simulated seconds between scale events",
           takes=C, cli=C, ops=C),
    Option("workers", int, None, "no effect on cluster runs (a cluster run is serial)",
           takes=C),
    # -- traffic -------------------------------------------------------------
    Option("arrivals", ("poisson", "fixed", "closed"), "poisson",
           "open-loop arrival process, or a closed loop", cli=WC, ops=WC),
    Option("rate", float, 1.0, "open-loop arrival rate (queries/second)",
           cli=WCF, ops=WC, nullable=True),
    Option("duration", float, 60.0, "simulated arrival horizon in seconds", cli=WCF, ops=WC),
    Option("seed", int, 0, "seed for arrivals, mix sampling, think loops and deadlines",
           cli=WCF, ops=WC),
    Option("machine_size", int, 40, "processors in the shared pool (per shard)",
           cli=WCF, ops=WC, engine=True),
    Option("policy", _POLICIES, "exclusive", "processor allocation policy",
           cli=WCF, ops=WC, engine=True),
    Option("share", int, None, "processors per query (policy-specific default)",
           cli=WCF, ops=WC, engine=True),
    Option("strategy", _STRATEGIES, "FP", "execution strategy ('auto': Section 5 guideline)",
           cli=WC, ops=QWC),
    Option("cardinality", int, 5_000, "tuples per relation", cli=WCF, ops=QWC),
    Option("relations", int, 10, "number of base relations", cli=WCF, ops=WC),
    Option("clients", int, 4, "closed-loop client population (split round-robin across shards)",
           cli=WC, ops=WC),
    Option("think_time", float, 0.0, "closed-loop think time between queries",
           cli=WC, ops=WC, flag="--think"),
    Option("queries_per_client", int, None, "closed-loop per-client query budget", cli=WC, ops=WC),
    # -- admission -----------------------------------------------------------
    Option("max_concurrent", int, None, "admission gate: concurrent query bound",
           cli=W, ops=WC, engine=True),
    Option("queue_limit", int, None, "admission queue bound (extra arrivals rejected)",
           cli=WC, ops=WC, engine=True),
    Option("memory_budget_bytes", float, None, "admission gate: analytic memory budget",
           ops=WC, engine=True),
    # -- execution context ---------------------------------------------------
    Option("config", None, None, "MachineConfig of every simulated machine", engine=True),
    Option("cost_model", None, None, "CostModel of the Section 4.3 formula", engine=True),
    Option("skew_theta", float, 0.0,
           "Zipf partitioning skew for every query: finite, >= 0, and small "
           "enough that every fragment of a split keeps a share of at "
           "least 2**-500",
           cli=WC, ops=QWC, engine=True, flag="--skew"),
    # -- faults and recovery -------------------------------------------------
    Option("faults", (dict, list), None, _FAULTS, ops=WC, engine=True),
    Option("recovery", ("fail", "restart", "reassign"), "fail",
           "what happens to a crashed query", cli=WCF, ops=WC, engine=True),
    Option("max_retries", int, 3, "extra attempts before a crashed query fails",
           cli=("faults",), ops=WC, engine=True),
    Option("retry_backoff", float, 1.0, "base of the exponential restart backoff",
           cli=("faults",), ops=WC, engine=True),
    Option("rejected_retry_delay", float, None,
           "closed-loop retry delay after a rejection", engine=True),
    # -- request lifecycle ---------------------------------------------------
    Option("deadline", (float, list), None,
           "per-query deadline in simulated seconds from arrival (queued queries expire, "
           "running ones abort; the service also takes a [lo, hi] range)",
           cli=WC, ops=QWC, engine=True),
    Option("shed", _SHED, None, "load-shedding policy at admission", cli=WC, ops=WC, engine=True),
    Option("cancellations", list, None, "[time, query] cancellation pairs", takes=W, ops=W),
    Option("watchdog_limit", int, DEFAULT_MAX_EVENTS_PER_INSTANT,
           "livelock-watchdog trip threshold (None disables it)", engine=True, nullable=True),
    # -- scheduling and tenancy ----------------------------------------------
    Option("scheduler", _SCHEDULERS, None,
           "queue-ordering policy (default: the legacy FIFO deque; 'fifo' matches it "
           "except that it skips a head whose tenant is at max_concurrent)",
           cli=WC, ops=WC, engine=True),
    Option("pool_size", int, None,
           "scheduler visibility pool: examine only the first K queued queries per decision",
           cli=W, ops=WC, engine=True),
    Option("scheduling_cost", float, 0.0, "simulated seconds charged per admission decision",
           cli=W, ops=WC, engine=True),
    Option("tenants", (list, dict), None, "tenant contracts ({'tenants': [...]} or the list)",
           ops=WC, engine=True),
    Option("fast_path", bool, True, "attempt the turbo fast path (results are bit-identical)",
           ops=WC, engine=True),
    # -- cluster resilience (any of these selects the coordinated cluster) ----
    Option("shard_faults", dict, None, "fault schedule payload whose crashes name shards",
           takes=C, ops=C),
    Option("retry_budget", int, None,
           "cluster-level re-dispatches per aborted query (resilient mode; exponential backoff)",
           takes=C, cli=C, ops=C),
    Option("hedge", (bool, float, dict), None, "hedged requests: true, a percentile, or a policy",
           takes=C, ops=C),
    Option("breaker", (bool, dict), None, "per-shard circuit breakers: true or a policy",
           takes=C, ops=C),
    Option("throttle", (bool, dict), None, "per-tenant token-bucket SLOs: true or a policy",
           takes=C, ops=C),
    Option("failover", bool, None, "false lets a dead home shard fail its queries", takes=C, ops=C),
)


def engine_options(**values) -> Dict:
    """A complete per-shard engine-options dict — every ``engine`` row
    at its default plus ``deadline_seed`` (the run's ``seed``, under
    the engine's name for it) — patched by ``values``.  This is the
    dict ``WorkloadEngine.from_options`` consumes; an unknown key is an
    error here rather than a ``TypeError`` in some shard."""
    options = {row.name: row.default for row in OPTIONS if row.engine}
    options["deadline_seed"] = 0
    unknown = sorted(set(values) - set(options))
    if unknown:
        raise ValueError(f"unknown engine option keys {unknown}")
    options.update(values)
    return options


__all__ = ["OPTIONS", "Option", "engine_options"]
