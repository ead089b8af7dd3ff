"""Outside-in layer trace: wrap each layer's public entry points.

The traced run patches a fixed list of entry points (one :class:`Probe`
each) with a timing wrapper, runs the workload's operations, and
restores every patched attribute afterwards.  Spans are never stored
one by one: each probe keeps its call count, inclusive seconds and self
seconds (inclusive minus the wrapped calls made inside it), and hot
probes also keep a split by the layer of their caller.

Nothing here reads simulation RNG or changes a byte the program
produces: the wrappers only read ``time.perf_counter`` and write to the
tracer's own dicts, so a traced job renders the same report as an
untraced one (``run.py`` checks the digests).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: Layers that move work around for someone else.  Deferred work found
#: under one of them is charged to the nearest enclosing frame of any
#: other layer — the cause, not the carrier.
TRANSPORT_LAYERS = frozenset({"world", "mail", "logs"})

#: Causes ``world.history_seed.s`` is split by (anything else → other).
CAUSES = ("phishing", "core", "hijacker", "recovery", "defense", "analysis")


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``owner`` is a module or class path."""

    name: str
    owner: str
    attr: str
    #: Keep a per-caller-layer split and a cause split (hot calls).
    hot: bool = False
    #: Keep every duration (for percentiles).
    samples: bool = False
    #: Suffix the span name with the first positional argument.
    keyed: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


PROBES: Tuple[Probe, ...] = (
    Probe("core.build", "repro.core.simulation:Simulation", "__init__"),
    Probe("core.simulate", "repro.core.simulation:Simulation", "run"),
    Probe("core.organic_window", "repro.core.organic:OrganicActivityModel",
          "materialize_window"),
    Probe("world.build_population", "repro.world.population",
          "build_population"),
    Probe("world.history_seed", "repro.world.population:HistorySeeder",
          "__call__", hot=True),
    Probe("world.mailbox_deliver", "repro.world.mailbox:Mailbox", "deliver",
          hot=True),
    Probe("world.mailbox_search", "repro.world.mailbox:Mailbox", "search"),
    Probe("phishing.campaign_run", "repro.phishing.campaign:CampaignRunner",
          "run"),
    Probe("mail.send", "repro.mail.service:MailService", "send"),
    Probe("mail.flush_reports", "repro.mail.service:MailService",
          "flush_reports"),
    Probe("hijacker.incident", "repro.hijacker.incident:IncidentDriver",
          "execute", samples=True),
    Probe("defense.login", "repro.defense.auth:AuthService", "attempt_login"),
    Probe("defense.abuse_sweep", "repro.defense.abuse:AbuseResponse", "sweep"),
    Probe("recovery.run_case", "repro.recovery.claims:RemediationEngine",
          "run_case"),
    Probe("recovery.snapshot", "repro.recovery.remission:RemissionService",
          "snapshot"),
    Probe("logs.append", "repro.logs.store:LogStore", "append", hot=True),
    Probe("logs.query", "repro.logs.store:LogStore", "query", hot=True),
    Probe("analysis.report", "repro.analysis.report", "full_report"),
    Probe("analysis.render", "repro.analysis.registry", "render_artifact",
          keyed=True),
)


@dataclass
class Stat:
    """Aggregate of one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)
    by_caller: Dict[str, List[float]] = field(default_factory=dict)
    by_cause: Dict[str, float] = field(default_factory=dict)


class Tracer:
    """In-memory span aggregates for one traced window."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        #: Live frames: ``[layer, seconds spent in wrapped children]``.
        self._stack: List[list] = []
        #: Seconds inside top-level wrapped calls (no wrapped parent).
        self.top_level_s = 0.0
        self._patches: List[Tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in ``PROBES``."""
        for probe in PROBES:
            module_name, _, class_name = probe.owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                owner = getattr(module, class_name)
                self._patch(owner, probe.attr,
                            self._wrap(probe, owner.__dict__[probe.attr]))
                continue
            original = getattr(module, probe.attr)
            wrapper = self._wrap(probe, original)
            # Modules that imported the function by name hold their own
            # reference; patch each of them too.
            for holder in list(sys.modules.values()):
                if (getattr(holder, "__name__", "").startswith("repro")
                        and vars(holder).get(probe.attr) is original):
                    self._patch(holder, probe.attr, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        layer = probe.layer
        stack = self._stack
        clock = time.perf_counter
        fixed = None if probe.keyed else self.stat(probe.name)
        hot, samples = probe.hot, probe.samples

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stat = (fixed if fixed is not None
                    else self.stat(f"{probe.name}.{args[0]}"))
            frame = [layer, 0.0]
            if hot:
                caller = stack[-1][0] if stack else "bench"
                cause = next((f[0] for f in reversed(stack)
                              if f[0] not in TRANSPORT_LAYERS), "other")
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_level_s += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
                if samples:
                    stat.durations.append(elapsed)
                if hot:
                    split = stat.by_caller.setdefault(caller, [0, 0.0])
                    split[0] += 1
                    split[1] += elapsed
                    stat.by_cause[cause] = (
                        stat.by_cause.get(cause, 0.0) + elapsed)

        return wrapper

    def snapshot(self) -> Dict[str, dict]:
        """Every aggregate, for the trace file."""
        return {
            name: {
                "calls": stat.calls,
                "s": stat.total_s,
                "self_s": stat.self_s,
                **({"by_caller": {k: {"calls": v[0], "s": v[1]}
                                  for k, v in sorted(stat.by_caller.items())},
                    "by_cause": dict(sorted(stat.by_cause.items()))}
                   if stat.by_caller else {}),
            }
            for name, stat in sorted(self.stats.items())
        }


def artifact_keys() -> Tuple[str, ...]:
    """Artifacts with their own render metric (the report is composite)."""
    from repro.analysis import registry
    import repro.analysis.report  # noqa: F401  (registers report/metrics)

    return tuple(key for key in registry.artifact_keys() if key != "report")


def layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name → unit, in a fixed order."""
    units: Dict[str, str] = {
        "world.build_population.s": "s",
        "world.build_users.s": "s",
        "world.history_seed.calls": "count",
        "world.history_seed.s": "s",
    }
    for cause in CAUSES + ("other",):
        units[f"world.history_seed.s.by_cause.{cause}"] = "s"
    units.update({
        "world.mailbox_deliver.calls": "count",
        "world.mailbox_deliver.self_s": "s",
        "world.mailbox_search.calls": "count",
        "world.mailbox_search.s": "s",
        "world.materialized_per_accessed": "ratio",
        "phishing.campaign_run.calls": "count",
        "phishing.campaign_run.s": "s",
        "phishing.campaign_run.self_s": "s",
        "mail.send.calls": "count",
        "mail.send.s": "s",
        "mail.send.self_s": "s",
        "mail.flush_reports.calls": "count",
        "mail.flush_reports.s": "s",
        "hijacker.incident.calls": "count",
        "hijacker.incident.s": "s",
        "hijacker.incident.self_s": "s",
        "hijacker.incident.p50_ms": "ms",
        "hijacker.incident.max_ms": "ms",
        "defense.login.calls": "count",
        "defense.login.s": "s",
        "defense.abuse_sweep.calls": "count",
        "defense.abuse_sweep.s": "s",
        "recovery.run_case.calls": "count",
        "recovery.run_case.s": "s",
        "recovery.snapshot.calls": "count",
        "recovery.snapshot.s": "s",
        "core.organic_window.calls": "count",
        "core.organic_window.s": "s",
        "core.organic_window.self_s": "s",
        "core.sched.fired": "count",
        "core.loop.self_s": "s",
        "core.simulate_s": "s",
        "core.sim_events_per_s": "1/s",
        "logs.append.calls": "count",
        "logs.append.s": "s",
        "logs.query.calls": "count",
        "logs.query.s": "s",
        "logs.query.type_scan": "count",
        "logs.reads_per_write": "ratio",
        "analysis.report.calls": "count",
        "analysis.report.s": "s",
    })
    for key in artifact_keys():
        units[f"analysis.render.{key}.s"] = "s"
    units.update({
        "analysis.dataset_builds": "count",
        "analysis.catalog_builds": "count",
        "analysis.dataset_hit_ratio": "ratio",
        "analysis.logstore_queries_per_report": "count",
        "obs.trace_overhead_ratio": "ratio",
        "bench.traced_s": "s",
        "bench.top_level_s": "s",
        "bench.unattributed_s": "s",
    })
    return units


@dataclass
class TraceWindow:
    """What the harness measured around one traced window."""

    tracer: Tracer
    #: ``repro.obs`` counters and span totals recorded in the window.
    counters: Dict[str, float]
    span_totals: Dict[str, float]
    #: Counter deltas and ``logs.query`` calls inside the full reports.
    report_counters: Dict[str, float]
    report_queries: int
    reports: int
    traced_s: float
    untraced_s: float
    #: Distinct accounts a hijacker got into (world of the window).
    accessed_accounts: int


def layer_metrics(window: TraceWindow) -> Dict[str, float]:
    """Derive every per-layer metric from one traced window."""
    tracer = window.tracer

    def stat(name: str) -> Stat:
        return tracer.stats.get(name) or Stat()

    values: Dict[str, float] = {}
    for name in ("world.build_population", "world.history_seed",
                 "world.mailbox_search", "phishing.campaign_run", "mail.send",
                 "mail.flush_reports", "hijacker.incident", "defense.login",
                 "defense.abuse_sweep", "recovery.run_case",
                 "recovery.snapshot", "core.organic_window", "logs.append",
                 "logs.query", "analysis.report"):
        values[f"{name}.calls"] = stat(name).calls
        values[f"{name}.s"] = stat(name).total_s
        values[f"{name}.self_s"] = stat(name).self_s
    seed = stat("world.history_seed")
    for cause in CAUSES:
        values[f"world.history_seed.s.by_cause.{cause}"] = (
            seed.by_cause.get(cause, 0.0))
    values["world.history_seed.s.by_cause.other"] = sum(
        (s for cause, s in seed.by_cause.items() if cause not in CAUSES), 0.0)
    values["world.build_users.s"] = window.span_totals.get(
        "population.build.users", 0.0)
    deliver = stat("world.mailbox_deliver")
    values["world.mailbox_deliver.calls"] = deliver.calls
    values["world.mailbox_deliver.self_s"] = deliver.self_s
    values["world.materialized_per_accessed"] = (
        seed.calls / max(1, window.accessed_accounts))
    incidents = stat("hijacker.incident").durations
    values["hijacker.incident.p50_ms"] = (
        statistics.median(incidents) * 1e3 if incidents else 0.0)
    values["hijacker.incident.max_ms"] = max(incidents, default=0.0) * 1e3
    values["core.sched.fired"] = window.counters.get(
        "simulation.sched.fired", 0)
    values["core.loop.self_s"] = stat("core.simulate").self_s
    values["logs.query.type_scan"] = window.counters.get(
        "logstore.query.type_scan", 0)
    values["logs.reads_per_write"] = (
        stat("logs.query").calls / max(1, stat("logs.append").calls))
    for key in artifact_keys():
        values[f"analysis.render.{key}.s"] = stat(
            f"analysis.render.{key}").total_s
    reports = max(1, window.reports)
    hits = window.report_counters.get("analysis.dataset.hit", 0)
    misses = window.report_counters.get("analysis.dataset.miss", 0)
    values["analysis.dataset_builds"] = misses / reports
    values["analysis.catalog_builds"] = window.report_counters.get(
        "datasets.catalog.miss", 0) / reports
    values["analysis.dataset_hit_ratio"] = hits / max(1, hits + misses)
    values["analysis.logstore_queries_per_report"] = (
        window.report_queries / reports)
    values["obs.trace_overhead_ratio"] = (
        window.traced_s / window.untraced_s - 1.0)
    values["bench.traced_s"] = window.traced_s
    values["bench.top_level_s"] = tracer.top_level_s
    values["bench.unattributed_s"] = window.traced_s - tracer.top_level_s
    return values

