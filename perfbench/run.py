#!/usr/bin/env python3
"""The repository's benchmark: the jobs users run, measured end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exploitation --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --workload report --quick --seconds 1 --trace 1

Workloads (see ``perfbench/README.md`` for why each exists):

* ``exploitation`` and ``rate`` — jobs: ``Simulation(config)``, ``.run()``,
  ``full_report`` on a scenario preset, in a closed loop, each on its own
  world; after each job, a short render loop on that world.
* ``report`` — eight default-scenario worlds, each set up (build +
  simulate + first report) and then rendered: a closed loop alternating
  a full report on a fresh ``ArtifactContext`` with a standalone sweep
  (every artifact on its own context, the ``--artifact KEY`` path).

A run at ``--seed s`` builds its worlds at seeds ``s``, ``s + 1000``, ….

Times are reported calibrated to the host's speed, which drifts by up to
1.6× from one second to the next on a shared host: a timer signal runs a
fixed reference loop every 25 ms (:class:`SpeedProbe`), and each timed
interval is scaled by how long that loop took around it against its
nominal time.  The probes' own time is taken out of every interval.  The
wall-clock values are printed on a ``#`` line.

Every loop is closed, single-threaded, one operation at a time.  With
``--trace 0`` the last stdout line is a JSON object whose ``metrics``
are the end-to-end metrics; with ``--trace 1`` a separate traced run
wraps each layer's entry points (:mod:`layers`) and reports per-layer
metrics instead.  Every operation's output is checked: by sha256 against
``digests.json`` at the stored seeds, and against the run's own first
output at any seed.  A run writes its full result, the per-entry-point
aggregates and a manifest to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

#: End-to-end metric → unit (``--trace 0``).
E2E_UNITS = {
    "job_s": "s",
    "setup_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "render_p50_ms": "ms",
    "render_p90_ms": "ms",
    "renders_per_s": "1/s",
    "standalone_sweep_ms": "ms",
}
#: End-to-end metrics read from calibrated times (see :class:`SpeedProbe`).
CALIBRATED = ("job_s", "setup_s", "report_s", "render_p50_ms",
              "render_p90_ms", "renders_per_s", "standalone_sweep_ms")

#: Scenario preset of each workload.
PRESETS = {
    "exploitation": "exploitation_study",
    "rate": "rate_calibration_study",
    "report": "default_scenario",
}
WORKLOADS = tuple(PRESETS)

#: Worlds a run builds at least, one job each.  Default-scenario worlds
#: vary most (~2k to ~8k log events, 1.3 to 2.2 s to simulate), so
#: ``report`` averages more of them.
MIN_JOBS = {"exploitation": 3, "rate": 3, "report": 8}
#: Renders and sweeps per world, at least.
MIN_PAIRS = 14
#: Share of ``--seconds`` spent rendering each world after its job.
RENDER_SHARE = {"exploitation": 1 / 12, "rate": 1 / 12, "report": 1 / 10}

#: Iterations of the reference loop, and its nominal time: a calibrated
#: time is ``wall time × REF_NOMINAL_S / reference time``, so it equals
#: the wall time on a host where the loop takes ``REF_NOMINAL_S``.
REF_ROUNDS = 10_000
REF_NOMINAL_S = 0.002
#: Wall seconds between two reference probes.
PROBE_PERIOD_S = 0.025

#: Job ``i`` of a run builds the world seeded ``seed + WORLD_STRIDE * i``,
#: so one run's medians span several worlds, not one world repeated.
WORLD_STRIDE = 1000


def world_seed(seed: int, index: int) -> int:
    return seed + WORLD_STRIDE * index


# -- inputs and outputs ------------------------------------------------------

def make_config(workload: str, seed: int, quick: bool):
    from repro.core import scenarios

    if quick:
        return scenarios.smoke_scenario(seed).with_overrides(
            n_users=300, horizon_days=6)
    return getattr(scenarios, PRESETS[workload])(seed)


def config_digest(config) -> str:
    settings = json.dumps(dataclasses.asdict(config), sort_keys=True,
                          default=str)
    return hashlib.sha256(settings.encode()).hexdigest()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Counts operations and failures; an output must match its reference.

    The reference for a label is the stored digest when there is one,
    else the first output the run produced under that label.
    """

    def __init__(self, stored: Dict[str, str]):
        self.reference = dict(stored)
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, outputs: Dict[str, str]) -> bool:
        """Count one operation that produced ``{output key: text}``."""
        self.attempted += 1
        ok = True
        for key, text in outputs.items():
            digest = sha256(text)
            expected = self.reference.setdefault(key, digest)
            if digest != expected:
                print(f"perfbench: {label}: output {key!r} digest "
                      f"{digest[:12]} != {expected[:12]}", file=sys.stderr)
                ok = False
        self.failed += not ok
        return ok

    def run(self, label: str, op: Callable[[], Dict[str, str]]) -> bool:
        """Run one operation and check its outputs; a raise is a failure."""
        try:
            outputs = op()
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return False
        return self.check(label, outputs)


def stored_digests(workload: str, quick: bool) -> Dict[str, str]:
    """``"<world seed>.<output>"`` → sha256, for every stored world."""
    if quick or not DIGESTS.is_file():
        return {}
    table = json.loads(DIGESTS.read_text()).get(workload, {})
    return {f"{ws}.{label}": digest
            for ws, outputs in table.items()
            for label, digest in outputs.items()}


# -- calibration -----------------------------------------------------------

def reference() -> None:
    """The fixed reference loop.

    Plain dict work, like the program's own; it touches no program code,
    so a change to the program cannot move it, and it allocates no
    objects the garbage collector tracks besides one dict.
    """
    table: Dict[int, int] = {}
    for i in range(REF_ROUNDS):
        key = i % 1009
        table[key] = table.get(key, 0) + i


class SpeedProbe:
    """Samples the host's speed while the workload runs.

    While entered, a timer signal times :func:`reference` every
    ``PROBE_PERIOD_S`` of wall time.  The handler runs between two
    bytecodes of the main thread, so a probe lies wholly inside or wholly
    outside any interval the harness times with ``perf_counter``.
    """

    def __init__(self, period_s: float = PROBE_PERIOD_S):
        self.period_s = period_s
        self.starts: List[float] = []
        self.ends: List[float] = []

    def _probe(self, _signum, _frame) -> None:
        if len(self.starts) != len(self.ends):
            return  # a signal that arrived while probing
        collecting = gc.isenabled()
        gc.disable()  # a collection the program owes must not land here
        try:
            self.starts.append(time.perf_counter())
            reference()
            self.ends.append(time.perf_counter())
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, start: float, end: float) -> Tuple[int, int]:
        """Index range of the probes that started and ended in the span."""
        return (bisect.bisect_left(self.starts, start),
                bisect.bisect_right(self.ends, end))

    def wall(self, start: float, end: float) -> float:
        """Wall seconds of ``[start, end]`` minus the probes inside it."""
        lo, hi = self._between(start, end)
        return end - start - sum(self.ends[i] - self.starts[i]
                                 for i in range(lo, hi))

    def calibrated(self, start: float, end: float) -> float:
        """:meth:`wall` at the reference loop's nominal speed.

        The speed is the mean of ``1 / probe time`` over the probes from
        one period before the span to one period after it; probes are
        evenly spaced in wall time, so this weights each stretch of the
        span by its length.
        """
        lo, hi = self._between(start - self.period_s, end + self.period_s)
        if lo >= hi:  # no probe yet: the nearest one
            lo = min(max(lo - 1, 0), len(self.starts) - 1)
            hi = lo + 1
        speed = statistics.fmean(1.0 / (self.ends[i] - self.starts[i])
                                 for i in range(lo, hi))
        return self.wall(start, end) * REF_NOMINAL_S * speed


# -- operations ------------------------------------------------------------

@dataclasses.dataclass
class Job:
    #: ``perf_counter`` at start, after build, after simulate, after report.
    marks: Tuple[float, float, float, float]
    events: int
    result: object
    report: str

    def phases(self, seconds: Callable[[float, float], float]
               = lambda start, end: end - start) -> Tuple[float, float, float]:
        """Build, simulate and report seconds, each interval read by
        ``seconds``."""
        start, built, simulated, done = self.marks
        return (seconds(start, built), seconds(built, simulated),
                seconds(simulated, done))

    @property
    def simulate_s(self) -> float:
        return self.phases()[1]

    @property
    def job_s(self) -> float:
        return self.marks[-1] - self.marks[0]


def run_job(config, before_report: Optional[Callable[[], None]] = None
            ) -> Job:
    """Build → simulate → report, each phase timed."""
    from repro import Simulation
    from repro.analysis.report import full_report

    clock = time.perf_counter
    start = clock()
    simulation = Simulation(config)
    built = clock()
    result = simulation.run()
    if before_report is not None:
        before_report()
    simulated = clock()
    report = full_report(result)
    return Job((start, built, simulated, clock()), len(result.store),
               result, report)


def render(result) -> str:
    """The full report from a fresh context (fresh dataset cache)."""
    from repro.analysis.registry import ArtifactContext
    from repro.analysis.report import full_report

    return full_report(result, ctx=ArtifactContext(result))


def sweep(result, keys: Tuple[str, ...], prefix: str = ""
          ) -> Dict[str, str]:
    """Every artifact on its own private context (``--artifact KEY``)."""
    from repro.analysis.registry import ArtifactContext, render_artifact

    return {f"{prefix}artifact.{key}":
            render_artifact(key, ArtifactContext(result)) for key in keys}


# -- the untraced run --------------------------------------------------------

def measure(workload: str, seed: int, quick: bool, seconds: float,
            checker: Checker, keys: Tuple[str, ...]
            ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Run the workload untraced.

    Returns its end-to-end metrics, the same metrics from wall-clock
    times alone, and sample counts.

    Each world runs one job, then renders and sweeps alternate on it for
    ``RENDER_SHARE`` of ``seconds``, then it is freed: one world is in
    memory at a time.  Job workloads run jobs for ``seconds``, at least
    ``MIN_JOBS``; ``report`` runs exactly ``MIN_JOBS``, so most of its
    time is spent rendering.
    """
    clock = time.perf_counter
    is_report = workload == "report"
    jobs: List[Job] = []
    # Latencies are kept per world, as (start, end) intervals: worlds
    # differ in size, so a median over the pooled samples would jump
    # between the worlds' modes.
    renders: Dict[int, List[Tuple[float, float]]] = {}
    sweeps: Dict[int, List[Tuple[float, float]]] = {}

    def timed(samples: List[Tuple[float, float]], label: str,
              op: Callable[[], Dict[str, str]]) -> None:
        """Run and check one operation; keep its interval if it passed."""
        began = clock()
        if checker.run(label, op):
            samples.append((began, clock()))

    def render_loop(ws: int, world, budget_s: float) -> None:
        """Alternate renders and sweeps on ``world``."""
        renders[ws], sweeps[ws] = [], []
        done = 0
        gc.collect()
        began_loop = clock()
        while done < MIN_PAIRS or clock() - began_loop < budget_s:
            done += 1
            timed(renders[ws], f"render {ws}",
                  lambda: {f"{ws}.report": render(world)})
            timed(sweeps[ws], f"sweep {ws}",
                  lambda: sweep(world, keys, f"{ws}."))

    with SpeedProbe() as probe:
        start = clock()
        while (len(jobs) < MIN_JOBS[workload]
               or (not is_report and clock() - start < seconds)):
            gc.collect()
            ws = world_seed(seed, len(jobs))
            # A job that raises ends the run: nothing is left to render.
            job = run_job(make_config(workload, ws, quick))
            checker.check(f"job {ws}", {f"{ws}.report": job.report})
            jobs.append(job)
            world, job.result = job.result, None
            render_loop(ws, world, RENDER_SHARE[workload] * seconds)
            del world  # free this world before building the next
    rss_mb = peak_rss_mb()

    def metrics(seconds_of: Callable[[float, float], float]
                ) -> Dict[str, float]:
        """Every end-to-end metric, each interval read by ``seconds_of``."""
        phases = [job.phases(seconds_of) for job in jobs]
        # One job per world: job-level times are averaged over the
        # worlds; set-up, repeated once per world, reports its median.
        setups = [build + (simulate if is_report else 0.0)
                  for build, simulate, _ in phases]
        return {
            "job_s": statistics.fmean(map(sum, phases)),
            "setup_s": statistics.median(setups),
            "report_s": statistics.fmean(p[2] for p in phases),
            "peak_rss_mb": rss_mb,
            **render_metrics(
                {ws: [seconds_of(*x) for x in v] for ws, v in renders.items()},
                {ws: [seconds_of(*x) for x in v] for ws, v in sweeps.items()}),
        }

    counts = {"jobs": len(jobs), "worlds_rendered": len(renders),
              "renders": sum(map(len, renders.values())),
              "sweeps": sum(map(len, sweeps.values())),
              "probes": len(probe.starts)}
    return metrics(probe.calibrated), metrics(probe.wall), counts


def render_metrics(renders: Dict[int, List[float]],
                   sweeps: Dict[int, List[float]]) -> Dict[str, float]:
    """Render and sweep metrics from per-world latencies (seconds)."""
    median = statistics.median

    def per_world(samples: Dict[int, List[float]]) -> float:
        """Each world's median, averaged over the worlds."""
        return statistics.fmean(median(v) for v in samples.values())

    # The tail is read from every render's latency relative to its own
    # world's median, pooled over the worlds: one world alone has too few
    # samples beyond its p90.
    render_p50 = per_world(renders)
    relative = [sample / median(samples) for samples in renders.values()
                for sample in samples]
    busy_s = sum(map(sum, renders.values())) + sum(map(sum, sweeps.values()))
    n_ops = sum(map(len, renders.values())) + sum(map(len, sweeps.values()))
    return {
        "render_p50_ms": render_p50 * 1e3,
        "render_p90_ms": render_p50 * nearest_rank(relative, 0.90) * 1e3,
        "renders_per_s": n_ops / busy_s,
        "standalone_sweep_ms": per_world(sweeps) * 1e3,
    }


def nearest_rank(samples: List[float], share: float) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the traced run --------------------------------------------------------

def measure_traced(workload: str, config, checker: Checker,
                   keys: Tuple[str, ...], quick: bool
                   ) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """One untraced and one traced pass over the workload's operations.

    Job workloads trace one job; ``report`` traces a block of render and
    sweep pairs on a world set up untraced.  The untraced pass is the
    base of ``obs.trace_overhead_ratio``.
    """
    from repro import obs
    from layers import TraceWindow, Tracer, layer_metrics

    clock = time.perf_counter
    pairs = 3 if quick else 10
    prefix = f"{config.seed}."
    gc.collect()
    base = run_job(config)
    checker.check("job", {f"{prefix}report": base.report})
    untraced = {"core.simulate_s": base.simulate_s,
                "core.sim_events_per_s": base.events / base.simulate_s}

    def render_op(result) -> bool:
        return checker.run("render",
                           lambda: {f"{prefix}report": render(result)})

    def sweep_op(result) -> bool:
        return checker.run("sweep", lambda: sweep(result, keys, prefix))

    tracer = Tracer()
    recorder = obs.ObsRecorder()
    if workload == "report":
        world = base.result
        began = clock()
        for _ in range(pairs):
            render_op(world)
            sweep_op(world)
        untraced_s = clock() - began
        gc.collect()
        tracer.install()
        try:
            with obs.recording(recorder):
                # Full reports first, so per-report counts are read from
                # their own counter delta before the sweeps run.
                began = clock()
                for _ in range(pairs):
                    render_op(world)
                report_counters = dict(recorder.counters)
                report_queries = tracer.stat("logs.query").calls
                for _ in range(pairs):
                    sweep_op(world)
                traced_s = clock() - began
        finally:
            tracer.restore()
        reports = pairs
    else:
        untraced_s = base.job_s
        base = None
        gc.collect()
        marks: Dict[str, object] = {}

        def mark() -> None:
            marks["counters"] = dict(recorder.counters)
            marks["queries"] = tracer.stat("logs.query").calls

        tracer.install()
        try:
            with obs.recording(recorder):
                began = clock()
                traced = run_job(config, before_report=mark)
                traced_s = clock() - began
        finally:
            tracer.restore()
        checker.check("traced job", {f"{prefix}report": traced.report})
        world = traced.result
        report_counters = {
            name: value - marks["counters"].get(name, 0)
            for name, value in recorder.counters.items()}
        report_queries = (tracer.stat("logs.query").calls
                          - marks["queries"])
        reports = 1

    accessed = {r.account_id for r in world.access_incidents()}
    span_totals = {name: agg.total_s
                   for name, agg in recorder.span_aggregates().items()}
    window = TraceWindow(
        tracer=tracer, counters=dict(recorder.counters),
        span_totals=span_totals, report_counters=report_counters,
        report_queries=report_queries, reports=reports,
        traced_s=traced_s, untraced_s=untraced_s,
        accessed_accounts=len(accessed))
    values = layer_metrics(window)
    values.update(untraced)
    return values, tracer.snapshot()


# -- entry point -----------------------------------------------------------

def manifest(workload: str, seed: int, config, args) -> Dict[str, object]:
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "world_stride": WORLD_STRIDE,
        "calibration": {"reference_rounds": REF_ROUNDS,
                        "reference_nominal_s": REF_NOMINAL_S,
                        "probe_period_s": PROBE_PERIOD_S},
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "config_sha256": config_digest(config),
    }


def run_one(args) -> int:
    from layers import artifact_keys, layer_metric_units

    config = make_config(args.workload, args.seed, args.quick)
    keys = artifact_keys()
    checker = Checker(stored_digests(args.workload, args.quick))
    info = manifest(args.workload, args.seed, config, args)
    print(f"# manifest {json.dumps(info, sort_keys=True)}")
    if args.trace:
        values, spans = measure_traced(args.workload, config, checker, keys,
                                       args.quick)
        units = layer_metric_units()
        wall, counts = {}, {}
    else:
        values, wall, counts = measure(args.workload, args.seed, args.quick,
                                       args.seconds, checker, keys)
        spans = None
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"# {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    error_rate = checker.failed / max(1, checker.attempted)
    print(f"# {'error_rate':<44} {error_rate:>14.6g} ratio "
          f"({checker.failed} failed of {checker.attempted} attempted)")
    if wall:
        print("# wall clock, uncalibrated: " + ", ".join(
            f"{name} {value:.6g}" for name, value in wall.items()
            if name in CALIBRATED))
    if counts:
        print(f"# samples: {json.dumps(counts, sort_keys=True)}")
    result = {"correct": checker.failed == 0,
              "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        {"manifest": info, "result": result, "samples": counts,
         "wall_clock": wall,
         "error_rate": error_rate, "spans": spans}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        print(f"## workload {workload}", flush=True)
        status |= subprocess.run(command, check=False).returncode
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7,
                        help="world seed (default 7; 11 is held out)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="time one run measures (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="a tiny world and few repeats (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}/repro; run "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
