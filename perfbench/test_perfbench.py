"""Self-test of the benchmark harness on a tiny world (quick mode).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers  # noqa: E402
import run  # noqa: E402


def _bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, check=False, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload, declared):
    result = _bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_layer_metrics(workload, declared):
    result = _bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for name, value in metrics.items():
        if name.endswith("self_s"):
            assert value >= 0, name
    assert metrics["bench.top_level_s"] <= metrics["bench.traced_s"]
    if workload == "report":
        assert metrics["logs.append.calls"] == 0
        assert metrics["analysis.report.calls"] > 0
    else:
        assert metrics["core.sched.fired"] > 0
        assert metrics["world.build_population.s"] > 0


def test_tracer_self_time_and_restore():
    from repro.logs.events import LoginEvent
    from repro.logs.store import LogStore

    for probe in layers.PROBES:  # import every module install() touches
        importlib.import_module(probe.owner.partition(":")[0])
    before = _patchable()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert _patchable() != before
        LogStore().query(LoginEvent)
    finally:
        tracer.restore()
    assert _patchable() == before
    query = tracer.stats["logs.query"]
    assert query.calls == 1 and 0 <= query.self_s <= query.total_s
    assert query.by_caller == {"bench": [1, query.total_s]}


def test_speed_probe_takes_its_own_time_out():
    handler = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe(period_s=0.005) as probe:
        began = time.perf_counter()
        while time.perf_counter() - began < 0.2:
            pass
        ended = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(probe.starts) == len(probe.ends) > 0
    inside = sum(end - start for start, end in zip(probe.starts, probe.ends)
                 if began <= start and end <= ended)
    assert inside > 0
    assert probe.wall(began, ended) == pytest.approx(ended - began - inside)
    assert probe.calibrated(began, ended) > 0


def _patchable() -> dict:
    """Every attribute a probe may patch (functions compare by identity)."""
    attrs = {probe.attr for probe in layers.PROBES}
    return {
        (name, getattr(holder, "__qualname__", name), attr):
            vars(holder)[attr]
        for name, module in list(sys.modules.items())
        if name.startswith("repro")
        for holder in [module] + [v for v in vars(module).values()
                                  if isinstance(v, type)]
        for attr in attrs if attr in vars(holder)
    }
