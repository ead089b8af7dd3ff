"""Smoke coverage for the perf gate (benchmarks/perf_gate.py).

Runs the gate at quick sizing against temp outputs so tier-1 catches a
broken gate script or an indexed/naive result divergence — the gate
cross-checks checksums between the two implementations on every run,
and cross-checks lazy/eager world fingerprints in the build section.
"""

import json

from benchmarks import perf_gate


def test_quick_gate_passes_and_writes_report(tmp_path):
    output = tmp_path / "BENCH_logstore.json"
    worldbuild_output = tmp_path / "BENCH_worldbuild.json"
    report_output = tmp_path / "BENCH_report.json"
    simloop_output = tmp_path / "BENCH_simloop.json"
    # Every section writes under tmp_path: the tracked BENCH_*.json files
    # at the repo root stay untouched by a test run.
    exit_code = perf_gate.main(
        ["--quick", "--output", str(output),
         "--worldbuild-output", str(worldbuild_output),
         "--report-output", str(report_output),
         "--simloop-output", str(simloop_output)])
    assert exit_code == 0
    for written in (worldbuild_output, report_output, simloop_output):
        assert json.loads(written.read_text(encoding="utf-8"))["gate"]["passed"]
    report = json.loads(output.read_text(encoding="utf-8"))
    assert report["gate"]["passed"]
    assert report["store"]["n_events"] == 10_000
    # The gate is only honest if both implementations agreed.
    assert report["store"]["checksum"] >= 0
    assert report["world_smoke"]["n_events"] > 0


def test_worldbuild_only_gate(tmp_path):
    worldbuild_output = tmp_path / "BENCH_worldbuild.json"
    exit_code = perf_gate.main(
        ["--quick", "--worldbuild-only",
         "--worldbuild-output", str(worldbuild_output)])
    assert exit_code == 0
    report = json.loads(worldbuild_output.read_text(encoding="utf-8"))
    assert report["gate"]["passed"]
    assert report["equality"]["lazy_eager_identical"]
    sizes = [entry["n_users"] for entry in report["builds"]]
    assert perf_gate.BENCH_WORLD_USERS in sizes
    for entry in report["builds"]:
        # Quick mode still runs the eager comparison at every size.
        assert entry["eager_build_s"] >= entry["lazy_build_s"]
        assert entry["pending_mailboxes"] == entry["n_users"]
