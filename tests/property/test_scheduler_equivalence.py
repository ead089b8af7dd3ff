"""Hypothesis differential: event-wheel loop vs legacy rescan loop.

Property: for *any* (seed, horizon, population shape, campaign tempo),
running the simulation through the event-wheel scheduler produces
bit-identical results to the legacy per-day rescan loop — same log
events in the same order, same incident outcomes, same world
fingerprints, same rendered report bytes.  This is the determinism
contract that lets ``REPRO_SCHEDULER`` flip freely between the two
architectures.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pathlib

import pytest

from repro import obs
from repro.analysis.report import full_report
from repro.core.config import SimulationConfig
from repro.core.scenarios import smoke_scenario
from repro.core.simulation import Simulation
from repro.world.equivalence import population_fingerprint

_SLOW = settings(max_examples=6, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@contextmanager
def _scheduler(enabled: bool):
    saved = os.environ.get("REPRO_SCHEDULER")
    os.environ["REPRO_SCHEDULER"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_SCHEDULER", None)
        else:
            os.environ["REPRO_SCHEDULER"] = saved


def _run(config: SimulationConfig, scheduler: bool):
    with _scheduler(scheduler):
        simulation = Simulation(config)
        assert simulation._use_scheduler is scheduler
    return simulation.run()


def _all_events(store):
    return [
        repr(event)
        for event_type in sorted(store.event_types(), key=lambda t: t.__name__)
        for event in store.query(event_type)
    ]


def _assert_equivalent(wheel, legacy):
    assert _all_events(wheel.store) == _all_events(legacy.store)
    assert ([r.outcome for r in wheel.incidents]
            == [r.outcome for r in legacy.incidents])
    assert ([r.account_id for r in wheel.incidents]
            == [r.account_id for r in legacy.incidents])
    assert wheel.summary() == legacy.summary()
    assert len(wheel.mail.pending_reports) == len(legacy.mail.pending_reports)
    assert ([(c.account_id, c.hijack_flagged_at, c.recovered_at)
             for c in wheel.remediation.cases]
            == [(c.account_id, c.hijack_flagged_at, c.recovered_at)
                for c in legacy.remediation.cases])
    assert population_fingerprint(wheel.population) \
        == population_fingerprint(legacy.population)


@st.composite
def sim_configs(draw):
    return SimulationConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        n_users=draw(st.integers(min_value=40, max_value=180)),
        n_external_edu=draw(st.integers(min_value=0, max_value=60)),
        n_external_other=draw(st.integers(min_value=0, max_value=25)),
        horizon_days=draw(st.integers(min_value=1, max_value=6)),
        campaigns_per_week=draw(st.sampled_from([0, 3, 8, 14])),
        campaign_target_count=draw(st.sampled_from([30, 60, 90])),
        standalone_pages_per_week=draw(st.sampled_from([0, 2, 5])),
        n_decoys=draw(st.sampled_from([0, 2, 4])),
    )


@_SLOW
@given(config=sim_configs())
def test_event_wheel_equivalent_to_legacy_loop(config):
    _assert_equivalent(_run(config, True), _run(config, False))


@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=999))
def test_report_bytes_identical(seed):
    """The full rendered report — every figure and table — matches."""
    config = SimulationConfig(
        seed=seed, n_users=150, n_external_edu=60, n_external_other=25,
        horizon_days=4, campaigns_per_week=8, campaign_target_count=60,
        standalone_pages_per_week=2, n_decoys=4,
    )
    wheel = _run(config, True)
    legacy = _run(config, False)
    assert full_report(wheel) == full_report(legacy)


def test_golden_seed_report_bytes():
    """The committed golden bytes are reachable from *both* loops."""
    golden = (pathlib.Path(__file__).parent.parent / "analysis" / "golden"
              / "report_smoke_seed7.txt")
    expected = golden.read_text(encoding="utf-8")
    for scheduler in (True, False):
        result = _run(smoke_scenario(seed=7), scheduler)
        assert full_report(result) + "\n" == expected, \
            f"scheduler={scheduler} drifted from golden"


#: Accounts on the abuse watchlist before the quiet-horizon run starts.
_QUIET_WATCHLIST = 166


def _quiet_run(horizon_days: int, scheduler: bool):
    """A 2,000-user world with no campaigns and a pre-seeded watchlist.

    The legacy loop probes the whole watchlist every day; the wheel
    probes it once (its day-0 dirty set) and then has nothing scheduled.
    """
    config = SimulationConfig(
        seed=11, n_users=2_000, n_external_edu=50, n_external_other=20,
        horizon_days=horizon_days, campaigns_per_week=0,
        standalone_pages_per_week=0, n_decoys=0,
    )
    with _scheduler(scheduler):
        simulation = Simulation(config)
    for account_id in sorted(simulation.population.accounts)[:_QUIET_WATCHLIST]:
        simulation._watch(account_id)
    with obs.recording() as recorder:
        result = simulation.run()
    return result, recorder.counters


@pytest.mark.parametrize("horizon_days", [30, 365])
def test_quiet_horizon_wheel_work_is_horizon_independent(horizon_days):
    """Day-loop work follows scheduled work, not world size x horizon.

    One sweep event probing each watched account once, at any horizon;
    the legacy loop still agrees on every outcome.
    """
    wheel, counters = _quiet_run(horizon_days, True)
    legacy, _ = _quiet_run(horizon_days, False)
    assert counters["simulation.sched.fired"] == 1
    assert counters["simulation.sched.dirty_accounts"] == _QUIET_WATCHLIST
    assert wheel.summary() == legacy.summary()
    assert len(wheel.store) == len(legacy.store)

