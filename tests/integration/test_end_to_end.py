"""End-to-end lifecycle integration: one credential's journey through
acquisition → exploitation → remediation, traced in the logs."""

import pytest

from repro.analysis.curation import hijack_windows, hijacker_logins
from repro.hijacker.incident import IncidentOutcome
from repro.logs.events import (
    Actor,
    HijackFlagEvent,
    LoginEvent,
    MailSentEvent,
    NotificationEvent,
    RecoveryClaimEvent,
    RemissionEvent,
    SearchEvent,
    SettingsChangeEvent,
)


@pytest.fixture(scope="module")
def lifecycle(exploitation_result):
    """A fully exploited, recovered incident plus its account's events."""
    recovered_ids = {
        case.account_id
        for case in exploitation_result.remediation.recovered_cases()
    }
    for report in exploitation_result.exploited_incidents():
        if report.account_id in recovered_ids:
            events = exploitation_result.store.for_account(report.account_id)
            return exploitation_result, report, events
    pytest.fail("no exploited+recovered incident in the scenario")


class TestLifecycleOrdering:
    def test_pickup_after_capture(self, lifecycle):
        _result, report, _events = lifecycle
        assert report.pickup_at >= report.credential.captured_at

    def test_session_within_pickup_and_end(self, lifecycle):
        _result, report, _events = lifecycle
        assert report.pickup_at <= report.session_start <= report.session_end

    def test_hijacker_login_precedes_searches(self, lifecycle):
        _result, _report, events = lifecycle
        hijacker_logins = [e for e in events if isinstance(e, LoginEvent)
                           and e.actor is Actor.MANUAL_HIJACKER and e.succeeded]
        hijacker_searches = [e for e in events if isinstance(e, SearchEvent)
                             and e.actor is Actor.MANUAL_HIJACKER]
        assert hijacker_logins and hijacker_searches
        assert hijacker_logins[0].timestamp <= hijacker_searches[0].timestamp

    def test_searches_precede_sends(self, lifecycle):
        _result, _report, events = lifecycle
        searches = [e.timestamp for e in events if isinstance(e, SearchEvent)
                    and e.actor is Actor.MANUAL_HIJACKER]
        sends = [e.timestamp for e in events if isinstance(e, MailSentEvent)
                 and e.actor is Actor.MANUAL_HIJACKER]
        assert min(searches) < min(sends)

    def test_flag_before_claim(self, lifecycle):
        _result, _report, events = lifecycle
        flags = [e for e in events if isinstance(e, HijackFlagEvent)]
        claims = [e for e in events if isinstance(e, RecoveryClaimEvent)]
        assert flags and claims
        assert flags[0].timestamp <= claims[0].timestamp

    def test_remission_after_successful_claim(self, lifecycle):
        _result, _report, events = lifecycle
        successes = [e for e in events if isinstance(e, RecoveryClaimEvent)
                     and e.succeeded]
        remissions = [e for e in events if isinstance(e, RemissionEvent)]
        assert successes and remissions
        assert remissions[0].timestamp >= successes[0].timestamp


class TestCrossChecks:
    def test_hijack_window_brackets_logins(self, lifecycle):
        result, report, _events = lifecycle
        windows = hijack_windows(hijacker_logins(result.store),
                                 [report.account_id])
        window = windows[report.account_id]
        # All hijacker logins happen between pickup and session end.
        assert report.pickup_at <= window[0] <= report.session_start
        assert window[1] <= report.session_end

    def test_retention_changes_notified(self, lifecycle):
        result, report, events = lifecycle
        if report.retention is None or not report.retention.changed_password:
            pytest.skip("incident did not change the password")
        account = result.population.accounts[report.account_id]
        if (account.recovery.phone is None
                and account.recovery.secondary_email is None):
            pytest.skip("victim had no notification channel")
        changes = [e for e in events if isinstance(e, SettingsChangeEvent)]
        notifications = [e for e in events
                         if isinstance(e, NotificationEvent)]
        assert changes
        # Notifications may stochastically fail per channel, but a
        # password change with channels on file usually produces one.
        assert notifications or account.recovery.secondary_email_recycled

    def test_contact_chain_reaches_queue(self, exploitation_result):
        chained_pages = {
            state.contact_page.page_id
            for state in exploitation_result.crew_states
        }
        chained = [
            report for report in exploitation_result.incidents
            if report.credential.source_page_id in chained_pages
        ]
        assert chained, "no contact-phish chain incidents"
        # Chained victims are provider users who were somebody's contact.
        for report in chained[:10]:
            assert report.account_id is not None or \
                report.outcome is IncidentOutcome.NO_SUCH_ACCOUNT


class TestLogConsistency:
    def test_every_incident_account_logged(self, exploitation_result):
        logged = set(exploitation_result.store.accounts_seen())
        for report in exploitation_result.incidents:
            if report.account_id and report.login_attempts:
                assert report.account_id in logged

    def test_no_success_without_correct_password(self, exploitation_result):
        for event in exploitation_result.store.query(LoginEvent):
            if event.succeeded:
                assert event.password_correct

    def test_suspended_accounts_stay_quiet(self, exploitation_result):
        """After suspension, no successful hijacker login may occur
        until the account is recovered."""
        from repro.logs.events import SuspensionEvent

        for suspension in exploitation_result.store.query(SuspensionEvent):
            account = exploitation_result.population.accounts[
                suspension.account_id]
            later_success = exploitation_result.store.query(
                LoginEvent,
                since=suspension.timestamp + 1,
                where=lambda e, a=suspension.account_id: (
                    e.account_id == a and e.succeeded
                    and e.actor is Actor.MANUAL_HIJACKER),
            )
            if later_success:
                # Only legitimate if the account was recovered (and thus
                # reactivated) in between — hijacker needs a fresh capture.
                claims = exploitation_result.store.query(
                    RecoveryClaimEvent,
                    where=lambda e, a=suspension.account_id: (
                        e.account_id == a and e.succeeded))
                assert claims
                assert claims[0].completed_at <= later_success[0].timestamp
