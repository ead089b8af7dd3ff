"""The curation boundary: what stands in for the paper's human review."""

import pytest

from repro.analysis import curation
from repro.logs.events import Actor, LoginEvent, SearchEvent
from repro.logs.store import LogStore
from repro.net.email_addr import EmailAddress
from repro.net.ip import IpAddress
from repro.scams.classifier import MessageCategory
from repro.world.messages import EmailMessage

IP = IpAddress.parse("10.0.0.1")


def message(subject, body="", keywords=()):
    return EmailMessage(
        message_id="msg-000000",
        sender=EmailAddress("a", "primarymail.com"),
        recipients=(EmailAddress("b", "primarymail.com"),),
        subject=subject, body=body, sent_at=0, keywords=tuple(keywords),
    )


class TestReviewMessage:
    def test_phishing_recognized(self):
        reviewed = curation.review_message(message(
            "Action required",
            "verify your account or face deactivation; confirm your password",
        ))
        assert reviewed is MessageCategory.PHISHING

    def test_keywords_visible_to_reviewer(self):
        reviewed = curation.review_message(message(
            "notice", keywords=("verify", "password", "suspended",
                                "click the link")))
        assert reviewed is not MessageCategory.OTHER

    def test_personal_mail_is_other(self):
        assert curation.review_message(
            message("lunch?")) is MessageCategory.OTHER


class TestReviewTarget:
    def test_bank_markers(self):
        assert curation.review_phishing_target(message(
            "alert", body="your bank statement is ready")) == "Bank"

    def test_mail_markers(self):
        assert curation.review_phishing_target(message(
            "verify your mail account")) == "Mail"

    def test_fallback_other(self):
        assert curation.review_phishing_target(message(
            "parcel delayed")) == "Other"


class TestLogCuration:
    @pytest.fixture
    def store(self):
        store = LogStore()
        store.append(LoginEvent(timestamp=10, account_id="acct-000000",
                                ip=IP, password_correct=True, succeeded=True,
                                actor=Actor.MANUAL_HIJACKER))
        store.append(LoginEvent(timestamp=20, account_id="acct-000000",
                                ip=IP, password_correct=True, succeeded=True,
                                actor=Actor.OWNER))
        store.append(LoginEvent(timestamp=30, account_id="acct-000001",
                                ip=IP, password_correct=True, succeeded=True,
                                actor=Actor.MANUAL_HIJACKER))
        store.append(SearchEvent(timestamp=11, account_id="acct-000000",
                                 query="wire transfer",
                                 actor=Actor.MANUAL_HIJACKER))
        store.append(SearchEvent(timestamp=21, account_id="acct-000000",
                                 query="receipts", actor=Actor.OWNER))
        return store

    def test_hijacker_logins_filtered(self, store):
        logins = curation.hijacker_logins(store)
        assert len(logins) == 2
        assert all(l.actor is Actor.MANUAL_HIJACKER for l in logins)

    def test_case_scoping(self, store):
        logins = curation.hijacker_logins(store, ["acct-000001"])
        assert [l.account_id for l in logins] == ["acct-000001"]

    def test_hijacker_searches_exclude_owner(self, store):
        searches = curation.hijacker_searches(store)
        assert [s.query for s in searches] == ["wire transfer"]

    def test_hijack_windows(self, store):
        store.append(LoginEvent(timestamp=90, account_id="acct-000000",
                                ip=IP, password_correct=True, succeeded=True,
                                actor=Actor.MANUAL_HIJACKER))
        windows = curation.hijack_windows(
            curation.hijacker_logins(store), ["acct-000000"])
        assert windows["acct-000000"] == (10, 90)

    def test_windows_empty_without_hijacker_logins(self):
        assert curation.hijack_windows(
            curation.hijacker_logins(LogStore()), ["acct-000000"]) == {}
