import random
from collections import Counter

import pytest

from repro import obs
from repro.logs.events import Actor, LoginEvent, NotificationEvent, SearchEvent
from repro.logs.store import LogStore
from repro.net.ip import IpAddress
from repro.util.clock import DAY

IP = IpAddress.parse("20.0.0.1")


def login(timestamp, account="acct-000000", correct=True, actor=Actor.OWNER):
    return LoginEvent(timestamp=timestamp, account_id=account, ip=IP,
                      password_correct=correct, succeeded=correct, actor=actor)


def search(timestamp, account="acct-000000", query="bank"):
    return SearchEvent(timestamp=timestamp, account_id=account, query=query)


@pytest.fixture
def store():
    store = LogStore()
    store.append(login(30))
    store.append(login(10))
    store.append(login(20, account="acct-000001"))
    store.append(search(15))
    return store


class TestQuery:
    def test_sorted_by_timestamp(self, store):
        events = store.query(LoginEvent)
        assert [e.timestamp for e in events] == [10, 20, 30]

    def test_time_window(self, store):
        events = store.query(LoginEvent, since=15, until=25)
        assert [e.timestamp for e in events] == [20]

    def test_where_predicate(self, store):
        events = store.query(
            LoginEvent, where=lambda e: e.account_id == "acct-000001")
        assert len(events) == 1

    def test_types_are_separate_families(self, store):
        assert store.count(LoginEvent) == 3
        assert store.count(SearchEvent) == 1

    def test_unknown_type_empty(self, store):
        from repro.logs.events import SuspensionEvent

        assert store.query(SuspensionEvent) == []


class TestAccountIndex:
    def test_for_account_cross_type(self, store):
        events = store.for_account("acct-000000")
        assert [e.timestamp for e in events] == [10, 15, 30]

    def test_for_account_window(self, store):
        assert len(store.for_account("acct-000000", since=12, until=16)) == 1

    def test_accounts_seen(self, store):
        assert store.accounts_seen() == ["acct-000000", "acct-000001"]


class TestBookkeeping:
    def test_counts(self, store):
        assert store.count() == len(store) == 4

    def test_event_types(self, store):
        names = [t.__name__ for t in store.event_types()]
        assert names == ["LoginEvent", "SearchEvent"]

    def test_extend(self):
        store = LogStore()
        store.extend([login(1), login(2)])
        assert len(store) == 2


class TestIndexedFilters:
    def test_account_id_filter(self, store):
        events = store.query(LoginEvent, account_id="acct-000001")
        assert [e.timestamp for e in events] == [20]

    def test_account_id_filter_with_window(self, store):
        assert store.query(LoginEvent, since=15, account_id="acct-000000") \
            == [store.query(LoginEvent)[-1]]

    def test_account_id_unknown_empty(self, store):
        assert store.query(LoginEvent, account_id="acct-999999") == []

    def test_actor_filter(self):
        store = LogStore()
        store.append(login(5))
        store.append(login(3, actor=Actor.MANUAL_HIJACKER))
        store.append(login(9, actor=Actor.MANUAL_HIJACKER))
        hijacker = store.query(LoginEvent, actor=Actor.MANUAL_HIJACKER)
        assert [e.timestamp for e in hijacker] == [3, 9]
        assert len(store.query(LoginEvent, actor=Actor.OWNER)) == 1

    def test_account_and_actor_combined(self):
        store = LogStore()
        store.append(login(1, account="acct-a"))
        store.append(login(2, account="acct-a", actor=Actor.MANUAL_HIJACKER))
        store.append(login(3, account="acct-b", actor=Actor.MANUAL_HIJACKER))
        events = store.query(
            LoginEvent, account_id="acct-a", actor=Actor.MANUAL_HIJACKER)
        assert [e.timestamp for e in events] == [2]

    def test_where_composes_with_indexed_filters(self, store):
        events = store.query(
            LoginEvent, account_id="acct-000000",
            where=lambda e: e.timestamp > 15,
        )
        assert [e.timestamp for e in events] == [30]

    def test_appends_after_read_stay_sorted(self, store):
        assert [e.timestamp for e in store.query(LoginEvent)] == [10, 20, 30]
        store.append(login(5))
        store.append(login(25))
        assert [e.timestamp for e in store.query(LoginEvent)] \
            == [5, 10, 20, 25, 30]
        assert [e.timestamp
                for e in store.query(LoginEvent, account_id="acct-000000")] \
            == [5, 10, 25, 30]


class TestRemoveWhere:
    def test_erase_old_events(self, store):
        erased = store.remove_where(LoginEvent, lambda e: e.timestamp < 25)
        assert erased == 2
        assert store.count(LoginEvent) == 1
        # Account index updated too.
        assert [e.timestamp for e in store.for_account("acct-000000")] == [15, 30]

    def test_erase_nothing(self, store):
        assert store.remove_where(LoginEvent, lambda e: False) == 0
        assert len(store) == 4

    def test_erase_updates_secondary_indexes(self, store):
        store.remove_where(LoginEvent, lambda e: e.timestamp < 25)
        assert store.query(LoginEvent, account_id="acct-000001") == []
        assert [e.timestamp
                for e in store.query(LoginEvent, account_id="acct-000000")] \
            == [30]
        assert [e.timestamp
                for e in store.query(LoginEvent, actor=Actor.OWNER)] == [30]

    def test_erase_only_touches_matching_type(self, store):
        store.remove_where(LoginEvent, lambda e: True)
        assert [e.timestamp
                for e in store.query(SearchEvent, account_id="acct-000000")] \
            == [15]


def _assert_each_query_reads_one_column(store, queries):
    """Windowed account queries: account index only, bounded windows.

    The work-count form of "no O(n) regression": every query goes
    through the account index, none falls back to a type scan, and no
    bisected window holds more events than the largest ``(type,
    account)`` column, which is far below the store size.
    """
    largest = max(Counter(
        (event_type, event.account_id)
        for event_type in {event_type for event_type, _, _ in queries}
        for event in store.query(event_type)).values())
    with obs.recording() as recorder:
        for event_type, since, account in queries:
            store.query(event_type, since=since, until=since + DAY,
                        account_id=account)
    assert recorder.counters["logstore.query.account_index"] == len(queries)
    assert recorder.counters.get("logstore.query.type_scan", 0) == 0
    assert recorder.histograms["logstore.query.window_events"].maximum \
        <= largest
    assert largest * 10 < len(store)


class TestQueryWork:
    def test_synthetic_stream(self):
        rand = random.Random(7)
        store, timestamp = LogStore(), 0
        for _ in range(10_000):
            timestamp += rand.randrange(3)
            store.append(login(timestamp,
                               account=f"acct-{rand.randrange(500):06d}"))
        accounts = store.accounts_seen()
        _assert_each_query_reads_one_column(store, [
            (LoginEvent, (index * 37) % (timestamp - DAY),
             accounts[index % len(accounts)])
            for index in range(50)])

    def test_was_notified_shape_on_smoke_world(self, smoke_result):
        store = smoke_result.store
        accounts = store.accounts_seen()
        _assert_each_query_reads_one_column(store, [
            (event_type, (index * 997) % smoke_result.horizon_minutes,
             accounts[index % len(accounts)])
            for index in range(50)
            for event_type in (NotificationEvent, LoginEvent)])
