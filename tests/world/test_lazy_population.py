"""Lazy world construction: the determinism contract and its triggers.

The population builder defers per-account mailbox history behind a
child-seeded materializer.  These tests pin the contract: nothing is
seeded until the first read, every message-reading entry point triggers
seeding while delivery only files an arrival, access order is
irrelevant, and a lazily-built world is bit-identical to an eagerly-built
one.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import obs
from repro.net.phones import PhoneNumberPlan
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry
from repro.world.equivalence import (
    account_fingerprint,
    mailbox_fingerprint,
    population_fingerprint,
)
from repro.world.mailbox import MailFilter, MailboxSnapshot
from repro.world.messages import EmailMessage, Folder
from repro.world.population import (
    ExternalVictimPool,
    PopulationConfig,
    build_population,
)


def build(seed: int = 11, lazy: bool = True, n_users: int = 60,
          **overrides):
    rngs = RngRegistry(seed)
    config = PopulationConfig(
        n_users=n_users, n_external_edu=25, n_external_other=10,
        mean_contacts=6, lazy_history=lazy, **overrides)
    return build_population(config, rngs, IdMinter(),
                            PhoneNumberPlan(rngs.stream("phones")))


def busiest_account_id(seed: int = 11) -> str:
    """The account with the most history (so orderings are non-trivial)."""
    eager = build(seed=seed, lazy=False)
    return max(eager.accounts.values(),
               key=lambda a: len(a.mailbox)).account_id


def arrivals_for(account, count: int = 4):
    """Fresh mail whose subjects share a term with seeded history."""
    return [
        EmailMessage(
            message_id=f"probe-{index}",
            sender=account.address.with_username(f"new{index}"),
            recipients=(account.address,),
            subject=f"re: update {index}", sent_at=10 + index)
        for index in range(count)
    ]


class TestLazyTriggers:
    def test_nothing_materialized_at_build(self):
        population = build(lazy=True)
        assert population.pending_history_count() == len(population)

    def test_eager_build_has_no_pending_history(self):
        population = build(lazy=False)
        assert population.pending_history_count() == 0

    @pytest.mark.parametrize("touch", [
        lambda mailbox: len(mailbox),
        lambda mailbox: mailbox.messages(),
        lambda mailbox: mailbox.search("wire transfer"),
        lambda mailbox: mailbox.contact_addresses(),
        lambda mailbox: mailbox.contact_count(),
        lambda mailbox: mailbox.starred(),
        lambda mailbox: mailbox.snapshot(now=0),
        lambda mailbox: mailbox.delete_all(),
        lambda mailbox: mailbox.restore_from(MailboxSnapshot(
            taken_at=0, message_states={}, filter_ids=())),
    ], ids=["len", "messages", "search", "contacts", "contact_count",
            "starred", "snapshot", "delete_all", "restore_from"])
    def test_every_message_entry_point_materializes(self, touch):
        population = build(lazy=True)
        account = next(iter(population.accounts.values()))
        assert account.mailbox.history_pending
        touch(account.mailbox)
        assert not account.mailbox.history_pending

    def test_materialization_happens_once(self):
        population = build(lazy=True)
        account = next(iter(population.accounts.values()))
        first = len(account.mailbox)
        assert len(account.mailbox) == first
        assert mailbox_fingerprint(account.mailbox) \
            == mailbox_fingerprint(account.mailbox)

    def test_deliver_files_history_before_new_mail(self):
        """A simulated message must never pre-date history in arrival
        order — materialization runs before the delivery is filed."""
        population = build(lazy=True)
        account = max(build(lazy=False).accounts.values(),
                      key=lambda a: len(a.mailbox))
        lazy_account = population.accounts[account.account_id]
        probe = EmailMessage(
            message_id="probe-1", sender=account.address.with_username("new"),
            recipients=(lazy_account.address,), subject="fresh", sent_at=5)
        lazy_account.mailbox.deliver(probe)
        order = lazy_account.mailbox.messages(include_deleted=True)
        assert order[-1].message_id == "probe-1"
        assert all(m.message_id.startswith("msgh-") for m in order[:-1])

    def test_deliver_and_get_of_arrival_keep_history_pending(self):
        population = build(lazy=True)
        account = population.accounts[busiest_account_id()]
        mailbox = account.mailbox
        probes = arrivals_for(account)
        for probe in probes:
            mailbox.deliver(probe)
        assert mailbox.get("probe-2") is probes[2]
        assert mailbox.history_pending
        first_history_id = f"msgh-{account.account_id.rpartition('-')[2]}-0000"
        assert mailbox.get(first_history_id).message_id == first_history_id
        assert not mailbox.history_pending

    def test_first_read_after_arrivals_matches_eager(self):
        """Arrivals filed while pending land after history: the first
        read sees the same arrival order and search order as an eager
        mailbox fed the same deliveries."""
        account_id = busiest_account_id()
        lazy = build(lazy=True).accounts[account_id]
        eager = build(lazy=False).accounts[account_id]
        for account in (lazy, eager):
            for probe in arrivals_for(account):
                account.mailbox.deliver(probe)
        assert lazy.mailbox.history_pending

        def ids(messages):
            return [m.message_id for m in messages]

        assert ids(lazy.mailbox.messages(include_deleted=True)) \
            == ids(eager.mailbox.messages(include_deleted=True))
        for query in ("re:", "update", "re: update 3"):
            assert ids(lazy.mailbox.search(query)) \
                == ids(eager.mailbox.search(query))
        assert any(m.message_id.startswith("msgh-")
                   for m in lazy.mailbox.search("re:"))
        assert mailbox_fingerprint(lazy.mailbox) \
            == mailbox_fingerprint(eager.mailbox)

    def test_deliveries_without_search_build_no_index(self):
        population = build(lazy=True)
        account = population.accounts[busiest_account_id()]
        with obs.recording() as recorder:
            for probe in arrivals_for(account):
                account.mailbox.deliver(probe)
            assert recorder.counters.get("mailbox.index.builds", 0) == 0
            assert recorder.counters.get(
                "population.build.history_materialized", 0) == 0
            account.mailbox.search("update")
            account.mailbox.search("re:")
        assert recorder.counters["mailbox.index.builds"] == 1
        assert recorder.counters["population.build.history_materialized"] == 1


class TestHistoryBypassesFilters:
    """History predates the simulation, so no filter may ever see it —
    however late the seeder runs."""

    def test_forwarding_filter_before_first_read(self):
        account_id = busiest_account_id()
        lazy = build(lazy=True).accounts[account_id]
        eager = build(lazy=False).accounts[account_id]
        forwarded = {"lazy": [], "eager": []}
        rule = MailFilter(
            filter_id="f-1", created_at=3, created_by_hijacker=True,
            forward_to=lazy.address.with_username("drop"),
            move_to=Folder.TRASH)
        for label, account in (("lazy", lazy), ("eager", eager)):
            account.mailbox.on_forward = (
                lambda message, _to, sink=forwarded[label]:
                sink.append(message.message_id))
            account.mailbox.add_filter(rule)
            for probe in arrivals_for(account, count=2):
                account.mailbox.deliver(probe)
        assert mailbox_fingerprint(lazy.mailbox) \
            == mailbox_fingerprint(eager.mailbox)
        assert forwarded["lazy"] == forwarded["eager"] == [
            "probe-0", "probe-1"]
        assert not any(m.folder is Folder.TRASH
                       for m in lazy.mailbox.messages()
                       if m.message_id.startswith("msgh-"))


class TestLazyEagerEquivalence:
    def test_worlds_bit_identical(self):
        lazy = build(seed=23, lazy=True)
        eager = build(seed=23, lazy=False)
        assert population_fingerprint(lazy, external_sample=range(35)) \
            == population_fingerprint(eager, external_sample=range(35))

    def test_access_order_is_irrelevant(self):
        forward = build(seed=31, lazy=True)
        backward = build(seed=31, lazy=True)
        ids = sorted(forward.accounts)
        for account_id in ids:
            forward.accounts[account_id].mailbox.messages()
        for account_id in reversed(ids):
            backward.accounts[account_id].mailbox.messages()
        assert population_fingerprint(forward) == population_fingerprint(backward)

    def test_partial_touch_does_not_perturb_the_rest(self):
        """Materializing one mailbox must not change any other."""
        touched = build(seed=47, lazy=True)
        untouched = build(seed=47, lazy=True)
        victim_id = sorted(touched.accounts)[3]
        touched.accounts[victim_id].mailbox.search("bank")
        for account_id in sorted(touched.accounts):
            assert account_fingerprint(touched.accounts[account_id]) \
                == account_fingerprint(untouched.accounts[account_id]), account_id

    def test_different_seeds_differ(self):
        assert population_fingerprint(build(seed=5, lazy=True)) \
            != population_fingerprint(build(seed=6, lazy=True))

    def test_pending_world_survives_pickle(self):
        """The parallel runner ships whole worlds across processes, so
        deferred seeders must pickle — and still materialize correctly
        on the other side."""
        population = build(seed=53, lazy=True)
        clone = pickle.loads(pickle.dumps(population))
        assert clone.pending_history_count() == len(population) > 0
        assert population_fingerprint(clone) \
            == population_fingerprint(build(seed=53, lazy=False))


class TestExternalVictimPool:
    def test_lazy_and_order_independent(self):
        pool_a = ExternalVictimPool(99, n_edu=40, n_other=20,
                                    edu_strength=0.3, other_strength=0.97)
        pool_b = ExternalVictimPool(99, n_edu=40, n_other=20,
                                    edu_strength=0.3, other_strength=0.97)
        assert pool_a.materialized_count() == 0
        forward = [pool_a[i] for i in range(len(pool_a))]
        backward = [pool_b[i] for i in reversed(range(len(pool_b)))]
        assert [str(v.address) for v in forward] \
            == [str(v.address) for v in reversed(backward)]
        assert [v.gullibility for v in forward] \
            == [v.gullibility for v in list(reversed(backward))]

    def test_sampling_materializes_only_the_sample(self):
        pool = ExternalVictimPool(7, n_edu=500, n_other=200,
                                  edu_strength=0.3, other_strength=0.97)
        chosen = random.Random(1).sample(pool, 25)
        assert len(chosen) == 25
        assert pool.materialized_count() <= 60  # sample overhead only

    def test_edu_other_split(self):
        pool = ExternalVictimPool(3, n_edu=30, n_other=10,
                                  edu_strength=0.3, other_strength=0.97)
        assert all(v.address.tld == "edu" for v in pool[:30])
        assert all(v.address.tld != "edu" for v in pool[30:])
        assert all(v.spam_filter_strength == 0.3 for v in pool[:30])

    def test_index_errors(self):
        pool = ExternalVictimPool(3, n_edu=2, n_other=1,
                                  edu_strength=0.3, other_strength=0.97)
        assert pool[-1].address == pool[2].address
        with pytest.raises(IndexError):
            pool[3]
