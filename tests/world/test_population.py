import gc

import pytest

from repro.net.domains import PRIMARY_PROVIDER
from repro.net.email_addr import _USERNAME_FIRST, _USERNAME_LAST
from repro.net.phones import PhoneNumberPlan
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry
from repro.world.equivalence import population_fingerprint
from repro.world.messages import MessageKind
from repro.world.population import (
    Population,
    PopulationConfig,
    build_population,
    generate_password,
)


@pytest.fixture(scope="module")
def population():
    rngs = RngRegistry(99)
    return build_population(
        PopulationConfig(n_users=300, n_external_edu=120, n_external_other=60,
                         mean_contacts=6),
        rngs, IdMinter(), PhoneNumberPlan(rngs.stream("phones")),
    )


class TestBuildPopulation:
    def test_counts(self, population):
        assert len(population) == 300
        assert len(population.external_victims) == 180

    def test_all_addresses_on_primary_provider(self, population):
        for account in population.accounts.values():
            assert account.address.domain == PRIMARY_PROVIDER

    def test_lookup_by_address(self, population):
        account = next(iter(population.accounts.values()))
        assert population.lookup_address(account.address) is account

    def test_account_of_user(self, population):
        account = next(iter(population.accounts.values()))
        assert population.account_of_user(account.owner.user_id) is account

    def test_contacts_resolve_to_accounts(self, population):
        account = next(iter(population.accounts.values()))
        for contact in population.contacts_of_account(account):
            assert contact.account_id in population.accounts

    def test_mailboxes_seeded(self, population):
        sizes = [len(account.mailbox) for account in population.accounts.values()]
        assert sum(sizes) / len(sizes) > 5

    def test_financial_users_have_searchable_finance_mail(self, population):
        financial_accounts = [
            account for account in population.accounts.values()
            if account.owner.traits.has_financial_threads
            and len(account.mailbox) >= 20
        ]
        assert financial_accounts
        with_hits = sum(
            1 for account in financial_accounts
            if any(m.kind is MessageKind.FINANCIAL
                   for m in account.mailbox.messages())
        )
        assert with_hits / len(financial_accounts) > 0.7

    def test_mailbox_contacts_include_externals(self, population):
        account = max(population.accounts.values(),
                      key=lambda a: len(a.mailbox))
        correspondents = account.mailbox.contact_addresses()
        externals = [c for c in correspondents
                     if c.domain != PRIMARY_PROVIDER]
        assert externals

    def test_recovery_rates_roughly_configured(self, population):
        accounts = list(population.accounts.values())
        with_phone = sum(1 for a in accounts if a.recovery.phone) / len(accounts)
        assert 0.45 < with_phone < 0.65

    def test_external_pool_mostly_edu(self, population):
        edu = [v for v in population.external_victims
               if v.address.tld == "edu"]
        assert len(edu) == 120
        assert all(v.spam_filter_strength < 0.5 for v in edu)

    def test_deterministic_rebuild(self):
        def build():
            rngs = RngRegistry(5)
            return build_population(
                PopulationConfig(n_users=50, n_external_edu=10,
                                 n_external_other=5),
                rngs, IdMinter(), PhoneNumberPlan(rngs.stream("phones")),
            )

        first, second = build(), build()
        assert sorted(first.accounts) == sorted(second.accounts)
        for account_id in first.accounts:
            assert (first.accounts[account_id].password
                    == second.accounts[account_id].password)
            assert (len(first.accounts[account_id].mailbox)
                    == len(second.accounts[account_id].mailbox))


class TestSaturatedUsernameSpace:
    """Pins a world large enough to exhaust the base username space.

    The base space is ``first.last`` or ``firstNN``: 26 × (20 + 90) =
    2,860 names.  Past that, ``generate_address`` falls through to its
    ``attempt > 10`` path and appends a ``randrange(1000)`` suffix —
    a path the 1,200-user smoke goldens never reach.  The digest was
    recorded before the build was optimized; any change to the RNG
    draws on either path moves it.
    """

    @pytest.fixture(scope="class")
    def world(self):
        rngs = RngRegistry(7)
        return build_population(
            PopulationConfig(n_users=5000, n_external_edu=50,
                             n_external_other=20, mean_history_messages=2.0),
            rngs, IdMinter(), PhoneNumberPlan(rngs.stream("phones")),
        )

    def test_suffix_path_is_exercised(self, world):
        base = {f"{first}.{last}" for first in _USERNAME_FIRST
                for last in _USERNAME_LAST}
        base |= {f"{first}{n}" for first in _USERNAME_FIRST
                 for n in range(10, 100)}
        suffixed = [account for account in world.accounts.values()
                    if account.address.username not in base]
        assert len(suffixed) == 2148

    def test_fingerprint_pinned(self, world):
        assert population_fingerprint(world, external_sample=range(20)) == (
            "c33b9fd3077a02f3babc00fbfa1a990291243acaefdaeccd38616cee96c848e8")


class _FailingPhonePlan:
    def mint(self, country):
        raise RuntimeError("phone plan exhausted")


class TestGarbageCollectorState:
    """The build pauses the cyclic collector; the caller's setting must
    come back however the build ends."""

    @staticmethod
    def build(phone_plan=None):
        rngs = RngRegistry(3)
        return build_population(
            PopulationConfig(n_users=40, n_external_edu=5,
                             n_external_other=5, mean_contacts=4),
            rngs, IdMinter(),
            phone_plan or PhoneNumberPlan(rngs.stream("phones")),
        )

    @pytest.fixture
    def restore_gc(self):
        collecting = gc.isenabled()
        yield
        if collecting:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, restore_gc, enabled):
        gc.enable() if enabled else gc.disable()
        self.build()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_when_build_raises(self, restore_gc, enabled):
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError, match="phone plan exhausted"):
            self.build(_FailingPhonePlan())
        assert gc.isenabled() is enabled

    def test_collector_paused_during_build(self, restore_gc):
        seen = []

        class Probe(PhoneNumberPlan):
            def mint(self, country):
                seen.append(gc.isenabled())
                return super().mint(country)

        gc.enable()
        self.build(Probe(RngRegistry(3).stream("phones")))
        assert seen and not any(seen)
        assert gc.isenabled()


class TestConfigValidation:
    def test_rejects_zero_users(self):
        with pytest.raises(ValueError):
            PopulationConfig(n_users=0)

    def test_rejects_odd_contacts(self):
        with pytest.raises(ValueError):
            PopulationConfig(mean_contacts=7)


class TestPasswords:
    def test_generated_passwords_plausible(self, rng):
        for _ in range(50):
            password = generate_password(rng)
            assert len(password) >= 8
            assert any(c.isdigit() for c in password)
