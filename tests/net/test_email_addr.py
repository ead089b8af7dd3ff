import random

import pytest

from repro.net.email_addr import EmailAddress, generate_address, generate_username


class TestEmailAddress:
    def test_parse_round_trip(self):
        address = EmailAddress.parse("alex.smith@primarymail.com")
        assert address.username == "alex.smith"
        assert address.domain == "primarymail.com"
        assert str(address) == "alex.smith@primarymail.com"

    def test_tld(self):
        assert EmailAddress.parse("a@b.edu").tld == "edu"

    def test_with_username_and_domain(self):
        address = EmailAddress("alex", "a.com")
        assert str(address.with_username("bob")) == "bob@a.com"
        assert str(address.with_domain("b.net")) == "alex@b.net"

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            EmailAddress.parse("no-at-sign")
        with pytest.raises(ValueError):
            EmailAddress("", "a.com")
        with pytest.raises(ValueError):
            EmailAddress("a b", "a.com")
        with pytest.raises(ValueError):
            EmailAddress("a", "nodot")

    def test_hashable_and_ordered(self):
        a = EmailAddress("a", "x.com")
        b = EmailAddress("b", "x.com")
        assert a < b
        assert len({a, b, EmailAddress("a", "x.com")}) == 2


class TestGeneration:
    def test_username_shape(self, rng):
        for _ in range(50):
            username = generate_username(rng)
            assert username
            assert " " not in username

    def test_generate_avoids_taken(self, rng):
        taken = set()
        for _ in range(300):
            address = generate_address(rng, "primarymail.com", taken)
            assert address.domain == "primarymail.com"
            assert address.username not in taken
            taken.add(address.username)


def _reference_generate_address(rng, domain, taken):
    """The original loop: one ``EmailAddress`` per candidate, membership
    tested on addresses."""
    for attempt in range(1000):
        username = generate_username(rng)
        if attempt > 10:
            username = f"{username}{rng.randrange(1000)}"
        address = EmailAddress(username, domain)
        if address not in taken:
            return address
    raise RuntimeError(f"username space exhausted on {domain!r}")


class TestGenerationMatchesReference:
    """Rejecting candidates as strings must not move a single RNG draw.

    6,000 addresses on one domain run well past the 2,860-name base
    space, so most late calls take the ``attempt > 10`` suffix path.
    """

    def test_same_addresses_and_rng_state(self):
        reference_rng, rng = random.Random(7), random.Random(7)
        reference_taken, taken = set(), set()
        reference, generated = [], []
        for _ in range(6000):
            address = _reference_generate_address(
                reference_rng, "primarymail.com", reference_taken)
            reference_taken.add(address)
            reference.append(address)
            address = generate_address(rng, "primarymail.com", taken)
            taken.add(address.username)
            generated.append(address)
        assert generated == reference
        assert rng.getstate() == reference_rng.getstate()
        assert len(taken) == 6000
