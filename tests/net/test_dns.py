"""Tests for the authoritative DNS namespace and iterative resolver."""

from __future__ import annotations

import pytest

from repro.errors import NXDomainError, ResolutionError, ServFailError
from repro.net import Namespace, Resolver, ResourceRecord, ZoneCache


@pytest.fixture
def namespace() -> Namespace:
    ns = Namespace()
    zone = ns.create_zone("example.com")
    zone.add("@", "NS", "ns1.dns-co.com")
    zone.add("@", "NS", "ns2.dns-co.com")
    zone.add("@", "A", 1000)
    zone.add("www", "A", {"EU": 2000, "NA": 3000, "default": 1000})
    zone.add("cdn", "CNAME", "edge.cdn-co.com")
    zone.add("mail", "CNAME", "mail2.example.com")
    zone.add("mail2", "A", 4000)

    dns_zone = ns.create_zone("dns-co.com")
    dns_zone.add("@", "NS", "ns1.dns-co.com")
    dns_zone.add("ns1", "A", 5001)
    dns_zone.add("ns2", "A", 5002)

    cdn_zone = ns.create_zone("cdn-co.com")
    cdn_zone.add("@", "NS", "ns1.dns-co.com")
    cdn_zone.add("edge", "A", 6000)
    return ns


class TestRecords:
    def test_rejects_unknown_rtype(self) -> None:
        with pytest.raises(ValueError):
            ResourceRecord(name="x.com", rtype="TXT", value="hi")

    def test_rejects_negative_ttl(self) -> None:
        with pytest.raises(ValueError):
            ResourceRecord(name="x.com", rtype="A", value=1, ttl=-1)

    def test_geo_resolution_order(self) -> None:
        record = ResourceRecord(
            name="x.com",
            rtype="A",
            value={"EU": 1, "cc:DE": 2, "default": 3},
        )
        assert record.resolve_address("EU", "DE") == 2
        assert record.resolve_address("EU", "FR") == 1
        assert record.resolve_address("SA", None) == 3

    def test_geo_fallback_without_default(self) -> None:
        record = ResourceRecord(
            name="x.com", rtype="A", value={"EU": 1, "NA": 2}
        )
        assert record.resolve_address("AF", None) == 1  # smallest key

    def test_resolve_address_requires_a(self) -> None:
        record = ResourceRecord(name="x.com", rtype="NS", value="ns1")
        with pytest.raises(ValueError):
            record.resolve_address("EU")


class TestZone:
    def test_qualify_relative_and_absolute(self, namespace: Namespace) -> None:
        zone = namespace.zone("example.com")
        assert zone is not None
        assert zone.qualify("www") == "www.example.com"
        assert zone.qualify("www.example.com") == "www.example.com"
        assert zone.qualify("@") == "example.com"

    def test_duplicate_zone_rejected(self, namespace: Namespace) -> None:
        with pytest.raises(ValueError):
            namespace.create_zone("example.com")

    def test_zone_for_uses_registrable_domain(
        self, namespace: Namespace
    ) -> None:
        zone = namespace.zone_for("deep.sub.www.example.com")
        assert zone is not None and zone.origin == "example.com"

    def test_zone_for_unknown(self, namespace: Namespace) -> None:
        assert namespace.zone_for("nothing.net") is None


class TestResolver:
    def test_apex_a(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace)
        result = resolver.resolve("example.com")
        assert result.addresses == (1000,)
        assert result.authoritative_ns == (
            "ns1.dns-co.com",
            "ns2.dns-co.com",
        )

    def test_geo_answers_by_vantage(self, namespace: Namespace) -> None:
        eu = Resolver(namespace, vantage_continent="EU")
        na = Resolver(namespace, vantage_continent="NA")
        sa = Resolver(namespace, vantage_continent="SA")
        assert eu.resolve("www.example.com").addresses == (2000,)
        assert na.resolve("www.example.com").addresses == (3000,)
        assert sa.resolve("www.example.com").addresses == (1000,)

    def test_cname_chain(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace)
        result = resolver.resolve("cdn.example.com")
        assert result.addresses == (6000,)
        assert result.cname_chain == ("edge.cdn-co.com",)

    def test_intra_zone_cname(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace)
        assert resolver.resolve("mail.example.com").addresses == (4000,)

    def test_nxdomain(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace)
        with pytest.raises(NXDomainError):
            resolver.resolve("missing.example.com")
        with pytest.raises(NXDomainError):
            resolver.resolve("unknown-zone.net")

    def test_cname_loop_detected(self, namespace: Namespace) -> None:
        zone = namespace.zone("example.com")
        assert zone is not None
        zone.add("loop-a", "CNAME", "loop-b.example.com")
        zone.add("loop-b", "CNAME", "loop-a.example.com")
        resolver = Resolver(namespace)
        with pytest.raises(ResolutionError):
            resolver.resolve("loop-a.example.com")

    def test_nodata_name(self, namespace: Namespace) -> None:
        zone = namespace.zone("example.com")
        assert zone is not None
        zone.add("nsonly", "NS", "ns1.dns-co.com")
        resolver = Resolver(namespace)
        with pytest.raises(ResolutionError):
            resolver.resolve("nsonly.example.com")

    def test_servfail_on_broken_zone(self, namespace: Namespace) -> None:
        zone = namespace.zone("example.com")
        assert zone is not None
        zone.broken = True
        resolver = Resolver(namespace)
        with pytest.raises(ServFailError):
            resolver.resolve("example.com")


class TestResolverCache:
    def test_cache_hit(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace)
        first = resolver.resolve("example.com")
        second = resolver.resolve("example.com")
        assert not first.from_cache
        assert second.from_cache
        assert resolver.cache_hits == 1

    def test_cache_expiry(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace)
        resolver.resolve("example.com")
        resolver.advance_clock(301.0)
        result = resolver.resolve("example.com")
        assert not result.from_cache

    def test_cache_within_ttl(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace)
        resolver.resolve("example.com")
        resolver.advance_clock(299.0)
        assert resolver.resolve("example.com").from_cache

    def test_flush(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace)
        resolver.resolve("example.com")
        resolver.flush_cache()
        assert not resolver.resolve("example.com").from_cache

    def test_cache_disabled(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace, cache_enabled=False)
        resolver.resolve("example.com")
        assert not resolver.resolve("example.com").from_cache

    def test_clock_cannot_reverse(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace)
        with pytest.raises(ValueError):
            resolver.advance_clock(-1.0)

    def test_query_counter(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace)
        resolver.resolve("example.com")
        resolver.resolve("www.example.com")
        assert resolver.queries == 2

    def test_negative_cache_hit(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace)
        with pytest.raises(NXDomainError):
            resolver.resolve("missing.example.com")
        with pytest.raises(NXDomainError) as excinfo:
            resolver.resolve("missing.example.com")
        assert "negative cache" in str(excinfo.value)
        assert resolver.negative_cache_hits == 1

    def test_negative_cache_expires(self, namespace: Namespace) -> None:
        resolver = Resolver(namespace)
        with pytest.raises(NXDomainError):
            resolver.resolve("ghost.example.com")
        # The name appears later (new registration); after the negative
        # TTL passes, resolution succeeds.
        zone = namespace.zone("example.com")
        assert zone is not None
        zone.add("ghost", "A", 7777)
        with pytest.raises(NXDomainError):
            resolver.resolve("ghost.example.com")  # still cached
        resolver.advance_clock(Resolver.NEGATIVE_TTL + 1)
        assert resolver.resolve("ghost.example.com").addresses == (7777,)

    def test_negative_cache_disabled_with_cache(
        self, namespace: Namespace
    ) -> None:
        resolver = Resolver(namespace, cache_enabled=False)
        for _ in range(2):
            with pytest.raises(NXDomainError):
                resolver.resolve("missing.example.com")
        assert resolver.negative_cache_hits == 0


class TestTTLHonoringCache:
    """Positive answers are cached for the answer's own minimum TTL.

    Regression: the cache once hardcoded a 300s lifetime, so short-TTL
    CDN records were served long after their authority said to re-ask,
    and day-long TTLs expired prematurely.
    """

    def test_short_ttl_expires_early(self, namespace: Namespace) -> None:
        zone = namespace.zone("example.com")
        assert zone is not None
        zone.add("fast", "A", 8001, ttl=30)
        resolver = Resolver(namespace)
        first = resolver.resolve("fast.example.com")
        assert first.min_ttl == 30.0
        resolver.advance_clock(29.0)
        assert resolver.resolve("fast.example.com").from_cache
        resolver.advance_clock(2.0)
        assert not resolver.resolve("fast.example.com").from_cache

    def test_long_ttl_outlives_default(self, namespace: Namespace) -> None:
        zone = namespace.zone("example.com")
        assert zone is not None
        zone.add("slow", "A", 8002, ttl=3600)
        resolver = Resolver(namespace)
        resolver.resolve("slow.example.com")
        resolver.advance_clock(3599.0)
        assert resolver.resolve("slow.example.com").from_cache
        resolver.advance_clock(2.0)
        assert not resolver.resolve("slow.example.com").from_cache

    def test_cname_chain_lowers_answer_ttl(
        self, namespace: Namespace
    ) -> None:
        # RFC 1034: the answer is cacheable only as long as its
        # shortest-lived component — here the CNAME, not the target A.
        zone = namespace.zone("example.com")
        cdn_zone = namespace.zone("cdn-co.com")
        assert zone is not None and cdn_zone is not None
        zone.add("short", "CNAME", "edge2.cdn-co.com", ttl=60)
        cdn_zone.add("edge2", "A", 6002, ttl=3600)
        resolver = Resolver(namespace)
        assert resolver.resolve("short.example.com").min_ttl == 60.0
        resolver.advance_clock(61.0)
        assert not resolver.resolve("short.example.com").from_cache

    def test_absurd_ttl_clamped_to_max(self, namespace: Namespace) -> None:
        zone = namespace.zone("example.com")
        assert zone is not None
        zone.add("forever", "A", 8003, ttl=10_000_000)
        resolver = Resolver(namespace)
        resolver.resolve("forever.example.com")
        resolver.advance_clock(Resolver.MAX_TTL - 1.0)
        assert resolver.resolve("forever.example.com").from_cache
        resolver.advance_clock(2.0)
        assert not resolver.resolve("forever.example.com").from_cache


class TestVantageCacheIsolation:
    """Caches are keyed per (name, vantage continent, vantage country).

    Regression: the cache once keyed on the name alone, so a resolver
    moved between vantages served the previous vantage's geo-routed
    addresses.
    """

    def test_vantage_switch_is_not_poisoned(
        self, namespace: Namespace
    ) -> None:
        resolver = Resolver(namespace, vantage_continent="NA")
        first = resolver.resolve("www.example.com")
        assert first.addresses == (3000,)
        resolver.set_vantage("EU")
        second = resolver.resolve("www.example.com")
        assert not second.from_cache  # EU must not see NA's answer
        assert second.addresses == (2000,)

    def test_old_vantage_entries_survive_the_move(
        self, namespace: Namespace
    ) -> None:
        resolver = Resolver(namespace, vantage_continent="NA")
        resolver.resolve("www.example.com")
        resolver.set_vantage("EU")
        resolver.resolve("www.example.com")
        resolver.set_vantage("NA")
        third = resolver.resolve("www.example.com")
        assert third.from_cache
        assert third.addresses == (3000,)

    def test_negative_cache_is_per_vantage(
        self, namespace: Namespace
    ) -> None:
        resolver = Resolver(namespace, vantage_continent="NA")
        with pytest.raises(NXDomainError):
            resolver.resolve("missing.example.com")
        resolver.set_vantage("EU")
        with pytest.raises(NXDomainError) as excinfo:
            resolver.resolve("missing.example.com")
        assert "negative cache" not in str(excinfo.value)
        assert resolver.negative_cache_hits == 0


class TestZoneCache:
    """Planned resolution: each name is walked once, and the
    cached plans stay byte-equivalent to per-site iterative walks."""

    def test_batched_answers_match_unbatched(
        self, namespace: Namespace
    ) -> None:
        cache = ZoneCache(namespace)
        for name in (
            "example.com",
            "www.example.com",
            "cdn.example.com",
            "mail.example.com",
        ):
            for continent in (None, "EU", "NA"):
                plain = Resolver(
                    namespace, vantage_continent=continent
                ).resolve(name)
                batched = Resolver(
                    namespace,
                    vantage_continent=continent,
                    zone_cache=cache,
                ).resolve(name)
                assert batched == plain

    def test_batched_errors_match_unbatched(
        self, namespace: Namespace
    ) -> None:
        zone = namespace.zone("example.com")
        assert zone is not None
        zone.add("loop-a", "CNAME", "loop-b.example.com")
        zone.add("loop-b", "CNAME", "loop-a.example.com")
        cache = ZoneCache(namespace)
        for name in (
            "missing.example.com",
            "unknown-zone.net",
            "loop-a.example.com",
        ):
            with pytest.raises(ResolutionError) as plain:
                Resolver(namespace).resolve(name)
            with pytest.raises(ResolutionError) as batched:
                Resolver(namespace, zone_cache=cache).resolve(name)
            assert type(batched.value) is type(plain.value)
            assert str(batched.value) == str(plain.value)

    def test_each_name_is_planned_once(self, namespace: Namespace) -> None:
        cache = ZoneCache(namespace)
        apex = cache.plan("example.com")
        assert cache.stats() == {"hits": 0, "misses": 1}
        # A sibling in the same zone is planned on its own first query.
        www = cache.plan("www.example.com")
        assert cache.stats() == {"hits": 0, "misses": 2}
        assert cache.plan("example.com") is apex
        assert cache.plan("www.example.com") is www
        assert cache.stats() == {"hits": 2, "misses": 2}

    def test_broken_zone_checked_live_not_at_plan_time(
        self, namespace: Namespace
    ) -> None:
        cache = ZoneCache(namespace)
        resolver = Resolver(
            namespace, zone_cache=cache, cache_enabled=False
        )
        assert resolver.resolve("example.com").addresses == (1000,)
        zone = namespace.zone("example.com")
        assert zone is not None
        zone.broken = True
        with pytest.raises(ServFailError):
            resolver.resolve("example.com")
        zone.broken = False
        assert resolver.resolve("example.com").addresses == (1000,)

    def test_warm_shared_zones_plans_nameserver_hosts(
        self, namespace: Namespace
    ) -> None:
        cache = ZoneCache(namespace)
        cache.warm_shared_zones()
        warmed = cache.stats()
        assert warmed["misses"] > 0
        cache.plan("ns1.dns-co.com")
        assert cache.stats()["hits"] == warmed["hits"] + 1

    def test_namespace_mismatch_rejected(
        self, namespace: Namespace
    ) -> None:
        with pytest.raises(ValueError, match="namespace"):
            Resolver(namespace, zone_cache=ZoneCache(Namespace()))

    def test_shared_cache_keeps_geo_answers_per_vantage(
        self, namespace: Namespace
    ) -> None:
        cache = ZoneCache(namespace)
        eu = Resolver(
            namespace, vantage_continent="EU", zone_cache=cache
        )
        na = Resolver(
            namespace, vantage_continent="NA", zone_cache=cache
        )
        assert eu.resolve("www.example.com").addresses == (2000,)
        assert na.resolve("www.example.com").addresses == (3000,)
