"""Per-country world-slice digests for incremental re-measurement.

A campaign shard (one country's measurements) is a pure function of
``(pipeline version, campaign knobs, country, what the pipeline can
observe of the world from its vantage)`` — the country-unit purity
that makes sharded execution exact.  :func:`world_slice_digest`
fingerprints that last input: it projects, for every site of the
country's toplist in rank order, exactly the observables the
measurement pipeline can read — the redirect-resolved serving host,
the answer the resolver gives for it from the vantage (every address
with its AS-organization / geolocation / anycast labels, the CNAME
chain, the authoritative NS set and the minimum TTL, or the error's
class and message), the same answer for each nameserver, and the TLS
issuer — and hashes the projection canonically.

The answers are :meth:`ZoneCache.answer <repro.net.dns.ZoneCache.answer>`
executions, the same plan execution a resolver with that cache
attached performs, so the projection has no walk of its own to drift
from the resolver's.  A campaign hands the projection the cache its
country units measure with, so measurement reads the plans the
projection built instead of walking every zone again.

Two worlds that agree on a country's digest are indistinguishable to
the pipeline for that country and vantage, so a result stored under
the digest can be reused verbatim (``repro measure --since``).  The
converse is deliberately conservative: any observable change, however
inconsequential, changes the digest and forces a re-measure — a cache
miss costs time, a false hit would cost correctness.
"""

from __future__ import annotations

import hashlib
import json

from ..errors import ReproError, ResolutionError
from ..net.dns import ZoneCache
from .world import World

__all__ = ["world_slice_digest", "project_country"]

#: Bumped when the projection itself changes shape.
SLICE_SCHEMA = "repro-slice-v2"


def _project_address(world: World, address: int) -> list:
    """An address with every enrichment label the pipeline attaches."""
    return [
        address,
        world.asdb.org_of_ip(address),
        world.asdb.country_of_ip(address),
        world.geo.country_of(address),
        world.geo.continent_of(address),
        1 if world.anycast.is_anycast(address) else 0,
    ]


def _project_answer(
    world: World,
    cache: ZoneCache,
    name: str,
    continent: str | None,
    country: str | None,
) -> dict:
    """One hostname's answer from the vantage, as the resolver gives it."""
    try:
        answer = cache.answer(name.lower().rstrip("."), continent, country)
    except ResolutionError as exc:
        return {"error": [type(exc).__name__, str(exc)]}
    return {
        "addresses": [
            _project_address(world, address) for address in answer.addresses
        ],
        "chain": list(answer.cname_chain),
        "ns": list(answer.authoritative_ns),
        "min_ttl": answer.min_ttl,
    }


def project_country(
    world: World,
    country: str,
    vantage_continent: str | None,
    vantage_country: str | None = None,
    zone_cache: ZoneCache | None = None,
) -> dict:
    """The full vantage-projected observable state of one country.

    ``zone_cache`` (built for ``world.namespace``) answers every name;
    a fresh one is used when none is given.  The projection is
    JSON-ready and deterministic; its canonical digest is
    :func:`world_slice_digest`.
    """
    toplist = world.toplists.get(country)
    if toplist is None:
        raise ReproError(
            f"world has no toplist for {country!r}; cannot project"
        )
    if zone_cache is None:
        zone_cache = ZoneCache(world.namespace)
    nameservers: dict[str, dict] = {}
    sites: list[dict] = []
    for domain in toplist.domains:
        record = world.sites[domain]
        entry: dict = {"domain": domain}
        try:
            serving_host = world.http.final_host(domain)
        except ReproError as exc:
            entry["http_error"] = type(exc).__name__
            sites.append(entry)
            continue
        entry["serving_host"] = serving_host
        resolution = _project_answer(
            world, zone_cache, serving_host, vantage_continent,
            vantage_country,
        )
        entry["resolution"] = resolution
        for ns_host in resolution.get("ns", ()):
            if ns_host not in nameservers:
                nameservers[ns_host] = _project_answer(
                    world, zone_cache, ns_host, vantage_continent,
                    vantage_country,
                )
        issuer = world._site_issuer.get(domain)
        entry["tls"] = [
            record.hosting,
            record.secondary_cdn,
            issuer[0] if issuer else None,
            issuer[1] if issuer else None,
        ]
        entry["language"] = record.language
        sites.append(entry)
    return {
        "_schema": SLICE_SCHEMA,
        "country": country,
        "vantage": [vantage_continent, vantage_country],
        "dns_ttl": world.config.dns_ttl,
        "sites": sites,
        "nameservers": {
            name: nameservers[name] for name in sorted(nameservers)
        },
    }


def world_slice_digest(
    world: World,
    country: str,
    vantage_continent: str | None,
    vantage_country: str | None = None,
    zone_cache: ZoneCache | None = None,
) -> str:
    """Canonical sha256 of one country's vantage-projected slice."""
    projection = project_country(
        world, country, vantage_continent, vantage_country, zone_cache
    )
    text = json.dumps(
        projection, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
