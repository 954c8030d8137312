"""The provider market: every hosting/DNS organization in the world.

Seeds the named providers from :mod:`repro.datasets.providers` and
fabricates the long tail — per-country regional providers and the pool
of small global providers — with deterministic names.  Providers are
identities only at this stage; ASes, prefixes, and zones are attached
during world materialization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..datasets.countries import COUNTRIES, country
from ..datasets.providers import (
    GLOBAL_DNS_SEEDS,
    GLOBAL_HOSTING_SEEDS,
    NAMED_REGIONAL_SEEDS,
    ProviderSeed,
)

__all__ = ["Provider", "ProviderMarket"]


@dataclass(frozen=True, slots=True)
class Provider:
    """One hosting/DNS organization."""

    name: str
    home_country: str
    anycast: bool = False
    offers_hosting: bool = True
    offers_dns: bool = True
    seeded_tier: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("provider name must be nonempty")


# Deterministic syllables for fabricated regional provider brands.
_SYLLABLES = (
    "net", "web", "data", "host", "tele", "cloud", "serv", "link",
    "digi", "core", "byte", "grid", "nova", "zone", "wire", "peak",
)


def _brand(cc: str, index: int) -> str:
    """A deterministic, readable brand name for a fabricated provider."""
    a = _SYLLABLES[(index * 7 + ord(cc[0])) % len(_SYLLABLES)]
    b = _SYLLABLES[(index * 13 + ord(cc[1])) % len(_SYLLABLES)]
    return f"{a.capitalize()}{b} {cc}"


@functools.cache
def _dataset_roster() -> tuple:
    """The dataset-derived providers and per-country pools, built once
    per process: (name index, large, small and DNS-only regional pools
    by country, small-global pool)."""
    providers: dict[str, Provider] = {}
    local_large: dict[str, list[Provider]] = {}
    local_small: dict[str, list[Provider]] = {}
    local_dns: dict[str, list[Provider]] = {}

    def add(provider: Provider) -> Provider:
        return providers.setdefault(provider.name, provider)

    def add_seed(seed: ProviderSeed, dns_only: bool = False) -> Provider:
        return add(
            Provider(
                name=seed.name,
                home_country=seed.home_country,
                anycast=seed.anycast,
                offers_hosting=not dns_only,
                offers_dns=seed.offers_dns,
                seeded_tier=seed.tier,
            )
        )

    for seed in GLOBAL_HOSTING_SEEDS:
        add_seed(seed)
    for seed in GLOBAL_DNS_SEEDS:
        add_seed(seed, dns_only=True)
    for seed in NAMED_REGIONAL_SEEDS:
        provider = add_seed(seed)
        home = provider.home_country
        if home in COUNTRIES:
            pool = local_large if seed.tier == "L-RP" else local_small
            pool.setdefault(home, []).append(provider)

    # Fabricated small-global providers, HQ'd mostly in the US with
    # some in Western Europe (mirrors the real market).
    hq_cycle = ("US", "US", "US", "US", "DE", "NL", "GB", "US", "FR", "US")
    small_global = tuple(
        add(
            Provider(
                name=f"GlobalEdge {i:03d}",
                home_country=hq_cycle[i % len(hq_cycle)],
            )
        )
        for i in range(ProviderMarket.SMALL_GLOBAL_POOL_SIZE)
    )

    # Per-country regional pools.
    for cc in COUNTRIES:
        name = country(cc).name
        large = local_large.setdefault(cc, [])
        while len(large) < 4:
            idx = len(large)
            label = (
                f"{name} Hosting"
                if idx == 0
                else f"{name} Telecom"
                if idx == 1
                else _brand(cc, idx)
            )
            large.append(add(Provider(name=label, home_country=cc)))
        small = local_small.setdefault(cc, [])
        while len(small) < 6:
            small.append(
                add(Provider(name=_brand(cc, 10 + len(small)), home_country=cc))
            )
        dns = local_dns.setdefault(cc, [])
        while len(dns) < 3:
            dns.append(
                add(
                    Provider(
                        name=f"{_brand(cc, 20 + len(dns))} DNS",
                        home_country=cc,
                        offers_hosting=False,
                    )
                )
            )

    return (
        providers,
        {cc: tuple(pool) for cc, pool in local_large.items()},
        {cc: tuple(pool) for cc, pool in local_small.items()},
        {cc: tuple(pool) for cc, pool in local_dns.items()},
        small_global,
    )


class ProviderMarket:
    """Registry of all providers with per-country pools.

    Pools
    -----
    * ``global_seeds`` — the named hyperscalers and managed DNS.
    * ``small_global_pool`` — ~110 fabricated US/EU-headquartered
      providers that pick up small shares in many countries (they
      become the M-GP/S-GP classes).
    * per-country ``local_large`` / ``local_small`` pools — named +
      fabricated regional providers.
    * ``tail_provider(cc, i)`` — on-demand extra-small regional
      providers (the XS-RP long tail).

    The dataset-derived roster (everything but the tail) is built once
    per process; each market holds its own name index, which only
    :meth:`tail_provider` extends.
    """

    SMALL_GLOBAL_POOL_SIZE = 110

    def __init__(self) -> None:
        (
            providers,
            self._local_large,
            self._local_small,
            self._local_dns,
            self._small_global,
        ) = _dataset_roster()
        self._providers: dict[str, Provider] = dict(providers)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def provider(self, name: str) -> Provider:
        """Provider by exact name (raises KeyError if absent)."""
        return self._providers[name]

    def get(self, name: str) -> Provider | None:
        """Provider by name, or None."""
        return self._providers.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._providers

    def __len__(self) -> int:
        return len(self._providers)

    def home_country_of(self, name: str) -> str | None:
        """A provider's home country (None if unknown)."""
        provider = self._providers.get(name)
        return provider.home_country if provider else None

    def local_large(self, cc: str) -> list[Provider]:
        """Large regional providers headquartered in a country."""
        return list(self._local_large.get(cc, ()))

    def local_small(self, cc: str) -> list[Provider]:
        """Small regional providers headquartered in a country."""
        return list(self._local_small.get(cc, ()))

    def local_dns(self, cc: str) -> list[Provider]:
        """DNS-only regional operators (registrars etc.)."""
        return list(self._local_dns.get(cc, ()))

    def small_global(self) -> list[Provider]:
        """The fabricated small-global provider pool."""
        return list(self._small_global)

    def tail_provider(self, cc: str, index: int) -> Provider:
        """The ``index``-th extra-small regional provider of a country.

        Created on demand; repeated calls return the same identity.
        """
        name = f"{cc} Webhost {index:04d}"
        existing = self._providers.get(name)
        if existing is not None:
            return existing
        provider = self._providers[name] = Provider(name=name, home_country=cc)
        return provider
