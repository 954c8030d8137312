"""World materialization: from calibrated templates to a living network.

:class:`World` assembles the entire synthetic web in two stages.  The
*logical layer* is built on construction:

1. builds calibrated per-country, per-layer provider count targets
   (templates from :mod:`~repro.worldgen.profiles`, scores nailed by
   :mod:`~repro.worldgen.calibration`);
2. creates the globally shared site pool and each country's toplist,
   reconciling shared-site assignments against country targets with a
   residual-filling step;
3. couples the layers at the site level (sites reuse their hosting
   provider for DNS when the country's DNS target allows, and get
   certificates from their host's partner CAs — Sections 6.1/7.1).

The *network substrate* — ASes, prefixes, geolocation, anycast,
authoritative zones, nameservers, redirects and TLS issuers — is
materialized from the logical layer on first use.  Churn
(:func:`~repro.worldgen.churn.evolve`) reads only the logical layer,
so the intermediate worlds of a churn chain never build one.

Everything is a deterministic function of the :class:`WorldConfig`.
"""

from __future__ import annotations

import re
import zlib
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.reference import allocate_counts
from ..datasets.countries import COUNTRIES
from ..datasets.providers import HOSTING_CA_PARTNERSHIPS
from ..errors import CalibrationError, ReproError, TLSError
from ..net.addressing import KeyedPrefixAllocator, Prefix
from ..net.anycast import AnycastRegistry
from ..net.asdb import ASDatabase
from ..net.ccadb import CCADB, default_ccadb
from ..net.dns import Namespace
from ..net.geo import GeoDatabase
from ..net.http import HttpFabric, RedirectPolicy
from ..net.psl import CCTLD_OF_COUNTRY, PublicSuffixList, default_psl
from ..net.tls import Certificate, TLSFabric
from .calibration import calibrate_shares
from .residual import residual_counts_calibrated
from .config import WorldConfig
from .market import Provider, ProviderMarket
from .profiles import (
    LayerTemplate,
    ProfileBuilder,
    ProfileOverrides,
    hosting_affinities,
    hosting_insularity_target,
)
from .toplist import LANGUAGE_OF_COUNTRY, DomainFactory, Site, Toplist

__all__ = [
    "World",
    "SiteRecord",
    "ProviderInfra",
    "EvolutionPlan",
    "LAYER_NAMES",
]

LAYER_NAMES = ("hosting", "dns", "ca", "tld")

#: Continents where a global CDN operates points of presence.  Africa is
#: deliberately absent: the paper observes African toplists geolocating
#: to North America and Europe (Figure 8b).
_GLOBAL_POPS = ("NA", "EU", "AS", "SA", "OC")

_CONTINENT_ANCHOR = {"NA": "US", "EU": "DE", "AS": "SG", "SA": "BR", "OC": "AU"}

#: Providers headquartered outside the 150-country dataset still need a
#: continent for their home prefix.
_EXTRA_HOME_CONTINENTS = {"CN": "AS"}

_ADDRESS_VARIANTS = 32

#: Global CDNs that operate in-country cache nodes announced from local
#: ISP address space (Google-Global-Cache style).  In-country probes
#: attribute a slice of these providers' sites to the local telecom —
#: the realistic mechanism behind the paper's vantage-point divergence.
_CACHE_NODE_PROVIDERS = ("Cloudflare", "Google", "Akamai", "Amazon")

#: Shape of on-demand tail provider names (``ProviderMarket.tail_provider``);
#: used to revive identities referenced only by carried site records.
_TAIL_PROVIDER_NAME = re.compile(r"^([A-Z]{2}) Webhost (\d{4})$")


@dataclass(slots=True)
class SiteRecord:
    """Ground truth for one website (what the pipeline should measure)."""

    domain: str
    origin_country: str | None
    language: str
    is_global: bool
    hosting: str
    dns: str
    ca: str
    tld: str
    secondary_cdn: str | None = None


@dataclass(slots=True)
class ProviderInfra:
    """Materialized network presence of one provider."""

    provider: Provider
    asn: int
    continents: tuple[str, ...]
    address_variants: tuple[dict[str, int], ...]
    ns_hosts: tuple[str, ...]
    ns_domain: str
    anycast: bool

    def serving_address(self, variant: int, continent: str | None) -> int:
        """Serving IP for an address variant and vantage continent."""
        table = self.address_variants[variant % len(self.address_variants)]
        if continent is not None and continent in table:
            return table[continent]
        return table["default"]


def _slug(name: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")
    return slug or "provider"


@dataclass(frozen=True)
class EvolutionPlan:
    """Carryover state when evolving an old world into a new snapshot.

    Produced by :mod:`repro.worldgen.churn`; ``pool_records`` are the
    reused global-pool sites (in popularity order via ``pool_order``)
    and ``kept_local`` are the per-country local sites that survive
    toplist churn.  The new world stores these record objects as they
    are, shared with the old world, so no build step may mutate a
    stored record (:meth:`World._apply_language_case_studies` stores
    changed copies).  ``kept_toplists`` carries *entire*
    toplists (domain tuples, in rank order) for countries excluded from
    churn — those countries skip every stochastic draw and reproduce
    the old snapshot's toplist byte-identically, which is what lets
    incremental re-measurement reuse their stored results.
    ``calibrations`` is the old world's :attr:`World.calibrations`: a
    (country, layer) whose template comes out bit-equal reuses the
    solved targets instead of calibrating again.
    """

    overrides: ProfileOverrides
    pool_records: dict[str, "SiteRecord"]
    pool_order: tuple[str, ...]
    kept_local: dict[str, tuple["SiteRecord", ...]]
    kept_toplists: dict[str, tuple[str, ...]] = field(default_factory=dict)
    calibrations: dict[tuple[str, str], "Calibration"] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class Calibration:
    """One solved (country, layer) calibration and the inputs it solved.

    ``inputs`` is everything :func:`calibrate_shares` and the count
    allocation read: the template's share-vector bytes, its names in
    order, its target score and ``sites_per_country``.  Equal inputs
    give bit-equal ``target`` and ``report``.
    """

    inputs: tuple[bytes, tuple[str, ...], float, int]
    target: dict[str, int]
    report: dict[str, float]


class World:
    """The synthetic web: a logical layer plus its network substrate.

    Construction builds the logical layer (targets, sites, toplists).
    The substrate attributes in :attr:`_SUBSTRATE` do not exist until
    :meth:`_materialize_infrastructure` creates them, which the first
    read of any of them (:meth:`__getattr__`) or :meth:`materialize`
    does; afterwards every substrate read is a plain attribute read.
    """

    #: The attributes :meth:`_materialize_infrastructure` creates.
    _SUBSTRATE = frozenset(
        {
            "asdb", "geo", "anycast", "namespace", "tls", "http",
            "provider_infra", "_blocks", "_brand_of_ca", "_site_issuer",
            "_cache_node_cdn",
        }
    )

    def __init__(
        self,
        config: WorldConfig | None = None,
        plan: EvolutionPlan | None = None,
    ) -> None:
        self.config = config or WorldConfig()
        self._plan = plan
        self.market = ProviderMarket()
        self.psl: PublicSuffixList = default_psl()
        self.ccadb: CCADB = default_ccadb()

        self.sites: dict[str, SiteRecord] = {}
        self.toplists: dict[str, Toplist] = {}
        #: Globally shared site pool, most-popular first (the "Global
        #: Top 10k" aggregate of Figure 12 is its top ``C`` entries).
        self.global_pool_domains: list[str] = []
        self.calibration_report: dict[tuple[str, str], dict[str, float]] = {}
        #: country -> layer -> provider/CA/TLD -> target site count.
        self.targets: dict[str, dict[str, dict[str, int]]] = {}
        #: (country, layer) -> the calibration behind its targets, for
        #: the next snapshot of a churn chain to reuse.
        self.calibrations: dict[tuple[str, str], Calibration] = {}
        self._domains = DomainFactory(self.config.seed ^ 0x5EED)

        self._build()

    def __getattr__(self, name: str):
        # Normal lookup failed: a substrate attribute that does not
        # exist yet is built (all of them at once) on this first read.
        if name not in World._SUBSTRATE:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self._materialize_infrastructure()
        return self.__dict__[name]

    def materialize(self) -> "World":
        """Build the network substrate unless it exists; returns self."""
        if "namespace" not in self.__dict__:
            self._materialize_infrastructure()
        return self

    # ------------------------------------------------------------------
    # RNG plumbing
    # ------------------------------------------------------------------

    def _rng(self, *scope: str | int) -> np.random.Generator:
        parts = [self.config.seed] + [
            zlib.crc32(str(s).encode()) for s in scope
        ]
        return np.random.default_rng(parts)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def _build(self) -> None:
        templates = self._build_templates()
        self._build_targets(templates)
        pool_sites = self._build_global_pool()
        self._build_countries(pool_sites)
        self._apply_language_case_studies()

    def _build_templates(self) -> dict[tuple[str, str], LayerTemplate]:
        overrides = self._plan.overrides if self._plan is not None else None
        builder = ProfileBuilder(self.market, self.config, overrides)
        templates: dict[tuple[str, str], LayerTemplate] = {}
        for cc in self.config.countries:
            templates[(cc, "hosting")] = builder.hosting_template(cc)
            templates[(cc, "dns")] = builder.dns_template(cc)
            templates[(cc, "ca")] = builder.ca_template(cc)
            templates[(cc, "tld")] = builder.tld_template(cc)
        return templates

    def _build_targets(
        self, templates: dict[tuple[str, str], LayerTemplate]
    ) -> None:
        c = self.config.sites_per_country
        carried = self._plan.calibrations if self._plan is not None else {}
        for (cc, layer), template in templates.items():
            shares = template.shares()
            names = template.names()
            inputs = (shares.tobytes(), names, template.target_score, c)
            calibration = carried.get((cc, layer))
            if calibration is None or calibration.inputs != inputs:
                outcome = calibrate_shares(shares, template.target_score, c)
                counts = allocate_counts(outcome.shares, c)
                allocated = counts / counts.sum()
                calibration = Calibration(
                    inputs=inputs,
                    target={
                        names[i]: int(n)
                        for i, n in enumerate(counts)
                        if n > 0
                    },
                    report={
                        "theta": outcome.theta,
                        "target_score": template.target_score,
                        "calibrated_score": outcome.achieved_score,
                        "allocated_score": float(
                            allocated @ allocated - 1.0 / c
                        ),
                    },
                )
            self.calibrations[(cc, layer)] = calibration
            self.targets.setdefault(cc, {})[layer] = dict(calibration.target)
            self.calibration_report[(cc, layer)] = dict(calibration.report)

    # -- global shared pool --------------------------------------------

    def _global_mixture(
        self, layer: str, min_presence_fraction: float = 0.0
    ) -> dict[str, float]:
        """Average country target shares across all countries.

        ``min_presence_fraction`` restricts the mixture to entities
        present in at least that fraction of countries — used to build
        the hyperscaler-heavy mixture behind the truly global sites.
        """
        mass: Counter[str] = Counter()
        presence: Counter[str] = Counter()
        n_countries = len(self.config.countries)
        for cc in self.config.countries:
            target = self.targets[cc][layer]
            total = sum(target.values())
            for name, count in target.items():
                mass[name] += count / total
                presence[name] += 1
        cutoff = min(
            n_countries, max(1, int(min_presence_fraction * n_countries))
        )
        mixture = {
            name: value
            for name, value in mass.items()
            if presence[name] >= cutoff
        }
        if not mixture:
            raise CalibrationError(f"no entities for {layer}")
        grand_total = sum(mixture.values())
        return {name: value / grand_total for name, value in mixture.items()}

    def _country_mixture(self, cc: str, layer: str) -> dict[str, float]:
        """One country's target distribution as a share mixture."""
        target = self.targets[cc][layer]
        total = sum(target.values())
        return {name: count / total for name, count in target.items()}

    def _sample_counts(
        self, mixture: dict[str, float], total: int
    ) -> list[str]:
        """Expand a share mixture into an exact list of labels."""
        names = sorted(mixture)
        counts = allocate_counts(
            np.array([mixture[n] for n in names]), total
        )
        labels: list[str] = []
        for name, count in zip(names, counts):
            labels.extend([name] * int(count))
        return labels

    #: Fraction of the pool that is truly global (google.com-like: no
    #: origin country, hyperscaler-hosted, .com-heavy).  The remainder
    #: are nationally popular sites that spill across borders.
    _TRULY_GLOBAL_FRACTION = 0.7

    #: Extra origin weight for countries with large web ecosystems.
    _ORIGIN_WEIGHT_EXTRA = {
        "US": 11, "IN": 3, "BR": 3, "RU": 3, "JP": 3, "DE": 3, "GB": 3,
        "FR": 2, "ID": 2, "KR": 2, "MX": 1, "TR": 1, "CA": 1, "ES": 1,
        "IT": 1, "PL": 1, "NL": 1, "AU": 1,
    }

    def _truly_global_mixture(self, layer: str) -> dict[str, float]:
        """Distribution of the truly global sites.

        The global web's head looks like the U.S. toplist — American
        hyperscalers for hosting/DNS, .com-dominated TLDs — which is
        exactly why the Global Top marker of Figure 12 tracks the
        hosting/DNS/CA averages but not the TLD one.  Falls back to the
        broadly-present mixture when the U.S. is not in the study.
        """
        if "US" in self.targets:
            return self._country_mixture("US", layer)
        return self._global_mixture(layer, min_presence_fraction=0.25)

    def _assign_block(
        self,
        k: int,
        hosting_mixture: dict[str, float],
        dns_mixture: dict[str, float],
        ca_mixture: dict[str, float],
        tld_mixture: dict[str, float],
        rng: np.random.Generator,
    ) -> tuple[list[str], list[str], list[str], list[str]]:
        """Assign all four layers for a block of ``k`` pool sites,
        coupling DNS to hosting and CAs to host partnerships."""
        hosting = self._sample_counts(hosting_mixture, k)
        tld = self._sample_counts(tld_mixture, k)
        rng.shuffle(hosting)
        rng.shuffle(tld)
        dns_budget = Counter(self._sample_counts(dns_mixture, k))
        ca_labels = self._sample_counts(ca_mixture, k)
        ca_budget = Counter(ca_labels)
        ca_initial = dict(ca_budget)

        assigned_dns: list[str] = []
        assigned_ca: list[str] = []
        for i in range(k):
            host = hosting[i]
            provider = self.market.get(host)
            if (
                provider is not None
                and provider.offers_dns
                and dns_budget.get(host, 0) > 0
            ):
                assigned_dns.append(host)
                dns_budget[host] -= 1
            else:
                assigned_dns.append("")
            assigned_ca.append(self._pick_ca(host, ca_budget, ca_initial))
        leftovers = [
            name
            for name, count in sorted(dns_budget.items())
            for _ in range(count)
        ]
        rng.shuffle(leftovers)
        it = iter(leftovers)
        assigned_dns = [d if d else next(it) for d in assigned_dns]
        return hosting, assigned_dns, assigned_ca, tld

    def _build_global_pool(self) -> list[Site]:
        if self._plan is not None:
            # Reuse the previous snapshot's pool: global sites persist
            # across measurement epochs.
            self._domains.reserve(set(self._plan.pool_records))
            sites: list[Site] = []
            for domain in self._plan.pool_order:
                old = self._plan.pool_records[domain]
                self.sites[domain] = old
                self.global_pool_domains.append(domain)
                sites.append(
                    Site(
                        domain=domain,
                        origin_country=old.origin_country,
                        language=old.language,
                        is_global=True,
                    )
                )
            return sites

        c = self.config.sites_per_country
        n_pool = int(self.config.global_pool_factor * c)
        rng = self._rng("global-pool")
        n_global = int(self._TRULY_GLOBAL_FRACTION * n_pool)

        # Origin countries for the nationally popular remainder.
        origin_weights = {
            cc: 1.0 + self._ORIGIN_WEIGHT_EXTRA.get(cc, 0)
            for cc in self.config.countries
        }
        origins = sorted(origin_weights)
        origin_counts = allocate_counts(
            np.array([origin_weights[o] for o in origins]),
            n_pool - n_global,
        )

        # Assign layers block by block: the global block from the
        # hyperscaler mixture, each origin block from its country's own
        # calibrated distribution.
        blocks: list[tuple[str | None, list[str], list[str], list[str], list[str]]] = []
        global_assignment = self._assign_block(
            n_global,
            self._truly_global_mixture("hosting"),
            self._truly_global_mixture("dns"),
            self._truly_global_mixture("ca"),
            self._truly_global_mixture("tld"),
            rng,
        )
        blocks.append((None, *global_assignment))
        for origin, k in zip(origins, origin_counts):
            if k == 0:
                continue
            blocks.append(
                (
                    origin,
                    *self._assign_block(
                        int(k),
                        self._country_mixture(origin, "hosting"),
                        self._country_mixture(origin, "dns"),
                        self._country_mixture(origin, "ca"),
                        self._country_mixture(origin, "tld"),
                        rng,
                    ),
                )
            )

        # Flatten into one (origin, hosting, dns, ca, tld) stream, then
        # order it so the truly global sites dominate the popular head.
        rows: list[tuple[str | None, str, str, str, str]] = []
        for origin, hosting, dns, ca, tld in blocks:
            for i in range(len(hosting)):
                rows.append((origin, hosting[i], dns[i], ca[i], tld[i]))
        priority = np.where(
            np.array([row[0] is None for row in rows]),
            rng.random(len(rows)),
            1.0 + rng.random(len(rows)),
        )
        order = np.argsort(priority, kind="stable")
        rows = [rows[int(i)] for i in order]

        secondary_pool = ["Akamai", "Fastly", "Google", "Microsoft"]
        n_multi = int(self.config.multi_cdn_fraction * n_pool)
        global_positions = [
            i for i, row in enumerate(rows) if row[0] is None
        ]
        multi_indices: set[int] = set()
        if n_multi and global_positions:
            picks = rng.choice(
                len(global_positions),
                size=min(n_multi, len(global_positions)),
                replace=False,
            )
            multi_indices = {global_positions[int(i)] for i in picks}

        sites: list[Site] = []
        for i, (origin, hosting, dns, ca, tld) in enumerate(rows):
            domain = self._domains.make(tld, hint="g")
            if origin is None:
                language = "en" if rng.random() < 0.85 else "es"
            else:
                language = LANGUAGE_OF_COUNTRY[origin]
            site = Site(
                domain=domain,
                origin_country=origin,
                language=language,
                is_global=True,
            )
            sites.append(site)
            secondary = None
            if i in multi_indices:
                choices = [s for s in secondary_pool if s != hosting]
                secondary = choices[int(rng.integers(0, len(choices)))]
            self.sites[domain] = SiteRecord(
                domain=domain,
                origin_country=origin,
                language=language,
                is_global=True,
                hosting=hosting,
                dns=dns,
                ca=ca,
                tld=tld,
                secondary_cdn=secondary,
            )
            self.global_pool_domains.append(domain)
        return sites

    def _pick_ca(
        self,
        host: str,
        ca_budget: Counter[str],
        ca_initial: dict[str, int] | None = None,
    ) -> str:
        """Choose a CA honoring hosting/CA partnerships when possible.

        The fallback keeps the draw *proportionally balanced*: it picks
        the CA with the highest remaining/initial ratio, so any prefix
        of the assignment stream approximates the target mixture (the
        popular head of the pool must not drain one CA first).
        """
        partnerships = HOSTING_CA_PARTNERSHIPS.get(host)
        if partnerships:
            best, best_score = None, -1.0
            for ca_name, weight in partnerships:
                remaining = ca_budget.get(ca_name, 0)
                if remaining > 0 and remaining * weight > best_score:
                    best, best_score = ca_name, remaining * weight
            if best is not None:
                ca_budget[best] -= 1
                return best

        def ratio(name: str) -> float:
            if ca_initial is None:
                return float(ca_budget[name])
            return ca_budget[name] / max(ca_initial.get(name, 1), 1)

        best = max(
            (name for name, count in ca_budget.items() if count > 0),
            key=lambda name: (ratio(name), ca_budget[name], name),
            default=None,
        )
        if best is None:
            raise CalibrationError("CA budget exhausted")
        ca_budget[best] -= 1
        return best

    # -- per-country assembly ------------------------------------------

    def _shared_fraction(self, cc: str) -> float:
        insular = hosting_insularity_target(cc)
        return self.config.shared_site_base_fraction * (1.0 - 0.75 * insular)

    def _selection_weights(
        self, cc: str, pool_sites: list[Site], popularity: np.ndarray
    ) -> np.ndarray:
        """Per-country weights over the shared pool.

        A country samples globally popular sites by popularity, but
        nationally popular foreign sites mostly spill into their own
        country, their neighborhood, and their geopolitical affinities
        (a Russian site is far likelier in a CIS toplist than a
        Brazilian one).
        """
        affinity_homes = {home for home, _ in hosting_affinities(cc)}
        me = COUNTRIES[cc]
        factors = np.empty(len(pool_sites))
        for i, site in enumerate(pool_sites):
            origin = site.origin_country
            if origin is None:
                factor = 1.2
            elif origin == cc:
                factor = 6.0
            elif origin in affinity_homes:
                factor = 1.8
            else:
                other = COUNTRIES[origin]
                if other.subregion == me.subregion:
                    factor = 2.0
                elif other.continent == me.continent:
                    factor = 1.3
                else:
                    factor = 0.6
            factors[i] = factor
        weights = popularity * factors
        return weights / weights.sum()

    def _build_countries(self, pool_sites: list[Site]) -> None:
        n_pool = len(pool_sites)
        # Global-pool popularity: Zipf weights over pool index.
        popularity = 1.0 / np.arange(1, n_pool + 1, dtype=float)
        popularity /= popularity.sum()
        c = self.config.sites_per_country

        kept_local = (
            self._plan.kept_local if self._plan is not None else {}
        )
        if kept_local:
            self._domains.reserve(
                {
                    record.domain
                    for records in kept_local.values()
                    for record in records
                }
            )

        kept_toplists = (
            self._plan.kept_toplists if self._plan is not None else {}
        )

        for cc in self.config.countries:
            if cc in kept_toplists:
                # The country is excluded from churn: reproduce its old
                # toplist exactly (local records carried via kept_local
                # in rank order, shared sites already materialized from
                # the carried pool) without consuming any randomness.
                for old in kept_local.get(cc, ()):
                    self.sites[old.domain] = old
                self.toplists[cc] = Toplist(
                    country=cc, domains=tuple(kept_toplists[cc])
                )
                continue
            rng = self._rng("country", cc)
            kept_records = kept_local.get(cc, ())
            max_shared = c - len(kept_records)
            n_shared = min(
                int(self._shared_fraction(cc) * c), n_pool, max_shared
            )
            shared_idx = rng.choice(
                n_pool,
                size=n_shared,
                replace=False,
                p=self._selection_weights(cc, pool_sites, popularity),
            )
            shared_idx = np.sort(shared_idx)
            shared_domains = [pool_sites[int(i)].domain for i in shared_idx]

            kept_domains: list[str] = []
            for old in kept_records:
                self.sites[old.domain] = old
                kept_domains.append(old.domain)

            used: dict[str, Counter[str]] = {
                layer: Counter() for layer in LAYER_NAMES
            }
            for domain in shared_domains + kept_domains:
                record = self.sites[domain]
                used["hosting"][record.hosting] += 1
                used["dns"][record.dns] += 1
                used["ca"][record.ca] += 1
                used["tld"][record.tld] += 1

            slots = c - n_shared - len(kept_domains)
            residual = {
                layer: residual_counts_calibrated(
                    self.targets[cc][layer],
                    used[layer],
                    slots,
                    self.calibration_report[(cc, layer)]["target_score"],
                )
                for layer in LAYER_NAMES
            }

            new_domains = self._create_local_sites(cc, residual, slots, rng)
            local_domains = kept_domains + new_domains
            if kept_domains and new_domains:
                order = rng.permutation(len(local_domains))
                local_domains = [local_domains[int(i)] for i in order]

            # Interleave shared (popular) sites toward the top.
            merged: list[str] = []
            shared_iter = iter(shared_domains)
            local_iter = iter(local_domains)
            shared_left = n_shared
            local_left = len(local_domains)
            for rank in range(c):
                remaining = c - rank
                take_shared = shared_left > 0 and (
                    local_left == 0
                    or rng.random() < 1.6 * shared_left / remaining
                )
                if take_shared:
                    merged.append(next(shared_iter))
                    shared_left -= 1
                else:
                    merged.append(next(local_iter))
                    local_left -= 1
            self.toplists[cc] = Toplist(country=cc, domains=tuple(merged))

    def _create_local_sites(
        self,
        cc: str,
        residual: dict[str, dict[str, int]],
        slots: int,
        rng: np.random.Generator,
    ) -> list[str]:
        hosting_labels = [
            name
            for name, count in sorted(residual["hosting"].items())
            for _ in range(count)
        ]
        tld_labels = [
            name
            for name, count in sorted(residual["tld"].items())
            for _ in range(count)
        ]
        rng.shuffle(hosting_labels)
        rng.shuffle(tld_labels)
        dns_budget = Counter(residual["dns"])
        ca_budget = Counter(residual["ca"])
        ca_initial = dict(ca_budget)
        language = LANGUAGE_OF_COUNTRY[cc]
        cctld = CCTLD_OF_COUNTRY[cc]

        domains: list[str] = []
        deferred_dns: list[int] = []
        records: list[SiteRecord] = []
        for i in range(slots):
            host = hosting_labels[i]
            tld = tld_labels[i]
            suffix = tld
            if tld == cctld and rng.random() < 0.3:
                # Second-level registration (co.uk style) when the
                # registry supports it.
                for second in ("co", "com", "org"):
                    candidate = f"{second}.{tld}"
                    if self.psl.is_public_suffix(candidate):
                        suffix = candidate
                        break
            domain = self._domains.make(suffix, hint=cc.lower())
            provider = self.market.get(host)
            if (
                provider is not None
                and provider.offers_dns
                and dns_budget.get(host, 0) > 0
            ):
                dns = host
                dns_budget[host] -= 1
            else:
                dns = ""
                deferred_dns.append(i)
            record = SiteRecord(
                domain=domain,
                origin_country=cc,
                language=language,
                is_global=False,
                hosting=host,
                dns=dns,
                ca=self._pick_ca(host, ca_budget, ca_initial),
                tld=tld,
            )
            records.append(record)
            domains.append(domain)
            self.sites[domain] = record

        leftovers = [
            name
            for name, count in sorted(dns_budget.items())
            for _ in range(count)
        ]
        rng.shuffle(leftovers)
        for i, dns_name in zip(deferred_dns, leftovers):
            records[i].dns = dns_name
        # If budgets misalign (rounding), backfill with the host itself.
        for i in deferred_dns[len(leftovers):]:
            records[i].dns = records[i].hosting
        return domains

    def _apply_language_case_studies(self) -> None:
        """Afghanistan/Iran Persian-language coupling (Section 5.3.3).

        31.4% of Afghan top sites are Persian; 60.8% of the Persian
        sites are hosted in Iran — realized by making nearly all
        Iranian-hosted Afghan sites Persian and topping up the rest.
        Records carried from an older snapshot are shared with it, so
        each language lands in a copy stored in :attr:`sites`.
        """
        if "AF" not in self.config.countries:
            return
        if self._plan is not None and "AF" in self._plan.kept_toplists:
            # Afghanistan carried byte-identically: its records already
            # hold the languages this pass assigned in the old epoch.
            return
        rng = self._rng("lang", "AF")
        af_sites = [
            self.sites[d]
            for d in self.toplists["AF"].domains
            if not self.sites[d].is_global
        ]
        if not af_sites:
            return
        target_persian = 0.314 * len(self.toplists["AF"].domains)
        persian = 0
        languages: dict[str, str] = {}
        others: list[str] = []
        for record in af_sites:
            home = self.market.home_country_of(record.hosting)
            # 60.8% of Persian AF sites are in Iran while ~20% of all
            # AF sites are — so nearly all (but not all) Iranian-hosted
            # Afghan sites are Persian.
            if home == "IR" and rng.random() < 0.955:
                languages[record.domain] = "fa"
                persian += 1
            else:
                languages[record.domain] = "ps"
                others.append(record.domain)
        deficit = max(0, int(target_persian) - persian)
        if others and deficit:
            picks = rng.choice(
                len(others), size=min(deficit, len(others)), replace=False
            )
            for i in picks:
                languages[others[int(i)]] = "fa"
        for domain, language in languages.items():
            self.sites[domain] = replace(self.sites[domain], language=language)

    # ------------------------------------------------------------------
    # Infrastructure materialization
    # ------------------------------------------------------------------

    def _home_continent(self, country: str) -> str:
        if country in COUNTRIES:
            return COUNTRIES[country].continent
        return _EXTRA_HOME_CONTINENTS.get(country, "NA")

    def _countries_served(self) -> dict[str, set[str]]:
        served: dict[str, set[str]] = {}
        for cc in self.config.countries:
            for layer in ("hosting", "dns"):
                for name in self.targets[cc][layer]:
                    served.setdefault(name, set()).add(cc)
        return served

    def _materialize_provider(
        self, name: str, n_countries_served: int
    ) -> ProviderInfra:
        provider = self.market.get(name)
        if provider is None:
            # Tail providers are created in the market on demand while
            # drawing targets; a carried site record (evolution with
            # restricted churn) can reference one that the new draw
            # never touched.  Its identity is a pure function of the
            # name, so revive it rather than falling back to a US-homed
            # placeholder — the revived home country keeps the carried
            # country's observables (geo labels) byte-stable.
            match = _TAIL_PROVIDER_NAME.match(name)
            if match is not None:
                provider = self.market.tail_provider(
                    match.group(1), int(match.group(2))
                )
            else:  # pragma: no cover - defensive
                provider = Provider(name=name, home_country="US")
        home = provider.home_country
        home_continent = self._home_continent(home)

        is_global = n_countries_served >= 20 or provider.anycast
        if is_global:
            continents = tuple(
                dict.fromkeys(list(_GLOBAL_POPS))
            )
        else:
            continents = (home_continent,)

        prefix_len = 20 if is_global else 24
        tables: list[dict[str, int]] = [
            {} for _ in range(_ADDRESS_VARIANTS)
        ]
        for continent in continents:
            geo_country = (
                home
                if continent == home_continent and not is_global
                else _CONTINENT_ANCHOR.get(continent, "US")
            )
            if is_global and continent == home_continent:
                geo_country = home if home in COUNTRIES else geo_country
            prefix = self._blocks.allocate(f"provider:{name}", prefix_len)
            self.asdb_register_or_announce(name, home, prefix)
            self.geo.register(prefix, geo_country, continent)
            for variant in range(_ADDRESS_VARIANTS):
                tables[variant][continent] = prefix.address(variant)
        default_continent = (
            home_continent if home_continent in continents else continents[0]
        )
        if is_global:
            default_continent = "NA" if "NA" in continents else continents[0]
        for variant in range(_ADDRESS_VARIANTS):
            tables[variant]["default"] = tables[variant][default_continent]

        if name in _CACHE_NODE_PROVIDERS:
            self._install_cache_nodes(name, tables)

        # Nameserver presence.
        slug = _slug(name)
        ns_domain = f"{slug}-dns.com"
        suffix_tag = 1
        while self.namespace.zone(ns_domain) is not None:
            suffix_tag += 1
            ns_domain = f"{slug}{suffix_tag}-dns.com"
        zone = self.namespace.create_zone(ns_domain)
        ns_hosts = (f"ns1.{ns_domain}", f"ns2.{ns_domain}")
        if provider.anycast:
            ns_prefix = self._blocks.allocate(f"provider:{name}", 24)
            self.anycast.add(ns_prefix)
            self.geo.register(ns_prefix, "US", "NA")
            ns_addresses = (ns_prefix.address(1), ns_prefix.address(2))
        else:
            ns_prefix = self._blocks.allocate(f"provider:{name}", 26)
            self.geo.register(ns_prefix, home if home in COUNTRIES else "US",
                              home_continent)
            ns_addresses = (ns_prefix.address(1), ns_prefix.address(2))
        self.asdb_register_or_announce(name, home, ns_prefix)
        zone.add("@", "NS", ns_hosts[0], ttl=self.config.dns_ttl)
        zone.add("@", "NS", ns_hosts[1], ttl=self.config.dns_ttl)
        zone.add("ns1", "A", ns_addresses[0], ttl=self.config.dns_ttl)
        zone.add("ns2", "A", ns_addresses[1], ttl=self.config.dns_ttl)

        return ProviderInfra(
            provider=provider,
            asn=self.asdb.asns_of_org(name)[0],
            continents=continents,
            address_variants=tuple(tables),
            ns_hosts=ns_hosts,
            ns_domain=ns_domain,
            anycast=provider.anycast,
        )

    def _install_cache_nodes(
        self, provider_name: str, tables: list[dict[str, int]]
    ) -> None:
        """Give a global CDN in-country cache nodes in some countries.

        The cache address space is announced by the local telecom's AS,
        so an in-country probe attributes a slice (a few address
        variants' worth) of the CDN's sites to the local organization.
        Only country-keyed entries are added: the Stanford (NA) vantage
        never sees them, keeping calibration exact.
        """
        rng = self._rng("cache-nodes", provider_name)
        for cc in self.config.countries:
            if cc == "US":
                continue
            n_variants = int(rng.integers(0, 8))
            if n_variants == 0:
                continue
            pool = self.market.local_large(cc)
            if not pool:
                continue
            telecom = pool[min(1, len(pool) - 1)]
            prefix = self._blocks.allocate(
                f"cache:{provider_name}:{cc}", 26
            )
            self.asdb_register_or_announce(telecom.name, cc, prefix)
            self.geo.register(prefix, cc, self._home_continent(cc))
            picks = rng.choice(
                _ADDRESS_VARIANTS, size=n_variants, replace=False
            )
            for j, variant in enumerate(picks):
                tables[int(variant)][f"cc:{cc}"] = prefix.address(j)
                self._cache_node_cdn[prefix.address(j)] = provider_name

    def asdb_register_or_announce(
        self, org: str, country: str, prefix: Prefix
    ) -> None:
        """Register a new AS for the org, or announce the prefix from its existing one."""
        asns = self.asdb.asns_of_org(org)
        if asns:
            self.asdb.announce(asns[0], prefix)
        else:
            self.asdb.register(org, country, (prefix,))

    def _materialize_infrastructure(self) -> None:
        self.asdb = ASDatabase()
        self.geo = GeoDatabase(
            error_rate=self.config.geo_error_rate, seed=self.config.seed
        )
        self.anycast = AnycastRegistry()
        self.namespace = Namespace(self.psl)
        self.tls = TLSFabric()
        self.http = HttpFabric()
        self.provider_infra: dict[str, ProviderInfra] = {}
        #: Keyed allocation: each provider (and each cache node) owns a
        #: hash-placed /16 block, so its addresses depend only on its
        #: own key and request sequence — not on which other providers
        #: exist.  This is what keeps an unchanged provider's addresses
        #: stable across world epochs (incremental re-measurement).
        self._blocks = KeyedPrefixAllocator()
        self._brand_of_ca: dict[str, str] = {}
        self._site_issuer: dict[str, tuple[str, str]] = {}
        #: In-country cache-node address -> the CDN it caches for.  The
        #: node sits in the telecom's address space but terminates TLS
        #: for the CDN's customers, like an embedded CDN cache does.
        self._cache_node_cdn: dict[int, str] = {}

        served = self._countries_served()
        # Carried-over sites may reference providers that fell out of
        # every target (longitudinal churn); they still need presence.
        for record in self.sites.values():
            for name in (record.hosting, record.dns, record.secondary_cdn):
                if name and name not in served:
                    served[name] = {record.origin_country or "US"}
        for name in sorted(served):
            self.provider_infra[name] = self._materialize_provider(
                name, len(served[name])
            )

        # Per-site zones and certificates.
        for domain, record in self.sites.items():
            zone = self.namespace.create_zone(domain)
            dns_infra = self.provider_infra[record.dns]
            host_infra = self.provider_infra[record.hosting]
            for ns_host in dns_infra.ns_hosts:
                zone.add("@", "NS", ns_host, ttl=self.config.dns_ttl)
            variant = zlib.crc32(domain.encode()) % _ADDRESS_VARIANTS
            table = dict(
                host_infra.address_variants[variant]
            )
            if record.secondary_cdn is not None:
                secondary = self.provider_infra.get(record.secondary_cdn)
                if secondary is not None:
                    # The secondary CDN wins the mapping outside North
                    # America (multi-CDN load balancing differs by
                    # client region) — the source of vantage-point
                    # divergence in Section 3.4.
                    for continent in ("EU", "AS", "SA", "OC", "AF"):
                        if continent in secondary.address_variants[variant]:
                            table[continent] = secondary.address_variants[
                                variant
                            ][continent]
            zone.add("@", "A", table, ttl=self.config.dns_ttl)
            # Roughly a third of the web redirects its apex to www
            # (deterministic per domain); those sites also publish a
            # www address record for the scanner to follow.
            if zlib.crc32(b"www:" + domain.encode()) % 100 < 35:
                self.http.set_policy(domain, RedirectPolicy.TO_WWW)
                zone.add("www", "A", table, ttl=self.config.dns_ttl)
            self._site_issuer[domain] = self._issuer_for(record.ca)

    def _issuer_for(self, ca_owner: str) -> tuple[str, str]:
        brand = self._brand_of_ca.get(ca_owner)
        if brand is None:
            from ..net.ccadb import _KNOWN_BRANDS

            brands = _KNOWN_BRANDS.get(ca_owner)
            brand = brands[0] if brands else ca_owner
            self._brand_of_ca[ca_owner] = brand
        return brand, ca_owner

    # ------------------------------------------------------------------
    # Runtime services used by the pipeline
    # ------------------------------------------------------------------

    def tls_handshake(
        self,
        address: int,
        sni: str,
        fault_hook: "Callable[[int, str], None] | None" = None,
    ) -> Certificate:
        """Complete a TLS handshake with a hosting IP for a site.

        Certificates are minted on demand (deterministically) so that a
        million-site world does not hold a million certificate objects;
        the handshake still validates that the address actually serves
        the SNI's hosting provider.  ``www.<domain>`` SNIs (reached by
        following a redirect) are served wildcard certificates for the
        registrable domain.

        ``fault_hook`` is called as ``hook(address, sni)`` before the
        connection is attempted; it models connection-level faults
        (flaps, timeouts) by raising, the way a real handshake fails
        before any certificate is seen.
        """
        sni = sni.lower().rstrip(".")
        if fault_hook is not None:
            fault_hook(address, sni)
        registrable = sni
        if sni not in self.sites:
            try:
                registrable = self.psl.split(sni).registrable
            except ReproError:
                raise TLSError(f"no certificate provisioned for {sni!r}")
        issuer = self._site_issuer.get(registrable)
        record = self.sites.get(registrable)
        if issuer is None or record is None:
            raise TLSError(f"no certificate provisioned for {sni!r}")
        org = self.asdb.org_of_ip(address)
        valid_orgs = {record.hosting}
        if record.secondary_cdn is not None:
            valid_orgs.add(record.secondary_cdn)
        if (
            org not in valid_orgs
            and self._cache_node_cdn.get(address) not in valid_orgs
        ):
            raise TLSError(
                f"{sni!r} is not served at address {address} (org {org!r})"
            )
        issuer_cn, issuer_org = issuer
        return self.tls.issue(
            hostname=registrable,
            issuer_cn=issuer_cn,
            issuer_org=issuer_org,
            wildcard=sni != registrable,
        )

    def page_content(self, domain: str) -> str:
        """The text snippet a site serves (deterministic per domain).

        This is what the pipeline's language-detection step consumes —
        the site's language is never read off the record, it is
        *detected* from content, as the paper does with LangDetect.
        """
        from ..text import generate_text

        record = self.sites.get(domain.lower().rstrip("."))
        if record is None:
            raise TLSError(f"no site {domain!r} to fetch content from")
        return generate_text(record.language, record.domain)

    def ground_truth_counts(self, cc: str, layer: str) -> dict[str, int]:
        """Realized per-layer counts for a country's toplist."""
        counts: Counter[str] = Counter()
        for domain in self.toplists[cc].domains:
            record = self.sites[domain]
            counts[getattr(record, layer)] += 1
        return dict(counts)

    def provider_home(self, name: str) -> str | None:
        """Home country of a provider by name."""
        infra = self.provider_infra.get(name)
        if infra is not None:
            return infra.provider.home_country
        return self.market.home_country_of(name)

