"""World generator configuration.

The defaults describe the paper-scale study (150 countries x 10K
websites).  Tests and benchmarks shrink ``sites_per_country`` (the
Centralization Score's ``C``) and/or the country set; all calibration
adapts to the configured scale, so the *shape* of every result is
preserved at any size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..datasets.countries import COUNTRY_CODES
from ..errors import InvalidDistributionError, UnknownCountryError

__all__ = ["WorldConfig", "SMALL_SCALE", "BENCH_SCALE", "PAPER_SCALE"]


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """Parameters of the synthetic web.

    Attributes
    ----------
    seed:
        Master RNG seed; the entire world is a deterministic function
        of the configuration.
    sites_per_country:
        Toplist length per country (the paper's ``C`` is 10,000).
    countries:
        ISO codes to include (default: all 150).
    shared_site_base_fraction:
        Base fraction of each toplist drawn from the globally shared
        site pool; the effective fraction shrinks with the country's
        insularity target (insular webs share fewer sites).
    global_pool_factor:
        Size of the global shared pool relative to ``sites_per_country``.
    multi_cdn_fraction:
        Fraction of globally shared sites served by a different CDN
        depending on the client continent (drives the vantage-point
        correlation below 1.0, Section 3.4).
    geo_error_rate:
        Country-level mislabel rate of the geolocation database (the
        paper cites 89.4% NetAcuity accuracy, i.e. ~0.106 error).
    dns_ttl:
        TTL of the simulated zones' NS and A records (exercises
        resolver caching).
    snapshot:
        Label of the measurement epoch ("2023-05" or the longitudinal
        follow-up "2025-05").
    """

    seed: int = 20230501
    #: Seed for the per-country template heuristics; defaults to
    #: ``seed``.  The longitudinal churn model pins this to the old
    #: snapshot's value so that only the *modeled* drift (Cloudflare
    #: deltas, score targets) changes between snapshots, not the
    #: template jitter.
    template_seed: int | None = None
    sites_per_country: int = 10_000
    countries: tuple[str, ...] = COUNTRY_CODES
    shared_site_base_fraction: float = 0.30
    global_pool_factor: float = 2.0
    multi_cdn_fraction: float = 0.035
    geo_error_rate: float = 0.0
    dns_ttl: int = 300
    snapshot: str = "2023-05"

    def __post_init__(self) -> None:
        if self.sites_per_country < 50:
            raise InvalidDistributionError(
                "sites_per_country must be at least 50 for calibration "
                f"to be meaningful, got {self.sites_per_country}"
            )
        if not self.countries:
            raise InvalidDistributionError("country set must be nonempty")
        unknown = [c for c in self.countries if c not in COUNTRY_CODES]
        if unknown:
            raise UnknownCountryError(
                f"countries not in the 150-country dataset: {unknown}"
            )
        if len(set(self.countries)) != len(self.countries):
            raise InvalidDistributionError("duplicate country codes")
        if not 0.0 <= self.shared_site_base_fraction <= 0.8:
            raise InvalidDistributionError(
                "shared_site_base_fraction must be in [0, 0.8]"
            )
        if not 0.0 <= self.multi_cdn_fraction <= 0.5:
            raise InvalidDistributionError(
                "multi_cdn_fraction must be in [0, 0.5]"
            )
        if not 0.0 <= self.geo_error_rate < 1.0:
            raise InvalidDistributionError("geo_error_rate must be in [0, 1)")

    @property
    def effective_template_seed(self) -> int:
        """The seed the template heuristics actually use."""
        return self.template_seed if self.template_seed is not None else self.seed

    def with_countries(self, countries: tuple[str, ...]) -> "WorldConfig":
        """Copy of the config with a different country set."""
        return replace(self, countries=tuple(countries))

    def scaled(self, sites_per_country: int) -> "WorldConfig":
        """Copy of the config with a different toplist length."""
        return replace(self, sites_per_country=sites_per_country)


#: A fast scale for unit/integration tests.
SMALL_SCALE = WorldConfig(sites_per_country=400)

#: The benchmark scale: large enough for faithful shapes, small enough
#: to rebuild the world in seconds.
BENCH_SCALE = WorldConfig(sites_per_country=2_500)

#: The paper's scale (10K sites x 150 countries).
PAPER_SCALE = WorldConfig()
