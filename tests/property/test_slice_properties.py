"""A slice-digest hit is sound: equal digests mean equal measurements.

``--since``, ``--resume`` and every watch epoch reuse a country's
stored shard when its world-slice digest matches.  That is sound only
if two worlds that agree on a country's digest give the country the
same measurement.  Hypothesis draws small worlds, churn subsets,
vantages (Stanford and in-country) and fault profiles, and checks that
every country whose digest survives an evolution measures identically
in both worlds: CSV rows, metrics, and spans apart from ``wall_ms``.
Measurement here walks the delegation chain afresh (no zone cache), so
the digest is held to the resolver's reference walk.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.datasets.countries import COUNTRIES as COUNTRY_INFO
from repro.obs.metrics import render_metrics_json
from repro.pipeline import CampaignSpec
from repro.pipeline.export import rows_to_csv_text
from repro.pipeline.measure import STANFORD_VANTAGE_CONTINENT
from repro.pipeline.parallel import measure_country_unit
from repro.worldgen import ChurnConfig, World, WorldConfig, world_slice_digest

COUNTRIES = ("BR", "DE", "TH", "US")
CHURNS = (("BR",), ("TH",), ("DE", "US"), ("BR", "TH", "US"))


@lru_cache(maxsize=None)
def world(seed: int, churn: tuple[str, ...]) -> World:
    """The base world of ``seed`` (no churn) or its evolution."""
    return CampaignSpec(
        WorldConfig(seed=seed, sites_per_country=50, countries=COUNTRIES),
        churn=ChurnConfig(churn_countries=churn) if churn else None,
    ).build_world()


def vantage_of(vantage: str, country: str) -> tuple[str, str | None]:
    if vantage == "stanford":
        return STANFORD_VANTAGE_CONTINENT, None
    return COUNTRY_INFO[country].continent, country


@lru_cache(maxsize=None)
def digest(seed: int, churn: tuple[str, ...], vantage: str, country: str) -> str:
    return world_slice_digest(
        world(seed, churn), country, *vantage_of(vantage, country)
    )


def fingerprint(result) -> tuple:
    return (
        rows_to_csv_text(result.rows),
        render_metrics_json(result.metrics),
        tuple(span._replace(wall_ms=None) for span in result.spans),
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.sampled_from((1, 2, 4)),
    churn=st.sampled_from(CHURNS),
    vantage=st.sampled_from(("stanford", "in-country")),
    profile=st.sampled_from(("none", "chaos")),
    fault_seed=st.integers(min_value=0, max_value=9),
)
def test_equal_digest_means_equal_measurement(
    seed: int, churn: tuple[str, ...], vantage: str, profile: str, fault_seed: int
) -> None:
    base, evolved = world(seed, ()), world(seed, churn)
    for country in COUNTRIES:
        if digest(seed, (), vantage, country) != digest(
            seed, churn, vantage, country
        ):
            continue
        event(f"digest hit ({vantage})")
        continent, vantage_country = vantage_of(vantage, country)
        spec = CampaignSpec(
            base.config,
            fault_profile=profile,
            fault_seed=fault_seed,
            retries=2,
            instrument=True,
            vantage_continent=continent,
            vantage_country=vantage_country,
        )
        assert fingerprint(
            measure_country_unit(base, spec, country)
        ) == fingerprint(measure_country_unit(evolved, spec, country)), (
            country
        )
