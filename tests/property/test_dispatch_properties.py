"""Property tests for the dispatch overhaul's two identity claims.

The DNS planner (:class:`repro.net.ZoneCache`) and the
supervisor's chunked dispatch are pure performance machinery: neither
may perturb a single output byte.  Hypothesis drives both claims —

* a country unit measured through a shared, progressively-warmed
  zone cache is identical (rows, metrics, spans, faults) to the same
  unit measured with per-site iterative resolution, under **every**
  fault profile and arbitrary seeds;
* a supervised campaign is byte-identical (CSV, metrics JSON, trace)
  across every chunk size, and to the serial in-process run.

The shared zone cache is deliberately module-level mutable state:
reusing one cache across all drawn examples *is* the property — plans
accumulated for earlier examples must never leak into later outputs.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FAULT_PROFILES
from repro.net import ZoneCache
from repro.obs.metrics import render_metrics_json
from repro.pipeline import CampaignSpec, run_campaign
from repro.pipeline.export import rows_to_csv_text
from repro.pipeline.parallel import measure_country_unit
from repro.pipeline.supervisor import SupervisorPolicy
from repro.worldgen import World, WorldConfig

UNIT_COUNTRIES = ("BR", "TH", "US")
UNIT_CONFIG = WorldConfig(
    sites_per_country=50, countries=UNIT_COUNTRIES
)
UNIT_WORLD = World(UNIT_CONFIG)
SHARED_CACHE = ZoneCache(UNIT_WORLD.namespace)

CAMPAIGN_CONFIG = WorldConfig(
    sites_per_country=50, countries=("BR", "DE", "TH", "US")
)
CAMPAIGN_SPEC = CampaignSpec(
    config=CAMPAIGN_CONFIG,
    fault_profile="chaos",
    fault_seed=7,
    retries=2,
    instrument=True,
)


def _logical_spans(spans) -> tuple:
    """Spans minus ``wall_ms`` — the one wall-clock field, which
    jitters run to run and is excluded from the CI byte gates too."""
    return tuple(span._replace(wall_ms=None) for span in spans)


def _unit_fingerprint(result) -> tuple:
    """Every observable byte a country unit produces."""
    return (
        rows_to_csv_text(result.rows),
        render_metrics_json(result.metrics),
        _logical_spans(result.spans),
        result.injected_faults,
        result.open_circuits,
        result.quarantined,
    )


class TestZoneBatchedResolutionIdentity:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        profile=st.sampled_from(sorted(FAULT_PROFILES)),
        seed=st.integers(min_value=0, max_value=2**16),
        country=st.sampled_from(UNIT_COUNTRIES),
        retries=st.integers(min_value=1, max_value=3),
    )
    def test_batched_unit_identical_under_every_fault_profile(
        self, profile: str, seed: int, country: str, retries: int
    ) -> None:
        spec = CampaignSpec(
            config=UNIT_CONFIG,
            fault_profile=profile,
            fault_seed=seed,
            retries=retries,
            instrument=True,
        )
        plain = measure_country_unit(UNIT_WORLD, spec, country)
        batched = measure_country_unit(
            UNIT_WORLD, spec, country, zone_cache=SHARED_CACHE
        )
        assert _unit_fingerprint(batched) == _unit_fingerprint(plain)

    def test_every_profile_name_is_reachable(self) -> None:
        # sampled_from can only prove identity for profiles it knows
        # about; pin the universe so a new profile must be drawn too.
        assert set(FAULT_PROFILES) >= {"none", "chaos"}


@lru_cache(maxsize=1)
def _serial_fingerprint() -> tuple:
    result = run_campaign(CAMPAIGN_SPEC, workers=1)
    return (
        rows_to_csv_text(result.dataset),
        render_metrics_json(result.metrics),
        _logical_spans(result.spans),
        result.injected_faults,
    )


class TestChunkedDispatchIdentity:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(chunk_size=st.integers(min_value=1, max_value=8))
    def test_byte_identical_across_chunk_sizes(
        self, chunk_size: int
    ) -> None:
        sharded = run_campaign(
            CAMPAIGN_SPEC,
            workers=2,
            policy=SupervisorPolicy(chunk_size=chunk_size),
        )
        fingerprint = (
            rows_to_csv_text(sharded.dataset),
            render_metrics_json(sharded.metrics),
            _logical_spans(sharded.spans),
            sharded.injected_faults,
        )
        assert fingerprint == _serial_fingerprint()
        assert sharded.quarantined == ()
