"""Tests for the measurement pipeline, records, and vantage machinery."""

from __future__ import annotations

import pytest

from repro.analysis import DependenceStudy
from repro.core import centralization_score
from repro.errors import PipelineError, UnknownCountryError, UnknownLayerError
from repro.pipeline import (
    MeasurementDataset,
    MeasurementPipeline,
    WebsiteMeasurement,
    ripe_style_dataset,
    validate_vantage,
)
from repro.worldgen import World
from tests.conftest import TEST_COUNTRIES


class TestMeasurement:
    def test_all_sites_resolve(self, small_study: DependenceStudy) -> None:
        for cc in TEST_COUNTRIES:
            assert small_study.dataset.failure_rate(cc) == 0.0

    def test_records_complete(self, small_study: DependenceStudy) -> None:
        for record in small_study.dataset.records("US")[:50]:
            assert record.ok
            assert record.ip is not None
            assert record.hosting_org
            assert record.dns_org
            assert record.ca_owner
            assert record.tld

    def test_measured_hosting_matches_ground_truth(
        self, small_world: World, small_study: DependenceStudy
    ) -> None:
        for cc in ("TH", "US", "IR"):
            truth = small_world.ground_truth_counts(cc, "hosting")
            measured = small_study.dataset.distribution(cc, "hosting")
            assert measured.as_dict() == {
                k: float(v) for k, v in truth.items()
            }

    def test_measured_ca_matches_ground_truth(
        self, small_world: World, small_study: DependenceStudy
    ) -> None:
        truth = small_world.ground_truth_counts("JP", "ca")
        measured = small_study.dataset.distribution("JP", "ca")
        assert measured.as_dict() == {k: float(v) for k, v in truth.items()}

    def test_rank_recorded(self, small_study: DependenceStudy) -> None:
        records = small_study.dataset.records("TH")
        assert [r.rank for r in records[:5]] == [1, 2, 3, 4, 5]

    def test_unknown_country_raises(self, small_world: World) -> None:
        pipeline = MeasurementPipeline(small_world)
        with pytest.raises(PipelineError):
            pipeline.measure_country("ZA")  # valid code, not in config

    def test_nxdomain_recorded_as_error(self, small_world: World) -> None:
        pipeline = MeasurementPipeline(small_world)
        m = pipeline.measure_site("never-registered-domain.com", "US", 1)
        assert not m.ok
        assert "resolve" in (m.error or "")

    def test_broken_zone_recorded_as_error(self, small_world: World) -> None:
        domain = small_world.toplists["US"].domains[5]
        zone = small_world.namespace.zone(domain)
        assert zone is not None
        zone.broken = True
        try:
            pipeline = MeasurementPipeline(small_world)
            m = pipeline.measure_site(domain, "US", 6)
            assert not m.ok
        finally:
            zone.broken = False

    def test_resolver_cache_reused_across_countries(
        self, small_world: World
    ) -> None:
        pipeline = MeasurementPipeline(small_world)
        pipeline.measure_country("US")
        pipeline.measure_country("TH")
        assert pipeline.resolver.cache_hits > 0

    def test_anycast_flag_for_cloudflare_ns(
        self, small_study: DependenceStudy
    ) -> None:
        cf_records = [
            r
            for r in small_study.dataset.records("US")
            if r.dns_org == "Cloudflare"
        ]
        assert cf_records
        assert all(r.ns_anycast for r in cf_records)

    def test_geolocation_continent_present(
        self, small_study: DependenceStudy
    ) -> None:
        for record in small_study.dataset.records("FR")[:50]:
            assert record.ip_continent in {"NA", "EU", "AS", "SA", "OC", "AF"}


class TestDataset:
    def test_len_and_countries(self, small_study: DependenceStudy) -> None:
        ds = small_study.dataset
        assert len(ds) == len(TEST_COUNTRIES) * 300
        assert ds.countries == sorted(TEST_COUNTRIES)

    def test_unknown_country(self, small_study: DependenceStudy) -> None:
        with pytest.raises(UnknownCountryError):
            small_study.dataset.records("ZW")

    def test_unknown_layer(self, small_study: DependenceStudy) -> None:
        with pytest.raises(UnknownLayerError):
            small_study.dataset.distribution("US", "email")

    def test_usage_matrix_covers_all_countries(
        self, small_study: DependenceStudy
    ) -> None:
        matrix = small_study.dataset.usage_matrix("hosting")
        cf = matrix["Cloudflare"]
        assert set(cf) == set(sorted(TEST_COUNTRIES))
        assert all(0.0 <= v <= 100.0 for v in cf.values())

    def test_usage_matrix_percentages(
        self, small_study: DependenceStudy
    ) -> None:
        matrix = small_study.dataset.usage_matrix("hosting")
        dist = small_study.dataset.distribution("TH", "hosting")
        assert matrix["Cloudflare"]["TH"] == pytest.approx(
            100.0 * dist.share_of("Cloudflare")
        )

    def test_provider_countries(self, small_study: DependenceStudy) -> None:
        homes = small_study.dataset.provider_countries("hosting")
        assert homes["Cloudflare"] == "US"
        assert homes["OVH"] == "FR"

    def test_provider_countries_tld_empty(
        self, small_study: DependenceStudy
    ) -> None:
        assert small_study.dataset.provider_countries("tld") == {}

    def test_merged_distribution(self, small_study: DependenceStudy) -> None:
        merged = small_study.dataset.merged_distribution("hosting")
        assert merged.total == len(TEST_COUNTRIES) * 300

    def test_iteration(self) -> None:
        ds = MeasurementDataset()
        ds.add(WebsiteMeasurement(domain="a.com", country="US", rank=1))
        ds.add(WebsiteMeasurement(domain="b.com", country="TH", rank=1))
        assert len(list(ds)) == 2


class TestVantage:
    def test_ripe_dataset_covers_requested(self, small_world: World) -> None:
        ds = ripe_style_dataset(small_world, ["TH", "FR"])
        assert ds.countries == ["FR", "TH"]
        assert ds.failure_rate("TH") == 0.0

    def test_validation_strong_correlation(
        self, small_world: World, small_study: DependenceStudy
    ) -> None:
        comparison = validate_vantage(
            small_world, small_study.dataset
        )
        assert comparison.correlation.rho > 0.9
        assert comparison.correlation.significant

    def test_probe_scores_differ_somewhere(
        self, small_world: World, small_study: DependenceStudy
    ) -> None:
        """In-country probes must not see the identical web (cache
        nodes + multi-CDN should perturb at least one country)."""
        comparison = validate_vantage(small_world, small_study.dataset)
        assert comparison.stanford_scores != comparison.probe_scores

    def test_stanford_scores_match_study(
        self, small_world: World, small_study: DependenceStudy
    ) -> None:
        comparison = validate_vantage(small_world, small_study.dataset)
        for cc, score in zip(comparison.countries, comparison.stanford_scores):
            assert score == pytest.approx(
                centralization_score(
                    small_study.dataset.distribution(cc, "hosting")
                )
            )
