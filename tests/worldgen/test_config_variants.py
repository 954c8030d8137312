"""World builds under non-default configurations."""

from __future__ import annotations

import pytest

from repro.core import ProviderDistribution, centralization_score
from repro.worldgen import World, WorldConfig

VARIANT_COUNTRIES = ("TH", "US", "IR", "FR", "NG", "JP")


class TestNoSharedPool:
    @pytest.fixture(scope="class")
    def world(self) -> World:
        return World(
            WorldConfig(
                sites_per_country=200,
                countries=VARIANT_COUNTRIES,
                shared_site_base_fraction=0.0,
            )
        )

    def test_no_global_sites_in_toplists(self, world: World) -> None:
        for cc in VARIANT_COUNTRIES:
            assert not any(
                world.sites[d].is_global
                for d in world.toplists[cc].domains
            )

    def test_calibration_exact_without_sharing(self, world: World) -> None:
        for cc in VARIANT_COUNTRIES:
            counts = world.ground_truth_counts(cc, "hosting")
            measured = centralization_score(ProviderDistribution(counts))
            target = world.calibration_report[(cc, "hosting")][
                "target_score"
            ]
            assert measured == pytest.approx(target, abs=0.005)


class TestNoMultiCdn:
    def test_no_secondary_cdns(self) -> None:
        world = World(
            WorldConfig(
                sites_per_country=150,
                countries=("US", "TH"),
                multi_cdn_fraction=0.0,
            )
        )
        assert all(
            record.secondary_cdn is None for record in world.sites.values()
        )


class TestGeoNoise:
    def test_noisy_world_measurable(self) -> None:
        from repro.analysis import DependenceStudy

        world = World(
            WorldConfig(
                sites_per_country=150,
                countries=("US", "TH"),
                geo_error_rate=0.2,
            )
        )
        dataset = DependenceStudy.measure(world).dataset
        assert dataset.failure_rate("US") == 0.0
        # Some fraction of IP geolocations disagree with the AS home.
        mislabeled = sum(
            1
            for record in dataset.records("US")
            if record.ip_country != world.geo.true_entry(record.ip).country
        )
        assert mislabeled > 0


class TestBigSharedPool:
    def test_high_sharing_still_calibrates(self) -> None:
        world = World(
            WorldConfig(
                sites_per_country=200,
                countries=VARIANT_COUNTRIES,
                shared_site_base_fraction=0.6,
            )
        )
        for cc in VARIANT_COUNTRIES:
            counts = world.ground_truth_counts(cc, "hosting")
            measured = centralization_score(ProviderDistribution(counts))
            target = world.calibration_report[(cc, "hosting")][
                "target_score"
            ]
            assert measured == pytest.approx(target, abs=0.02), cc
