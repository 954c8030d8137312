"""End-to-end integration tests: world → pipeline → analysis → paper.

These exercise the full reproduction path on the shared small world and
assert the paper's qualitative findings hold at reduced scale.
"""

from __future__ import annotations

import pytest

from repro.analysis import DependenceStudy, SnapshotComparison
from repro.core import pearson
from repro.datasets.paper_scores import LAYERS
from repro.pipeline import CampaignSpec, run_campaign
from repro.worldgen import World, evolve
from tests.conftest import TEST_COUNTRIES


class TestPaperReproduction:
    def test_scores_track_published_tables(
        self, small_study: DependenceStudy
    ) -> None:
        for layer in LAYERS:
            rows = small_study.paper_comparison(layer)
            measured = [m for _, m, _ in rows]
            published = [p for _, _, p in rows]
            result = pearson(measured, published)
            assert result.rho > 0.98, layer

    def test_layer_ordering_of_means(
        self, small_study: DependenceStudy
    ) -> None:
        """TLD > CA > hosting ≈ DNS in mean centralization (Figure 9)."""

        def mean(layer: str) -> float:
            scores = small_study.layer(layer).scores
            return sum(scores.values()) / len(scores)

        assert mean("tld") > mean("ca") > mean("hosting")
        assert abs(mean("hosting") - mean("dns")) < 0.03

    def test_ca_variance_smallest(self, small_study: DependenceStudy) -> None:
        import numpy as np

        def var(layer: str) -> float:
            return float(
                np.var(list(small_study.layer(layer).scores.values()))
            )

        assert var("ca") < var("hosting")
        assert var("ca") < var("tld")

    def test_cz_sk_cross_layer_flip(
        self, small_study: DependenceStudy
    ) -> None:
        """Czechia/Slovakia: least centralized at hosting/DNS, most
        centralized at the CA layer (Section 7.2)."""
        hosting = small_study.hosting
        ca = small_study.ca
        n = len(TEST_COUNTRIES)
        assert hosting.rank_of("CZ") > n - 5
        assert hosting.rank_of("SK") > n - 5
        assert ca.rank_of("CZ") <= 3
        assert ca.rank_of("SK") <= 3

    def test_insularity_near_zero_for_ca_almost_everywhere(
        self, small_study: DependenceStudy
    ) -> None:
        ca_ins = small_study.ca.insularity
        near_zero = sum(1 for v in ca_ins.values() if v < 0.02)
        assert near_zero >= len(TEST_COUNTRIES) // 2

    def test_us_most_insular_at_hosting(
        self, small_study: DependenceStudy
    ) -> None:
        ins = small_study.hosting.insularity
        assert max(ins, key=lambda cc: ins[cc]) == "US"

    def test_tld_most_insular_layer(
        self, small_study: DependenceStudy
    ) -> None:
        """Figure 11: countries are most insular at the TLD layer."""

        def mean_ins(layer: str) -> float:
            values = small_study.layer(layer).insularity.values()
            return sum(values) / len(values)

        assert mean_ins("tld") > mean_ins("hosting")
        assert mean_ins("tld") > mean_ins("ca")

    def test_global_top_marker_near_hosting_mean(
        self, small_study: DependenceStudy
    ) -> None:
        """Figure 12: the Global Top-C score is representative of the
        average hosting centralization."""
        marker = small_study.global_top_score("hosting")
        scores = small_study.hosting.scores
        mean = sum(scores.values()) / len(scores)
        assert abs(marker - mean) < 0.12

    def test_failure_injection_reduces_coverage_not_crash(
        self, small_config
    ) -> None:
        world = World(small_config.with_countries(("US", "TH")).scaled(100))
        broken = 0
        for domain in world.toplists["US"].domains[:10]:
            zone = world.namespace.zone(domain)
            assert zone is not None
            zone.broken = True
            broken += 1
        dataset = run_campaign(
            CampaignSpec(world.config, countries=("US",)), world=world
        ).dataset
        assert dataset.failure_rate("US") == pytest.approx(broken / 100)
        # Distributions still computable from surviving records.
        dist = dataset.distribution("US", "hosting")
        assert dist.total == 100 - broken


class TestLongitudinalIntegration:
    @pytest.fixture(scope="class")
    def comparison(
        self, small_world: World, small_study: DependenceStudy
    ) -> SnapshotComparison:
        new_study = DependenceStudy.measure(evolve(small_world))
        return SnapshotComparison(small_study, new_study)

    def test_high_score_correlation(
        self, comparison: SnapshotComparison
    ) -> None:
        assert comparison.score_correlation.rho > 0.9

    def test_brazil_largest_increase(
        self, comparison: SnapshotComparison
    ) -> None:
        cc, delta = comparison.largest_increase
        assert cc == "BR"
        assert delta > 0.05

    def test_russia_decreases(self, comparison: SnapshotComparison) -> None:
        old, new = comparison.score_change("RU")
        assert new < old
        assert new == pytest.approx(0.0499, abs=0.02)

    def test_cloudflare_rises_on_average(
        self, comparison: SnapshotComparison
    ) -> None:
        assert 1.0 < comparison.mean_cloudflare_delta_points < 8.0

    def test_cloudflare_decreasers_match_paper(
        self, comparison: SnapshotComparison
    ) -> None:
        assert set(comparison.cloudflare_decreasing) <= {
            "RU",
            "BY",
            "UZ",
            "MM",
        }
        assert "RU" in comparison.cloudflare_decreasing

    def test_jaccard_in_range(self, comparison: SnapshotComparison) -> None:
        assert 0.25 < comparison.mean_jaccard < 0.5

    def test_some_countries_less_us_reliant(
        self, comparison: SnapshotComparison
    ) -> None:
        n = len(comparison.countries_less_us_reliant)
        assert 0 < n < len(comparison.countries)
