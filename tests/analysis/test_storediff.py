"""Campaign diffing over the store: provenance and per-layer deltas."""

from __future__ import annotations

import pytest

from repro.analysis import (
    campaign_dataset,
    render_campaign_diff,
    stored_diff,
)
from repro.analysis.storediff import manifest_snapshot
from repro.datasets.paper_scores import LAYERS
from repro.errors import PipelineError
from repro.pipeline import CampaignSpec, run_campaign
from repro.store import CampaignStore
from repro.worldgen import ChurnConfig, WorldConfig

CONFIG = WorldConfig(
    sites_per_country=50, countries=("BR", "DE", "TH", "US")
)
SPEC = CampaignSpec(config=CONFIG, fault_seed=5, retries=2)
CHURN = ChurnConfig(churn_countries=("BR",))
EVOLVED_SPEC = CampaignSpec(
    config=CONFIG, fault_seed=5, retries=2, churn=CHURN
)


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    """A store holding a base campaign and its --since evolution."""
    store = CampaignStore(tmp_path_factory.mktemp("store"))
    base = run_campaign(SPEC, workers=1, store=store)
    evolved = run_campaign(
        EVOLVED_SPEC, workers=1, store=store, baseline=base.campaign
    )
    return store, base, evolved


class TestCampaignDataset:
    def test_rebuilds_rows_from_shards(self, campaigns) -> None:
        store, base, _ = campaigns
        rebuilt = campaign_dataset(store, base.campaign)
        assert list(rebuilt) == list(base.dataset)

    def test_missing_campaign_raises(self, campaigns) -> None:
        store, _, _ = campaigns
        with pytest.raises(PipelineError, match="not found"):
            campaign_dataset(store, "0" * 64)


class TestCampaignDiff:
    def test_provenance(self, campaigns) -> None:
        store, base, evolved = campaigns
        diff = stored_diff(store, base.campaign, evolved.campaign)
        assert diff["reused_shards"] == ["DE", "TH", "US"]
        assert diff["remeasured"] == ["BR"]
        assert diff["countries_only_a"] == []
        assert diff["countries_only_b"] == []
        assert diff["snapshot_a"] == CONFIG.snapshot
        assert diff["snapshot_b"] == CHURN.new_snapshot

    def test_unchurned_countries_have_zero_deltas(self, campaigns) -> None:
        store, base, evolved = campaigns
        diff = stored_diff(store, base.campaign, evolved.campaign)
        assert set(diff["layers"]) == set(LAYERS)
        for layer in LAYERS:
            for cc in ("DE", "TH", "US"):
                entry = diff["layers"][layer][cc]
                assert entry["centralization"][2] == 0.0, (layer, cc)
                assert entry["insularity"][2] == 0.0, (layer, cc)

    def test_churned_country_moved(self, campaigns) -> None:
        store, base, evolved = campaigns
        diff = stored_diff(store, base.campaign, evolved.campaign)
        moved = any(
            diff["layers"][layer]["BR"]["centralization"][2] != 0.0
            or diff["layers"][layer]["BR"]["insularity"][2] != 0.0
            for layer in LAYERS
        )
        assert moved

    def test_render_mentions_provenance_and_layers(self, campaigns) -> None:
        store, base, evolved = campaigns
        text = render_campaign_diff(store, base.campaign, evolved.campaign)
        assert "3 reused, 1 re-measured" in text
        assert "reused: DE TH US" in text
        assert "re-measured: BR" in text
        for layer in LAYERS:
            assert f"-- {layer}:" in text

    def test_diff_missing_campaign_raises(self, campaigns) -> None:
        store, base, _ = campaigns
        with pytest.raises(PipelineError, match="not found"):
            stored_diff(store, base.campaign, "0" * 64)


class TestManifestSnapshot:
    def test_base_uses_config_snapshot(self, campaigns) -> None:
        store, base, _ = campaigns
        manifest = store.load_manifest(base.campaign)
        assert manifest_snapshot(manifest) == CONFIG.snapshot

    def test_evolved_uses_churn_snapshot(self, campaigns) -> None:
        store, _, evolved = campaigns
        manifest = store.load_manifest(evolved.campaign)
        assert manifest_snapshot(manifest) == CHURN.new_snapshot
