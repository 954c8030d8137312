"""series_trend: the full-ledger consolidation view over a watch run.

One module-scoped ``repro watch`` store (three epochs, TH churned each
step) backs the integration tests; the state-machine cases (retired,
manifest-gone) pin ledgers/manifests explicitly via the keyword hooks
the serve read path uses.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.series import render_series_trend, series_trend
from repro.analysis.storediff import dataset_from_manifest
from repro.datasets.paper_scores import LAYERS
from repro.errors import PipelineError
from repro.pipeline import CampaignSpec, WatchSpec, run_watch
from repro.serve.api import ServeApi, etag_of
from repro.store import CampaignStore
from repro.worldgen import ChurnConfig, WorldConfig

SPEC = CampaignSpec(
    config=WorldConfig(
        sites_per_country=50, countries=("TH", "US"), seed=3
    ),
)
EPOCHS = 3


@pytest.fixture(scope="module")
def watch_store(tmp_path_factory):
    """A completed three-epoch series (read-only for these tests)."""
    root = tmp_path_factory.mktemp("trend-store")
    store = CampaignStore(root)
    report = run_watch(
        WatchSpec(
            spec=SPEC,
            epochs=EPOCHS,
            churn=ChurnConfig(churn_countries=("TH",)),
        ),
        store,
    )
    assert report.epochs_recorded == EPOCHS
    return store, report.series


def ledger_entry(epoch: int, campaign: str, retired=()) -> dict:
    return {
        "epoch": epoch,
        "campaign": campaign,
        "snapshot": f"s{epoch}",
        "status": "ok",
        "baseline": None,
        "objects": [[f"d{epoch}", 10]],
        "retired": list(retired),
        "quota_met": True,
    }


class TestTrendPayload:
    def test_epoch_rows_cover_the_whole_ledger(self, watch_store):
        store, series = watch_store
        trend = series_trend(store, series)
        assert [row["epoch"] for row in trend["epochs"]] == [0, 1, 2]
        assert all(row["state"] == "live" for row in trend["epochs"])
        assert all(row["measurable"] for row in trend["epochs"])
        assert trend["measurable_epochs"] == EPOCHS

    def test_layer_series_span_every_epoch(self, watch_store):
        store, series = watch_store
        trend = series_trend(store, series)
        for layer in LAYERS:
            table = trend["layers"][layer]
            assert set(table["centralization"]) == {"TH", "US"}
            for cc in ("TH", "US"):
                points = table["centralization"][cc]
                assert [epoch for epoch, _ in points] == [0, 1, 2]
                assert [e for e, _ in table["insularity"][cc]] == [
                    0,
                    1,
                    2,
                ]
            means = table["mean_centralization"]
            assert [epoch for epoch, _ in means] == [0, 1, 2]
            for epoch, mean in means:
                scores = [
                    points[epoch][1]
                    for points in table["centralization"].values()
                ]
                assert mean == pytest.approx(sum(scores) / len(scores))

    def test_provider_events_match_the_datasets(self, watch_store):
        """Entry/exit events agree with sets recomputed from shards."""
        store, series = watch_store
        trend = series_trend(store, series)
        ledger = store.load_series(series)
        per_epoch: list[set[str]] = []
        for entry in ledger["entries"]:
            dataset, _, _ = dataset_from_manifest(
                store, store.load_manifest(entry["campaign"])
            )
            names: set[str] = set()
            for cc in dataset.countries:
                names.update(
                    name
                    for name, _ in dataset.distribution(
                        cc, "hosting"
                    ).ranked()
                )
            per_epoch.append(names)
        expected_entries = [
            [epoch, sorted(per_epoch[epoch] - per_epoch[epoch - 1])]
            for epoch in range(1, EPOCHS)
            if per_epoch[epoch] - per_epoch[epoch - 1]
        ]
        expected_exits = [
            [epoch, sorted(per_epoch[epoch - 1] - per_epoch[epoch])]
            for epoch in range(1, EPOCHS)
            if per_epoch[epoch - 1] - per_epoch[epoch]
        ]
        assert trend["providers"]["hosting"]["entries"] == expected_entries
        assert trend["providers"]["hosting"]["exits"] == expected_exits

    def test_served_trend_revalidates(self, watch_store):
        """``GET /series/{id}/trend`` serves this payload, ETagged."""
        store, series = watch_store
        api = ServeApi(store)
        path = f"/series/{series[:12]}/trend"
        first = api.handle(path)
        assert first.status == 200
        payload = json.loads(first.body)
        assert payload["measurable_epochs"] == EPOCHS
        assert payload["epochs"] == series_trend(store, series)["epochs"]
        assert first.etag == etag_of(first.body)
        revalidated = api.handle(path, if_none_match=first.etag)
        assert revalidated.status == 304
        assert revalidated.body == b""

    def test_unknown_series_raises(self, watch_store):
        store, _ = watch_store
        with pytest.raises(PipelineError, match="not found"):
            series_trend(store, "feedface")


class TestEpochStates:
    def test_retired_epoch_is_a_summary_row_only(self, tmp_path):
        store = CampaignStore(tmp_path)
        ledger = {
            "entries": [
                ledger_entry(0, "c0"),
                ledger_entry(1, "c1", retired=(0,)),
            ]
        }
        trend = series_trend(
            store, "synthetic", ledger=ledger, manifests={}
        )
        first, second = trend["epochs"]
        assert first["state"] == "retired"
        assert first["measurable"] is False
        assert "missing_countries" not in first
        # the row still carries the footprint the ledger recorded
        assert first["bytes"] == 10 and first["objects"] == 1
        assert second["state"] == "manifest-gone"
        assert trend["measurable_epochs"] == 0

    def test_manifest_gone_epoch_stays_in_the_table(self, watch_store):
        store, series = watch_store
        ledger = store.load_series(series)
        manifests = {
            entry["campaign"]: store.load_manifest(entry["campaign"])
            for entry in ledger["entries"]
        }
        manifests[ledger["entries"][0]["campaign"]] = None
        trend = series_trend(
            store, series, ledger=ledger, manifests=manifests
        )
        assert trend["epochs"][0]["state"] == "manifest-gone"
        assert trend["measurable_epochs"] == EPOCHS - 1
        for layer in LAYERS:
            for points in trend["layers"][layer][
                "centralization"
            ].values():
                assert [epoch for epoch, _ in points] == [1, 2]


class TestRender:
    def test_report_shape(self, watch_store):
        store, series = watch_store
        out = render_series_trend(series_trend(store, series))
        assert "consolidation trend" in out
        assert f"epochs recorded: {EPOCHS}   measurable: {EPOCHS}" in out
        for layer in LAYERS:
            assert f"-- {layer}: mean centralization " in out
        assert out.count(" -> ") >= len(LAYERS) * (EPOCHS - 1)

    def test_sparse_series_notes_summary_rows(self, tmp_path):
        store = CampaignStore(tmp_path)
        ledger = {"entries": [ledger_entry(0, "c0", retired=(0,))]}
        out = render_series_trend(
            series_trend(store, "synthetic", ledger=ledger, manifests={})
        )
        assert "retired" in out
        assert "fewer than two measurable epochs" in out
