"""Series ledger unit behavior: identity, appends, corruption, metrics."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import PipelineError, StoreCorruptionError
from repro.store import (
    SERIES_SCHEMA,
    CampaignStore,
    SeriesLedger,
    canonical_json,
    series_id,
)
from repro.store.series import validate_entry

RECIPE = {"spec": {"seed": 1}, "churn_step": {"keep_fraction": 0.58}}


def entry(epoch: int, **overrides) -> dict:
    base = {
        "epoch": epoch,
        "campaign": f"c{epoch}",
        "snapshot": f"2023-05+e{epoch}" if epoch else "2023-05",
        "status": "ok",
        "baseline": f"c{epoch - 1}" if epoch else None,
        "objects": [[f"d{epoch}", 100]],
        "retired": [],
        "quota_met": True,
    }
    base.update(overrides)
    return base


class TestSeriesId:
    def test_deterministic(self) -> None:
        assert series_id(RECIPE) == series_id(dict(RECIPE))

    def test_recipe_sensitive(self) -> None:
        other = {**RECIPE, "churn_step": {"keep_fraction": 0.5}}
        assert series_id(RECIPE) != series_id(other)


class TestValidateEntry:
    def test_missing_field_rejected(self) -> None:
        bad = entry(0)
        del bad["quota_met"]
        with pytest.raises(PipelineError, match="missing fields"):
            validate_entry(bad, 0)

    def test_non_contiguous_epoch_rejected(self) -> None:
        with pytest.raises(PipelineError, match="contiguous"):
            validate_entry(entry(2), 1)

    def test_unknown_status_rejected(self) -> None:
        with pytest.raises(PipelineError, match="unknown"):
            validate_entry(entry(0, status="degraded:mystery"), 0)

    def test_unsorted_objects_rejected(self) -> None:
        bad = entry(0, objects=[["zz", 1], ["aa", 2]])
        with pytest.raises(PipelineError, match="sorted"):
            validate_entry(bad, 0)


class TestSeriesLedger:
    def test_append_persists_and_reloads(self, tmp_path: Path) -> None:
        store = CampaignStore(tmp_path)
        ledger = SeriesLedger(store, RECIPE)
        ledger.append(entry(0))
        ledger.append(entry(1))
        reopened = SeriesLedger(store, RECIPE)
        assert reopened.entries == ledger.entries
        assert reopened.recipe == ledger.recipe
        assert store.list_series_ids() == [ledger.series]

    def test_render_is_byte_stable(self, tmp_path: Path) -> None:
        store = CampaignStore(tmp_path)
        ledger = SeriesLedger(store, RECIPE)
        ledger.append(entry(0))
        document = {
            "_schema": SERIES_SCHEMA,
            "series": ledger.series,
            "recipe": RECIPE,
            "entries": [entry(0)],
        }
        assert ledger.path.read_bytes() == canonical_json(document).encode()

    def test_out_of_order_append_rejected(self, tmp_path: Path) -> None:
        ledger = SeriesLedger(CampaignStore(tmp_path), RECIPE)
        ledger.append(entry(0))
        with pytest.raises(PipelineError, match="contiguous"):
            ledger.append(entry(2))

    def test_unparseable_ledger_is_typed_corruption(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path)
        ledger = SeriesLedger(store, RECIPE)
        ledger.append(entry(0))
        ledger.path.write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreCorruptionError, match="unparseable"):
            SeriesLedger(store, RECIPE)

    def test_wrong_schema_is_typed_corruption(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path)
        ledger = SeriesLedger(store, RECIPE)
        ledger.append(entry(0))
        payload = json.loads(ledger.path.read_text())
        payload["_schema"] = "repro-series-v999"
        ledger.path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(StoreCorruptionError, match="schema"):
            SeriesLedger(store, RECIPE)

    def test_non_contiguous_ledger_is_typed_corruption(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path)
        ledger = SeriesLedger(store, RECIPE)
        ledger.append(entry(0))
        payload = json.loads(ledger.path.read_text())
        payload["entries"][0]["epoch"] = 3
        ledger.path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(StoreCorruptionError, match="contiguous"):
            SeriesLedger(store, RECIPE)

    def test_retired_and_live_views(self, tmp_path: Path) -> None:
        ledger = SeriesLedger(CampaignStore(tmp_path), RECIPE)
        ledger.append(entry(0))
        ledger.append(entry(1, status="degraded:deadline"))
        ledger.append(entry(2, retired=[0]))
        assert ledger.retired_epochs() == {0}
        assert [e["epoch"] for e in ledger.live_entries()] == [1, 2]
        # Epoch 1 is degraded and epoch 0 retired: the newest live ok
        # entry is epoch 2.
        assert ledger.latest_ok()["epoch"] == 2

    def test_latest_ok_none_when_nothing_usable(
        self, tmp_path: Path
    ) -> None:
        ledger = SeriesLedger(CampaignStore(tmp_path), RECIPE)
        assert ledger.latest_ok() is None
        ledger.append(entry(0, status="degraded:quarantine"))
        assert ledger.latest_ok() is None


class TestWatchMetrics:
    def payload(self, value: int) -> dict:
        return {
            "metrics": {
                "repro_watch_sessions_total": {
                    "type": "counter",
                    "help": "h",
                    "samples": [
                        {"labels": {"mode": "fresh"}, "value": value}
                    ],
                }
            }
        }

    def test_merge_sums_counters_across_sessions(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path)
        ledger = SeriesLedger(store, RECIPE)
        path = store.watch_metrics_path(ledger.series)
        assert not path.exists()
        store.merge_watch_metrics(ledger.series, self.payload(1))
        merged = store.merge_watch_metrics(ledger.series, self.payload(2))
        assert json.loads(path.read_text(encoding="utf-8")) == merged
        samples = merged["metrics"]["repro_watch_sessions_total"][
            "samples"
        ]
        assert samples[0]["value"] == 3


class TestFsckSeries:
    def test_corrupt_ledger_detected(self, tmp_path: Path) -> None:
        store = CampaignStore(tmp_path)
        ledger = SeriesLedger(store, RECIPE)
        ledger.append(entry(0))
        assert store.fsck().clean
        ledger.path.write_text("{torn", encoding="utf-8")
        report = store.fsck()
        assert not report.clean
        assert report.corrupt_series == [ledger.series]
        assert "series" in report.render()

    def test_watch_metrics_artifact_not_flagged(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path)
        ledger = SeriesLedger(store, RECIPE)
        ledger.append(entry(0))
        store.merge_watch_metrics(
            ledger.series, TestWatchMetrics().payload(1)
        )
        # Telemetry is not a ledger: fsck must not try to parse it as
        # one even though it lives beside the ledger.
        assert store.fsck().clean
