"""Checkpoint/resume and incremental re-measurement acceptance tests.

The store's contract: an interrupted-then-resumed campaign is
byte-identical (CSV and metrics JSON) to one that never stopped, and a
``--since`` run after a world evolution re-measures only the churned
countries while producing output byte-identical to a full re-measure.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import PipelineError
from repro.obs.metrics import render_metrics_json
from repro.pipeline import (
    CampaignHalted,
    CampaignSpec,
    export_csv,
    run_campaign,
)
from repro.store import CampaignStore, campaign_id
from repro.worldgen import ChurnConfig, WorldConfig

CONFIG = WorldConfig(
    sites_per_country=50, countries=("BR", "DE", "TH", "US")
)
SPEC = CampaignSpec(
    config=CONFIG,
    fault_profile="flaky-dns",
    fault_seed=7,
    retries=3,
    instrument=True,
)
EVOLVED_SPEC = CampaignSpec(
    config=CONFIG,
    fault_profile="flaky-dns",
    fault_seed=7,
    retries=3,
    instrument=True,
    churn=ChurnConfig(churn_countries=("BR",)),
)


def csv_bytes(result, path: Path) -> bytes:
    export_csv(result.dataset, path)
    return path.read_bytes()


def countries_of(store_metrics: dict, metric: str) -> set[str]:
    entry = store_metrics["metrics"].get(metric)
    if entry is None:
        return set()
    return {s["labels"]["country"] for s in entry["samples"]}


@pytest.fixture(scope="module")
def uninterrupted():
    """Reference run: same spec, no store, never halted."""
    return run_campaign(SPEC, workers=1)


@pytest.fixture(scope="module")
def evolved_full():
    """Reference run of the evolved world, fully re-measured."""
    return run_campaign(EVOLVED_SPEC, workers=1)


class TestResume:
    def test_halt_persists_then_resume_is_byte_identical_serial(
        self, uninterrupted, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(CampaignHalted) as excinfo:
            run_campaign(SPEC, workers=1, store=store, halt_after=1)
        assert excinfo.value.completed == 1
        halted_id = excinfo.value.campaign
        assert halted_id == campaign_id(SPEC)
        manifest = store.load_manifest(halted_id)
        assert manifest is not None and manifest["complete"] is False
        stored = [
            cc
            for cc, entry in manifest["countries"].items()
            if entry["object"] is not None
        ]
        assert len(stored) == 1

        resumed = run_campaign(SPEC, workers=1, store=store, resume=True)
        assert resumed.campaign == halted_id
        assert csv_bytes(resumed, tmp_path / "resumed.csv") == csv_bytes(
            uninterrupted, tmp_path / "full.csv"
        )
        assert render_metrics_json(resumed.metrics) == render_metrics_json(
            uninterrupted.metrics
        )
        assert store.load_manifest(halted_id)["complete"] is True
        assert countries_of(
            resumed.store_metrics, "repro_store_resume_skipped_total"
        ) == set(stored)
        assert countries_of(
            resumed.store_metrics, "repro_store_shard_misses_total"
        ) == set(CONFIG.countries) - set(stored)

    def test_halt_then_resume_sharded(
        self, uninterrupted, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(CampaignHalted) as excinfo:
            run_campaign(SPEC, workers=2, store=store, halt_after=2)
        assert excinfo.value.completed >= 2

        resumed = run_campaign(SPEC, workers=2, store=store, resume=True)
        assert csv_bytes(resumed, tmp_path / "resumed.csv") == csv_bytes(
            uninterrupted, tmp_path / "full.csv"
        )
        assert render_metrics_json(resumed.metrics) == render_metrics_json(
            uninterrupted.metrics
        )

    def test_instrumented_reruns_write_identical_objects(
        self, tmp_path: Path
    ) -> None:
        # Stored spans carry no wall time, so measuring the same
        # instrumented campaign twice writes the same objects, index
        # entries and manifest.
        trees = []
        for name in ("first", "second"):
            root = tmp_path / name
            run_campaign(SPEC, workers=1, store=CampaignStore(root))
            trees.append(
                {
                    path.relative_to(root).as_posix(): path.read_bytes()
                    for path in sorted(root.rglob("*.json"))
                    if not path.name.endswith(".store.json")
                }
            )
        assert len(trees[0]) == 2 * len(CONFIG.countries) + 1
        assert trees[0] == trees[1]

    def test_resume_of_complete_campaign_measures_nothing(
        self, uninterrupted, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path / "store")
        run_campaign(SPEC, workers=1, store=store)
        again = run_campaign(SPEC, workers=1, store=store, resume=True)
        hits, misses, skipped = (
            countries_of(again.store_metrics, name)
            for name in (
                "repro_store_shard_hits_total",
                "repro_store_shard_misses_total",
                "repro_store_resume_skipped_total",
            )
        )
        assert hits == set(CONFIG.countries)
        assert misses == set()
        assert skipped == set(CONFIG.countries)
        assert render_metrics_json(again.metrics) == render_metrics_json(
            uninterrupted.metrics
        )


class TestSince:
    def test_since_reuses_unchurned_countries(
        self, evolved_full, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path / "store")
        base = run_campaign(SPEC, workers=1, store=store)
        incremental = run_campaign(
            EVOLVED_SPEC,
            workers=1,
            store=store,
            baseline=base.campaign,
        )
        assert countries_of(
            incremental.store_metrics, "repro_store_shard_hits_total"
        ) == {"DE", "TH", "US"}
        assert countries_of(
            incremental.store_metrics, "repro_store_shard_misses_total"
        ) == {"BR"}
        # --since never marks anything "resume skipped" — that counter
        # is reserved for continuing the same campaign.
        assert countries_of(
            incremental.store_metrics, "repro_store_resume_skipped_total"
        ) == set()
        assert csv_bytes(
            incremental, tmp_path / "incremental.csv"
        ) == csv_bytes(evolved_full, tmp_path / "full.csv")
        assert render_metrics_json(
            incremental.metrics
        ) == render_metrics_json(evolved_full.metrics)
        # Manifest records the provenance: reused shards point at the
        # same objects as the baseline campaign's.
        base_manifest = store.load_manifest(base.campaign)
        incr_manifest = store.load_manifest(incremental.campaign)
        for cc in ("DE", "TH", "US"):
            assert (
                incr_manifest["countries"][cc]["object"]
                == base_manifest["countries"][cc]["object"]
            )
        assert (
            incr_manifest["countries"]["BR"]["object"]
            != base_manifest["countries"]["BR"]["object"]
        )

    def test_since_unknown_baseline_rejected(self, tmp_path: Path) -> None:
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(PipelineError, match="not found"):
            run_campaign(
                SPEC, workers=1, store=store, baseline="0" * 64
            )


class TestGuards:
    def test_resume_requires_store(self) -> None:
        with pytest.raises(PipelineError, match="store"):
            run_campaign(SPEC, resume=True)

    def test_baseline_requires_store(self) -> None:
        with pytest.raises(PipelineError, match="store"):
            run_campaign(SPEC, baseline="abc")
