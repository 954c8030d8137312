"""Materialization: derived keys, cache tiers, invalidation, gc/fsck."""

from __future__ import annotations

import json
from collections import Counter

from repro.analysis.storediff import campaign_summary, dataset_from_manifest
from repro.obs.metrics import MetricsRegistry
from repro.serve.materialize import (
    MATERIALIZE_VERSION,
    Materializer,
    derived_key,
)
from repro.store import CampaignStore, digest_of


def store_of(root) -> CampaignStore:
    return CampaignStore(root)


def only_campaign(store: CampaignStore) -> tuple[str, dict]:
    campaign = store.list_campaign_ids()[0]
    return campaign, store.load_manifest(campaign)


class TestDerivedKey:
    def test_deterministic(self):
        assert derived_key("campaign", {"manifest": "d1"}) == derived_key(
            "campaign", {"manifest": "d1"}
        )

    def test_kind_and_inputs_disjoint(self):
        keys = {
            derived_key("campaign", {"manifest": "d1"}),
            derived_key("diff", {"manifest": "d1"}),
            derived_key("campaign", {"manifest": "d2"}),
        }
        assert len(keys) == 3

    def test_version_is_part_of_the_key(self):
        assert MATERIALIZE_VERSION in json.dumps(
            {
                "materialize": MATERIALIZE_VERSION,
            }
        )


class TestDerivedStore:
    def test_put_get_roundtrip(self, served_store):
        store = store_of(served_store)
        key = derived_key("campaign", {"manifest": "test-roundtrip"})
        assert store.put_derived(key, {"answer": 42}) == {"answer": 42}
        assert store.get_derived(key) == {"answer": 42}
        assert store.get_object(digest_of({"answer": 42})) == {"answer": 42}
        assert key in store.derived_keys()

    def test_miss_returns_none(self, served_store):
        assert store_of(served_store).get_derived("no-such-key") is None

    def test_corrupt_entry_self_heals(self, tmp_path):
        store = store_of(tmp_path)
        key = derived_key("campaign", {"manifest": "x"})
        store.put_derived(key, {"v": 1})
        (tmp_path / "derived" / f"{key}.json").write_text("{broken")
        assert store.get_derived(key) is None
        assert key not in store.derived_keys()

    def test_dangling_entry_self_heals(self, tmp_path):
        store = store_of(tmp_path)
        key = derived_key("campaign", {"manifest": "y"})
        store.put_derived(key, {"v": 2})
        digest = digest_of({"v": 2})
        path = store._objects / digest[:2] / f"{digest}.json"
        path.unlink()
        assert store.get_derived(key) is None
        assert key not in store.derived_keys()


class TestMaterializer:
    def test_build_then_memory_then_disk(self, served_store, campaign_ids):
        store = store_of(served_store)
        base, evolved = campaign_ids
        manifest_a = store.load_manifest(base)
        manifest_b = store.load_manifest(evolved)
        digest_a = digest_of(manifest_a)
        digest_b = digest_of(manifest_b)
        # one call per payload kind behind the read path's URLs; each
        # returns a memory-tier entry, compared by its payload
        calls = [
            (
                "campaign",
                lambda m: m.summary(base, manifest_a, digest_a).payload,
            ),
            (
                "campaign",
                lambda m: m.summary(evolved, manifest_b, digest_b).payload,
            ),
            (
                "diff",
                lambda m: m.diff(
                    base, evolved, manifest_a, manifest_b, digest_a, digest_b
                ).payload,
            ),
            (
                "whatif",
                lambda m: m.whatif(
                    base,
                    manifest_a,
                    digest_a,
                    "outage",
                    {"provider": "Cloudflare", "layer": "hosting"},
                ).payload,
            ),
            (
                "whatif",
                lambda m: m.whatif(
                    base, manifest_a, digest_a, "schism", {"country": "US"}
                ).payload,
            ),
        ]
        kinds = Counter(kind for kind, _ in calls)
        for path in store._derived.glob("*.json"):
            path.unlink()  # force true cold builds

        registry = MetricsRegistry()
        materializer = Materializer(store, registry)
        first = [call(materializer) for _, call in calls]
        assert [call(materializer) for _, call in calls] == first
        outcomes = registry.get("repro_serve_materialize_total")
        for kind, count in kinds.items():
            assert outcomes.value(kind=kind, outcome="build") == count
            assert outcomes.value(kind=kind, outcome="memory") == count

        # a fresh materializer over the same store hits disk, not build
        second_registry = MetricsRegistry()
        restarted = Materializer(store, second_registry)
        assert [call(restarted) for _, call in calls] == first
        second_outcomes = second_registry.get(
            "repro_serve_materialize_total"
        )
        for kind, count in kinds.items():
            assert second_outcomes.value(kind=kind, outcome="disk") == count
            assert second_outcomes.value(kind=kind, outcome="build") == 0

    def test_cold_build_reads_each_derived_entry_once(
        self, served_store, campaign_ids, tmp_path, monkeypatch
    ):
        import shutil

        root = tmp_path / "store"
        shutil.copytree(served_store, root)
        shutil.rmtree(root / "derived")
        store = store_of(root)
        base, evolved = campaign_ids
        manifest_a = store.load_manifest(base)
        manifest_b = store.load_manifest(evolved)
        digest_a = digest_of(manifest_a)
        digest_b = digest_of(manifest_b)
        reads: Counter = Counter()
        get_derived = CampaignStore.get_derived

        def counted(self, key):
            reads[key] += 1
            return get_derived(self, key)

        monkeypatch.setattr(CampaignStore, "get_derived", counted)
        materializer = Materializer(store)
        built = [
            materializer.summary(base, manifest_a, digest_a).payload,
            materializer.diff(
                base, evolved, manifest_a, manifest_b, digest_a, digest_b
            ).payload,
        ]
        keys = store.derived_keys()
        # one read per payload: the miss that sends it to a build
        assert len(keys) == 2
        assert reads == {key: 1 for key in keys}
        # the memory tier holds what a restarted server would load
        monkeypatch.undo()
        restarted = store_of(root)
        assert sorted(built, key=json.dumps) == sorted(
            (restarted.get_derived(key) for key in keys), key=json.dumps
        )

    def test_manifest_change_invalidates(self, served_store):
        store = store_of(served_store)
        materializer = Materializer(store)
        campaign, manifest = only_campaign(store)
        summary = materializer.summary(
            campaign, manifest, digest_of(manifest)
        ).payload
        mutated = json.loads(json.dumps(manifest))
        mutated["complete"] = False
        assert digest_of(mutated) != digest_of(manifest)
        stale = materializer.summary(
            campaign, mutated, digest_of(mutated)
        ).payload
        assert stale["complete"] is False
        assert summary["complete"] is True

    def test_summary_tolerates_partial_campaign(self, served_store):
        store = store_of(served_store)
        campaign, manifest = only_campaign(store)
        partial = json.loads(json.dumps(manifest))
        partial["countries"]["BR"]["object"] = None
        partial["complete"] = False
        payload = campaign_summary(
            campaign, partial, dataset_from_manifest(store, partial)
        )
        assert payload["missing"] == ["BR"]
        assert payload["countries"] == ["DE", "US"]
        assert set(payload["layers"]["hosting"]["centralization"]) == {
            "DE",
            "US",
        }


class TestGcIntegration:
    def _materialized_store(self, tmp_path):
        """A store with one campaign and one live derived summary."""
        from repro.pipeline import CampaignSpec, run_campaign
        from repro.worldgen import WorldConfig

        spec = CampaignSpec(
            config=WorldConfig(
                sites_per_country=50, countries=("TH", "US")
            )
        )
        run_campaign(spec, store=CampaignStore(tmp_path))
        store = CampaignStore(tmp_path)
        campaign, manifest = only_campaign(store)
        Materializer(store).summary(campaign, manifest, digest_of(manifest))
        return store, campaign, manifest

    def test_gc_keeps_live_derived_objects(self, tmp_path):
        store, _, _ = self._materialized_store(tmp_path)
        assert len(store.derived_keys()) == 1
        report = store.gc()
        assert report.derived_removed == 0
        assert len(store.derived_keys()) == 1
        # the summary object survived the sweep
        fresh = CampaignStore(tmp_path)
        key = fresh.derived_keys()[0]
        assert fresh.get_derived(key) is not None

    def test_gc_drops_derived_when_manifest_changes(self, tmp_path):
        store, campaign, manifest = self._materialized_store(tmp_path)
        manifest["complete"] = False
        store.save_manifest(manifest)
        report = store.gc()
        assert report.derived_removed == 1
        assert store.derived_keys() == []

    def test_gc_dry_run_touches_nothing(self, tmp_path):
        store, campaign, manifest = self._materialized_store(tmp_path)
        manifest["complete"] = False
        store.save_manifest(manifest)
        report = store.gc(dry_run=True)
        assert report.derived_removed == 1
        assert len(store.derived_keys()) == 1

    def test_gc_render_mentions_derived(self, tmp_path):
        store, campaign, manifest = self._materialized_store(tmp_path)
        manifest["complete"] = False
        store.save_manifest(manifest)
        assert "derived" in store.gc().render()


class TestFsckIntegration:
    def test_clean_store_with_derived_is_clean(self, tmp_path):
        store, _, _ = TestGcIntegration()._materialized_store(tmp_path)
        report = store.fsck()
        assert report.clean
        assert report.bad_derived == []
        # derived-referenced objects are not orphans
        assert report.orphan_objects == []

    def test_dangling_derived_reported_and_repaired(self, tmp_path):
        store, _, _ = TestGcIntegration()._materialized_store(tmp_path)
        key = store.derived_keys()[0]
        entry = json.loads(
            (tmp_path / "derived" / f"{key}.json").read_text()
        )
        digest = entry["object"]
        (store._objects / digest[:2] / f"{digest}.json").unlink()
        report = store.fsck()
        assert report.bad_derived == [key]
        assert not report.clean
        repaired = store.fsck(repair=True)
        assert repaired.bad_derived == [key]
        assert store.derived_keys() == []
        assert store.fsck().clean

    def test_corrupt_derived_entry_reported(self, tmp_path):
        store, _, _ = TestGcIntegration()._materialized_store(tmp_path)
        key = store.derived_keys()[0]
        (tmp_path / "derived" / f"{key}.json").write_text("not json")
        report = store.fsck()
        assert report.bad_derived == [key]
        assert "derived" in report.render()
