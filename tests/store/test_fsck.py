"""Store integrity: tmp sweep, typed corruption errors, and fsck.

Complements the chaos integration suite with surgical damage: each
test breaks exactly one invariant of the on-disk layout and asserts
fsck names it, ``--repair`` drops it, and the resume machinery is
left able to re-measure exactly what was lost.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import StoreCorruptionError
from repro.faults.chaos import corrupt_object
from repro.pipeline import CampaignSpec, run_campaign
from repro.store import CampaignStore
from repro.worldgen import WorldConfig

CONFIG = WorldConfig(sites_per_country=50, countries=("TH", "US"))
SPEC = CampaignSpec(config=CONFIG, instrument=False)


@pytest.fixture()
def populated(tmp_path: Path) -> CampaignStore:
    store = CampaignStore(tmp_path / "store")
    run_campaign(SPEC, workers=1, store=store)
    return store


def object_paths(store: CampaignStore) -> list[Path]:
    return sorted(Path(store.root, "objects").glob("*/*.json"))


class TestTmpSweep:
    def test_orphaned_tmp_files_swept_on_open(
        self, populated: CampaignStore
    ) -> None:
        root = populated.root
        strays = [
            root / "objects" / "ab" / "deadbeef.json.tmp",
            root / "index" / "somekey.json.tmp",
            root / "campaigns" / "somecampaign.json.tmp",
        ]
        for stray in strays:
            stray.parent.mkdir(parents=True, exist_ok=True)
            stray.write_text("{torn write}", encoding="utf-8")

        reopened = CampaignStore(root)
        assert reopened.tmp_swept == 3
        assert not any(stray.exists() for stray in strays)
        # The sweep is reported through fsck too.
        report = reopened.fsck()
        assert report.tmp_swept == 3
        assert "swept 3 orphaned tmp files" in report.render()

    def test_clean_store_sweeps_nothing(
        self, populated: CampaignStore
    ) -> None:
        assert CampaignStore(populated.root).tmp_swept == 0


class TestTypedCorruptionErrors:
    def test_bitflip_raises_typed_error_on_get_object(
        self, populated: CampaignStore
    ) -> None:
        path = object_paths(populated)[0]
        corrupt_object(path)
        with pytest.raises(StoreCorruptionError, match="fsck"):
            populated.get_object(path.stem)

    def test_truncation_raises_typed_error(
        self, populated: CampaignStore
    ) -> None:
        path = object_paths(populated)[0]
        corrupt_object(path, truncate=True)
        with pytest.raises(StoreCorruptionError, match="unparseable"):
            populated.get_object(path.stem)

    def test_corrupt_index_entry_raises_typed_error(
        self, populated: CampaignStore
    ) -> None:
        index_path = sorted(
            Path(populated.root, "index").glob("*.json")
        )[0]
        index_path.write_text("{не json", encoding="utf-8")
        with pytest.raises(StoreCorruptionError, match="index entry"):
            populated.shard_digest(index_path.stem)

    def test_index_to_missing_object_raises_typed_error(
        self, populated: CampaignStore
    ) -> None:
        index_path = sorted(
            Path(populated.root, "index").glob("*.json")
        )[0]
        index_path.write_text(
            json.dumps({"object": "0" * 64}), encoding="utf-8"
        )
        with pytest.raises(StoreCorruptionError, match="missing object"):
            populated.get_shard(index_path.stem)

    def test_corruption_always_detectable_on_float_heavy_objects(
        self, populated: CampaignStore
    ) -> None:
        # Objects are hashed over canonical JSON but stored
        # pretty-printed; flipping the last digit of a 17-significant
        # digit float repr can parse back to the same double, making
        # the "corruption" semantically invisible to verification.
        # corrupt_object must skip such positions for every seed.
        digest = populated.put_object(
            {
                "spans": [
                    {"start_logical": 23.390902429021756 + i * 1e-9}
                    for i in range(12)
                ]
            }
        )
        path = next(
            p for p in object_paths(populated) if p.stem == digest
        )
        pristine = path.read_bytes()
        for seed in range(50):
            path.write_bytes(pristine)
            corrupt_object(path, seed=seed)
            with pytest.raises(StoreCorruptionError):
                populated.get_object(digest)


class TestFsck:
    def test_clean_store(self, populated: CampaignStore) -> None:
        report = populated.fsck()
        assert report.clean
        assert report.objects_scanned == len(object_paths(populated))
        assert "store is clean" in report.render()

    def test_detects_each_damage_class(
        self, populated: CampaignStore
    ) -> None:
        paths = object_paths(populated)
        corrupt_object(paths[0])
        index_dir = Path(populated.root, "index")
        # Break the index entry naming the corrupt object (chosen by
        # content, not by where its key sorts), so the only dangling
        # entry is the phantom.
        [broken] = [
            path
            for path in index_dir.glob("*.json")
            if json.loads(path.read_text(encoding="utf-8"))["object"]
            == paths[0].stem
        ]
        broken.write_text("not json", encoding="utf-8")
        (index_dir / "phantom.json").write_text(
            json.dumps({"object": "f" * 64}), encoding="utf-8"
        )

        report = populated.fsck()
        assert not report.clean
        assert report.corrupt_objects == [paths[0].stem]
        assert report.corrupt_index == [broken.stem]
        assert report.dangling_index == ["phantom"]
        # The corrupt object is referenced by a manifest entry.
        campaigns = [
            c for c, _cc in report.manifest_entries_cleared
        ]
        assert campaigns
        rendered = report.render()
        assert "corrupt object" in rendered
        assert "--repair" in rendered

    def test_repair_drops_damage_and_marks_manifest_incomplete(
        self, populated: CampaignStore
    ) -> None:
        paths = object_paths(populated)
        corrupt_object(paths[0])
        report = populated.fsck(repair=True)
        assert report.repaired
        assert not paths[0].exists()
        assert populated.fsck().clean

        [(campaign, cleared_cc)] = report.manifest_entries_cleared
        manifest = populated.load_manifest(campaign)
        assert manifest["complete"] is False
        assert manifest["countries"][cleared_cc]["object"] is None
        # Resume re-measures exactly the cleared country and re-marks
        # the campaign complete.
        result = run_campaign(SPEC, workers=1, store=populated, resume=True)
        assert (
            populated.load_manifest(result.campaign)["complete"] is True
        )
        assert populated.fsck().clean

    def test_orphans_reported_not_dropped(
        self, populated: CampaignStore
    ) -> None:
        digest = populated.put_object({"stray": True})
        report = populated.fsck()
        assert report.clean  # orphans are waste, not damage
        assert digest in report.orphan_objects
        assert "gc" in report.render()
        populated.fsck(repair=True)
        assert populated.get_object(digest) is not None

    def test_corrupt_manifest_reported_never_dropped(
        self, populated: CampaignStore
    ) -> None:
        manifest_path = next(
            p
            for p in Path(populated.root, "campaigns").glob("*.json")
            if not p.name.endswith(".store.json")
        )
        manifest_path.write_text("{broken", encoding="utf-8")
        report = populated.fsck(repair=True)
        assert report.corrupt_manifests == [manifest_path.stem]
        assert manifest_path.exists()  # fsck never deletes manifests
        with pytest.raises(StoreCorruptionError):
            populated.load_manifest(manifest_path.stem)

    @pytest.mark.parametrize(
        "manifest_text",
        ["[]", json.dumps({"_schema": "repro-manifest-v999"})],
        ids=["not-an-object", "wrong-schema"],
    )
    def test_parseable_but_malformed_documents_are_corrupt(
        self, populated: CampaignStore, manifest_text: str
    ) -> None:
        """JSON that parses is still damage when it is not the document
        its file claims to be: fsck and the loaders agree."""
        manifest_path = next(
            p
            for p in Path(populated.root, "campaigns").glob("*.json")
            if not p.name.endswith(".store.json")
        )
        manifest_path.write_text(manifest_text, encoding="utf-8")
        index_path = sorted(Path(populated.root, "index").glob("*.json"))[0]
        index_path.write_text("{}", encoding="utf-8")

        report = populated.fsck()
        assert report.corrupt_manifests == [manifest_path.stem]
        assert report.corrupt_index == [index_path.stem]
        with pytest.raises(StoreCorruptionError, match="schema"):
            populated.load_manifest(manifest_path.stem)
        with pytest.raises(StoreCorruptionError, match="index entry"):
            populated.shard_digest(index_path.stem)

    def test_repair_counts(self, populated: CampaignStore) -> None:
        corrupt_object(object_paths(populated)[0])
        report = populated.fsck(repair=True)

        assert report.repaired
        assert report.objects_scanned == 2
        assert len(report.corrupt_objects) == 1
        # The index entry that pointed at the corrupt object dangles
        # and is dropped with it.
        assert len(report.dangling_index) == 1
        assert len(report.manifest_entries_cleared) == 1
        assert report.corrupt_index == []
        assert report.bad_derived == []
