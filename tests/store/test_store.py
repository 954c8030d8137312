"""CampaignStore unit behavior: objects, index, manifests, gc."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import PipelineError, StoreCorruptionError
from repro.obs.spans import Span
from repro.pipeline.parallel import CountryResult
from repro.pipeline.records import WebsiteMeasurement
from repro.store import (
    MANIFEST_SCHEMA,
    SHARD_SCHEMA,
    CampaignStore,
    decode_shard,
    digest_of,
    encode_shard,
)


def sample_result(country: str = "DE", *, spans: bool = True) -> CountryResult:
    rows = (
        WebsiteMeasurement(
            domain="example.de",
            country=country,
            rank=1,
            ip=167772161,
            hosting_org="Hetzner",
            hosting_org_country="DE",
            ip_country="DE",
            ip_continent="EU",
            dns_org="Hetzner",
            dns_org_country="DE",
            ns_continent="EU",
            ca_owner="Let's Encrypt",
            ca_country="US",
            tld="de",
            language="de",
            attempts=2,
        ),
        WebsiteMeasurement(
            domain="broken.de",
            country=country,
            rank=2,
            error="dns: nxdomain",
            dns_error="dns: all nameservers failed",
            attempts=4,
            degraded=True,
        ),
    )
    return CountryResult(
        country=country,
        rows=rows,
        metrics={"metrics": {}} if spans else None,
        spans=(
            Span(
                attrs={"domain": "example.de"},
                error=None,
                logical_seconds=0.5,
                name="site",
                parent_id=None,
                span_id=1,
                start_logical=0.0,
                status="ok",
                wall_ms=None,
            ),
        )
        if spans
        else None,
        injected_faults=3,
        open_circuits=("ns1.example.de",),
    )


class TestShardCodec:
    def test_round_trip(self) -> None:
        result = sample_result()
        assert decode_shard(encode_shard(result)) == result

    def test_round_trip_uninstrumented(self) -> None:
        result = sample_result(spans=False)
        assert decode_shard(encode_shard(result)) == result

    def test_payload_is_json_ready(self) -> None:
        json.dumps(encode_shard(sample_result()), sort_keys=True)

    def test_schema_mismatch_rejected(self) -> None:
        payload = encode_shard(sample_result())
        payload["_schema"] = "repro-shard-v999"
        with pytest.raises(PipelineError):
            decode_shard(payload)


class TestObjectsAndIndex:
    def test_put_object_is_idempotent_and_content_addressed(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path)
        payload = {"_schema": SHARD_SCHEMA, "x": 1}
        digest = store.put_object(payload)
        assert digest == digest_of(payload)
        assert store.put_object(payload) == digest
        assert store.get_object(digest) == payload
        assert store.get_object("0" * 64) is None

    def test_put_object_encodes_once(self, tmp_path: Path, monkeypatch) -> None:
        # The digest is the sha256 of the very bytes the file holds, so
        # a payload is encoded once, not once to hash and once to write.
        encodes = []
        encode = json.JSONEncoder.encode

        def counting(self, document):
            encodes.append(document)
            return encode(self, document)

        store = CampaignStore(tmp_path)
        payload = encode_shard(sample_result())
        monkeypatch.setattr(json.JSONEncoder, "encode", counting)
        digest = store.put_object(payload)
        monkeypatch.undo()
        assert encodes == [payload]
        raw = (tmp_path / "objects" / digest[:2] / f"{digest}.json").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == digest

    def test_put_shard_and_lookup(self, tmp_path: Path) -> None:
        store = CampaignStore(tmp_path)
        result = sample_result()
        assert not store.has_shard("key-1")
        digest = store.put_shard("key-1", result)
        assert store.has_shard("key-1")
        assert store.shard_digest("key-1") == digest
        assert store.get_shard("key-1") == result
        assert store.get_shard("key-absent") is None

    @pytest.mark.parametrize(
        "field", [name for name in Span._fields if name != "wall_ms"]
    )
    def test_stored_span_missing_a_field_is_corruption(
        self, tmp_path: Path, monkeypatch, field: str
    ) -> None:
        import repro.store.store as store_module

        encode = store_module.encode_shard

        def dropping(result):
            payload = encode(result)
            del payload["spans"][0][field]
            return payload

        store = CampaignStore(tmp_path)
        monkeypatch.setattr(store_module, "encode_shard", dropping)
        store.put_shard("key-1", sample_result())
        monkeypatch.undo()
        with pytest.raises(StoreCorruptionError, match="malformed shard"):
            store.get_shard("key-1")

    def test_dangling_index_entry_raises(self, tmp_path: Path) -> None:
        store = CampaignStore(tmp_path)
        digest = store.put_shard("key-1", sample_result())
        (tmp_path / "objects" / digest[:2] / f"{digest}.json").unlink()
        with pytest.raises(PipelineError):
            store.get_shard("key-1")


class TestManifests:
    def manifest(self, campaign: str, obj: str | None) -> dict:
        return {
            "_schema": MANIFEST_SCHEMA,
            "campaign": campaign,
            "spec": {},
            "baseline": None,
            "complete": obj is not None,
            "countries": {
                "DE": {"slice": "s", "shard_key": "key-1", "object": obj}
            },
        }

    def test_save_load_list(self, tmp_path: Path) -> None:
        store = CampaignStore(tmp_path)
        manifest = self.manifest("c1", "d1")
        store.save_manifest(manifest)
        assert store.load_manifest("c1") == manifest
        assert store.load_manifest("missing") is None
        assert store.list_campaigns() == [manifest]

    def test_schema_validated(self, tmp_path: Path) -> None:
        store = CampaignStore(tmp_path)
        with pytest.raises(PipelineError):
            store.save_manifest({"_schema": "nope", "campaign": "c1"})

    def test_store_metrics_artifact_not_listed(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path)
        store.save_manifest(self.manifest("c1", "d1"))
        store.write_store_metrics("c1", {"metrics": {}})
        assert store.load_store_metrics("c1") == {"metrics": {}}
        assert store.load_store_metrics("missing") is None
        assert [m["campaign"] for m in store.list_campaigns()] == ["c1"]


class TestGc:
    def test_unreferenced_objects_and_index_removed(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path)
        kept = store.put_shard("key-kept", sample_result("DE"))
        store.put_shard("key-drop", sample_result("BR"))
        store.save_manifest(
            {
                "_schema": MANIFEST_SCHEMA,
                "campaign": "c1",
                "spec": {},
                "baseline": None,
                "complete": True,
                "countries": {
                    "DE": {
                        "slice": "s",
                        "shard_key": "key-kept",
                        "object": kept,
                    }
                },
            }
        )
        report = store.gc()
        assert (report.objects_removed, report.index_removed) == (1, 1)
        assert not report.dry_run
        assert report.bytes_freed > 0
        assert "removed 1 objects" in report.render()
        assert store.get_shard("key-kept") == sample_result("DE")
        assert not store.has_shard("key-drop")
        # A second pass finds nothing left to collect.
        second = store.gc()
        assert (second.objects_removed, second.index_removed) == (0, 0)

    def test_dry_run_reports_without_deleting(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path)
        store.put_shard("key-drop", sample_result("BR"))
        report = store.gc(dry_run=True)
        assert report.dry_run
        assert (report.objects_removed, report.index_removed) == (1, 1)
        assert report.render().startswith("would remove")
        # Nothing was actually deleted: the shard is still there and
        # a real pass removes exactly what the dry run reported.
        assert store.has_shard("key-drop")
        real = store.gc()
        assert (real.objects_removed, real.index_removed) == (1, 1)
        assert real.bytes_freed == report.bytes_freed
