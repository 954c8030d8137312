"""Content-addressed, append-only campaign store.

Layout (under one root directory)::

    objects/<aa>/<digest>.json   content-addressed shard payloads
    index/<shard_key>.json       shard-key -> object digest
    derived/<key>.json           derived-key -> materialized object
    campaigns/<id>.json          campaign manifests
    campaigns/<id>.store.json    store-telemetry artifacts
    series/<id>.json             longitudinal series ledgers
    series/<id>.watch.json       watch-telemetry artifacts

Objects are immutable: a payload is written once under the sha256 of
its canonical JSON and never modified.  The index maps the
*input-keyed* identity of a shard (:func:`repro.store.digest.shard_key`)
to the content digest of its result, which is what lets a resumed or
incremental run answer "has this exact measurement already been done?"
with a single file stat.  Manifests record which shards a campaign
comprises and whether it ran to completion; they are the GC root set.

All writes go through a temp-file + :func:`os.replace` so a crash
mid-write never leaves a torn object — but disks, not just crashes,
corrupt stores: bit flips, truncation by a full filesystem, a crash
*inside* the page cache flush.  Loads therefore verify: every object
read re-hashes its payload against its filename and raises a typed
:class:`~repro.errors.StoreCorruptionError` on any mismatch or parse
failure, and :meth:`CampaignStore.fsck` sweeps the whole store
(``repro campaigns fsck [--repair]``), so a damaged store degrades
into "re-measure exactly these countries" instead of silent reuse of
bad data.  Orphaned ``*.tmp`` files (a crash between tmp-write and
``os.replace``) are swept on store open.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import PipelineError, StoreCorruptionError
from ..obs.metrics import render_metrics_json
from ..pipeline.export import rows_from_csv_text, rows_to_csv_text
from ..pipeline.parallel import CountryResult
from .digest import digest_of

__all__ = [
    "CampaignStore",
    "FsckReport",
    "GcReport",
    "SHARD_SCHEMA",
    "MANIFEST_SCHEMA",
    "SERIES_SCHEMA",
    "DERIVED_SCHEMA",
]

#: Schema tag of stored shard payloads.
SHARD_SCHEMA = "repro-shard-v1"

#: Schema tag of campaign manifests.
MANIFEST_SCHEMA = "repro-manifest-v1"

#: Schema tag of longitudinal series ledgers (:mod:`repro.store.series`).
SERIES_SCHEMA = "repro-series-v1"

#: Schema tag of materialized (derived) summary payloads
#: (:mod:`repro.serve.materialize`).
DERIVED_SCHEMA = "repro-derived-v1"


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def encode_shard(result: CountryResult) -> dict:
    """A CountryResult as a JSON-ready shard payload.

    The ``quarantined`` marker is included only when set, so the
    digests of ordinary shards are unchanged from stores written
    before quarantine existed.  Spans are stored without ``wall_ms``,
    the one field that varies run to run, so re-measuring an
    instrumented shard key writes the object already stored.
    """
    spans = None
    if result.spans is not None:
        spans = [
            {name: value for name, value in span.items() if name != "wall_ms"}
            for span in result.spans
        ]
    payload = {
        "_schema": SHARD_SCHEMA,
        "country": result.country,
        "csv": rows_to_csv_text(result.rows),
        "metrics": result.metrics,
        "spans": spans,
        "injected_faults": result.injected_faults,
        "open_circuits": list(result.open_circuits),
    }
    if result.quarantined is not None:
        payload["quarantined"] = result.quarantined
    return payload


def decode_shard(payload: dict) -> CountryResult:
    """Rebuild a CountryResult from a stored shard payload."""
    if not isinstance(payload, dict) or payload.get("_schema") != SHARD_SCHEMA:
        raise StoreCorruptionError(
            f"unsupported shard schema "
            f"{payload.get('_schema') if isinstance(payload, dict) else payload!r}"
        )
    spans = payload.get("spans")
    try:
        return CountryResult(
            country=payload["country"],
            rows=rows_from_csv_text(payload["csv"]),
            metrics=payload.get("metrics"),
            spans=tuple(spans) if spans is not None else None,
            injected_faults=int(payload.get("injected_faults", 0)),
            open_circuits=tuple(payload.get("open_circuits", ())),
            quarantined=payload.get("quarantined"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise StoreCorruptionError(
            f"malformed shard payload ({exc}); run `repro campaigns "
            f"fsck --repair`"
        ) from exc


class CampaignStore:
    """Append-only persistence for campaign results.

    Safe for concurrent readers; writes are single-process (the
    campaign runner checkpoints from the parent process only).
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._objects = self._root / "objects"
        self._index = self._root / "index"
        self._derived = self._root / "derived"
        self._campaigns = self._root / "campaigns"
        self._series = self._root / "series"
        for directory in (
            self._objects,
            self._index,
            self._derived,
            self._campaigns,
            self._series,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        #: Orphaned temp files swept on open (crash between tmp-write
        #: and ``os.replace`` leaks them; they are never referenced,
        #: so sweeping is always safe — writes are single-process).
        self.tmp_swept = self._sweep_tmp()

    def _sweep_tmp(self) -> int:
        swept = 0
        for directory in (
            self._objects,
            self._index,
            self._derived,
            self._campaigns,
            self._series,
        ):
            for tmp in directory.rglob("*.tmp"):
                try:
                    tmp.unlink()
                except OSError:  # pragma: no cover - races with nothing
                    continue
                swept += 1
        return swept

    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    # ------------------------------------------------------------------
    # Objects and the shard index
    # ------------------------------------------------------------------

    def _object_path(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.json"

    def _index_path(self, key: str) -> Path:
        return self._index / f"{key}.json"

    def put_object(self, payload: dict) -> str:
        """Store a payload by content; returns its digest (idempotent)."""
        digest = digest_of(payload)
        path = self._object_path(digest)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(
                path, json.dumps(payload, sort_keys=True, indent=1)
            )
        return digest

    def get_object(self, digest: str) -> dict | None:
        """Load and verify a payload by content digest (None when absent).

        Every load re-hashes the parsed payload against the digest it
        was stored under: a truncated or bit-flipped object raises
        :class:`~repro.errors.StoreCorruptionError` instead of feeding
        damaged data into a resume.
        """
        path = self._object_path(digest)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorruptionError(
                f"object {digest} is corrupt (unparseable JSON: {exc}); "
                f"run `repro campaigns fsck --repair`"
            ) from exc
        try:
            actual = digest_of(payload)
        except (UnicodeEncodeError, ValueError, TypeError) as exc:
            # json.loads accepts things canonical JSON cannot re-encode
            # (lone surrogates from a bit-flipped escape): unhashable
            # content is corrupt content.
            raise StoreCorruptionError(
                f"object {digest} is corrupt (unhashable payload: "
                f"{exc}); run `repro campaigns fsck --repair`"
            ) from exc
        if actual != digest:
            raise StoreCorruptionError(
                f"object {digest} fails content verification (payload "
                f"hashes to {actual}); run `repro campaigns fsck --repair`"
            )
        return payload

    def object_size(self, digest: str) -> int | None:
        """On-disk byte size of a stored object (None when absent).

        Object files are canonical JSON written once, so the size is
        as deterministic as the digest — which is what lets the watch
        quota planner account bytes without ever re-reading payloads.
        """
        path = self._object_path(digest)
        try:
            return path.stat().st_size
        except OSError:
            return None

    def objects_bytes(self) -> int:
        """Total on-disk bytes of the ``objects/`` payload tree."""
        return sum(
            path.stat().st_size
            for path in self._objects.glob("*/*.json")
        )

    def put_shard(self, key: str, result: CountryResult) -> str:
        """Store one country's result under its shard key.

        The payload lands in ``objects/`` first and the index entry is
        written (atomically) after, so a crash between the two leaves
        at worst an unreferenced object — never an index entry pointing
        at a missing payload.
        """
        digest = self.put_object(encode_shard(result))
        _atomic_write_text(
            self._index_path(key),
            json.dumps({"object": digest}),
        )
        return digest

    def has_shard(self, key: str) -> bool:
        """True when a result for this shard key is stored."""
        return self._index_path(key).exists()

    def shard_digest(self, key: str) -> str | None:
        """The object digest a shard key resolves to (None when absent)."""
        path = self._index_path(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorruptionError(
                f"index entry {key} is corrupt ({exc}); run "
                f"`repro campaigns fsck --repair`"
            ) from exc
        if not isinstance(entry, dict):
            raise StoreCorruptionError(
                f"index entry {key} is corrupt (not an object); run "
                f"`repro campaigns fsck --repair`"
            )
        return entry.get("object")

    def get_shard(self, key: str) -> CountryResult | None:
        """Load one country's stored result (None when absent)."""
        digest = self.shard_digest(key)
        if digest is None:
            return None
        payload = self.get_object(digest)
        if payload is None:
            raise StoreCorruptionError(
                f"store index references missing object {digest} "
                f"(key {key}); run `repro campaigns fsck --repair`"
            )
        return decode_shard(payload)

    # ------------------------------------------------------------------
    # Derived (materialized) objects
    # ------------------------------------------------------------------

    def _derived_path(self, key: str) -> Path:
        return self._derived / f"{key}.json"

    def put_derived(
        self, key: str, payload: dict, manifests: "list[str] | tuple[str, ...]" = ()
    ) -> str:
        """Store a materialized payload under a derived key.

        The payload lands in ``objects/`` (content-addressed, verified
        on load like any object) and the derived entry maps the key to
        it, recording which manifest digests it was computed from so
        :meth:`gc` can drop it the moment any input manifest changes
        or disappears.  Idempotent: rebuilding the same payload under
        the same key rewrites identical bytes.
        """
        digest = self.put_object(payload)
        _atomic_write_text(
            self._derived_path(key),
            json.dumps(
                {"object": digest, "manifests": sorted(manifests)}
            ),
        )
        return digest

    def get_derived(self, key: str) -> dict | None:
        """Load a materialized payload by derived key (None on miss).

        Derived entries are *caches*: unlike shard loads, damage here
        is self-healing — a corrupt entry or object is dropped and
        ``None`` returned, so the caller simply rebuilds.
        """
        path = self._derived_path(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            digest = entry.get("object") if isinstance(entry, dict) else None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            digest = None
        if digest is None:
            path.unlink(missing_ok=True)
            return None
        try:
            payload = self.get_object(digest)
        except StoreCorruptionError:
            payload = None
        if payload is None:
            path.unlink(missing_ok=True)
            return None
        return payload

    def derived_keys(self) -> list[str]:
        """Every stored derived key, sorted."""
        return sorted(path.stem for path in self._derived.glob("*.json"))

    # ------------------------------------------------------------------
    # Manifests
    # ------------------------------------------------------------------

    def _manifest_path(self, campaign: str) -> Path:
        return self._campaigns / f"{campaign}.json"

    def save_manifest(self, manifest: dict) -> None:
        """Write a campaign manifest (overwrites previous state)."""
        if manifest.get("_schema") != MANIFEST_SCHEMA:
            raise PipelineError(
                f"unsupported manifest schema {manifest.get('_schema')!r}"
            )
        campaign = manifest["campaign"]
        _atomic_write_text(
            self._manifest_path(campaign),
            json.dumps(manifest, sort_keys=True, indent=1),
        )

    def load_manifest(self, campaign: str) -> dict | None:
        """Load a campaign manifest (None when absent)."""
        path = self._manifest_path(campaign)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorruptionError(
                f"manifest {campaign} is corrupt ({exc})"
            ) from exc

    def delete_manifest(self, campaign: str) -> bool:
        """Drop a campaign manifest (and its store-metrics artifact).

        Returns True when the manifest existed.  Idempotent on
        purpose: the watch retirement path replays after a crash, and
        deleting an already-deleted manifest must be a no-op, not an
        error.  The shard objects themselves are reclaimed by the next
        :meth:`gc` — manifests are the root set, so dropping one is
        how an epoch is retired.
        """
        removed = False
        path = self._manifest_path(campaign)
        if path.exists():
            path.unlink()
            removed = True
        metrics = self._store_metrics_path(campaign)
        if metrics.exists():
            metrics.unlink()
        return removed

    def list_campaign_ids(self) -> list[str]:
        """Ids of every stored manifest, sorted — no manifest loads.

        The listing index: one directory scan, zero JSON parses, so
        resolving an id prefix or paging a listing never pays for
        manifests it does not read.
        """
        return sorted(
            path.stem
            for path in self._campaigns.glob("*.json")
            if not path.name.endswith(".store.json")
        )

    def iter_campaigns(self, on_corrupt=None):
        """Yield ``(campaign_id, manifest)`` pairs, loading lazily.

        Manifests are loaded one at a time as the caller consumes the
        iterator, in sorted-id order.  A manifest that raises
        :class:`~repro.errors.StoreCorruptionError` aborts the whole
        iteration by default; with an ``on_corrupt(campaign, exc)``
        callback it is reported and skipped instead, so one damaged
        manifest no longer takes the listing down with it.
        """
        for campaign in self.list_campaign_ids():
            try:
                manifest = self.load_manifest(campaign)
            except StoreCorruptionError as exc:
                if on_corrupt is None:
                    raise
                on_corrupt(campaign, exc)
                continue
            if manifest is None:  # pragma: no cover - deleted mid-scan
                continue
            yield campaign, manifest

    def list_campaigns(self, on_corrupt=None) -> list[dict]:
        """Every stored manifest, sorted by campaign id.

        ``on_corrupt`` as in :meth:`iter_campaigns`; without it a
        damaged manifest raises.
        """
        return [
            manifest
            for _, manifest in self.iter_campaigns(on_corrupt=on_corrupt)
        ]

    # ------------------------------------------------------------------
    # Store telemetry artifacts
    # ------------------------------------------------------------------

    def _store_metrics_path(self, campaign: str) -> Path:
        return self._campaigns / f"{campaign}.store.json"

    def write_store_metrics(self, campaign: str, payload: dict) -> None:
        """Write a campaign's store-telemetry metrics payload.

        Kept out of the campaign's own ``--metrics-out`` export on
        purpose: resumed and uninterrupted runs must emit byte-identical
        measurement metrics, and hit/miss counts differ by design.
        """
        _atomic_write_text(
            self._store_metrics_path(campaign), render_metrics_json(payload)
        )

    def load_store_metrics(self, campaign: str) -> dict | None:
        """Load a campaign's store-telemetry payload (None when absent)."""
        path = self._store_metrics_path(campaign)
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    # Series ledgers (longitudinal watch)
    # ------------------------------------------------------------------

    def series_path(self, series: str) -> Path:
        """Where a series ledger lives (``series/<id>.json``)."""
        return self._series / f"{series}.json"

    def watch_metrics_path(self, series: str) -> Path:
        """Where a series' watch-telemetry artifact lives."""
        return self._series / f"{series}.watch.json"

    def write_series_text(self, series: str, text: str) -> None:
        """Atomically persist a rendered series ledger."""
        _atomic_write_text(self.series_path(series), text)

    def load_series(self, series: str) -> dict | None:
        """A series ledger's payload, or None when absent/unreadable.

        A reading convenience for inspection commands;
        :class:`~repro.store.series.SeriesLedger` is the validating
        loader and ``fsck`` the corruption detector.
        """
        path = self.series_path(series)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def list_series_ids(self) -> list[str]:
        """Ids of every stored series ledger, sorted."""
        return sorted(
            path.stem
            for path in self._series.glob("*.json")
            if not path.name.endswith(".watch.json")
        )

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def gc(self, dry_run: bool = False) -> "GcReport":
        """Drop objects and index entries no manifest references.

        Manifests are the root set: an object survives iff some
        manifest's country table points at it (directly or through the
        shard index).  With ``dry_run=True`` nothing is deleted — the
        report says what a real sweep *would* reclaim, which is also
        what the watch quota planner previews before committing to a
        retirement.  GC is idempotent: sweeping twice removes nothing
        the second time, so a crash mid-sweep heals on the next run.
        """
        live_objects: set[str] = set()
        live_keys: set[str] = set()
        manifest_digests: set[str] = set()
        for manifest in self.list_campaigns():
            manifest_digests.add(digest_of(manifest))
            for entry in manifest.get("countries", {}).values():
                if entry.get("object"):
                    live_objects.add(entry["object"])
                if entry.get("shard_key"):
                    live_keys.add(entry["shard_key"])
        report = GcReport(dry_run=dry_run)
        # Derived entries are live exactly while every manifest they
        # were computed from is still stored, byte-for-byte: a changed
        # or retired input manifest invalidates its materializations
        # for free.  (A derived entry with no recorded inputs — e.g. a
        # series trend whose live epochs are all retired — is kept; it
        # is content-addressed and its key changes when inputs do.)
        for path in sorted(self._derived.glob("*.json")):
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                digest = entry.get("object") if isinstance(entry, dict) else None
                inputs = entry.get("manifests", []) if isinstance(entry, dict) else []
            except (json.JSONDecodeError, UnicodeDecodeError):
                digest = None
                inputs = []
            stale = digest is None or any(
                d not in manifest_digests for d in inputs
            )
            if stale:
                report.derived_removed += 1
                report.index_bytes += path.stat().st_size
                if not dry_run:
                    path.unlink()
            else:
                live_objects.add(digest)
        for path in self._index.glob("*.json"):
            if path.stem not in live_keys:
                report.index_removed += 1
                report.index_bytes += path.stat().st_size
                if not dry_run:
                    path.unlink()
        for path in self._objects.glob("*/*.json"):
            if path.stem not in live_objects:
                report.objects_removed += 1
                report.objects_bytes += path.stat().st_size
                if not dry_run:
                    path.unlink()
        return report

    # ------------------------------------------------------------------
    # Integrity checking
    # ------------------------------------------------------------------

    def fsck(self, repair: bool = False) -> "FsckReport":
        """Verify every stored artifact against its digest.

        Re-parses and re-hashes every object, resolves every index
        entry, and cross-checks every manifest's country table.  With
        ``repair=True`` the damage is *dropped*, never patched: corrupt
        objects and dangling/corrupt index entries are deleted and
        affected manifest entries cleared (and the manifest marked
        incomplete), so a subsequent ``--resume``/``--since`` simply
        re-measures exactly the damaged countries.  Orphan objects
        (referenced by nothing) are reported but left for ``gc``.
        """
        report = FsckReport(repaired=repair, tmp_swept=self.tmp_swept)
        valid_objects: set[str] = set()
        for path in sorted(self._objects.glob("*/*.json")):
            report.objects_scanned += 1
            digest = path.stem
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                rehash = digest_of(payload)
            except (
                json.JSONDecodeError,
                UnicodeDecodeError,
                UnicodeEncodeError,
                ValueError,
                TypeError,
            ):
                payload = None
                rehash = None
            if payload is None or rehash != digest:
                report.corrupt_objects.append(digest)
                if repair:
                    path.unlink()
            else:
                valid_objects.add(digest)

        referenced: set[str] = set()
        for path in sorted(self._index.glob("*.json")):
            key = path.stem
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                digest = entry.get("object") if isinstance(entry, dict) else None
            except (json.JSONDecodeError, UnicodeDecodeError):
                digest = None
            if digest is None:
                report.corrupt_index.append(key)
                if repair:
                    path.unlink()
            elif digest not in valid_objects:
                report.dangling_index.append(key)
                if repair:
                    path.unlink()
            else:
                referenced.add(digest)

        for path in sorted(self._campaigns.glob("*.json")):
            if path.name.endswith(".store.json"):
                continue
            try:
                manifest = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                report.corrupt_manifests.append(path.stem)
                continue
            dirty = False
            for cc, entry in sorted(
                manifest.get("countries", {}).items()
            ):
                digest = entry.get("object")
                if digest is None:
                    continue
                if digest in valid_objects:
                    referenced.add(digest)
                    continue
                report.manifest_entries_cleared.append(
                    (manifest.get("campaign", path.stem), cc)
                )
                if repair:
                    entry["object"] = None
                    entry.pop("quarantined", None)
                    manifest["complete"] = False
                    dirty = True
            if dirty:
                self.save_manifest(manifest)

        for path in sorted(self._series.glob("*.json")):
            if path.name.endswith(".watch.json"):
                continue
            try:
                ledger = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                report.corrupt_series.append(path.stem)
                continue
            if (
                not isinstance(ledger, dict)
                or ledger.get("_schema") != SERIES_SCHEMA
                or ledger.get("series") != path.stem
            ):
                report.corrupt_series.append(path.stem)

        for path in sorted(self._derived.glob("*.json")):
            key = path.stem
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                digest = entry.get("object") if isinstance(entry, dict) else None
            except (json.JSONDecodeError, UnicodeDecodeError):
                digest = None
            if digest is None or digest not in valid_objects:
                # Derived entries are caches: dropping one costs a
                # rebuild, never data, so repair always deletes.
                report.bad_derived.append(key)
                if repair:
                    path.unlink()
            else:
                referenced.add(digest)

        report.orphan_objects.extend(
            sorted(valid_objects - referenced)
        )
        return report


@dataclass
class GcReport:
    """What :meth:`CampaignStore.gc` swept (or would sweep)."""

    dry_run: bool = False
    objects_removed: int = 0
    index_removed: int = 0
    #: Derived entries dropped because an input manifest changed or
    #: the entry no longer parses (their objects are then swept too).
    derived_removed: int = 0
    #: On-disk bytes of the swept object payloads.
    objects_bytes: int = 0
    #: On-disk bytes of the swept index entries.
    index_bytes: int = 0

    @property
    def bytes_freed(self) -> int:
        """Total bytes the sweep reclaimed (or would reclaim)."""
        return self.objects_bytes + self.index_bytes

    def render(self) -> str:
        """Operator-facing summary for ``repro campaigns gc``."""
        verb = "would remove" if self.dry_run else "removed"
        summary = (
            f"{verb} {self.objects_removed} objects "
            f"({self.objects_bytes} bytes), "
            f"{self.index_removed} index entries "
            f"({self.index_bytes} bytes)"
        )
        if self.derived_removed:
            summary += (
                f", {self.derived_removed} stale derived entr"
                f"{'ies' if self.derived_removed != 1 else 'y'}"
            )
        return summary


@dataclass
class FsckReport:
    """What :meth:`CampaignStore.fsck` found (and possibly repaired)."""

    repaired: bool = False
    objects_scanned: int = 0
    #: Digests whose object failed to parse or re-hash.
    corrupt_objects: list[str] = field(default_factory=list)
    #: Valid objects referenced by no index entry and no manifest.
    orphan_objects: list[str] = field(default_factory=list)
    #: Shard keys resolving to a missing or corrupt object.
    dangling_index: list[str] = field(default_factory=list)
    #: Shard keys whose index entry itself does not parse.
    corrupt_index: list[str] = field(default_factory=list)
    #: Manifests that no longer parse (reported, never auto-dropped).
    corrupt_manifests: list[str] = field(default_factory=list)
    #: Series ledgers that fail to parse or carry the wrong schema/id
    #: (reported, never auto-dropped — a ledger is series history).
    corrupt_series: list[str] = field(default_factory=list)
    #: ``(campaign, country)`` manifest entries pointing at bad objects.
    manifest_entries_cleared: list[tuple[str, str]] = field(
        default_factory=list
    )
    #: Derived keys whose entry is unparseable or points at a missing
    #: or corrupt object (safe to drop — derived entries are caches).
    bad_derived: list[str] = field(default_factory=list)
    #: Orphaned temp files swept when the store was opened.
    tmp_swept: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing was damaged (orphans/tmp are not damage)."""
        return not (
            self.corrupt_objects
            or self.dangling_index
            or self.corrupt_index
            or self.corrupt_manifests
            or self.corrupt_series
            or self.manifest_entries_cleared
            or self.bad_derived
        )

    def to_metrics(self) -> dict:
        """The ``fsck_*`` metric families as a registry payload."""
        from ..obs.metrics import MetricsRegistry

        registry = MetricsRegistry()

        def count(name: str, help: str, value: int) -> None:
            registry.counter(f"repro_fsck_{name}_total", help).inc(value)

        count("objects_scanned", "objects examined by fsck",
              self.objects_scanned)
        count("corrupt_objects", "objects failing parse or re-hash",
              len(self.corrupt_objects))
        count("orphan_objects", "valid objects referenced by nothing",
              len(self.orphan_objects))
        count("dangling_index_entries",
              "index entries resolving to missing/corrupt objects",
              len(self.dangling_index))
        count("corrupt_index_entries", "unparseable index entries",
              len(self.corrupt_index))
        count("corrupt_manifests", "unparseable campaign manifests",
              len(self.corrupt_manifests))
        count("corrupt_series", "unparseable or mis-tagged series "
              "ledgers", len(self.corrupt_series))
        count("manifest_entries_cleared",
              "manifest country entries pointing at bad objects",
              len(self.manifest_entries_cleared))
        count("bad_derived_entries",
              "derived entries unparseable or pointing at bad objects",
              len(self.bad_derived))
        count("tmp_swept", "orphaned temp files swept on store open",
              self.tmp_swept)
        count("repairs",
              "artifacts dropped or cleared by --repair",
              (len(self.corrupt_objects) + len(self.dangling_index)
               + len(self.corrupt_index)
               + len(self.manifest_entries_cleared)
               + len(self.bad_derived))
              if self.repaired else 0)
        return registry.to_dict()

    def render(self) -> str:
        """Operator-facing summary for ``repro campaigns fsck``."""
        lines = [
            f"scanned {self.objects_scanned} objects"
            + (f" (swept {self.tmp_swept} orphaned tmp files on open)"
               if self.tmp_swept else "")
        ]
        verb = "dropped" if self.repaired else "found"
        cleared = "cleared" if self.repaired else "found"
        if self.corrupt_objects:
            lines.append(
                f"{verb} {len(self.corrupt_objects)} corrupt object"
                f"{'s' if len(self.corrupt_objects) != 1 else ''}: "
                + ", ".join(d[:16] for d in self.corrupt_objects)
            )
        if self.corrupt_index:
            lines.append(
                f"{verb} {len(self.corrupt_index)} corrupt index "
                f"entr{'ies' if len(self.corrupt_index) != 1 else 'y'}"
            )
        if self.dangling_index:
            lines.append(
                f"{verb} {len(self.dangling_index)} dangling index "
                f"entr{'ies' if len(self.dangling_index) != 1 else 'y'}"
            )
        if self.corrupt_manifests:
            lines.append(
                f"found {len(self.corrupt_manifests)} corrupt "
                f"manifest(s): " + ", ".join(self.corrupt_manifests)
            )
        if self.corrupt_series:
            lines.append(
                f"found {len(self.corrupt_series)} corrupt series "
                f"ledger(s): "
                + ", ".join(s[:16] for s in self.corrupt_series)
            )
        if self.manifest_entries_cleared:
            detail = ", ".join(
                f"{campaign[:16]}/{cc}"
                for campaign, cc in self.manifest_entries_cleared
            )
            lines.append(
                f"{cleared} {len(self.manifest_entries_cleared)} "
                f"manifest entr"
                f"{'ies' if len(self.manifest_entries_cleared) != 1 else 'y'}"
                f" pointing at bad objects: {detail}"
            )
        if self.bad_derived:
            lines.append(
                f"{verb} {len(self.bad_derived)} bad derived entr"
                f"{'ies' if len(self.bad_derived) != 1 else 'y'}"
            )
        if self.orphan_objects:
            lines.append(
                f"found {len(self.orphan_objects)} orphan object"
                f"{'s' if len(self.orphan_objects) != 1 else ''} "
                f"(run `repro campaigns gc` to drop)"
            )
        if self.clean:
            lines.append("store is clean")
        elif self.repaired:
            lines.append(
                "store repaired; `--resume`/`--since` will re-measure "
                "the affected countries"
            )
        else:
            lines.append(
                "store is damaged; re-run with --repair to drop bad "
                "entries"
            )
        return "\n".join(lines)
