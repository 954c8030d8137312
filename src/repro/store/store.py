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
with a single file read.  Manifests record which shards a campaign
comprises and whether it ran to completion; they are the GC root set.

One writer, :func:`_write`, puts every document under the root, as
:func:`_encode` of it: the UTF-8 bytes of its canonical JSON.  So an
object file's sha256 is its name (``sha256sum`` checks it), and a
payload is encoded once.  The writer goes through a temp file +
:func:`os.replace` so a crash mid-write never leaves a torn document —
but disks, not just crashes, corrupt stores: bit flips, truncation by
a full filesystem, a crash *inside* the page cache flush.  Loads
therefore verify.  Each kind of stored document has exactly one parser
— :func:`parse_object` (which re-hashes the payload against its
filename), :func:`parse_entry` (index and derived entries),
:func:`parse_manifest` and :func:`parse_series` — and each raises a
typed :class:`~repro.errors.StoreCorruptionError` with one message per
kind of damage.  Readers only decide what that verdict means: a shard
load raises, a derived-entry load self-heals,
:meth:`CampaignStore.fsck` reports (``repro campaigns fsck
[--repair]``), a listing marks the row corrupt, and
:meth:`~CampaignStore.gc` counts a derived entry stale.  So a damaged
store degrades into "re-measure exactly these countries" instead of
silent reuse of bad data, and no two readers disagree about what is
damaged.  Parsers judge the document, not its spelling, so the
indented files of older stores read the same way.  Orphaned ``*.tmp``
files (a crash between tmp-write and ``os.replace``) are swept on
store open.

Campaign and series ids are resolved from a prefix in one place,
:meth:`CampaignStore.resolve_id`: a full 64-hex id names its file
without listing the directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import (
    AmbiguousIdError,
    PipelineError,
    StoreCorruptionError,
    UnknownIdError,
)
from ..obs.metrics import merge_metrics_payloads
from ..obs.spans import Span
from ..pipeline.export import rows_from_csv_text, rows_to_csv_text
from ..pipeline.parallel import CountryResult
from .digest import canonical_json, digest_of

__all__ = [
    "CampaignStore",
    "FsckReport",
    "GcReport",
    "SHARD_SCHEMA",
    "MANIFEST_SCHEMA",
    "SERIES_SCHEMA",
    "DERIVED_SCHEMA",
    "parse_entry",
    "parse_manifest",
    "parse_object",
    "parse_series",
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


#: A full campaign or series id (a sha256 hex digest): it names its
#: file directly, so resolving it needs no directory listing.
_FULL_ID = re.compile(r"[0-9a-f]{64}")


def _encode(document: object) -> bytes:
    """A document's file bytes: the UTF-8 of its canonical JSON."""
    return canonical_json(document).encode("utf-8")


def _write(path: Path, data: bytes) -> None:
    """The one writer under a store root; ``data`` is :func:`_encode`
    of a document, and lands whole or not at all."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _read(path: Path) -> bytes | None:
    """A file's bytes in one read (None when absent)."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def _corrupt(what: str, reason: object, fix: str) -> StoreCorruptionError:
    return StoreCorruptionError(
        f"{what} is corrupt ({reason}); run `repro campaigns {fix}`"
    )


def parse_object(digest: str, raw: bytes) -> dict:
    """Parse an object file's bytes and verify them against ``digest``.

    The payload is re-hashed, so a truncated or bit-flipped object is
    corruption, never a different payload.
    """
    what = f"object {digest}"
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise _corrupt(what, f"unparseable JSON: {exc}", "fsck --repair") from exc
    try:
        actual = digest_of(payload)
    except (ValueError, TypeError) as exc:
        # json.loads accepts things canonical JSON cannot re-encode
        # (lone surrogates from a bit-flipped escape): unhashable
        # content is corrupt content.
        raise _corrupt(what, f"unhashable payload: {exc}", "fsck --repair") from exc
    if actual != digest:
        raise StoreCorruptionError(
            f"{what} fails content verification (payload hashes to "
            f"{actual}); run `repro campaigns fsck --repair`"
        )
    return payload


def parse_entry(kind: str, key: str, raw: bytes) -> dict:
    """Parse an ``index`` or ``derived`` entry: a JSON object whose
    ``object`` names a stored object (and, for a derived entry, whose
    ``manifests`` list its input manifest digests)."""
    what = f"{kind} entry {key}"
    try:
        entry = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise _corrupt(what, f"unparseable JSON: {exc}", "fsck --repair") from exc
    if not isinstance(entry, dict):
        raise _corrupt(what, "not an object", "fsck --repair")
    if not isinstance(entry.get("object"), str) or not isinstance(
        entry.get("manifests", []), list
    ):
        raise _corrupt(what, "malformed entry", "fsck --repair")
    return entry


def _entry_at(kind: str, path: Path) -> dict | None:
    """:func:`parse_entry` of an entry file, None when it is corrupt."""
    try:
        return parse_entry(kind, path.stem, path.read_bytes())
    except StoreCorruptionError:
        return None


def parse_manifest(campaign: str, raw: bytes) -> dict:
    """Parse a manifest's file bytes (damage is reported, never repaired)."""
    what = f"manifest {campaign}"
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise _corrupt(what, f"unparseable JSON: {exc}", "fsck") from exc
    if not isinstance(manifest, dict) or manifest.get("_schema") != MANIFEST_SCHEMA:
        raise _corrupt(what, "wrong schema", "fsck")
    return manifest


def parse_series(series: str, raw: bytes) -> dict:
    """Parse a series ledger's file bytes.

    A ledger is valid when it parses, carries the series schema and its
    own id, and its entries hold the contiguous epochs ``0..n-1`` — the
    rules the watch resumes by, so every reader gives a ledger the
    verdict ``repro watch --resume-series`` would.
    """
    what = f"series ledger {series[:16]}"
    try:
        ledger = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise _corrupt(what, f"unparseable JSON: {exc}", "fsck") from exc
    if (
        not isinstance(ledger, dict)
        or ledger.get("_schema") != SERIES_SCHEMA
        or ledger.get("series") != series
    ):
        raise _corrupt(what, "wrong schema or series id", "fsck")
    entries = ledger.get("entries", [])
    if not isinstance(entries, list):
        raise _corrupt(what, "entries are not a list", "fsck")
    for epoch, entry in enumerate(entries):
        if not isinstance(entry, dict) or entry.get("epoch") != epoch:
            raise _corrupt(
                what, f"non-contiguous epochs at position {epoch}", "fsck"
            )
    return ledger


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
            {
                "attrs": span.attrs,
                "error": span.error,
                "logical_seconds": span.logical_seconds,
                "name": span.name,
                "parent_id": span.parent_id,
                "span_id": span.span_id,
                "start_logical": span.start_logical,
                "status": span.status,
            }
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
    """Rebuild a CountryResult from a stored shard payload.

    Stored spans come back as rows with ``wall_ms`` None; a stored span
    that is not an object holding every other field is corruption.
    """
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
            spans=(
                tuple(
                    Span(
                        attrs=span["attrs"],
                        error=span["error"],
                        logical_seconds=span["logical_seconds"],
                        name=span["name"],
                        parent_id=span["parent_id"],
                        span_id=span["span_id"],
                        start_logical=span["start_logical"],
                        status=span["status"],
                        wall_ms=None,
                    )
                    for span in spans
                )
                if spans is not None
                else None
            ),
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
        """Store a payload by content; returns its digest (idempotent),
        the sha256 of the bytes its file holds."""
        return self._put_encoded(_encode(payload))

    def _put_encoded(self, data: bytes) -> str:
        """Store a payload's file bytes under their sha256."""
        digest = hashlib.sha256(data).hexdigest()
        path = self._object_path(digest)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            _write(path, data)
        return digest

    def get_object(self, digest: str) -> dict | None:
        """Load and verify a payload by content digest (None when absent).

        Every load re-hashes the parsed payload against the digest it
        was stored under: a truncated or bit-flipped object raises
        :class:`~repro.errors.StoreCorruptionError` instead of feeding
        damaged data into a resume.
        """
        raw = _read(self._object_path(digest))
        return None if raw is None else parse_object(digest, raw)

    def object_size(self, digest: str) -> int | None:
        """On-disk byte size of a stored object (None when absent).

        Object files are canonical JSON written once, so the size is
        as deterministic as the digest — which is what lets the watch
        quota planner account bytes without ever re-reading payloads.
        (An object an older store wrote indented keeps its larger size.)
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
        _write(self._index_path(key), _encode({"object": digest}))
        return digest

    def has_shard(self, key: str) -> bool:
        """True when a result for this shard key is stored."""
        return self._index_path(key).exists()

    def shard_digest(self, key: str) -> str | None:
        """The object digest a shard key resolves to (None when absent)."""
        raw = _read(self._index_path(key))
        return None if raw is None else parse_entry("index", key, raw)["object"]

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
    ) -> dict:
        """Store a materialized payload under a derived key.

        The payload lands in ``objects/`` (content-addressed, verified
        on load like any object) and the derived entry maps the key to
        it, recording which manifest digests it was computed from so
        :meth:`gc` can drop it the moment any input manifest changes
        or disappears.  Idempotent: rebuilding the same payload under
        the same key rewrites identical bytes.  Returns the parse of
        the bytes written: the payload :meth:`get_derived` will load.
        """
        data = _encode(payload)
        digest = self._put_encoded(data)
        _write(
            self._derived_path(key),
            _encode({"object": digest, "manifests": sorted(manifests)}),
        )
        return json.loads(data)

    def get_derived(self, key: str) -> dict | None:
        """Load a materialized payload by derived key (None on miss).

        Derived entries are *caches*: unlike shard loads, damage here
        is self-healing — a corrupt entry or object is dropped and
        ``None`` returned, so the caller simply rebuilds.
        """
        path = self._derived_path(key)
        raw = _read(path)
        if raw is None:
            return None
        try:
            payload = self.get_object(parse_entry("derived", key, raw)["object"])
        except StoreCorruptionError:
            payload = None
        if payload is None:
            path.unlink(missing_ok=True)
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
        _write(self._manifest_path(manifest["campaign"]), _encode(manifest))

    def read_manifest_bytes(self, campaign: str) -> bytes | None:
        """A campaign manifest's file bytes, in one read (None when absent).

        Manifests are replaced whole (temp file + ``os.replace``), so
        the bytes are one complete version.  A manifest deleted at any
        point before the read (a watch retirement) reads as absent.
        """
        return _read(self._manifest_path(campaign))

    def load_manifest(self, campaign: str) -> dict | None:
        """Load a campaign manifest (None when absent)."""
        raw = self.read_manifest_bytes(campaign)
        return None if raw is None else parse_manifest(campaign, raw)

    def delete_manifest(self, campaign: str) -> bool:
        """Drop a campaign manifest (and its store-metrics artifact).

        Returns True when the manifest existed.  Idempotent on
        purpose: the watch retirement path replays after a crash, and
        deleting an already-deleted manifest must be a no-op, not an
        error.  The shard objects themselves are reclaimed by the next
        :meth:`gc` — manifests are the root set, so dropping one is
        how an epoch is retired.
        """
        path = self._manifest_path(campaign)
        removed = path.exists()
        path.unlink(missing_ok=True)
        self._store_metrics_path(campaign).unlink(missing_ok=True)
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
            if manifest is None:  # deleted mid-scan
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
        _write(self._store_metrics_path(campaign), _encode(payload))

    def load_store_metrics(self, campaign: str) -> dict | None:
        """Load a campaign's store-telemetry payload (None when absent)."""
        raw = _read(self._store_metrics_path(campaign))
        return None if raw is None else json.loads(raw)

    # ------------------------------------------------------------------
    # Series ledgers (longitudinal watch)
    # ------------------------------------------------------------------

    def series_path(self, series: str) -> Path:
        """Where a series ledger lives (``series/<id>.json``)."""
        return self._series / f"{series}.json"

    def watch_metrics_path(self, series: str) -> Path:
        """Where a series' watch-telemetry artifact lives."""
        return self._series / f"{series}.watch.json"

    def save_series(self, series: str, recipe: dict, entries: list[dict]) -> None:
        """Write a series ledger (overwrites previous state)."""
        ledger = {"series": series, "recipe": recipe, "entries": entries}
        _write(self.series_path(series), _encode({"_schema": SERIES_SCHEMA, **ledger}))

    def merge_watch_metrics(self, series: str, payload: dict) -> dict:
        """Fold one watch session's telemetry into the series artifact.

        Counters sum across sessions, so after N kills and N+1
        sessions the artifact still reads as one watch's history.
        """
        path = self.watch_metrics_path(series)
        raw = _read(path)
        if raw is not None:
            payload = merge_metrics_payloads([json.loads(raw), payload])
        _write(path, _encode(payload))
        return payload

    def read_series_bytes(self, series: str) -> bytes | None:
        """A series ledger's file bytes, in one read (None when absent).

        Ledgers are replaced whole, like manifests, so the bytes are one
        complete version.
        """
        return _read(self.series_path(series))

    def load_series(self, series: str) -> dict | None:
        """Load and validate a series ledger (None only when absent).

        The one ledger loader: the watch, the listings, the trend and
        ``fsck`` all read through it, so a ledger
        :func:`parse_series` rejects is corrupt to every one of them.
        """
        raw = self.read_series_bytes(series)
        return None if raw is None else parse_series(series, raw)

    def list_series_ids(self) -> list[str]:
        """Ids of every stored series ledger, sorted."""
        return sorted(
            path.stem
            for path in self._series.glob("*.json")
            if not path.name.endswith(".watch.json")
        )

    def resolve_id(self, kind: str, prefix: str) -> str:
        """The one ``campaign`` or ``series`` id that ``prefix`` names.

        A full id is returned as is, without a listing: it names its
        file directly, and a read that finds no file means the id is
        unknown.  A shorter prefix must match exactly one listed id.
        Raises :class:`~repro.errors.UnknownIdError` or
        :class:`~repro.errors.AmbiguousIdError`.
        """
        if _FULL_ID.fullmatch(prefix):
            return prefix
        ids = (
            self.list_campaign_ids()
            if kind == "campaign"
            else self.list_series_ids()
        )
        matches = [full for full in ids if full.startswith(prefix)]
        if not matches:
            raise UnknownIdError(kind, prefix)
        if len(matches) > 1:
            raise AmbiguousIdError(
                f"{kind} prefix {prefix!r} matches "
                + ", ".join(m[:16] for m in matches)
            )
        return matches[0]

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
            entry = _entry_at("derived", path)
            if entry is None or any(
                d not in manifest_digests for d in entry.get("manifests", [])
            ):
                report.derived_removed += 1
                report.index_bytes += path.stat().st_size
                if not dry_run:
                    path.unlink()
            else:
                live_objects.add(entry["object"])
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

        Re-parses and re-hashes every object, resolves every index and
        derived entry, cross-checks every manifest's country table and
        validates every series ledger, each through the parser every
        other reader uses, so what fsck calls damaged is damaged to
        all of them.  With
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
            try:
                parse_object(path.stem, path.read_bytes())
            except StoreCorruptionError:
                report.corrupt_objects.append(path.stem)
                if repair:
                    path.unlink()
            else:
                valid_objects.add(path.stem)

        referenced: set[str] = set()
        for path in sorted(self._index.glob("*.json")):
            entry = _entry_at("index", path)
            if entry is None:
                report.corrupt_index.append(path.stem)
                if repair:
                    path.unlink()
            elif entry["object"] not in valid_objects:
                report.dangling_index.append(path.stem)
                if repair:
                    path.unlink()
            else:
                referenced.add(entry["object"])

        for campaign, manifest in self.iter_campaigns(
            on_corrupt=lambda campaign, _: report.corrupt_manifests.append(campaign)
        ):
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
                    (manifest.get("campaign", campaign), cc)
                )
                if repair:
                    entry["object"] = None
                    entry.pop("quarantined", None)
                    manifest["complete"] = False
                    dirty = True
            if dirty:
                self.save_manifest(manifest)

        for series in self.list_series_ids():
            try:
                self.load_series(series)
            except StoreCorruptionError:
                report.corrupt_series.append(series)

        for path in sorted(self._derived.glob("*.json")):
            entry = _entry_at("derived", path)
            if entry is None or entry["object"] not in valid_objects:
                # Derived entries are caches: dropping one costs a
                # rebuild, never data, so repair always deletes.
                report.bad_derived.append(path.stem)
                if repair:
                    path.unlink()
            else:
                referenced.add(entry["object"])

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
