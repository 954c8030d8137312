"""The transport-agnostic API: paths in, ETagged JSON responses out.

:class:`ServeApi.handle` is the whole contract — it takes a URL path,
parsed query parameters, and the request's ``If-None-Match`` value,
and returns a :class:`Response`.  The HTTP front end
(:mod:`repro.serve.http`) only moves bytes; everything testable lives
here, so the full endpoint surface is exercisable without a socket.

Consistency under concurrent writers: each request reads any manifest
or series ledger it needs **exactly once** (an atomic whole-file read
— the store writes via temp-file + ``os.replace``) and every
downstream computation, cache key, and ETag derives from that one
snapshot.  The shards a manifest references are immutable and were
written before the manifest named them, so a reader sees the old
campaign state or the new one, never a torn mixture.

A warm request by full id makes those reads its only file accesses,
and parses, encodes and hashes nothing apart from the short derived
key:

* The API keeps each manifest and ledger it parsed with the exact
  bytes it was parsed from and its digest.  A read whose bytes equal
  the kept ones reuses both, so a document is parsed and digested once
  per change.  File metadata (size, mtime, inode) is never trusted:
  manifests and ledgers are rewritten in place through ``os.replace``.
* A full campaign or series id (64 hex characters) names its file
  directly; a shorter prefix is resolved by listing the directory
  (:meth:`~repro.store.store.CampaignStore.resolve_id`, the resolver
  the CLI uses too).
* Response bodies and ETags are views kept in the materializer's
  memory-tier entries (:class:`~repro.serve.materialize.Entry`), so a
  memory hit neither encodes nor hashes.  The ``/campaigns`` and
  ``/series`` listings keep theirs until an ``(id, digest)`` pair
  changes.

A damaged manifest or ledger answers 500 ``store_corruption``, the
same verdict ``repro campaigns fsck`` gives it.

ETags are the sha256 of the response body bytes (quoted, strong).
Bodies are canonical JSON of deterministic payloads, so identical
store state yields byte-identical bodies — and therefore stable ETags
— across server restarts.  Error payloads are typed and terse::

    {"error": {"status": 404, "code": "not_found", "message": "..."}}

and never contain a traceback.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from ..analysis.storediff import manifest_snapshot
from ..errors import (
    AmbiguousIdError,
    EmptyDistributionError,
    PipelineError,
    StoreCorruptionError,
    UnknownIdError,
    UnknownLayerError,
)
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from ..pipeline.records import LAYER_FIELDS
from ..store.digest import digest_of
from ..store.series import retired_epochs, series_row
from ..store.store import CampaignStore, parse_manifest, parse_series
from .materialize import Entry, Materializer, encode_body, etag_of, rendered

__all__ = ["ApiError", "Response", "ServeApi", "ENDPOINTS"]

#: The served surface, for the index endpoint and the docs.
ENDPOINTS = (
    "/",
    "/campaigns",
    "/campaigns/{id}",
    "/campaigns/{id}/countries/{cc}",
    "/campaigns/{id}/layers",
    "/diff/{a}/{b}",
    "/series",
    "/series/{id}/trend",
    "/whatif/{id}?knob=outage|schism|spof&...",
    "/metrics",
)

#: Manifests (and, separately, ledgers) kept parsed and digested, by
#: id (LRU).
MANIFEST_SLOTS = 128

JSON = "application/json"


class ApiError(Exception):
    """A typed, client-visible request failure."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def payload(self) -> dict:
        return {
            "error": {
                "status": self.status,
                "code": self.code,
                "message": self.message,
            }
        }

    def response(self) -> "Response":
        """The error as a finished response (errors carry no ETag)."""
        return Response(self.status, encode_body(self.payload()), None)


class Response:
    """One finished response: status, body bytes, ETag, content type."""

    __slots__ = ("status", "body", "etag", "content_type")

    def __init__(
        self,
        status: int,
        body: bytes,
        etag: str | None,
        content_type: str = JSON,
    ) -> None:
        self.status = status
        self.body = body
        self.etag = etag
        self.content_type = content_type


def _matches(etag: str, if_none_match: str | None) -> bool:
    """If-None-Match uses weak comparison (RFC 9110 §13.1.2)."""
    if if_none_match is None:
        return False
    candidates = {
        tag.strip().removeprefix("W/") for tag in if_none_match.split(",")
    }
    return etag in candidates or "*" in candidates


def _campaign_row(campaign: str, manifest: dict | None) -> dict:
    """One ``/campaigns`` row (``None``: a manifest the parser rejected)."""
    if manifest is None:
        return {"campaign": campaign, "corrupt": True}
    countries = manifest.get("countries", {})
    return {
        "campaign": campaign,
        "complete": manifest.get("complete", False),
        "snapshot": manifest_snapshot(manifest),
        "countries": len(countries),
        "measured": sum(1 for entry in countries.values() if entry.get("object")),
    }


def _layers(summary: dict) -> dict:
    """The ``/layers`` view of a campaign summary."""
    return {
        "campaign": summary["campaign"],
        "snapshot": summary["snapshot"],
        "layers": summary["layers"],
    }


class ServeApi:
    """Routes requests over one store through the materializer."""

    def __init__(
        self,
        store: CampaignStore,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.registry = registry if registry is not None else MetricsRegistry()
        self.materializer = Materializer(store, self.registry)
        self._log = get_logger("repro.serve")
        #: campaign id -> (manifest bytes, parsed manifest, digest).
        self._manifests: OrderedDict[str, tuple[bytes, dict, str]] = OrderedDict()
        #: series id -> (ledger bytes, parsed ledger, digest).
        self._ledgers: OrderedDict[str, tuple[bytes, dict, str]] = OrderedDict()
        #: listing kind -> (its (id, digest) inputs, rendered response).
        self._listings: dict[str, tuple[list, tuple[bytes, str]]] = {}
        self._lock = threading.Lock()
        self._requests = self.registry.counter(
            "repro_serve_requests_total",
            "requests served by endpoint and status",
            labelnames=("endpoint", "status"),
        )
        self._latency = self.registry.histogram(
            "repro_serve_request_seconds",
            "request handling latency by endpoint",
            labelnames=("endpoint",),
        )
        self._not_modified = self.registry.counter(
            "repro_serve_not_modified_total",
            "requests answered 304 via If-None-Match revalidation",
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def handle(
        self,
        path: str,
        query: dict[str, list[str]] | None = None,
        if_none_match: str | None = None,
    ) -> Response:
        """One request -> one response; never raises, never tracebacks."""
        started = time.perf_counter()
        endpoint = "invalid"
        try:
            endpoint, body, etag, content_type = self._route(
                path, query or {}
            )
            if _matches(etag, if_none_match):
                self._not_modified.inc()
                response = Response(304, b"", etag, content_type)
            else:
                response = Response(200, body, etag, content_type)
        except ApiError as exc:
            response = exc.response()
        except UnknownIdError as exc:
            response = ApiError(404, "not_found", str(exc)).response()
        except AmbiguousIdError as exc:
            response = ApiError(400, "ambiguous_prefix", str(exc)).response()
        except StoreCorruptionError as exc:
            response = ApiError(500, "store_corruption", str(exc)).response()
        except Exception as exc:  # noqa: BLE001 — the no-traceback wall
            self._log.error(
                "serve.internal_error",
                path=path,
                error=type(exc).__name__,
            )
            response = ApiError(
                500, "internal", "internal server error"
            ).response()
        self._requests.inc(
            endpoint=endpoint, status=str(response.status)
        )
        self._latency.observe(
            time.perf_counter() - started, endpoint=endpoint
        )
        return response

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(
        self, path: str, query: dict[str, list[str]]
    ) -> tuple[str, bytes, str, str]:
        """``(endpoint, body, etag, content type)`` of one request."""
        parts = [part for part in path.split("/") if part]
        if not parts:
            return ("index", *rendered(self._index()), JSON)
        head = parts[0]
        if head == "metrics" and len(parts) == 1:
            body = self.registry.to_prometheus().encode("utf-8")
            return "metrics", body, etag_of(body), "text/plain; version=0.0.4"
        if head == "campaigns":
            if len(parts) == 1:
                ids = self.store.list_campaign_ids()
                read, row = self._read_manifest, _campaign_row
                return ("campaigns", *self._listing("campaigns", ids, read, row), JSON)
            summary = self.materializer.summary(*self._manifest(parts[1]))
            if len(parts) == 2:
                return ("campaign", *summary.view("campaign"), JSON)
            if len(parts) == 4 and parts[2] == "countries":
                cc = parts[3].upper()
                view = summary.view(
                    f"country/{cc}", lambda payload: self._country(payload, cc)
                )
                return ("country", *view, JSON)
            if len(parts) == 3 and parts[2] == "layers":
                return ("layers", *summary.view("layers", _layers), JSON)
        if head == "diff" and len(parts) == 3:
            campaign_a, manifest_a, digest_a = self._manifest(parts[1])
            campaign_b, manifest_b, digest_b = self._manifest(parts[2])
            try:
                diff = self.materializer.diff(
                    campaign_a, campaign_b, manifest_a, manifest_b, digest_a, digest_b
                )
            except PipelineError as exc:
                if isinstance(exc, StoreCorruptionError):
                    raise
                raise ApiError(
                    409, "incomplete_campaign", str(exc)
                ) from exc
            return ("diff", *diff.view("diff"), JSON)
        if head == "series":
            if len(parts) == 1:
                ids = self.store.list_series_ids()
                read, row = self._read_ledger, series_row
                return ("series", *self._listing("series", ids, read, row), JSON)
            if len(parts) == 3 and parts[2] == "trend":
                return ("trend", *self._trend(parts[1]).view("trend"), JSON)
        if head == "whatif" and len(parts) == 2:
            whatif = self._whatif(*self._manifest(parts[1]), query)
            return ("whatif", *whatif.view("whatif"), JSON)
        raise ApiError(404, "not_found", f"no such endpoint: {path}")

    def _index(self) -> dict:
        return {
            "service": "repro-serve",
            "store": str(self.store.root),
            "endpoints": list(ENDPOINTS),
        }

    # ------------------------------------------------------------------
    # Resource resolution
    # ------------------------------------------------------------------

    def _snapshot(
        self, kept: OrderedDict, name: str, raw: bytes | None, parse
    ) -> tuple[dict, str] | None:
        """``(document, digest)`` of one whole read of a file (``raw``).

        Equal bytes reuse the kept parse and digest; new bytes are
        parsed and digested once.  Never file metadata: manifests and
        ledgers are rewritten in place through ``os.replace``.  Kept
        documents are shared, so callers only read them.
        """
        if raw is None:
            return None
        with self._lock:
            hit = kept.get(name)
            if hit is not None and hit[0] == raw:
                kept.move_to_end(name)
                return hit[1], hit[2]
        document = parse(name, raw)
        digest = digest_of(document)
        with self._lock:
            kept[name] = (raw, document, digest)
            kept.move_to_end(name)
            while len(kept) > MANIFEST_SLOTS:
                kept.popitem(last=False)
        return document, digest

    def _read_manifest(self, campaign: str) -> tuple[dict, str] | None:
        """``(manifest, digest)``, or None when the manifest is absent."""
        return self._snapshot(
            self._manifests,
            campaign,
            self.store.read_manifest_bytes(campaign),
            parse_manifest,
        )

    def _manifest(self, prefix: str) -> tuple[str, dict, str]:
        """Resolve a campaign-id prefix and read its manifest *once*."""
        campaign = self.store.resolve_id("campaign", prefix)
        read = self._read_manifest(campaign)
        if read is None:  # absent, or deleted since the listing
            raise UnknownIdError("campaign", prefix)
        return campaign, *read

    def _listing(self, kind: str, ids: list[str], read, row) -> tuple[bytes, str]:
        """A listing's body and ETag, rendered again only when the listed
        ids or their documents changed.  ``read`` gives a kept snapshot;
        a document it calls corrupt is listed as ``row(id, None)``."""
        listed: list[tuple[str, dict | None, str | None]] = []
        for name in ids:
            try:
                snapshot = read(name)
            except StoreCorruptionError:
                self._log.warning("serve.corrupt_document", listing=kind, id=name)
                listed.append((name, None, None))
                continue
            if snapshot is not None:  # else deleted since the listing
                listed.append((name, *snapshot))
        inputs = [(name, digest) for name, _, digest in listed]
        cached = self._listings.get(kind)
        if cached is not None and cached[0] == inputs:
            return cached[1]
        listing = rendered(
            {kind: [row(name, document) for name, document, _ in listed]}
        )
        self._listings[kind] = (inputs, listing)
        return listing

    def _country(self, summary: dict, cc: str) -> dict:
        if cc not in summary["countries"]:
            known = summary["countries"]
            raise ApiError(
                404,
                "unknown_country",
                f"{cc} not measured in campaign "
                f"{summary['campaign'][:16]} "
                f"(has: {', '.join(known) if known else 'none'})",
            )
        layers: dict[str, dict] = {}
        for layer, table in summary["layers"].items():
            ranking = table["ranking"]
            rank = next(
                (
                    position
                    for position, (country, _) in enumerate(ranking, 1)
                    if country == cc
                ),
                None,
            )
            layers[layer] = {
                "centralization": table["centralization"].get(cc),
                "insularity": table["insularity"].get(cc),
                "rank": rank,
                "of": len(ranking),
                "top_providers": table["top_providers"].get(cc, []),
            }
        return {
            "campaign": summary["campaign"],
            "snapshot": summary["snapshot"],
            "country": cc,
            "quarantined": cc in summary["quarantined"],
            "layers": layers,
        }

    def _read_ledger(self, series: str) -> tuple[dict, str] | None:
        """``(ledger, digest)``, or None when the ledger is absent."""
        return self._snapshot(
            self._ledgers, series, self.store.read_series_bytes(series), parse_series
        )

    def _trend(self, prefix: str) -> Entry:
        series = self.store.resolve_id("series", prefix)
        read = self._read_ledger(series)
        if read is None:  # absent, or deleted since the listing
            raise UnknownIdError("series", prefix)
        ledger, ledger_digest = read
        retired = retired_epochs(ledger.get("entries", []))
        manifests: dict[str, tuple[dict, str]] = {}
        for entry in ledger.get("entries", []):
            if entry["epoch"] in retired:
                continue
            campaign = entry["campaign"]
            if campaign in manifests:
                continue
            read = self._read_manifest(campaign)
            if read is not None:
                manifests[campaign] = read
        return self.materializer.trend(series, ledger, ledger_digest, manifests)

    # ------------------------------------------------------------------
    # What-if knobs
    # ------------------------------------------------------------------

    def _whatif(
        self, campaign: str, manifest: dict, digest: str, query: dict[str, list[str]]
    ) -> Entry:
        def param(name: str, default: str | None = None) -> str | None:
            values = query.get(name)
            return values[-1] if values else default

        knob = param("knob")
        if knob is None:
            raise ApiError(
                400,
                "missing_param",
                "whatif needs ?knob=outage|schism|spof",
            )
        if knob == "outage":
            provider = param("provider")
            if not provider:
                raise ApiError(
                    400, "missing_param", "outage needs &provider=NAME"
                )
            params: dict = {
                "provider": provider,
                "layer": param("layer", "hosting"),
            }
        elif knob == "schism":
            country = param("country")
            if not country:
                raise ApiError(
                    400, "missing_param", "schism needs &country=CC"
                )
            params = {"country": country.upper()}
        elif knob == "spof":
            raw = param("threshold", "0.25")
            try:
                threshold = float(raw)
            except ValueError:
                raise ApiError(
                    400,
                    "bad_param",
                    f"threshold must be a number, got {raw!r}",
                ) from None
            params = {
                "layer": param("layer", "hosting"),
                "threshold": threshold,
            }
        else:
            raise ApiError(
                400,
                "unknown_knob",
                f"unknown knob {knob!r} (have: outage, schism, spof)",
            )
        layer = params.get("layer")
        if layer is not None and layer not in LAYER_FIELDS:
            raise ApiError(
                400,
                "bad_param",
                f"unknown layer {layer!r} "
                f"(have: {', '.join(sorted(LAYER_FIELDS))})",
            )
        try:
            return self.materializer.whatif(
                campaign, manifest, digest, knob, params
            )
        except (UnknownLayerError, EmptyDistributionError) as exc:
            raise ApiError(400, "bad_param", str(exc)) from exc
