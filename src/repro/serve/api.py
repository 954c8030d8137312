"""The transport-agnostic API: paths in, ETagged JSON responses out.

:class:`ServeApi.handle` is the whole contract — it takes a URL path,
parsed query parameters, and the request's ``If-None-Match`` value,
and returns a :class:`Response`.  The HTTP front end
(:mod:`repro.serve.http`) only moves bytes; everything testable lives
here, so the full endpoint surface is exercisable without a socket.

Consistency under concurrent writers: each request loads any manifest
it needs **exactly once** (an atomic whole-file read — the store
writes via temp-file + ``os.replace``) and every downstream
computation, cache key, and ETag derives from that one snapshot.  The
shards a manifest references are immutable and were written before the
manifest named them, so a reader sees the old campaign state or the
new one, never a torn mixture.

ETags are the sha256 of the response body bytes (quoted, strong).
Bodies are canonical JSON of deterministic payloads, so identical
store state yields byte-identical bodies — and therefore stable ETags
— across server restarts.  Error payloads are typed and terse::

    {"error": {"status": 404, "code": "not_found", "message": "..."}}

and never contain a traceback.
"""

from __future__ import annotations

import hashlib
import time

from ..analysis.storediff import manifest_snapshot
from ..errors import (
    EmptyDistributionError,
    PipelineError,
    StoreCorruptionError,
    UnknownLayerError,
)
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from ..pipeline.records import LAYER_FIELDS
from ..store.digest import canonical_json
from ..store.series import retired_epochs, series_listing
from ..store.store import CampaignStore
from .materialize import Materializer

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


class Response:
    """One finished response: status, body bytes, ETag, content type."""

    __slots__ = ("status", "body", "etag", "content_type")

    def __init__(
        self,
        status: int,
        body: bytes,
        etag: str | None,
        content_type: str = "application/json",
    ) -> None:
        self.status = status
        self.body = body
        self.etag = etag
        self.content_type = content_type


def encode_body(payload: object) -> bytes:
    """Canonical JSON bytes — the one rendering ETags are minted over."""
    return (canonical_json(payload) + "\n").encode("utf-8")


def etag_of(body: bytes) -> str:
    """Strong content-digest ETag of a response body."""
    return f'"{hashlib.sha256(body).hexdigest()}"'


def _matches(etag: str, if_none_match: str | None) -> bool:
    """If-None-Match uses weak comparison (RFC 9110 §13.1.2)."""
    if if_none_match is None:
        return False
    candidates = {
        tag.strip().removeprefix("W/") for tag in if_none_match.split(",")
    }
    return etag in candidates or "*" in candidates


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
            endpoint, payload, content_type = self._route(
                path, query or {}
            )
            if content_type == "application/json":
                body = encode_body(payload)
            else:
                body = payload  # already bytes (e.g. /metrics text)
            etag = etag_of(body)
            if _matches(etag, if_none_match):
                self._not_modified.inc()
                response = Response(304, b"", etag, content_type)
            else:
                response = Response(200, body, etag, content_type)
        except ApiError as exc:
            response = Response(
                exc.status, encode_body(exc.payload()), None
            )
        except StoreCorruptionError as exc:
            response = Response(
                500,
                encode_body(
                    ApiError(500, "store_corruption", str(exc)).payload()
                ),
                None,
            )
        except Exception as exc:  # noqa: BLE001 — the no-traceback wall
            self._log.error(
                "serve.internal_error",
                path=path,
                error=type(exc).__name__,
            )
            response = Response(
                500,
                encode_body(
                    ApiError(
                        500, "internal", "internal server error"
                    ).payload()
                ),
                None,
            )
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
    ) -> tuple[str, object, str]:
        parts = [part for part in path.split("/") if part]
        if not parts:
            return "index", self._index(), "application/json"
        head = parts[0]
        if head == "metrics" and len(parts) == 1:
            return (
                "metrics",
                self.registry.to_prometheus().encode("utf-8"),
                "text/plain; version=0.0.4",
            )
        if head == "campaigns":
            if len(parts) == 1:
                return "campaigns", self._campaign_list(), "application/json"
            campaign, manifest = self._manifest(parts[1])
            summary = self.materializer.summary(campaign, manifest)
            if len(parts) == 2:
                return "campaign", summary, "application/json"
            if len(parts) == 4 and parts[2] == "countries":
                return (
                    "country",
                    self._country(summary, parts[3].upper()),
                    "application/json",
                )
            if len(parts) == 3 and parts[2] == "layers":
                return (
                    "layers",
                    {
                        "campaign": summary["campaign"],
                        "snapshot": summary["snapshot"],
                        "layers": summary["layers"],
                    },
                    "application/json",
                )
        if head == "diff" and len(parts) == 3:
            campaign_a, manifest_a = self._manifest(parts[1])
            campaign_b, manifest_b = self._manifest(parts[2])
            try:
                payload = self.materializer.diff(
                    campaign_a, campaign_b, manifest_a, manifest_b
                )
            except PipelineError as exc:
                if isinstance(exc, StoreCorruptionError):
                    raise
                raise ApiError(
                    409, "incomplete_campaign", str(exc)
                ) from exc
            return "diff", payload, "application/json"
        if head == "series":
            if len(parts) == 1:
                return "series", self._series_list(), "application/json"
            if len(parts) == 3 and parts[2] == "trend":
                return "trend", self._trend(parts[1]), "application/json"
        if head == "whatif" and len(parts) == 2:
            campaign, manifest = self._manifest(parts[1])
            return (
                "whatif",
                self._whatif(campaign, manifest, query),
                "application/json",
            )
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

    def _manifest(self, prefix: str) -> tuple[str, dict]:
        """Resolve a campaign-id prefix and load its manifest *once*."""
        matches = [
            campaign
            for campaign in self.store.list_campaign_ids()
            if campaign.startswith(prefix)
        ]
        if not matches:
            raise ApiError(
                404, "not_found", f"no campaign matching {prefix!r}"
            )
        if len(matches) > 1:
            raise ApiError(
                400,
                "ambiguous_prefix",
                f"campaign prefix {prefix!r} matches "
                + ", ".join(m[:16] for m in matches),
            )
        manifest = self.store.load_manifest(matches[0])
        if manifest is None:  # deleted between listing and load
            raise ApiError(
                404, "not_found", f"no campaign matching {prefix!r}"
            )
        return matches[0], manifest

    def _campaign_list(self) -> dict:
        rows: list[dict] = []

        def on_corrupt(campaign: str, exc: StoreCorruptionError) -> None:
            self._log.warning(
                "serve.corrupt_manifest", campaign=campaign
            )
            rows.append({"campaign": campaign, "corrupt": True})

        for campaign, manifest in self.store.iter_campaigns(
            on_corrupt=on_corrupt
        ):
            countries = manifest.get("countries", {})
            rows.append(
                {
                    "campaign": campaign,
                    "complete": manifest.get("complete", False),
                    "snapshot": manifest_snapshot(manifest),
                    "countries": len(countries),
                    "measured": sum(
                        1
                        for entry in countries.values()
                        if entry.get("object")
                    ),
                }
            )
        rows.sort(key=lambda row: row["campaign"])
        return {"campaigns": rows}

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

    def _series_list(self) -> dict:
        return {"series": series_listing(self.store)}

    def _trend(self, prefix: str) -> dict:
        matches = [
            series
            for series in self.store.list_series_ids()
            if series.startswith(prefix)
        ]
        if not matches:
            raise ApiError(
                404, "not_found", f"no series matching {prefix!r}"
            )
        if len(matches) > 1:
            raise ApiError(
                400,
                "ambiguous_prefix",
                f"series prefix {prefix!r} matches "
                + ", ".join(m[:16] for m in matches),
            )
        series = matches[0]
        ledger = self.store.load_series(series)
        if ledger is None:
            raise ApiError(
                404, "not_found", f"no series matching {prefix!r}"
            )
        retired = retired_epochs(ledger.get("entries", []))
        manifests: dict[str, dict] = {}
        for entry in ledger.get("entries", []):
            if entry["epoch"] in retired:
                continue
            campaign = entry["campaign"]
            if campaign in manifests:
                continue
            manifest = self.store.load_manifest(campaign)
            if manifest is not None:
                manifests[campaign] = manifest
        return self.materializer.trend(series, ledger, manifests)

    # ------------------------------------------------------------------
    # What-if knobs
    # ------------------------------------------------------------------

    def _whatif(
        self, campaign: str, manifest: dict, query: dict[str, list[str]]
    ) -> dict:
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
                campaign, manifest, knob, params
            )
        except (UnknownLayerError, EmptyDistributionError) as exc:
            raise ApiError(400, "bad_param", str(exc)) from exc
