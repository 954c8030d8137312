"""Materialization: summaries built once, served many times.

Every payload the API serves is a pure function of store contents —
a manifest and the immutable shards it references, or a series ledger
and its surviving manifests.  So each payload is cached as a derived
object (:meth:`~repro.store.store.CampaignStore.put_derived`) under a
key that digests *all* of its inputs::

    derived_key(kind, inputs) = digest_of({
        "materialize": MATERIALIZE_VERSION,
        "kind": kind,            # "campaign" | "diff" | "whatif" | "trend"
        "inputs": inputs,        # manifest digest(s), knob params, ...
    })

A checkpoint landing in the store changes the manifest, which changes
its digest, which changes every key derived from it — invalidation is
free and the stale entries are swept by ``campaigns gc``.  Two cache
tiers sit above the raw shards:

1. an in-process LRU of :class:`Entry` objects by derived key, so a
   hot query touches no store objects at all.  An entry holds the
   payload and the encoded body and ETag of every response view cut
   from it, so a memory hit neither encodes nor hashes; its views are
   evicted with it;
2. the on-disk derived entries, so a restarted server rebuilds nothing
   that any earlier process already built.

A build keeps the parse of the canonical bytes it stored
(:meth:`~repro.store.store.CampaignStore.put_derived` returns it): the
JSON round-trip normalizes tuples etc., so its memory entry is the
payload a disk hit would load, and its only derived-entry read is the
miss.

Builds, disk hits, and memory hits are counted per kind in the shared
:class:`~repro.obs.metrics.MetricsRegistry`.  Summary, diff and
what-if builds take their dataset from a third, smaller tier: the
datasets of the last eight manifest snapshots, keyed by manifest
digest.  The tables themselves come from
:func:`~repro.analysis.storediff.campaign_summary` alone; a diff build
subtracts two of them.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

from ..analysis.series import series_trend
from ..analysis.storediff import (
    campaign_diff,
    campaign_summary,
    dataset_from_manifest,
)
from ..analysis.whatif import (
    country_schism,
    provider_outage,
    single_points_of_failure,
)
from ..obs.metrics import MetricsRegistry
from ..pipeline.records import MeasurementDataset
from ..store.digest import canonical_json, digest_of
from ..store.store import DERIVED_SCHEMA, CampaignStore

__all__ = [
    "MATERIALIZE_VERSION",
    "Entry",
    "Materializer",
    "derived_key",
    "encode_body",
    "etag_of",
    "rendered",
]

#: Part of every derived key.  Bump whenever a materialized payload's
#: shape or semantics change: old entries then simply never match and
#: are swept by gc, instead of being served in the stale shape.
MATERIALIZE_VERSION = "repro-materialize-v1"

#: Entries the memory tier keeps before evicting the least recent.
MEMORY_SLOTS = 128


def encode_body(payload: object) -> bytes:
    """Canonical JSON bytes — the one rendering ETags are minted over."""
    return (canonical_json(payload) + "\n").encode("utf-8")


def etag_of(body: bytes) -> str:
    """Strong content-digest ETag of a response body."""
    return f'"{hashlib.sha256(body).hexdigest()}"'


def rendered(payload: object) -> tuple[bytes, str]:
    """A payload's response body and its ETag."""
    body = encode_body(payload)
    return body, etag_of(body)


class Entry:
    """One memory-tier slot: a payload and the views rendered from it.

    A view is the ``(body, etag)`` of one response cut from the payload
    (the payload itself, or a slice such as one country), encoded the
    first time it is asked for.  Two threads may render the same view
    at once; both produce the same bytes, so the last write is as good
    as the first.
    """

    __slots__ = ("payload", "_views")

    def __init__(self, payload: dict) -> None:
        self.payload = payload
        self._views: dict[str, tuple[bytes, str]] = {}

    def view(self, name: str, cut=None) -> tuple[bytes, str]:
        """The body and ETag of view ``name`` (``cut`` slices the payload)."""
        hit = self._views.get(name)
        if hit is None:
            hit = rendered(self.payload if cut is None else cut(self.payload))
            self._views[name] = hit
        return hit


def derived_key(kind: str, inputs: dict) -> str:
    """The derived-object key for one materialized payload."""
    return digest_of(
        {
            "materialize": MATERIALIZE_VERSION,
            "kind": kind,
            "inputs": inputs,
        }
    )


class Materializer:
    """Build-or-reuse front end over the store's derived objects.

    Thread-safe: the API layer serves from a ``ThreadingHTTPServer``,
    so the memory LRU is lock-guarded.  Store reads and writes need no
    extra locking — objects are immutable and derived-entry writes are
    atomic (last writer wins with an identical payload, since the key
    digests the inputs).
    """

    def __init__(
        self,
        store: CampaignStore,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.store = store
        self.registry = registry if registry is not None else MetricsRegistry()
        self._memory: OrderedDict[str, Entry] = OrderedDict()
        self._datasets: OrderedDict[str, tuple] = OrderedDict()
        self._lock = threading.Lock()
        self._outcomes = self.registry.counter(
            "repro_serve_materialize_total",
            "materializations by kind and cache outcome",
            labelnames=("kind", "outcome"),
        )

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _materialize(
        self, kind: str, inputs: dict, manifests: tuple[str, ...], build
    ) -> Entry:
        """Memory LRU -> disk derived entry -> build (and persist)."""
        key = derived_key(kind, inputs)
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self._outcomes.inc(kind=kind, outcome="memory")
                return entry
        payload = self.store.get_derived(key)
        if payload is not None:
            self._outcomes.inc(kind=kind, outcome="disk")
        else:
            # The stored form: what a restarted server would read back.
            payload = self.store.put_derived(
                key, build(), manifests=manifests
            )
            self._outcomes.inc(kind=kind, outcome="build")
        entry = Entry(payload)
        with self._lock:
            self._memory[key] = entry
            self._memory.move_to_end(key)
            while len(self._memory) > MEMORY_SLOTS:
                self._memory.popitem(last=False)
        return entry

    def dataset(
        self, manifest: dict, digest: str
    ) -> tuple[MeasurementDataset, list[str], list[str]]:
        """:func:`~repro.analysis.storediff.dataset_from_manifest` of
        one manifest snapshot, memory-cached by its digest."""
        with self._lock:
            hit = self._datasets.get(digest)
            if hit is not None:
                self._datasets.move_to_end(digest)
                return hit
        built = dataset_from_manifest(self.store, manifest)
        with self._lock:
            self._datasets[digest] = built
            self._datasets.move_to_end(digest)
            while len(self._datasets) > 8:
                self._datasets.popitem(last=False)
        return built

    # ------------------------------------------------------------------
    # Payload kinds
    # ------------------------------------------------------------------
    #
    # Every kind takes each manifest with its digest (``digest_of``),
    # which the caller computed once when it read the manifest.

    def summary(self, campaign: str, manifest: dict, digest: str) -> Entry:
        """Per-campaign score summary, keyed by the manifest digest."""
        return self._materialize(
            "campaign",
            {"manifest": digest},
            (digest,),
            lambda: campaign_summary(
                campaign, manifest, self.dataset(manifest, digest)
            ),
        )

    def diff(
        self,
        campaign_a: str,
        campaign_b: str,
        manifest_a: dict,
        manifest_b: dict,
        digest_a: str,
        digest_b: str,
    ) -> Entry:
        """Campaign diff, keyed by both manifest digests (ordered)."""
        return self._materialize(
            "diff",
            {"manifest_a": digest_a, "manifest_b": digest_b},
            (digest_a, digest_b),
            lambda: campaign_diff(
                manifest_a,
                manifest_b,
                campaign_summary(
                    campaign_a, manifest_a, self.dataset(manifest_a, digest_a)
                ),
                campaign_summary(
                    campaign_b, manifest_b, self.dataset(manifest_b, digest_b)
                ),
            ),
        )

    def whatif(
        self, campaign: str, manifest: dict, digest: str, knob: str, params: dict
    ) -> Entry:
        """A counterfactual result, keyed by manifest digest + knob."""
        return self._materialize(
            "whatif",
            {"manifest": digest, "knob": knob, "params": params},
            (digest,),
            lambda: self._build_whatif(campaign, manifest, digest, knob, params),
        )

    def _build_whatif(
        self, campaign: str, manifest: dict, digest: str, knob: str, params: dict
    ) -> dict:
        dataset = self.dataset(manifest, digest)[0]
        base = {
            "_schema": DERIVED_SCHEMA,
            "kind": "whatif",
            "campaign": campaign,
            "knob": knob,
        }
        if knob == "outage":
            impact = provider_outage(
                dataset, params["provider"], params["layer"]
            )
            worst_cc, worst_share = impact.worst_hit
            return {
                **base,
                "provider": impact.provider,
                "layer": impact.layer,
                "affected_share": impact.affected_share,
                "surviving_score": impact.surviving_score,
                "worst_hit": [worst_cc, worst_share],
                "global_affected_share": impact.global_affected_share(),
            }
        if knob == "schism":
            impact = country_schism(dataset, params["country"])
            return {
                **base,
                "blocked_country": impact.blocked_country,
                "exposure": impact.exposure,
            }
        # knob == "spof" — the router validated the knob name already.
        spofs = single_points_of_failure(
            dataset, params["layer"], params["threshold"]
        )
        return {
            **base,
            "layer": params["layer"],
            "threshold": params["threshold"],
            "single_points": {
                cc: [[name, share] for name, share in heavy]
                for cc, heavy in spofs.items()
            },
        }

    def trend(
        self,
        series: str,
        ledger: dict,
        ledger_digest: str,
        manifests: dict[str, tuple[dict, str]],
    ) -> Entry:
        """Series trend, keyed by the ledger + every surviving manifest.

        ``manifests`` maps campaign id -> ``(manifest, digest)`` for
        every epoch whose manifest still exists; the key holds each
        digest, so a new epoch (or a retirement) invalidates the trend.
        """
        manifest_digests = {
            campaign: digest for campaign, (_, digest) in manifests.items()
        }
        return self._materialize(
            "trend",
            {
                "ledger": ledger_digest,
                "manifests": manifest_digests,
            },
            tuple(sorted(manifest_digests.values())),
            lambda: {
                "_schema": DERIVED_SCHEMA,
                "kind": "trend",
                **series_trend(
                    self.store,
                    series,
                    ledger=ledger,
                    manifests={
                        campaign: manifest
                        for campaign, (manifest, _) in manifests.items()
                    },
                ),
            },
        )
