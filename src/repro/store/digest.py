"""Digest scheme of the campaign store.

Everything in the store is named by content or by a deterministic key:

* ``campaign_id(spec)`` — identity of a campaign *run request*: the
  full world config (seed included), the fault/vantage/instrumentation
  knobs, the measured country set, and the pipeline version.  Two
  invocations with the same id would produce byte-identical outputs,
  which is what makes ``--resume`` sound.
* ``shard_key(spec, country, slice_digest)`` — identity of one
  country's *result*: the pipeline version, the knobs that shape
  measurement behavior, the country, and the world-slice digest
  (:func:`repro.worldgen.slices.world_slice_digest`) standing in for
  everything the pipeline can observe of the world.  Deliberately
  campaign-independent: a shard measured under one campaign is
  reusable by any other whose key matches — the same mechanism serves
  resume (same campaign) and ``--since`` (evolved world, unchanged
  slice).
* ``digest_of(payload)`` — content address of a stored object.

All digests are sha256 over canonical JSON (sorted keys, compact
separators, UTF-8).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

__all__ = [
    "PIPELINE_VERSION",
    "canonical_json",
    "digest_of",
    "campaign_id",
    "shard_key",
    "spec_fingerprint",
]

#: Bumped whenever measurement semantics change in a way that makes
#: previously stored shards non-reusable (new CSV columns, new fault
#: behavior, resolver changes...).  Part of every campaign id and
#: shard key, so stale shards simply never match.
PIPELINE_VERSION = "repro-pipeline-v1"


#: Sorted keys, compact separators, UTF-8 text; built once, not per call.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
)


def canonical_json(payload: object) -> str:
    """The one true JSON rendering used for hashing."""
    return _CANONICAL.encode(payload)


def digest_of(payload: object) -> str:
    """sha256 hex digest of the canonical JSON of ``payload``."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


def _knobs(spec) -> dict:
    """The campaign knobs that shape a single country's measurements."""
    return {
        "fault_profile": spec.fault_profile,
        "fault_seed": spec.fault_seed,
        "retries": spec.retries,
        "vantage_continent": spec.vantage_continent,
        "vantage_country": spec.vantage_country,
        "instrument": bool(spec.instrument),
    }


def _churn_step(churn) -> dict:
    step = dataclasses.asdict(churn)
    if step.get("churn_countries") is not None:
        step["churn_countries"] = list(step["churn_countries"])
    return step


def _churn(spec) -> dict | list | None:
    """JSON-ready churn recipe (None for a base-world campaign).

    A single recipe keeps the original dict shape (ids of existing
    stores stay valid); a churn *chain* (epoch N of a watch series)
    fingerprints as the list of steps, in application order.
    """
    if spec.churn is None:
        return None
    if isinstance(spec.churn, tuple):
        return [_churn_step(step) for step in spec.churn]
    return _churn_step(spec.churn)


def spec_fingerprint(spec) -> dict:
    """JSON-ready identity of a campaign spec (used in manifests)."""
    config = dataclasses.asdict(spec.config)
    config["countries"] = list(config["countries"])
    return {
        "pipeline": PIPELINE_VERSION,
        "config": config,
        "churn": _churn(spec),
        "knobs": _knobs(spec),
        "countries": list(spec.resolved_countries()),
    }


def campaign_id(spec) -> str:
    """Deterministic identity of a campaign run request."""
    return digest_of(spec_fingerprint(spec))


def shard_key(spec, country: str, slice_digest: str) -> str:
    """Deterministic identity of one country's measurement result."""
    return digest_of(
        {
            "pipeline": PIPELINE_VERSION,
            "knobs": _knobs(spec),
            "country": country,
            "slice": slice_digest,
        }
    )
