"""Durable, content-addressed series ledgers for longitudinal watches.

A *series* is the unit of longitudinal identity: one base campaign
spec plus one per-epoch churn recipe.  Its id is the sha256 of that
recipe (:func:`series_id`), so two watches over the same world with
the same knobs extend the *same* series no matter when or where they
run — and a watch over a different world can never collide with it.

The ledger (``series/<id>.json``) is the watch's crash-safe record:
one entry per completed epoch, appended atomically (temp file +
``os.replace``), so a kill at any instant leaves either the previous
ledger or the new one — never a torn file.  ``--resume-series`` reads
the ledger to decide where to pick up; a kill *inside* an epoch leaves
no entry, and the epoch re-runs through the campaign store's ordinary
shard-level resume.

Convergence is a design rule, not an accident: **everything in a
ledger entry is a pure function of (series recipe, epoch)** —
campaign ids, snapshots, sorted ``[digest, bytes]`` object lists
(object files are canonical JSON, so their sizes are as deterministic
as their digests), retirement decisions replayed from prior entries.
No wall-clock values, no observed disk totals, no kill placement.
That is what lets the integration suite assert that a series battered
by kills at any phase, resumed to completion, produces a ledger
byte-identical to an uninterrupted run's.

The one documented exception: an epoch tombstoned as
``degraded:deadline`` records whatever partial object set its blown
wall-clock budget allowed, which is inherently timing-dependent.  The
guarantee there is weaker by construction — the series terminates and
later epochs are sound — and the convergence tests only batter runs
without deadlines.

Watch telemetry (``series/<id>.watch.json``) is the deliberately
*non*-deterministic sibling: sessions, signals, GC sweeps, observed
store bytes.  It merges across resumes via
:func:`~repro.obs.metrics.merge_metrics_payloads` and is never part
of the convergence guarantee, exactly like the campaign store's
``.store.json`` artifacts.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from ..errors import PipelineError, StoreCorruptionError
from ..obs.metrics import merge_metrics_payloads, render_metrics_json
from .digest import digest_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import CampaignStore

__all__ = [
    "SeriesLedger",
    "live_bytes",
    "retired_epochs",
    "series_id",
    "series_listing",
    "union_bytes",
    "validate_entry",
]

#: Ledger entry statuses a watch can record.
ENTRY_STATUSES = frozenset(
    {"ok", "degraded:deadline", "degraded:quarantine"}
)

#: Fields every ledger entry must carry, in schema order.
_ENTRY_FIELDS = (
    "epoch",
    "campaign",
    "snapshot",
    "status",
    "baseline",
    "objects",
    "retired",
    "quota_met",
)


def series_id(recipe: dict) -> str:
    """Content address of a series recipe (sha256 of canonical JSON)."""
    return digest_of(recipe)


def validate_entry(entry: dict, epoch: int) -> None:
    """Reject a malformed or out-of-order ledger entry before it lands.

    Appends are the only writes a ledger ever sees, so validating here
    keeps every on-disk ledger loadable by construction.
    """
    missing = [key for key in _ENTRY_FIELDS if key not in entry]
    if missing:
        raise PipelineError(
            f"ledger entry is missing fields {missing}"
        )
    if entry["epoch"] != epoch:
        raise PipelineError(
            f"ledger entry for epoch {entry['epoch']} appended at "
            f"position {epoch}; epochs are contiguous from 0"
        )
    if entry["status"] not in ENTRY_STATUSES:
        raise PipelineError(
            f"unknown ledger entry status {entry['status']!r}; "
            f"expected one of {sorted(ENTRY_STATUSES)}"
        )
    objects = entry["objects"]
    if objects != sorted(objects):
        raise PipelineError(
            "ledger entry object list must be sorted by digest"
        )


def retired_epochs(entries: list[dict]) -> set[int]:
    """Epochs some entry's retirement decision dropped."""
    retired: set[int] = set()
    for entry in entries:
        retired.update(entry["retired"])
    return retired


def union_bytes(object_lists) -> int:
    """Total bytes of ``[digest, bytes]`` lists, shared digests once.

    Unchurned epochs share most of their shards, so a footprint is the
    size of the digest union, not the sum of the lists.
    """
    union: dict[str, int] = {}
    for objects in object_lists:
        union.update(objects)
    return sum(union.values())


def live_bytes(entries: list[dict]) -> int:
    """Accounted payload bytes of the live (unretired) epochs."""
    retired = retired_epochs(entries)
    return union_bytes(
        entry["objects"]
        for entry in entries
        if entry["epoch"] not in retired
    )


def series_listing(store: "CampaignStore") -> list[dict]:
    """One summary row per stored ledger, sorted by series id.

    The rows behind ``repro campaigns series`` and ``GET /series``; an
    unreadable ledger gets a ``{"series": id, "corrupt": true}`` row.
    """
    rows: list[dict] = []
    for series in store.list_series_ids():
        payload = store.load_series(series)
        if payload is None:
            rows.append({"series": series, "corrupt": True})
            continue
        entries = payload.get("entries", [])
        rows.append(
            {
                "series": series,
                "epochs": len(entries),
                "retired": len(retired_epochs(entries)),
                "live_bytes": live_bytes(entries),
                "degraded": sum(
                    1 for entry in entries if entry["status"] != "ok"
                ),
                "quota_unmet": sum(
                    1 for entry in entries if not entry["quota_met"]
                ),
            }
        )
    return rows


class SeriesLedger:
    """One series' append-only epoch record inside a campaign store."""

    def __init__(
        self, store: "CampaignStore", recipe: dict
    ) -> None:
        from .store import SERIES_SCHEMA

        self.store = store
        self.recipe = recipe
        self.series = series_id(recipe)
        self._schema = SERIES_SCHEMA
        self.entries: list[dict] = []
        self._load()

    @property
    def path(self):
        """The ledger's on-disk location."""
        return self.store.series_path(self.series)

    def _load(self) -> None:
        path = self.path
        if not path.exists():
            return
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorruptionError(
                f"series ledger {self.series[:16]} is corrupt "
                f"(unparseable JSON: {exc}); run `repro campaigns "
                f"fsck`"
            ) from exc
        if (
            not isinstance(payload, dict)
            or payload.get("_schema") != self._schema
            or payload.get("series") != self.series
        ):
            raise StoreCorruptionError(
                f"series ledger {self.series[:16]} is corrupt "
                f"(wrong schema or series id); run `repro campaigns "
                f"fsck`"
            )
        entries = payload.get("entries", [])
        for epoch, entry in enumerate(entries):
            if not isinstance(entry, dict) or entry.get("epoch") != epoch:
                raise StoreCorruptionError(
                    f"series ledger {self.series[:16]} is corrupt "
                    f"(non-contiguous epochs at position {epoch})"
                )
        self.entries = entries

    def append(self, entry: dict) -> None:
        """Validate and durably append one epoch entry."""
        validate_entry(entry, len(self.entries))
        self.entries.append(entry)
        self.store.write_series_text(self.series, self.render())

    def render(self) -> str:
        """The ledger's canonical on-disk rendering."""
        return (
            json.dumps(
                {
                    "_schema": self._schema,
                    "series": self.series,
                    "recipe": self.recipe,
                    "entries": self.entries,
                },
                sort_keys=True,
                indent=1,
            )
            + "\n"
        )

    # ------------------------------------------------------------------
    # Derived, deterministic views (the watch planner's inputs)
    # ------------------------------------------------------------------

    def retired_epochs(self) -> set[int]:
        """Epochs some later entry's retirement decision dropped."""
        return retired_epochs(self.entries)

    def live_entries(self) -> list[dict]:
        """Entries whose campaign manifests are still rooted."""
        retired = self.retired_epochs()
        return [
            entry
            for entry in self.entries
            if entry["epoch"] not in retired
        ]

    def latest_ok(self) -> dict | None:
        """The newest live ``ok`` entry — the next epoch's baseline.

        Computed from ledger state alone, so a resumed session picks
        the same baseline the killed session did.
        """
        for entry in reversed(self.live_entries()):
            if entry["status"] == "ok":
                return entry
        return None

    # ------------------------------------------------------------------
    # Watch telemetry artifact (merged across sessions)
    # ------------------------------------------------------------------

    def merge_watch_metrics(self, payload: dict) -> dict:
        """Fold one session's watch telemetry into the series artifact.

        Counters sum across sessions, so after N kills and N+1
        sessions the artifact still reads as one watch's history.
        """
        path = self.store.watch_metrics_path(self.series)
        merged = payload
        if path.exists():
            previous = json.loads(path.read_text(encoding="utf-8"))
            merged = merge_metrics_payloads([previous, payload])
        from .store import _atomic_write_text

        _atomic_write_text(path, render_metrics_json(merged))
        return merged

    def load_watch_metrics(self) -> dict | None:
        """The merged watch telemetry payload (None when absent)."""
        path = self.store.watch_metrics_path(self.series)
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))
