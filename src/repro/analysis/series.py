"""Rendering longitudinal series: what did `repro watch` record?

A series ledger (:mod:`repro.store.series`) is the watcher's durable
record — one entry per epoch with status, object footprint, and quota
decisions.  This module turns it into the ``repro campaigns series``
views: a one-line-per-series listing and a per-series detail with the
epoch table plus per-layer centralization deltas between consecutive
live epochs (reusing :func:`~repro.analysis.storediff.campaign_diff`
when both epochs' manifests are still in the store — retired epochs
have no manifest to diff).
"""

from __future__ import annotations

from ..core.centralization import centralization_score
from ..datasets.paper_scores import LAYERS
from ..errors import EmptyDistributionError, PipelineError
from ..store.series import live_bytes, retired_epochs, series_listing
from ..store.store import CampaignStore
from .layers import LayerAnalysis
from .storediff import campaign_diff, dataset_from_manifest

__all__ = [
    "render_series_detail",
    "render_series_list",
    "render_series_trend",
    "series_trend",
]


def render_series_list(store: CampaignStore) -> str:
    """One line per stored series: epochs, health, live footprint."""
    rows = series_listing(store)
    if not rows:
        return f"no series stored in {store.root}"
    out = []
    for row in rows:
        if row.get("corrupt"):
            out.append(f"{row['series'][:16]}  (unreadable ledger)")
            continue
        line = (
            f"{row['series'][:16]}  {row['epochs']} epochs  "
            f"{row['retired']} retired  "
            f"live {row['live_bytes']} bytes"
        )
        if row["degraded"]:
            line += f"  {row['degraded']} degraded"
        if row["quota_unmet"]:
            line += f"  {row['quota_unmet']} quota-unmet"
        out.append(line)
    return "\n".join(out)


def series_trend(
    store: CampaignStore,
    series: str,
    *,
    ledger: dict | None = None,
    manifests: dict[str, dict] | None = None,
) -> dict:
    """Full-series consolidation trend across *all* recorded epochs.

    Where :func:`render_series_detail` diffs consecutive live pairs,
    this walks the entire ledger — retired epochs included — and
    reports, JSON-ready:

    * ``epochs`` — one summary row per recorded epoch (status, state,
      footprint); retired or manifest-less epochs stay in the table
      with ``measurable: false`` so the timeline never has holes.
    * ``layers`` — per-layer centralization/insularity time series:
      for every country ``[[epoch, value], ...]`` over the measurable
      epochs, plus the cross-country mean per epoch.
    * ``providers`` — per-layer provider entry/exit events between
      consecutive measurable epochs (who appeared, who vanished).

    ``ledger``/``manifests`` let the serve read path pin the exact
    snapshots it keyed its cache on; the CLI just lets them load here.
    """
    payload = ledger if ledger is not None else store.load_series(series)
    if payload is None:
        raise PipelineError(
            f"series {series} not found in store {store.root}"
        )
    entries = payload.get("entries", [])
    retired = retired_epochs(entries)

    epochs: list[dict] = []
    layer_series: dict[str, dict] = {
        layer: {
            "centralization": {},
            "insularity": {},
            "mean_centralization": [],
        }
        for layer in LAYERS
    }
    providers: dict[str, dict] = {
        layer: {"entries": [], "exits": []} for layer in LAYERS
    }
    previous_providers: dict[str, set[str]] | None = None

    for entry in entries:
        epoch = entry["epoch"]
        campaign = entry["campaign"]
        if manifests is not None:
            manifest = manifests.get(campaign)
        elif epoch in retired:
            manifest = None
        else:
            manifest = store.load_manifest(campaign)
        state = (
            "retired"
            if epoch in retired
            else ("live" if manifest is not None else "manifest-gone")
        )
        row = {
            "epoch": epoch,
            "snapshot": entry["snapshot"],
            "campaign": campaign,
            "status": entry["status"],
            "state": state,
            "quota_met": entry["quota_met"],
            "objects": len(entry["objects"]),
            "bytes": sum(size for _, size in entry["objects"]),
            "measurable": manifest is not None,
        }
        epochs.append(row)
        if manifest is None:
            continue
        dataset, missing, _ = dataset_from_manifest(store, manifest)
        row["missing_countries"] = missing
        epoch_providers: dict[str, set[str]] = {}
        for layer in LAYERS:
            analysis = LayerAnalysis(dataset, layer)
            insularity = analysis.insularity
            scores: list[float] = []
            seen: set[str] = set()
            for cc in dataset.countries:
                try:
                    score = centralization_score(
                        dataset.distribution(cc, layer)
                    )
                except EmptyDistributionError:
                    continue
                layer_series[layer]["centralization"].setdefault(
                    cc, []
                ).append([epoch, score])
                layer_series[layer]["insularity"].setdefault(
                    cc, []
                ).append([epoch, insularity[cc]])
                scores.append(score)
                seen.update(
                    name
                    for name, _ in dataset.distribution(
                        cc, layer
                    ).ranked()
                )
            if scores:
                layer_series[layer]["mean_centralization"].append(
                    [epoch, sum(scores) / len(scores)]
                )
            epoch_providers[layer] = seen
        if previous_providers is not None:
            for layer in LAYERS:
                entered = sorted(
                    epoch_providers[layer] - previous_providers[layer]
                )
                exited = sorted(
                    previous_providers[layer] - epoch_providers[layer]
                )
                if entered:
                    providers[layer]["entries"].append([epoch, entered])
                if exited:
                    providers[layer]["exits"].append([epoch, exited])
        previous_providers = epoch_providers

    return {
        "series": series,
        "epochs": epochs,
        "measurable_epochs": sum(1 for row in epochs if row["measurable"]),
        "layers": layer_series,
        "providers": providers,
    }


def render_series_trend(trend: dict, top: int = 5) -> str:
    """Operator-facing trend report for ``campaigns series --trend``."""
    out = [
        f"series {trend['series'][:16]} — consolidation trend",
        "=" * 44,
        f"epochs recorded: {len(trend['epochs'])}   measurable: "
        f"{trend['measurable_epochs']}",
        "",
        "epoch  status               state          quota  bytes",
    ]
    for row in trend["epochs"]:
        out.append(
            f"{row['epoch']:5d}  {row['status']:19s}  "
            f"{row['state']:13s}  "
            f"{'met' if row['quota_met'] else 'UNMET':5s}  "
            f"{row['bytes']}"
        )
    for layer, data in trend["layers"].items():
        means = data["mean_centralization"]
        if not means:
            continue
        out.append("")
        path = " -> ".join(f"{score:.4f}" for _, score in means)
        out.append(f"-- {layer}: mean centralization {path}")
        movers = sorted(
            (
                (cc, points[-1][1] - points[0][1])
                for cc, points in data["centralization"].items()
                if len(points) > 1
            ),
            key=lambda kv: (-abs(kv[1]), kv[0]),
        )[:top]
        moved = [f"{cc} {delta:+.4f}" for cc, delta in movers if delta]
        if moved:
            out.append(f"   top movers: {' '.join(moved)}")
        events = trend["providers"][layer]
        for epoch, names in events["entries"]:
            out.append(
                f"   epoch {epoch}: entered {', '.join(names)}"
            )
        for epoch, names in events["exits"]:
            out.append(f"   epoch {epoch}: exited {', '.join(names)}")
    if trend["measurable_epochs"] < 2:
        out.append("")
        out.append(
            "-- fewer than two measurable epochs: retired/archived "
            "epochs appear as summary rows only"
        )
    return "\n".join(out)


def render_series_detail(
    store: CampaignStore, series: str, top: int = 5
) -> str:
    """One series in detail: epoch table, then epoch-over-epoch deltas.

    The delta section diffs each consecutive pair of live epochs whose
    manifests both survive in the store, showing the ``top`` countries
    per layer by absolute centralization delta.
    """
    payload = store.load_series(series)
    if payload is None:
        raise PipelineError(
            f"series {series} not found in store {store.root}"
        )
    entries = payload.get("entries", [])
    retired = retired_epochs(entries)
    out = [
        f"series {series[:16]}",
        "=" * (7 + 16),
        f"epochs recorded: {len(entries)}   retired: "
        f"{len(retired)}   live payload: "
        f"{live_bytes(entries)} bytes",
        "",
        "epoch  status               snapshot          campaign"
        "          objects      bytes  quota  state",
    ]
    for entry in entries:
        epoch = entry["epoch"]
        size = sum(size for _, size in entry["objects"])
        out.append(
            f"{epoch:5d}  {entry['status']:19s}  "
            f"{entry['snapshot']:16s}  {entry['campaign'][:16]}  "
            f"{len(entry['objects']):7d}  {size:9d}  "
            f"{'met' if entry['quota_met'] else 'UNMET':5s}  "
            f"{'retired' if epoch in retired else 'live'}"
        )
        if entry["retired"]:
            out.append(
                f"       retires epochs "
                f"{', '.join(str(e) for e in entry['retired'])}"
            )
    pairs = [
        (entries[i - 1], entries[i])
        for i in range(1, len(entries))
        if entries[i - 1]["epoch"] not in retired
        and entries[i]["epoch"] not in retired
        and store.load_manifest(entries[i - 1]["campaign"]) is not None
        and store.load_manifest(entries[i]["campaign"]) is not None
    ]
    for earlier, later in pairs:
        diff = campaign_diff(
            store, earlier["campaign"], later["campaign"]
        )
        out.append("")
        out.append(
            f"-- epoch {earlier['epoch']} -> {later['epoch']} "
            f"({earlier['snapshot']} -> {later['snapshot']}): "
            f"{len(diff['reused_shards'])} shards reused, "
            f"{len(diff['remeasured'])} re-measured"
        )
        for layer, per_country in diff["layers"].items():
            ranked = sorted(
                per_country.items(),
                key=lambda item: (
                    -abs(item[1]["centralization"][2]),
                    item[0],
                ),
            )[:top]
            moved = [
                f"{cc} {entry['centralization'][2]:+.4f}"
                for cc, entry in ranked
                if entry["centralization"][2]
            ]
            out.append(
                f"   {layer:8s} "
                + (" ".join(moved) if moved else "(no score movement)")
            )
    if not pairs and len(entries) > 1:
        out.append("")
        out.append(
            "-- no consecutive live epoch pair with surviving "
            "manifests to diff (quota GC retired them)"
        )
    return "\n".join(out)
