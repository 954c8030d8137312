"""Per-campaign tables over the store, and diffs between them.

The longitudinal questions the paper asks (Section 5.4: who gained,
who lost, where did Cloudflare spread) become cheap once campaigns
persist.  One function turns a stored campaign into its per-layer
tables: :func:`campaign_summary` takes the dataset rebuilt from the
campaign's shards (:func:`dataset_from_manifest`) and scores every
country's centralization and insularity on every layer.  Everything
else reads those tables.  :func:`campaign_diff` subtracts two summaries
country by country, :func:`~repro.analysis.series.series_trend` strings
one summary per epoch into time series, and ``repro serve`` caches and
serves them.  The diff also reports *shard provenance* — which countries
were actually re-measured between the two campaigns and which reused
identical stored results — which is the store's own evidence of how
much incremental re-measurement saved.
"""

from __future__ import annotations

from ..core.centralization import centralization_score
from ..datasets.paper_scores import LAYERS
from ..errors import EmptyDistributionError, PipelineError, StoreCorruptionError
from ..pipeline.records import MeasurementDataset
from ..store.store import DERIVED_SCHEMA, CampaignStore, decode_shard
from .layers import LayerAnalysis

__all__ = [
    "campaign_dataset",
    "campaign_diff",
    "campaign_summary",
    "dataset_from_manifest",
    "manifest_snapshot",
    "render_campaign_diff",
    "require_complete",
    "stored_diff",
]

#: How many providers each per-country summary lists.
TOP_PROVIDERS = 5


def manifest_snapshot(manifest: dict) -> str | None:
    """The snapshot a stored campaign actually measured.

    An evolved campaign's manifest records the *base* config plus the
    churn recipe; the measured world carries the churn's new snapshot.
    """
    spec = manifest.get("spec", {})
    churn = spec.get("churn")
    if isinstance(churn, list):
        # A churn chain: the measured world carries the last step's
        # snapshot.
        churn = churn[-1] if churn else None
    if churn is not None:
        return churn.get("new_snapshot")
    return spec.get("config", {}).get("snapshot")


def dataset_from_manifest(
    store: CampaignStore, manifest: dict
) -> tuple[MeasurementDataset, list[str], list[str]]:
    """Rebuild a dataset from a *preloaded* manifest, tolerating gaps.

    Never raises on an incomplete campaign: countries whose shard is
    unwritten or whose object is missing are skipped and reported, so a
    partially-measured campaign is still servable
    (:func:`require_complete` turns a gap into an error where one is
    wanted).  Returns ``(dataset, missing, quarantined)`` where
    ``missing`` is the countries excluded from the dataset and
    ``quarantined`` the countries flagged by the supervisor (these still
    contribute rows when their object exists).

    Taking the manifest (not a campaign id) makes the read atomic under
    concurrent writers: the caller loads the manifest once and every
    shard it references is immutable and was written before the
    manifest named it, so the rebuilt dataset is a consistent snapshot.
    """
    dataset = MeasurementDataset()
    missing: list[str] = []
    quarantined: list[str] = []
    for cc in sorted(manifest.get("countries", {})):
        entry = manifest["countries"][cc]
        if entry.get("quarantined"):
            quarantined.append(cc)
        digest = entry.get("object")
        if digest is None:
            missing.append(cc)
            continue
        payload = store.get_object(digest)
        if payload is None:
            missing.append(cc)
            continue
        dataset.extend(decode_shard(payload).rows)
    return dataset, missing, quarantined


def require_complete(campaign: str, manifest: dict, missing: list[str]) -> None:
    """Raise on the first country :func:`dataset_from_manifest` missed.

    An unwritten shard is an unfinished run
    (:class:`~repro.errors.PipelineError`); a referenced object that is
    gone is damage (:class:`~repro.errors.StoreCorruptionError`).
    """
    for cc in missing:
        digest = manifest["countries"][cc].get("object")
        if digest is None:
            raise PipelineError(
                f"campaign {campaign} has no stored shard for {cc} "
                f"(incomplete run; finish it with --resume)"
            )
        raise StoreCorruptionError(
            f"campaign {campaign}: manifest references missing "
            f"object {digest} for {cc}; run `repro campaigns fsck "
            f"--repair` and re-measure with --resume"
        )


def _stored_manifest(store: CampaignStore, campaign: str) -> dict:
    manifest = store.load_manifest(campaign)
    if manifest is None:
        raise PipelineError(
            f"campaign {campaign} not found in store {store.root}"
        )
    return manifest


def campaign_dataset(
    store: CampaignStore, campaign: str
) -> MeasurementDataset:
    """Rebuild a stored campaign's full dataset from its shards."""
    manifest = _stored_manifest(store, campaign)
    dataset, missing, _ = dataset_from_manifest(store, manifest)
    require_complete(campaign, manifest, missing)
    return dataset


def campaign_summary(
    campaign: str,
    manifest: dict,
    loaded: tuple[MeasurementDataset, list[str], list[str]],
) -> dict:
    """The per-layer tables of one stored campaign (a pure function).

    ``loaded`` is :func:`dataset_from_manifest` of ``manifest``.  For
    every layer: each country's centralization score (``None`` when no
    provider is known at that layer), its insularity, the ranking and
    its top providers.  Tolerates partial campaigns: countries without
    a stored shard are reported in ``missing`` and excluded from the
    tables, so a campaign mid-measurement is servable at every point.
    """
    dataset, missing, quarantined = loaded
    layers: dict[str, dict] = {}
    for layer in LAYERS:
        analysis = LayerAnalysis(dataset, layer)
        insularity = analysis.insularity
        scores: dict[str, float | None] = {}
        top: dict[str, list] = {}
        for cc in dataset.countries:
            try:
                distribution = dataset.distribution(cc, layer)
            except EmptyDistributionError:
                scores[cc] = None
                top[cc] = []
                continue
            scores[cc] = centralization_score(distribution)
            top[cc] = [
                [name, count / distribution.total]
                for name, count in distribution.ranked()[:TOP_PROVIDERS]
            ]
        ranking = sorted(
            (
                (cc, score)
                for cc, score in scores.items()
                if score is not None
            ),
            key=lambda kv: (-kv[1], kv[0]),
        )
        layers[layer] = {
            "centralization": scores,
            "insularity": insularity,
            "ranking": [[cc, score] for cc, score in ranking],
            "top_providers": top,
        }
    return {
        "_schema": DERIVED_SCHEMA,
        "kind": "campaign",
        "campaign": campaign,
        "snapshot": manifest_snapshot(manifest),
        "baseline": manifest.get("baseline"),
        "complete": manifest.get("complete", False),
        "countries": dataset.countries,
        "missing": missing,
        "quarantined": quarantined,
        "layers": layers,
    }


def campaign_diff(
    manifest_a: dict, manifest_b: dict, summary_a: dict, summary_b: dict
) -> dict:
    """Structured per-layer, per-country deltas between two campaigns.

    Returns a JSON-ready mapping with shard provenance (which
    countries' stored results are literally the same object, read from
    the manifests) and, for every layer, each country's centralization
    score and insularity in both campaigns plus the delta — for every
    country both summaries scored at that layer.  A country with no
    rows (a quarantine tombstone) or no known provider at a layer is
    left out of that layer, never an error.  Both campaigns must be
    complete (:func:`require_complete`).
    """
    for manifest, summary in ((manifest_a, summary_a), (manifest_b, summary_b)):
        require_complete(summary["campaign"], manifest, summary["missing"])
    countries_a = manifest_a.get("countries", {})
    countries_b = manifest_b.get("countries", {})
    shared = sorted(set(countries_a) & set(countries_b))
    reused = [
        cc
        for cc in shared
        if countries_a[cc].get("object") == countries_b[cc].get("object")
    ]
    remeasured = [cc for cc in shared if cc not in set(reused)]

    layers: dict = {}
    for layer in LAYERS:
        table_a = summary_a["layers"][layer]
        table_b = summary_b["layers"][layer]
        per_country: dict = {}
        for cc in shared:
            score_a = table_a["centralization"].get(cc)
            score_b = table_b["centralization"].get(cc)
            if score_a is None or score_b is None:
                continue
            insularity_a = table_a["insularity"][cc]
            insularity_b = table_b["insularity"][cc]
            per_country[cc] = {
                "centralization": [score_a, score_b, score_b - score_a],
                "insularity": [
                    insularity_a,
                    insularity_b,
                    insularity_b - insularity_a,
                ],
            }
        layers[layer] = per_country

    return {
        "campaign_a": summary_a["campaign"],
        "campaign_b": summary_b["campaign"],
        "snapshot_a": summary_a["snapshot"],
        "snapshot_b": summary_b["snapshot"],
        "countries_only_a": sorted(set(countries_a) - set(countries_b)),
        "countries_only_b": sorted(set(countries_b) - set(countries_a)),
        "reused_shards": reused,
        "remeasured": remeasured,
        "layers": layers,
    }


def stored_diff(store: CampaignStore, campaign_a: str, campaign_b: str) -> dict:
    """:func:`campaign_diff` of two stored campaigns, which must be complete."""
    manifests = [_stored_manifest(store, c) for c in (campaign_a, campaign_b)]
    return campaign_diff(
        *manifests,
        *(
            campaign_summary(c, m, dataset_from_manifest(store, m))
            for c, m in zip((campaign_a, campaign_b), manifests)
        ),
    )


def render_campaign_diff(
    store: CampaignStore,
    campaign_a: str,
    campaign_b: str,
    top: int = 10,
) -> str:
    """Human-readable diff of two stored campaigns.

    Per layer, the ``top`` countries by absolute centralization delta
    (all countries when fewer); plus shard provenance up front.
    """
    diff = stored_diff(store, campaign_a, campaign_b)
    out = [
        "campaign diff",
        "=============",
        f"a: {campaign_a[:16]}  snapshot {diff['snapshot_a']}",
        f"b: {campaign_b[:16]}  snapshot {diff['snapshot_b']}",
        "",
        f"-- shards: {len(diff['reused_shards'])} reused, "
        f"{len(diff['remeasured'])} re-measured",
    ]
    if diff["reused_shards"]:
        out.append(f"   reused: {' '.join(diff['reused_shards'])}")
    if diff["remeasured"]:
        out.append(f"   re-measured: {' '.join(diff['remeasured'])}")
    for only, label in (
        (diff["countries_only_a"], "only in a"),
        (diff["countries_only_b"], "only in b"),
    ):
        if only:
            out.append(f"   {label}: {' '.join(only)}")
    for layer, per_country in diff["layers"].items():
        ranked = sorted(
            per_country.items(),
            key=lambda item: (-abs(item[1]["centralization"][2]), item[0]),
        )[:top]
        out.append("")
        out.append(f"-- {layer}: centralization / insularity deltas")
        for cc, entry in ranked:
            score_a, score_b, d_score = entry["centralization"]
            ins_a, ins_b, d_ins = entry["insularity"]
            out.append(
                f"   {cc}  score {score_a:.4f} -> {score_b:.4f} "
                f"({d_score:+.4f})   insularity {ins_a:.3f} -> "
                f"{ins_b:.3f} ({d_ins:+.3f})"
            )
    return "\n".join(out)
