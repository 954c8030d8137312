"""One benchmark process: set up, run the timed work, check, report.

Run as ``python3 perfbench/child.py ROLE PARAMS_JSON OUT_JSON`` by
``run.py``; every timed run is a fresh interpreter, so imports, page
cache and allocator state are the same for each.  ``ROLE`` is
``campaign`` (also the ``observed`` workload, with instrumentation on),
``watch`` or ``fixture`` (builds the store the ``serve`` workload
queries).  The process reads ``repro`` from ``src/`` of the checkout.

Times are ``time.monotonic()`` readings, which on Linux share one
clock across processes, so the parent can compute set-up time from its
own spawn timestamp.  The process times host-speed slices
(``hostspeed.Slices``) around its set-up and between its units of work,
and leaves their time out of every time it reports.  With
``setup_only`` in the parameters the process stops after set-up: one
more set-up sample.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from hostspeed import Slices

#: Host-speed slices in each set-up block (one before the imports, one
#: after set-up) and before each watch epoch and after the last.
SETUP_BLOCK = 30
EPOCH_BLOCK = 20


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(root)
        for name in names
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def world_config(params: dict):
    from repro.datasets.countries import COUNTRY_CODES
    from repro.worldgen import WorldConfig

    countries = tuple(sorted(COUNTRY_CODES))
    step = params.get("country_step", 1)
    chosen = params.get("countries") or countries[::step]
    return WorldConfig(
        seed=params["seed"],
        sites_per_country=params["sites"],
        countries=tuple(chosen),
    )


def campaign_spec(params: dict, instrument: bool):
    from repro.pipeline import CampaignSpec

    return CampaignSpec(
        config=world_config(params),
        fault_profile=params["fault_profile"],
        fault_seed=params["seed"],
        retries=params["retries"],
        instrument=instrument,
    )


def row_counts(dataset) -> dict:
    rows = list(dataset)
    return {
        "rows": len(rows),
        "rows_failed": sum(1 for row in rows if not row.ok),
        "rows_degraded": sum(1 for row in rows if row.degraded),
        "attempts": sum(row.attempts for row in rows),
    }


def layer_tables(dataset) -> dict:
    """The paper's four per-layer tables, as canonical digests."""
    from repro.analysis import LayerAnalysis
    from repro.datasets.paper_scores import LAYERS

    digests = {}
    for layer in LAYERS:
        analysis = LayerAnalysis(dataset, layer)
        table = {
            "scores": analysis.scores,
            "insularity": analysis.insularity,
            "classes": {
                provider: cls.name
                for provider, cls in analysis.classification.labels.items()
            },
        }
        digests[layer] = canonical_digest(table)
    return digests


def run_campaign_role(params: dict, out: dict, tracer, cal: dict) -> None:
    from repro.pipeline import export_csv, rows_to_csv_text, run_campaign
    from repro.analysis import dataset_from_manifest
    from repro.store import CampaignStore

    instrument = params["instrument"]
    work = Path(params["work"])
    spec = campaign_spec(params, instrument)
    store = CampaignStore(work / "store")
    if set_up(params, out, cal):
        return

    checkpoints: list[float] = []
    resumed: list[float] = []

    def on_checkpoint() -> bool:
        checkpoints.append(time.monotonic())
        cal["timed"].take(1)
        resumed.append(time.monotonic())
        return False

    start = time.monotonic()
    result = run_campaign(spec, store=store, should_halt=on_checkpoint)
    csv_path = work / "campaign.csv"
    export_csv(result.dataset, csv_path)
    if instrument:
        result.write_metrics(work / "metrics.json")
        spans_written = result.write_trace(work / "trace.jsonl")
    else:
        tables = layer_tables(result.dataset)
    end = time.monotonic()
    snapshot_trace(tracer, out)

    countries = len(spec.resolved_countries())
    manifest = store.load_manifest(result.campaign)
    counts = row_counts(result.dataset)
    checks = {
        "manifest_complete": bool(manifest and manifest["complete"]),
        "rows_match": counts["rows"] == params["sites"] * countries,
        "no_quarantine": not result.quarantined,
    }
    stored, missing, _ = dataset_from_manifest(store, manifest)
    checks["store_roundtrip"] = not missing and hashlib.sha256(
        rows_to_csv_text(list(stored)).encode("utf-8")
    ).hexdigest() == hashlib.sha256(
        rows_to_csv_text(list(result.dataset)).encode("utf-8")
    ).hexdigest()
    digests = {"csv": file_digest(csv_path)}
    if instrument:
        digests["metrics"] = file_digest(work / "metrics.json")
        with open(work / "trace.jsonl", "rb") as handle:
            trace_lines = sum(1 for _ in handle)
        checks["trace_spans"] = trace_lines - 1 == spans_written == len(
            result.spans
        ) + len(result.profile_spans or ())
        out["spans"] = spans_written
        out["trace_bytes"] = os.path.getsize(work / "trace.jsonl")
    else:
        digests["tables"] = tables
    out.update(
        timed_s=end - start - sum(b - a for a, b in zip(checkpoints, resumed)),
        start=start,
        checkpoints=checkpoints,
        unit_windows=list(zip(resumed, checkpoints[1:])),
        units=countries,
        units_ok=min(len(checkpoints), countries),
        sites=counts["rows"],
        store_rows=counts["rows"],
        countries=countries,
        counts=counts,
        injected_faults=result.injected_faults,
        checks=checks,
        digests=digests,
        store_bytes=tree_bytes(work / "store"),
        store_metrics=result.store_metrics,
    )


def set_up(params: dict, out: dict, cal: dict) -> bool:
    """Mark the end of set-up and close the set-up window's slices.  A
    ``setup_only`` process (one more set-up sample) stops here."""
    out["setup_end"] = time.monotonic()
    cal["setup"].take(SETUP_BLOCK)
    if not params.get("setup_only"):
        return False
    out.update(timed_s=0.0, unit_windows=[])
    return True


def snapshot_trace(tracer, out: dict) -> None:
    """Summarize the spans of the timed work, before output checks run."""
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["span_count"] = len(tracer.spans)


def watch_spec(params: dict, epochs: int, quota: int | None):
    """The series: a seeded pair of countries churns every epoch."""
    import random

    from repro.pipeline import WatchSpec
    from repro.worldgen import ChurnConfig

    countries = sorted(world_config(params).countries)
    churned = sorted(
        random.Random(params["seed"]).sample(countries, params["churn"])
    )
    return WatchSpec(
        spec=campaign_spec(params, instrument=False),
        epochs=epochs,
        churn=ChurnConfig(churn_countries=tuple(churned)),
        store_quota_bytes=quota,
    )


def run_watch_role(params: dict, out: dict, tracer, cal: dict) -> None:
    """Epoch 0 is set-up; each later epoch is one resumed watch session,
    as a periodic ``repro watch --resume-series`` would run it."""
    from repro.pipeline import load_csv, run_watch
    from repro.store import CampaignStore

    work = Path(params["work"])
    store = CampaignStore(work / "store")
    exports = work / "epochs"
    epoch0_start = time.monotonic()
    first = run_watch(watch_spec(params, 1, None), store, export_dir=exports)
    if set_up(params, out, cal):
        return
    out["epoch0_s"] = out["setup_end"] - epoch0_start
    quota = int(first.store_bytes * params["quota_factor"])
    epoch_windows: list[tuple[float, float]] = []
    reuse = []
    for target in range(2, params["epochs"] + 1):
        cal["timed"].take(EPOCH_BLOCK)
        began = time.monotonic()
        last = run_watch(
            watch_spec(params, target, quota),
            store,
            resume=True,
            export_dir=exports,
        )
        epoch_windows.append((began, time.monotonic()))
        # Read the epoch's shard hits now: a later epoch may retire it,
        # and retirement deletes its store-metrics file.
        newest = store.load_series(last.series)["entries"][-1]
        metrics = store.load_store_metrics(newest["campaign"]) or {}
        family = metrics.get("metrics", {}).get(
            "repro_store_shard_hits_total", {}
        )
        reuse.append(
            sum(sample["value"] for sample in family.get("samples", []))
        )
    cal["timed"].take(EPOCH_BLOCK)
    snapshot_trace(tracer, out)

    ledger = store.load_series(last.series)
    entries = ledger["entries"] if ledger else []
    csvs = sorted(exports.glob("epoch-*.csv"))
    per_epoch = [row_counts(load_csv(path)) for path in csvs]
    # Epoch 0 is set-up: the counts cover the timed epochs only.
    counts = {name: sum(c[name] for c in per_epoch[1:]) for name in per_epoch[0]}
    sites = counts["rows"]
    countries = len(world_config(params).countries)
    checks = {
        "all_ok": bool(entries)
        and all(entry["status"] == "ok" for entry in entries),
        "quota_met": all(entry["quota_met"] for entry in entries),
        "epochs": len(entries) == params["epochs"],
        "rows_match": sites == params["sites"] * countries * (params["epochs"] - 1),
        "retired": bool(last.retired),
    }
    out.update(
        timed_s=sum(b - a for a, b in epoch_windows),
        unit_windows=epoch_windows,
        units=params["epochs"],
        units_ok=min(len(entries), params["epochs"]),
        sites=sites,
        store_rows=sum(c["rows"] for c in per_epoch),
        counts=counts,
        countries=countries,
        retired=list(last.retired),
        shard_hits=reuse,
        checks=checks,
        digests={"epochs": [file_digest(path) for path in csvs]},
        store_bytes=tree_bytes(work / "store"),
    )


def run_fixture_role(params: dict, out: dict, tracer, cal: dict) -> None:
    """Build the store the serve workload queries: one watch series."""
    import repro.serve  # noqa: F401  (warms the server's imports)
    from repro.pipeline import run_watch
    from repro.store import CampaignStore

    work = Path(params["work"])
    store = CampaignStore(work / "store")
    set_up(params, out, cal)
    report = run_watch(watch_spec(params, params["epochs"], None), store)
    ledger = store.load_series(report.series)
    campaigns = [entry["campaign"] for entry in ledger["entries"]]
    countries = list(world_config(params).countries)
    out.update(
        series=report.series,
        campaigns=campaigns,
        countries=countries,
        rows=params["sites"] * len(countries) * len(campaigns),
        store_bytes=tree_bytes(work / "store"),
        checks={
            "all_ok": all(s == "ok" for s in report.statuses),
            "epochs": len(campaigns) == params["epochs"],
        },
    )


ROLES = {
    "campaign": run_campaign_role,
    "watch": run_watch_role,
    "fixture": run_fixture_role,
}


def main() -> int:
    role, params_text, out_path = sys.argv[1:4]
    params = json.loads(params_text)
    out: dict = {"role": role}
    cal = {"setup": Slices(), "timed": Slices()}
    out["setup_slices_s"] = cal["setup"].take(SETUP_BLOCK)
    out["started"] = time.monotonic()
    tracer = handle = None
    import repro.pipeline  # noqa: F401
    import repro.store  # noqa: F401
    import repro.analysis  # noqa: F401

    out["imported"] = time.monotonic()
    if params.get("trace"):
        from tracer import Tracer, install_program_spans

        tracer = Tracer(run_id=f"{role}-{params['seed']}")
        handle = install_program_spans(tracer)
    ROLES[role](params, out, tracer, cal)
    out["speed_setup"] = cal["setup"].speed()
    out["speed"] = cal["timed"].speed()
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        from tracer import zone_cache_hit_ratio

        out["zone_cache_hit_ratio"] = zone_cache_hit_ratio(handle)
    Path(out_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
