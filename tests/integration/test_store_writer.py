"""The store writes every document one way: as its canonical JSON.

One writer puts every document under a store root, so an object
file's sha256 is its own name and every other file is
``canonical_json`` of what it parses to.  A store written in the
earlier renderings (indented objects, manifests and ledgers, bare
``json.dumps`` index and derived entries, indented telemetry) still
checks clean, serves the same bodies and ETags, resumes and runs
``--since`` to the same bytes, and extends its series, through the
same readers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.obs.metrics import render_metrics_json
from repro.pipeline import (
    CampaignHalted,
    CampaignSpec,
    WatchSpec,
    export_csv,
    run_campaign,
    run_watch,
)
from repro.serve.api import ServeApi
from repro.store import CampaignStore, campaign_id, canonical_json
from repro.store.series import live_bytes
from repro.worldgen import ChurnConfig, WorldConfig

CONFIG = WorldConfig(sites_per_country=50, countries=("TH", "US"))
SPEC = CampaignSpec(
    config=CONFIG, fault_profile="chaos", fault_seed=3, retries=3, instrument=True
)
EVOLVED = dataclasses.replace(SPEC, churn=ChurnConfig(churn_countries=("TH",)))
WATCH = WatchSpec(
    spec=CampaignSpec(config=dataclasses.replace(CONFIG, seed=5)),
    epochs=1,
    churn=ChurnConfig(churn_countries=("TH",)),
)
WATCH_EPOCHS = 3


def urls(root: Path) -> list[str]:
    """Every served view of the store at ``root`` (bar the index, which
    names the root)."""
    store = CampaignStore(root)
    campaigns = store.list_campaign_ids()
    paths = ["/campaigns", "/series"]
    for campaign in campaigns:
        paths += [
            f"/campaigns/{campaign}",
            f"/campaigns/{campaign[:12]}/layers",
            f"/campaigns/{campaign}/countries/TH",
            f"/whatif/{campaign}?knob=spof",
        ]
    paths += [f"/diff/{a}/{b}" for a in campaigns for b in campaigns if a != b]
    paths += [f"/series/{series}/trend" for series in store.list_series_ids()]
    return paths


def serve(root: Path) -> dict[str, tuple[int, bytes, str | None]]:
    api = ServeApi(CampaignStore(root))
    answers = {}
    for url in urls(root):
        path, _, query = url.partition("?")
        knob = dict([query.split("=")]) if query else {}
        response = api.handle(path, {k: [v] for k, v in knob.items()})
        answers[url] = (response.status, response.body, response.etag)
    return answers


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A halted instrumented chaos campaign, a watch series whose quota
    retired an epoch, and a served cold pass over both."""
    root = tmp_path_factory.mktemp("writer-store")
    store = CampaignStore(root)
    with pytest.raises(CampaignHalted):
        run_campaign(SPEC, store=store, halt_after=1)
    first = run_watch(WATCH, store)
    epoch_bytes = live_bytes(store.load_series(first.series)["entries"])
    report = run_watch(
        dataclasses.replace(
            WATCH, epochs=WATCH_EPOCHS, store_quota_bytes=int(epoch_bytes * 1.2)
        ),
        store,
        resume=True,
    )
    assert report.retired, "the quota retired no epoch"
    serve(root)
    return root


def copy_of(root: Path, dest: Path) -> Path:
    shutil.copytree(root, dest)
    return dest


def rewrite_in_earlier_renderings(root: Path) -> None:
    """Re-spell every document as stores were written before the one
    writer: indented objects, manifests and ledgers, ``json.dumps``
    index and derived entries (``object`` first), indented telemetry."""
    for path in root.rglob("*.json"):
        document = json.loads(path.read_bytes())
        if path.name.endswith((".store.json", ".watch.json")):
            text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        elif path.relative_to(root).parts[0] in ("index", "derived"):
            text = json.dumps({"object": document.pop("object"), **document})
        elif path.relative_to(root).parts[0] == "series":
            text = json.dumps(document, sort_keys=True, indent=1) + "\n"
        else:
            text = json.dumps(document, sort_keys=True, indent=1)
        path.write_text(text, encoding="utf-8")


def outputs(result, path: Path) -> tuple[bytes, str]:
    """A campaign's ``--export`` CSV and ``--metrics-out`` bytes."""
    export_csv(result.dataset, path)
    return path.read_bytes(), render_metrics_json(result.metrics)


def test_every_document_is_canonical(pristine, tmp_path):
    root = copy_of(pristine, tmp_path / "store")
    store = CampaignStore(root)
    run_campaign(SPEC, store=store, resume=True)
    run_campaign(EVOLVED, store=store, baseline=campaign_id(SPEC))
    serve(root)
    kinds = set()
    for path in sorted(root.rglob("*")):
        if path.is_dir():
            continue
        raw = path.read_bytes()
        kind = path.relative_to(root).parts[0]
        if kind == "objects":
            assert hashlib.sha256(raw).hexdigest() == path.stem, path
        else:
            assert raw == canonical_json(json.loads(raw)).encode("utf-8"), path
        kinds.add("".join([kind, *path.suffixes]))
    assert kinds == {
        "objects.json",
        "index.json",
        "derived.json",
        "campaigns.json",
        "campaigns.store.json",
        "series.json",
        "series.watch.json",
    }


def test_a_store_in_earlier_renderings_reads_the_same(pristine, tmp_path):
    earlier = copy_of(pristine, tmp_path / "earlier")
    rewrite_in_earlier_renderings(earlier)
    canonical = copy_of(pristine, tmp_path / "canonical")
    assert any(
        hashlib.sha256(path.read_bytes()).hexdigest() != path.stem
        for path in (earlier / "objects").rglob("*.json")
    )

    assert CampaignStore(earlier).fsck().clean
    assert serve(earlier) == serve(canonical)

    runs = {}
    for name, root in (("earlier", earlier), ("canonical", canonical)):
        store = CampaignStore(root)
        resumed = run_campaign(SPEC, store=store, resume=True)
        since = run_campaign(EVOLVED, store=store, baseline=resumed.campaign)
        runs[name] = (
            outputs(resumed, tmp_path / f"{name}-resumed.csv"),
            outputs(since, tmp_path / f"{name}-since.csv"),
            since.store_metrics,
        )
        assert store.fsck().clean
    assert runs["earlier"] == runs["canonical"]
    assert runs["earlier"][0] == outputs(run_campaign(SPEC), tmp_path / "full.csv")
    evolved_csv = outputs(run_campaign(EVOLVED), tmp_path / "evolved.csv")[0]
    assert runs["earlier"][1][0] == evolved_csv
    assert serve(earlier) == serve(canonical)

    # The series extends alike; its ledgers differ only in the recorded
    # sizes of reused objects the earlier renderings wrote indented.
    ledgers = []
    for root in (earlier, canonical):
        store = CampaignStore(root)
        watch = dataclasses.replace(WATCH, epochs=WATCH_EPOCHS + 1)
        report = run_watch(watch, store, resume=True)
        assert report.statuses == ("ok",) * (WATCH_EPOCHS + 1)
        assert store.fsck().clean
        ledger = store.load_series(report.series)
        for entry in ledger["entries"]:
            entry["objects"] = [digest for digest, _ in entry["objects"]]
        ledgers.append(ledger)
    assert ledgers[0] == ledgers[1]
