"""Every reader of the store gives a stored document the same verdict.

One three-epoch ``repro watch`` store (TH churned each step) backs
these tests; each test damages a private copy.  A quarantined country
in a campaign is data, not damage: every diff against the campaign
still answers, leaving the country out of the per-layer deltas.  A
damaged series ledger is damage to every reader alike: ``fsck``, the
watch, the listings, the trend and the series views.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from collections import Counter

import pytest

from repro.cli import main
from repro.datasets.paper_scores import LAYERS
from repro.errors import StoreCorruptionError
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import CampaignSpec, WatchSpec, run_watch
from repro.pipeline.supervisor import quarantine_tombstone
from repro.serve import api as api_module
from repro.serve import materialize as materialize_module
from repro.serve.api import ServeApi
from repro.store import SERIES_SCHEMA, CampaignStore, SeriesLedger, encode_shard
from repro.store import store as store_module
from repro.store.series import series_listing
from repro.worldgen import ChurnConfig, WorldConfig

WATCH = WatchSpec(
    spec=CampaignSpec(
        config=WorldConfig(
            sites_per_country=50, countries=("TH", "US"), seed=5
        ),
    ),
    epochs=3,
    churn=ChurnConfig(churn_countries=("TH",)),
)


@pytest.fixture(scope="module")
def watched(tmp_path_factory):
    """The pristine store, its series id and its epochs' campaigns."""
    root = tmp_path_factory.mktemp("readers-store")
    report = run_watch(WATCH, CampaignStore(root))
    assert report.epochs_recorded == WATCH.epochs
    ledger = CampaignStore(root).load_series(report.series)
    campaigns = [entry["campaign"] for entry in ledger["entries"]]
    return root, report.series, campaigns


@pytest.fixture()
def copy(watched, tmp_path):
    """A private copy of the watched store, for tests that damage it."""
    root, series, campaigns = watched
    shutil.copytree(root, tmp_path / "store")
    return tmp_path / "store", series, campaigns


def campaigns_cli(root, *args: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["campaigns", "--store", str(root), *args])
    return code, out.getvalue()


class TestQuarantinedCountry:
    """A tombstone (the zero-row shard ``--quarantine`` writes) in the
    newest epoch's campaign."""

    @pytest.fixture()
    def tombstoned(self, copy):
        root, series, campaigns = copy
        store = CampaignStore(root)
        manifest = store.load_manifest(campaigns[-1])
        reason = "shard retries exhausted"
        entry = manifest["countries"]["TH"]
        entry["object"] = store.put_object(
            encode_shard(quarantine_tombstone("TH", reason))
        )
        entry["quarantined"] = reason
        manifest["complete"] = False
        store.save_manifest(manifest)
        return root, series, campaigns

    def test_served_diff_leaves_the_country_out(self, tombstoned):
        root, _, campaigns = tombstoned
        api = ServeApi(CampaignStore(root))
        for a, b in ((campaigns[1], campaigns[2]), (campaigns[2], campaigns[0])):
            response = api.handle(f"/diff/{a}/{b[:12]}")
            assert response.status == 200, response.body
            diff = json.loads(response.body)
            assert "TH" in diff["reused_shards"] + diff["remeasured"]
            for layer in LAYERS:
                assert set(diff["layers"][layer]) == {"US"}, layer

    def test_untouched_country_keeps_its_deltas(self, tombstoned, watched):
        root, _, campaigns = tombstoned
        pristine = json.loads(
            ServeApi(CampaignStore(watched[0]))
            .handle(f"/diff/{campaigns[1]}/{campaigns[2]}")
            .body
        )
        damaged = json.loads(
            ServeApi(CampaignStore(root))
            .handle(f"/diff/{campaigns[1]}/{campaigns[2]}")
            .body
        )
        assert damaged["reused_shards"] == pristine["reused_shards"]
        assert damaged["remeasured"] == pristine["remeasured"]
        for layer in LAYERS:
            assert damaged["layers"][layer]["US"] == pristine["layers"][layer]["US"]

    def test_cli_views_answer(self, tombstoned):
        root, series, campaigns = tombstoned
        code, out = campaigns_cli(root, "diff", campaigns[1][:12], campaigns[2][:12])
        assert code == 0
        assert "   US  score" in out and "   TH  score" not in out
        code, out = campaigns_cli(root, "series", series[:12])
        assert code == 0
        assert "-- epoch 1 -> 2" in out


def damage_ledger(root, series: str, how: str) -> None:
    path = root / "series" / f"{series}.json"
    raw = path.read_bytes()
    if how == "torn":
        path.write_bytes(raw[: len(raw) // 2])
        return
    ledger = json.loads(raw)
    if how == "wrong-schema":
        ledger["_schema"] = "repro-series-v999"
    elif how == "wrong-series-id":
        ledger["series"] = "0" * 64
    elif how == "entries-not-a-list":
        ledger["entries"] = None
    else:  # non-contiguous: epoch 1's entry is gone
        del ledger["entries"][1]
    path.write_text(json.dumps(ledger), encoding="utf-8")


@pytest.mark.parametrize(
    "how",
    [
        "torn",
        "wrong-schema",
        "wrong-series-id",
        "entries-not-a-list",
        "non-contiguous",
    ],
)
def test_every_reader_calls_a_damaged_ledger_corrupt(copy, how):
    root, series, _ = copy
    damage_ledger(root, series, how)
    store = CampaignStore(root)

    # fsck reports it ...
    assert store.fsck().corrupt_series == [series]
    # ... the watch refuses to resume it ...
    with pytest.raises(StoreCorruptionError, match="fsck"):
        SeriesLedger(store, WATCH.recipe())
    # ... both listings mark it ...
    assert series_listing(store) == [{"series": series, "corrupt": True}]
    code, out = campaigns_cli(root, "series")
    assert code == 0 and "(unreadable ledger)" in out
    api = ServeApi(store)
    listed = json.loads(api.handle("/series").body)["series"]
    assert listed == [{"series": series, "corrupt": True}]
    # ... the trend answers what a corrupt manifest gets ...
    for ident in (series, series[:12]):
        response = api.handle(f"/series/{ident}/trend")
        assert response.status == 500, ident
        assert json.loads(response.body)["error"]["code"] == "store_corruption"
    # ... and the CLI views raise with the fsck hint.
    for view in ([series[:12]], [series[:12], "--trend"]):
        with pytest.raises(StoreCorruptionError, match="fsck"):
            campaigns_cli(root, "series", *view)


def test_warm_trend_parses_digests_and_lists_nothing(watched, monkeypatch):
    """A ledger is parsed and digested once per change of its bytes,
    and a full series id names its file without a listing."""
    root, series, _ = watched
    store = CampaignStore(root)
    api = ServeApi(store)
    full, prefix = f"/series/{series}/trend", f"/series/{series[:12]}/trend"
    first = {path: api.handle(path) for path in (full, prefix)}
    assert all(response.status == 200 for response in first.values())

    calls: Counter = Counter()
    parse_series = api_module.parse_series

    def counting_parse(*args):
        calls["parse_series"] += 1
        return parse_series(*args)

    def counting_digest(module):
        digest_of = module.digest_of

        def wrapper(payload):
            if isinstance(payload, dict) and payload.get("_schema") == SERIES_SCHEMA:
                calls["ledger digest_of"] += 1
            return digest_of(payload)

        return wrapper

    list_series_ids = store.list_series_ids

    def counting_listing():
        calls["list_series_ids"] += 1
        return list_series_ids()

    monkeypatch.setattr(api_module, "parse_series", counting_parse)
    for module in (api_module, materialize_module):
        monkeypatch.setattr(module, "digest_of", counting_digest(module))
    monkeypatch.setattr(store, "list_series_ids", counting_listing)

    again = api.handle(full)
    assert calls == Counter()  # no parse, no digest, no listing
    assert (again.body, again.etag) == (first[full].body, first[full].etag)
    again = api.handle(prefix)
    assert calls == Counter({"list_series_ids": 1})
    assert (again.body, again.etag) == (first[prefix].body, first[prefix].etag)

    restarted = ServeApi(CampaignStore(root), MetricsRegistry())
    for path, response in first.items():
        fresh = restarted.handle(path)
        assert (fresh.body, fresh.etag) == (response.body, response.etag)


def test_series_detail_decodes_each_live_epoch_once(watched, monkeypatch):
    """``campaigns series <id>`` loads each live manifest once and
    summarizes each epoch once, though the middle epoch is in two
    pairs."""
    root, series, campaigns = watched
    store = CampaignStore(root)
    references = sum(
        1
        for campaign in campaigns
        for entry in store.load_manifest(campaign)["countries"].values()
        if entry["object"]
    )
    calls: Counter = Counter()
    for name in ("get_object", "load_manifest"):

        def counting(self, *args, _name=name, _method=getattr(CampaignStore, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(CampaignStore, name, counting)
    code, out = campaigns_cli(root, "series", series[:12])
    assert code == 0
    assert "-- epoch 0 -> 1" in out and "-- epoch 1 -> 2" in out
    assert calls == Counter(get_object=references, load_manifest=len(campaigns))


def test_warm_series_listing_parses_nothing(copy, monkeypatch):
    """``GET /series`` lists from the ledger snapshots: a warm request
    parses no ledger, and a changed ledger is listed anew."""
    root, series, _ = copy
    store = CampaignStore(root)
    api = ServeApi(store)
    first = api.handle("/series")
    assert first.status == 200
    assert json.loads(first.body)["series"] == series_listing(store)

    calls: Counter = Counter()
    for module in (api_module, store_module):

        def counting(*args, _parse=module.parse_series):
            calls["parse_series"] += 1
            return _parse(*args)

        monkeypatch.setattr(module, "parse_series", counting)
    again = api.handle("/series")
    assert calls == Counter()
    assert (again.body, again.etag) == (first.body, first.etag)
    monkeypatch.undo()

    restarted = ServeApi(CampaignStore(root), MetricsRegistry()).handle("/series")
    assert (restarted.body, restarted.etag) == (first.body, first.etag)
    damage_ledger(root, series, "torn")
    listed = json.loads(api.handle("/series").body)["series"]
    assert listed == [{"series": series, "corrupt": True}]
