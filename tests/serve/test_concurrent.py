"""Concurrent read/write: readers see old-or-new, never a torn summary.

A ``serve`` process answers queries while ``measure --store``
checkpoints land in the same store.  The store's contract makes this
safe — manifests are replaced atomically (temp file + ``os.replace``)
and shard objects are immutable and written *before* the manifest
references them — and the API's contract is to load the manifest once
per request.  These tests hammer that combination: a writer thread
flips the manifest between two valid states while readers assert that
every response matches one of the two expected bodies, byte for byte.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.pipeline import CampaignSpec, run_campaign
from repro.serve.api import ServeApi
from repro.store import CampaignStore
from repro.worldgen import WorldConfig


@pytest.fixture(scope="module")
def flipping_store(tmp_path_factory):
    """A store plus the two manifest states the writer flips between.

    State A is the completed campaign; state B simulates the
    mid-measurement checkpoint that precedes it (TH's shard landed,
    US's has not) — exactly what a reader can observe while a
    checkpoint sequence replays.
    """
    root = tmp_path_factory.mktemp("concurrent-store")
    spec = CampaignSpec(
        config=WorldConfig(sites_per_country=50, countries=("TH", "US"))
    )
    run_campaign(spec, store=CampaignStore(root))
    store = CampaignStore(root)
    campaign = store.list_campaign_ids()[0]
    complete = store.load_manifest(campaign)
    partial = json.loads(json.dumps(complete))
    partial["countries"]["US"]["object"] = None
    partial["complete"] = False
    return root, campaign, complete, partial


def expected_bodies(root, campaign, manifests) -> set[bytes]:
    """The only legal response bodies: one per manifest state."""
    bodies = set()
    store = CampaignStore(root)
    api = ServeApi(store)
    for manifest in manifests:
        store.save_manifest(manifest)
        bodies.add(api.handle(f"/campaigns/{campaign}").body)
    return bodies


class TestTornReads:
    def test_reader_never_sees_torn_summary(self, flipping_store):
        root, campaign, complete, partial = flipping_store
        legal = expected_bodies(root, campaign, (complete, partial))
        assert len(legal) == 2

        store = CampaignStore(root)
        api = ServeApi(store)
        stop = threading.Event()
        writer_error: list[Exception] = []

        def writer():
            writer_store = CampaignStore(root)
            state = True
            try:
                while not stop.is_set():
                    writer_store.save_manifest(
                        complete if state else partial
                    )
                    state = not state
            except Exception as exc:  # pragma: no cover
                writer_error.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            seen = set()
            for _ in range(200):
                response = api.handle(f"/campaigns/{campaign}")
                assert response.status == 200
                assert response.body in legal
                seen.add(response.body)
        finally:
            stop.set()
            thread.join()
        assert not writer_error
        # the hammer actually exercised both states
        assert len(seen) == 2

    def test_checkpoints_during_serving_are_atomic(self, tmp_path):
        """A real ``measure --store`` run against a live reader.

        Re-runs the campaign (checkpoints land one country at a time)
        while a reader polls the listing and summary; every observed
        summary must be one of the legal per-checkpoint bodies —
        country sets only ever grow, and every named shard resolves.
        """
        spec = CampaignSpec(
            config=WorldConfig(
                sites_per_country=50, countries=("BR", "TH", "US")
            )
        )
        run_campaign(spec, store=CampaignStore(tmp_path))
        store = CampaignStore(tmp_path)
        campaign = store.list_campaign_ids()[0]
        # wipe the manifest so the re-run checkpoints from scratch,
        # but keep objects (the shards are content-addressed, so the
        # re-run reuses them and completes quickly)
        (tmp_path / "campaigns" / f"{campaign}.json").unlink()

        api = ServeApi(CampaignStore(tmp_path))
        observations: list[dict] = []
        failures: list[str] = []
        stop = threading.Event()

        def observe() -> None:
            response = api.handle(f"/campaigns/{campaign}")
            if response.status == 404:
                return  # manifest not yet written
            if response.status != 200:
                failures.append(
                    f"status {response.status}: {response.body!r}"
                )
                return
            payload = json.loads(response.body)
            # internal consistency: measured + pending covers the
            # full country set, and every measured country has a
            # row in every layer table — a torn summary would
            # break one of these
            if sorted(
                payload["countries"] + payload["missing"]
            ) != ["BR", "TH", "US"]:
                failures.append(
                    f"inconsistent snapshot: {payload['countries']}"
                    f" + {payload['missing']}"
                )
            for layer, table in payload["layers"].items():
                if set(table["insularity"]) != set(
                    payload["countries"]
                ):
                    failures.append(
                        f"torn {layer} table: "
                        f"{sorted(table['insularity'])} vs "
                        f"{payload['countries']}"
                    )
            observations.append(payload)

        def reader():
            while not stop.is_set():
                observe()

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            run_campaign(spec, store=CampaignStore(tmp_path))
        finally:
            stop.set()
            thread.join()
        # The reader's last poll can start before the final checkpoint
        # lands; one more observation sees the finished campaign.
        observe()
        assert not failures
        # countries monotonically grow across observations
        previous: list[str] = []
        for payload in observations:
            assert set(previous) <= set(payload["countries"])
            previous = payload["countries"]
        assert observations and observations[-1]["countries"] == [
            "BR",
            "TH",
            "US",
        ]
