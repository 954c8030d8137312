"""ServeApi contract: ETags, 304s, caching, typed errors, determinism."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.api import ServeApi, encode_body, etag_of
from repro.store import CampaignStore


@pytest.fixture(scope="module")
def api(served_store):
    return ServeApi(CampaignStore(served_store))


def read_path_requests(campaign_ids) -> list[tuple[str, dict]]:
    """Every URL kind of the read path, over both campaigns."""
    base, evolved = campaign_ids
    requests: list[tuple[str, dict]] = [("/campaigns", {})]
    for campaign in (base, evolved):
        requests.append((f"/campaigns/{campaign}", {}))
        requests.append((f"/campaigns/{campaign}/layers", {}))
        requests.extend(
            (f"/campaigns/{campaign}/countries/{cc}", {})
            for cc in ("BR", "DE", "US")
        )
    requests.append((f"/diff/{base}/{evolved}", {}))
    requests.append(
        (f"/whatif/{base}", {"knob": ["outage"], "provider": ["Cloudflare"]})
    )
    requests.append(
        (f"/whatif/{base}", {"knob": ["schism"], "country": ["US"]})
    )
    return requests


def get_json(api, path, query=None):
    response = api.handle(path, query)
    assert response.status == 200, response.body
    return json.loads(response.body)


class TestListing:
    def test_lists_both_campaigns(self, api, campaign_ids):
        payload = get_json(api, "/campaigns")
        listed = [row["campaign"] for row in payload["campaigns"]]
        assert listed == sorted(campaign_ids)
        for row in payload["campaigns"]:
            assert row["complete"] is True
            assert row["measured"] == row["countries"] == 3

    def test_index_names_endpoints(self, api):
        payload = get_json(api, "/")
        assert "/campaigns/{id}" in payload["endpoints"]


class TestEtagRevalidation:
    def test_every_endpoint_has_content_digest_etag(
        self, api, campaign_ids
    ):
        base, evolved = campaign_ids
        paths = [
            "/",
            "/campaigns",
            f"/campaigns/{base}",
            f"/campaigns/{base}/layers",
            f"/campaigns/{base}/countries/BR",
            f"/diff/{base}/{evolved}",
            "/series",
            "/metrics",
        ]
        for path in paths:
            response = api.handle(path)
            assert response.status == 200, path
            assert response.etag == etag_of(response.body), path

    def test_if_none_match_yields_empty_304(self, api, campaign_ids):
        base, _ = campaign_ids
        first = api.handle(f"/campaigns/{base}")
        revalidated = api.handle(
            f"/campaigns/{base}", if_none_match=first.etag
        )
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert revalidated.etag == first.etag

    def test_stale_etag_gets_full_body(self, api, campaign_ids):
        base, _ = campaign_ids
        response = api.handle(
            f"/campaigns/{base}", if_none_match='"deadbeef"'
        )
        assert response.status == 200
        assert response.body

    def test_revalidated_request_reads_zero_shard_objects(
        self, served_store, campaign_ids
    ):
        """The warm path never touches raw shard objects, and a
        restarted API serves every URL kind without a rebuild."""
        store = CampaignStore(served_store)
        api = ServeApi(store)
        requests = read_path_requests(campaign_ids)
        warm = [api.handle(path, query) for path, query in requests]
        reads: list[str] = []
        original = store.get_object

        def counting_get_object(digest):
            reads.append(digest)
            return original(digest)

        store.get_object = counting_get_object  # type: ignore[method-assign]
        try:
            for (path, query), first in zip(requests, warm):
                revalidated = api.handle(
                    path, query, if_none_match=first.etag
                )
                assert revalidated.status == 304, path
                full = api.handle(path, query)
                assert full.status == 200, path
        finally:
            del store.get_object
        assert reads == []

        registry = MetricsRegistry()
        restarted = ServeApi(CampaignStore(served_store), registry)
        for (path, query), first in zip(requests, warm):
            again = restarted.handle(path, query)
            assert (again.body, again.etag) == (first.body, first.etag)
        outcomes = registry.get("repro_serve_materialize_total")
        for kind in ("campaign", "diff", "whatif"):
            assert outcomes.value(kind=kind, outcome="disk") > 0, kind
            assert outcomes.value(kind=kind, outcome="build") == 0, kind


class TestDeterminism:
    def test_byte_identical_across_instances(
        self, served_store, campaign_ids
    ):
        """Same store state => same bytes, as across a server restart."""
        base, evolved = campaign_ids
        paths = [
            "/campaigns",
            f"/campaigns/{base}",
            f"/campaigns/{base}/layers",
            f"/campaigns/{base}/countries/US",
            f"/diff/{base}/{evolved}",
        ]
        first = ServeApi(CampaignStore(served_store))
        second = ServeApi(CampaignStore(served_store))
        for path in paths:
            a = first.handle(path)
            b = second.handle(path)
            assert a.body == b.body, path
            assert a.etag == b.etag, path

    def test_repeated_query_byte_identical(self, api, campaign_ids):
        base, _ = campaign_ids
        bodies = {
            api.handle(f"/campaigns/{base}/layers").body
            for _ in range(3)
        }
        assert len(bodies) == 1


class TestCampaignEndpoints:
    def test_summary_shape(self, api, campaign_ids):
        base, _ = campaign_ids
        payload = get_json(api, f"/campaigns/{base}")
        assert payload["campaign"] == base
        assert payload["complete"] is True
        assert payload["countries"] == ["BR", "DE", "US"]
        assert payload["missing"] == []
        for layer in ("hosting", "dns", "ca", "tld"):
            table = payload["layers"][layer]
            assert set(table["centralization"]) == {"BR", "DE", "US"}
            assert len(table["ranking"]) == 3

    def test_prefix_resolution(self, api, campaign_ids):
        base, _ = campaign_ids
        assert (
            get_json(api, f"/campaigns/{base[:10]}")["campaign"] == base
        )

    def test_ambiguous_prefix_is_typed_400(self, served_store):
        store = CampaignStore(served_store)
        api = ServeApi(store)
        store.list_campaign_ids = lambda: ["aa00", "aa11"]  # type: ignore
        try:
            response = api.handle("/campaigns/aa")
        finally:
            del store.list_campaign_ids
        assert response.status == 400
        assert (
            json.loads(response.body)["error"]["code"]
            == "ambiguous_prefix"
        )

    def test_country_slice(self, api, campaign_ids):
        base, _ = campaign_ids
        payload = get_json(
            api, f"/campaigns/{base}/countries/br"
        )  # case-insensitive
        assert payload["country"] == "BR"
        hosting = payload["layers"]["hosting"]
        assert hosting["rank"] in (1, 2, 3) and hosting["of"] == 3
        assert hosting["top_providers"]

    def test_unknown_country_404(self, api, campaign_ids):
        base, _ = campaign_ids
        response = api.handle(f"/campaigns/{base}/countries/XX")
        assert response.status == 404
        assert (
            json.loads(response.body)["error"]["code"]
            == "unknown_country"
        )

    def test_unknown_campaign_404(self, api):
        response = api.handle("/campaigns/ffffffff")
        assert response.status == 404

    def test_diff_reports_shard_provenance(self, api, campaign_ids):
        base, evolved = campaign_ids
        payload = get_json(api, f"/diff/{base}/{evolved}")
        assert payload["remeasured"] == ["BR"]
        assert payload["reused_shards"] == ["DE", "US"]


class TestWhatif:
    def test_outage(self, api, campaign_ids):
        base, _ = campaign_ids
        payload = get_json(
            api,
            f"/whatif/{base}",
            {"knob": ["outage"], "provider": ["Cloudflare"]},
        )
        assert payload["knob"] == "outage"
        assert set(payload["affected_share"]) == {"BR", "DE", "US"}

    def test_schism(self, api, campaign_ids):
        base, _ = campaign_ids
        payload = get_json(
            api, f"/whatif/{base}", {"knob": ["schism"], "country": ["us"]}
        )
        assert payload["blocked_country"] == "US"
        assert set(payload["exposure"]) == {"hosting", "dns", "ca"}

    def test_spof(self, api, campaign_ids):
        base, _ = campaign_ids
        payload = get_json(
            api,
            f"/whatif/{base}",
            {"knob": ["spof"], "threshold": ["0.1"]},
        )
        assert payload["threshold"] == 0.1

    @pytest.mark.parametrize(
        ("query", "code"),
        [
            ({}, "missing_param"),
            ({"knob": ["outage"]}, "missing_param"),
            ({"knob": ["teleport"]}, "unknown_knob"),
            (
                {"knob": ["spof"], "threshold": ["lots"]},
                "bad_param",
            ),
            (
                {
                    "knob": ["outage"],
                    "provider": ["X"],
                    "layer": ["blockchain"],
                },
                "bad_param",
            ),
            (
                {"knob": ["spof"], "threshold": ["7"]},
                "bad_param",
            ),
        ],
    )
    def test_bad_knobs_are_typed_400s(
        self, api, campaign_ids, query, code
    ):
        base, _ = campaign_ids
        response = api.handle(f"/whatif/{base}", query)
        assert response.status == 400
        assert json.loads(response.body)["error"]["code"] == code


class TestErrors:
    def test_unknown_endpoint_404_payload(self, api):
        response = api.handle("/teapots")
        assert response.status == 404
        payload = json.loads(response.body)
        assert payload == {
            "error": {
                "status": 404,
                "code": "not_found",
                "message": "no such endpoint: /teapots",
            }
        }

    def test_errors_never_leak_tracebacks(self, api):
        for path in ("/teapots", "/campaigns/zzz", "/whatif/zzz"):
            body = api.handle(path).body.decode()
            assert "Traceback" not in body
            assert ".py" not in body

    def test_errors_carry_no_etag(self, api):
        assert api.handle("/teapots").etag is None

    def test_internal_errors_are_opaque_500s(self, served_store):
        store = CampaignStore(served_store)
        api = ServeApi(store)
        store.list_campaign_ids = lambda: 1 / 0  # type: ignore
        try:
            response = api.handle("/campaigns/abc")
        finally:
            del store.list_campaign_ids
        assert response.status == 500
        payload = json.loads(response.body)
        assert payload["error"]["code"] == "internal"
        assert "ZeroDivision" not in response.body.decode()


class TestMetrics:
    def test_request_accounting(self, served_store, campaign_ids):
        base, _ = campaign_ids
        registry = MetricsRegistry()
        api = ServeApi(CampaignStore(served_store), registry)
        first = api.handle(f"/campaigns/{base}")
        api.handle(f"/campaigns/{base}", if_none_match=first.etag)
        api.handle("/teapots")
        requests = registry.get("repro_serve_requests_total")
        assert requests.value(endpoint="campaign", status="200") == 1
        assert requests.value(endpoint="campaign", status="304") == 1
        assert requests.value(endpoint="invalid", status="404") == 1
        assert (
            registry.get("repro_serve_not_modified_total").total() == 1
        )
        exposition = api.handle("/metrics")
        assert exposition.content_type.startswith("text/plain")
        assert b"repro_serve_requests_total" in exposition.body

    def test_materialize_outcomes(self, served_store, campaign_ids):
        base, _ = campaign_ids
        registry = MetricsRegistry()
        api = ServeApi(CampaignStore(served_store), registry)
        api.handle(f"/campaigns/{base}")
        api.handle(f"/campaigns/{base}")
        outcomes = registry.get("repro_serve_materialize_total")
        # the session store already holds the derived object (other
        # tests built it), so the first request is a disk or build hit
        assert (
            outcomes.value(kind="campaign", outcome="build")
            + outcomes.value(kind="campaign", outcome="disk")
            == 1
        )
        assert outcomes.value(kind="campaign", outcome="memory") == 1


class TestEncoding:
    def test_encode_body_is_canonical(self):
        assert encode_body({"b": 1, "a": 2}) == b'{"a":2,"b":1}\n'

    def test_etag_is_quoted_sha256(self):
        tag = etag_of(b"x")
        assert tag.startswith('"') and tag.endswith('"')
        assert len(tag) == 66
