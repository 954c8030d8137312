"""Real-socket round trips: the stdlib front end end to end."""

from __future__ import annotations

import http.client
import json
import math
import socket
import threading

import pytest

from repro.serve import serve
from repro.serve.http import ServeHandler


@pytest.fixture(scope="module")
def server(served_store):
    instance = serve(str(served_store), port=0)
    thread = threading.Thread(
        target=instance.serve_forever, daemon=True
    )
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture()
def conn(server):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    yield connection
    connection.close()


class TestRoundTrips:
    def test_campaigns_listing(self, conn):
        conn.request("GET", "/campaigns")
        response = conn.getresponse()
        body = response.read()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/json"
        assert response.getheader("ETag")
        assert int(response.getheader("Content-Length")) == len(body)
        assert len(json.loads(body)["campaigns"]) == 2

    def test_etag_304_round_trip(self, conn, campaign_ids):
        base, _ = campaign_ids
        conn.request("GET", f"/campaigns/{base}")
        first = conn.getresponse()
        body = first.read()
        etag = first.getheader("ETag")
        assert first.status == 200 and body
        conn.request(
            "GET",
            f"/campaigns/{base}",
            headers={"If-None-Match": etag},
        )
        revalidated = conn.getresponse()
        assert revalidated.status == 304
        assert revalidated.read() == b""
        assert revalidated.getheader("ETag") == etag
        assert revalidated.getheader("Content-Length") is None

    def test_weak_etag_revalidates(self, conn, campaign_ids):
        base, _ = campaign_ids
        conn.request("GET", f"/campaigns/{base}")
        first = conn.getresponse()
        first.read()
        etag = first.getheader("ETag")
        conn.request(
            "GET",
            f"/campaigns/{base}",
            headers={"If-None-Match": f'"other", W/{etag}'},
        )
        revalidated = conn.getresponse()
        assert revalidated.status == 304
        assert revalidated.read() == b""

    def test_head_is_bodyless(self, conn):
        conn.request("HEAD", "/campaigns")
        response = conn.getresponse()
        assert response.status == 200
        assert response.read() == b""
        assert response.getheader("ETag")

    def test_head_carries_the_get_length(self, conn):
        conn.request("GET", "/campaigns")
        body = conn.getresponse().read()
        conn.request("HEAD", "/campaigns")
        response = conn.getresponse()
        assert response.read() == b""
        assert int(response.getheader("Content-Length")) == len(body) > 0

    def test_404_is_json_without_traceback(self, conn):
        conn.request("GET", "/no/such/path")
        response = conn.getresponse()
        body = response.read()
        assert response.status == 404
        payload = json.loads(body)
        assert payload["error"]["code"] == "not_found"
        assert b"Traceback" not in body

    def test_unsupported_method_is_json(self, conn):
        conn.request("POST", "/campaigns")
        response = conn.getresponse()
        body = response.read()
        assert response.status == 501
        assert json.loads(body)["error"]["code"] == "http_error"

    def test_query_string_round_trip(self, conn, campaign_ids):
        base, _ = campaign_ids
        conn.request(
            "GET",
            f"/whatif/{base}?knob=outage&provider=Cloudflare&layer=dns",
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200
        assert payload["layer"] == "dns"

    def test_keep_alive_serves_many_requests(self, conn):
        for _ in range(5):
            conn.request("GET", "/campaigns")
            response = conn.getresponse()
            response.read()
            assert response.status == 200


class TestRestart:
    def test_bodies_and_etags_survive_restart(
        self, served_store, campaign_ids
    ):
        base, evolved = campaign_ids
        paths = [
            "/campaigns",
            f"/campaigns/{base}",
            f"/diff/{base}/{evolved}",
        ]

        def snapshot():
            instance = serve(str(served_store), port=0)
            thread = threading.Thread(
                target=instance.serve_forever, daemon=True
            )
            thread.start()
            host, port = instance.server_address[:2]
            connection = http.client.HTTPConnection(
                host, port, timeout=10
            )
            out = {}
            for path in paths:
                connection.request("GET", path)
                response = connection.getresponse()
                out[path] = (
                    response.read(),
                    response.getheader("ETag"),
                )
            connection.close()
            instance.shutdown()
            instance.server_close()
            return out

        assert snapshot() == snapshot()


class TestStalledConnections:
    def test_read_timeout_is_finite(self):
        assert ServeHandler.timeout is not None
        assert 0 < ServeHandler.timeout < math.inf

    def test_stalled_connections_are_closed(
        self, served_store, monkeypatch
    ):
        """A silent client and one that stops mid-request each lose
        their connection, and the server still answers the next GET."""
        monkeypatch.setattr(ServeHandler, "timeout", 0.2)
        instance = serve(str(served_store), port=0)
        thread = threading.Thread(
            target=instance.serve_forever, daemon=True
        )
        thread.start()
        address = instance.server_address[:2]
        try:
            for sent in (b"", b"GET /campaigns HTTP/1.1\r\nHost: x\r\n"):
                with socket.create_connection(address, timeout=10) as raw:
                    raw.sendall(sent)
                    assert raw.recv(1) == b""  # closed by the server
            connection = http.client.HTTPConnection(*address, timeout=10)
            connection.request("GET", "/campaigns")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["campaigns"]
            connection.close()
        finally:
            instance.shutdown()
            instance.server_close()
