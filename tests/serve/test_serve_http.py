"""Real-socket round trips: the stdlib front end end to end."""

from __future__ import annotations

import hashlib
import http.client
import io
import json
import math
import random
import re
import socket
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlencode

import pytest

from repro.obs import configure
from repro.obs.metrics import MetricsRegistry
from repro.serve import serve
from repro.serve.api import ServeApi
from repro.serve.http import ReproServer, ServeHandler
from repro.store import CampaignStore
from tests.serve.test_api import read_path_requests


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


def start(instance: ReproServer) -> tuple[str, int]:
    threading.Thread(target=instance.serve_forever, daemon=True).start()
    return instance.server_address[:2]


#: ``Date`` as an IMF-fixdate (RFC 9110 §5.6.7): the one header value
#: the pinned bytes below leave open.
DATE = re.compile(
    rb"\r\nDate: [A-Z][a-z]{2}, \d{2} [A-Z][a-z]{2} \d{4} "
    rb"\d{2}:\d{2}:\d{2} GMT\r\n"
)


def read_response(stream, method: str = "GET") -> tuple[bytes, bytes]:
    """One response off a socket file: its head, with the ``Date``
    value replaced by ``{date}``, and its body."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = stream.readline()
        assert line, f"connection closed mid-head: {head!r}"
        head += line
    head, dates = DATE.subn(b"\r\nDate: {date}\r\n", head)
    assert dates == 1, head
    length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
    if method == "HEAD" or length is None:
        return head, b""
    return head, stream.read(int(length[1]))


def exchange(address, request: bytes, method: str = "GET") -> tuple[bytes, bytes]:
    """Send one raw request on a fresh connection; read one response."""
    with socket.create_connection(address, timeout=10) as raw:
        with raw.makefile("rb") as stream:
            raw.sendall(request)
            return read_response(stream, method)


def raw_head(response: http.client.HTTPResponse) -> bytes:
    """A parsed response's head, re-serialized as it came on the wire."""
    status = f"HTTP/1.1 {response.status} {response.reason}\r\n"
    fields = "".join(f"{name}: {value}\r\n" for name, value in response.getheaders())
    return (status + fields + "\r\n").encode("latin-1")


def get_request(target: str, *fields: str) -> bytes:
    lines = [f"GET {target} HTTP/1.1", "Host: x", *fields, "", ""]
    return "\r\n".join(lines).encode("latin-1")


# The response bytes the stdlib-handler front end wrote at commit
# 0cc2c1d, with ``Server`` stripped of its trailing space.  Summary,
# diff and what-if bodies carry floats from numpy reductions, whose last
# digits may differ between BLAS builds, so those bodies and ETags are
# compared with the API's own bytes; the listing and every error body
# are pinned outright.
OK_HEAD = (
    b"HTTP/1.1 200 OK\r\nServer: repro-serve/1\r\nDate: {date}\r\n"
    b"Content-Type: application/json\r\nETag: %s\r\n"
    b"Cache-Control: no-cache\r\nContent-Length: %d\r\n\r\n"
)
NOT_MODIFIED_HEAD = (
    b"HTTP/1.1 304 Not Modified\r\nServer: repro-serve/1\r\nDate: {date}\r\n"
    b"Content-Type: application/json\r\nETag: %s\r\n"
    b"Cache-Control: no-cache\r\n\r\n"
)
LISTING = (b'"1ae60cd30946288bfc8ab1c037af8ea1ccdb06434c5a675c977eb8ba9fe56d10"', 304)
NOT_FOUND = (
    b"HTTP/1.1 404 Not Found\r\nServer: repro-serve/1\r\nDate: {date}\r\n"
    b"Content-Type: application/json\r\nContent-Length: 88\r\n\r\n",
    b'{"error":{"code":"not_found","message":"no such endpoint: '
    b'/no/such/path","status":404}}\n',
)
BAD_PARAM = (
    b"HTTP/1.1 400 Bad Request\r\nServer: repro-serve/1\r\nDate: {date}\r\n"
    b"Content-Type: application/json\r\nContent-Length: 94\r\n\r\n",
    b'{"error":{"code":"bad_param","message":"threshold must be a number, '
    b"got 'abc'\",\"status\":400}}\n",
)
POST = (
    b"HTTP/1.1 501 Unsupported method ('POST')\r\nServer: repro-serve/1\r\n"
    b"Date: {date}\r\nContent-Type: application/json\r\nContent-Length: 85\r\n"
    b"Connection: close\r\n\r\n",
    b'{"error":{"code":"http_error","message":"Unsupported method '
    b"('POST')\",\"status\":501}}\n",
)
URI_TOO_LONG = (
    b"HTTP/1.1 414 Request-URI Too Long\r\nServer: repro-serve/1\r\n"
    b"Date: {date}\r\nContent-Type: application/json\r\nContent-Length: 72\r\n"
    b"Connection: close\r\n\r\n",
    b'{"error":{"code":"http_error","message":"request failed",'
    b'"status":414}}\n',
)
#: A version the stdlib refuses is answered with an HTTP/1.1 status
#: line (the stdlib writes the body alone, which http.client cannot
#: read).
HTTP2 = (
    b"HTTP/1.1 505 Invalid HTTP version (2.0)\r\nServer: repro-serve/1\r\n"
    b"Date: {date}\r\nContent-Type: application/json\r\nContent-Length: 84\r\n"
    b"Connection: close\r\n\r\n",
    b'{"error":{"code":"http_error","message":"Invalid HTTP version (2.0)",'
    b'"status":505}}\n',
)


class TestWireBytes:
    def test_every_url_kind_matches_the_pinned_bytes(
        self, server, served_store, campaign_ids
    ):
        api = ServeApi(CampaignStore(served_store))
        address = server.server_address[:2]
        for path, query in read_path_requests(campaign_ids):
            expected = api.handle(path, query)
            target = f"{path}?{urlencode(query, doseq=True)}" if query else path
            head, body = exchange(address, get_request(target))
            assert head == OK_HEAD % (expected.etag.encode(), len(expected.body)), target
            assert body == expected.body, target
            assert expected.etag == f'"{hashlib.sha256(body).hexdigest()}"'
        assert exchange(address, get_request("/campaigns"))[0] == OK_HEAD % LISTING

    def test_revalidation_head_and_errors_match_the_pinned_bytes(
        self, server, served_store, campaign_ids
    ):
        base, _ = campaign_ids
        etag = ServeApi(CampaignStore(served_store)).handle(f"/campaigns/{base}").etag
        address = server.server_address[:2]
        revalidated = exchange(
            address, get_request(f"/campaigns/{base}", f"If-None-Match: {etag}")
        )
        assert revalidated == (NOT_MODIFIED_HEAD % etag.encode(), b"")
        head = b"HEAD /campaigns HTTP/1.1\r\nHost: x\r\n\r\n"
        assert exchange(address, head, "HEAD") == (OK_HEAD % LISTING, b"")
        assert exchange(address, get_request("/no/such/path")) == NOT_FOUND
        bad = get_request(f"/whatif/{base}?knob=spof&threshold=abc")
        assert exchange(address, bad) == BAD_PARAM
        post = b"POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        assert exchange(address, post) == POST
        assert exchange(address, get_request("/" + "a" * 70_000)) == URI_TOO_LONG
        assert exchange(address, b"GET / HTTP/2.0\r\n\r\n") == HTTP2

    @pytest.mark.parametrize(
        "line, status",
        [
            (b"GET / HTTP/2.0", 505),
            (b"GET / HTTP/a.b", 400),
            (b"GET / extra word", 400),
        ],
    )
    def test_a_refused_version_is_readable_by_http_client(
        self, server, line, status
    ):
        with socket.create_connection(server.server_address[:2], timeout=10) as raw:
            raw.sendall(line + b"\r\nHost: x\r\n\r\n")
            response = http.client.HTTPResponse(raw, method="GET")
            try:
                response.begin()  # raises BadStatusLine on a bare body
                body = json.loads(response.read())
            finally:
                response.close()
        assert response.status == status
        assert response.getheader("Connection") == "close"
        assert body["error"]["status"] == status

    def test_an_http_0_9_request_still_gets_the_bare_body(self, server):
        address = server.server_address[:2]
        for line in (b"GET /no/such/path", b"GET /no/such/path HTTP/0.9"):
            with socket.create_connection(address, timeout=10) as raw:
                raw.sendall(line + b"\r\n\r\n")
                with raw.makefile("rb") as stream:
                    assert stream.read() == NOT_FOUND[1], line

    def test_pipelined_requests_answer_in_order(
        self, server, served_store, campaign_ids
    ):
        base, _ = campaign_ids
        api = ServeApi(CampaignStore(served_store))
        listing = api.handle("/campaigns")
        etag = api.handle(f"/campaigns/{base}").etag
        requests = (
            get_request("/campaigns")
            + get_request(f"/campaigns/{base}", f"If-None-Match: {etag}")
            + b"HEAD /campaigns HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        with socket.create_connection(server.server_address[:2], timeout=10) as raw:
            with raw.makefile("rb") as stream:
                raw.sendall(requests)
                replies = [
                    read_response(stream),
                    read_response(stream),
                    read_response(stream, "HEAD"),
                ]
        assert replies == [
            (OK_HEAD % LISTING, listing.body),
            (NOT_MODIFIED_HEAD % etag.encode(), b""),
            (OK_HEAD % LISTING, b""),
        ]

    def test_a_warm_200_is_one_send(self, served_store, campaign_ids, monkeypatch):
        accepted: list[CountingSocket] = []

        def counting_accept(self):
            sock, client = self.socket.accept()
            counted = CountingSocket(
                sock.family, sock.type, sock.proto, fileno=sock.detach()
            )
            accepted.append(counted)
            return counted, client

        monkeypatch.setattr(ReproServer, "get_request", counting_accept)
        instance = serve(str(served_store), port=0)
        address = start(instance)
        try:
            with socket.create_connection(address, timeout=10) as raw:
                with raw.makefile("rb") as stream:
                    for path, query in read_path_requests(campaign_ids):
                        target = f"{path}?{urlencode(query, doseq=True)}" if query else path
                        raw.sendall(get_request(target))
                        read_response(stream)  # cold: builds or loads the view
                        sends = accepted[0].sends
                        raw.sendall(get_request(target))
                        head, _ = read_response(stream)
                        assert head.startswith(b"HTTP/1.1 200 OK\r\n"), target
                        assert accepted[0].sends - sends == 1, target
            assert len(accepted) == 1
        finally:
            instance.shutdown()
            instance.server_close()

    def test_access_log_is_built_only_at_debug(self, server, monkeypatch):
        clients: list[str] = []
        address_string = ServeHandler.address_string

        def recorded(self):
            clients.append(address_string(self))
            return clients[-1]

        monkeypatch.setattr(ServeHandler, "address_string", recorded)
        address = server.server_address[:2]
        sink = io.StringIO()
        try:
            configure(stream=sink)
            exchange(address, get_request("/campaigns"))
            exchange(address, get_request("/no/such/path"))
            assert clients == [] and sink.getvalue() == ""
            configure(verbose=2, stream=sink)  # -vv
            exchange(address, get_request("/campaigns"))
            exchange(address, get_request("/no/such/path"))
        finally:
            configure()
        lines = [line for line in sink.getvalue().splitlines() if "serve.access" in line]
        assert len(lines) == 2 and len(clients) == 2
        assert '" 200 -' in lines[0] and '" 404 -' in lines[1]

    def test_no_request_reaches_email_parser(self, server, monkeypatch):
        import email.feedparser

        def refuse(*args, **kwargs):
            raise AssertionError("the header parse went through email.parser")

        monkeypatch.setattr(http.client, "parse_headers", refuse)
        monkeypatch.setattr(email.feedparser.FeedParser, "feed", refuse)
        request = get_request("/campaigns", "Accept: */*", "If-None-Match: \"x\"")
        head, _ = exchange(server.server_address[:2], request)
        assert head == OK_HEAD % LISTING


class CountingSocket(socket.socket):
    """A server-side socket that counts its send calls."""

    sends = 0

    def send(self, *args):
        self.sends += 1
        return super().send(*args)

    def sendall(self, *args):
        self.sends += 1
        return super().sendall(*args)


OVERLOADED_HEAD = (
    b"HTTP/1.1 503 Service Unavailable\r\nServer: repro-serve/1\r\n"
    b"Date: {date}\r\nContent-Type: application/json\r\nContent-Length: %d\r\n"
    b"Retry-After: 1\r\nConnection: close\r\n\r\n"
)


def assert_overloaded(head: bytes, body: bytes) -> None:
    assert head == OVERLOADED_HEAD % len(body)
    assert json.loads(body)["error"]["code"] == "overloaded"


def drain(raw: socket.socket) -> bytes:
    """Everything a socket receives until the server closes it."""
    data = b""
    try:
        while chunk := raw.recv(65536):
            data += chunk
    except ConnectionResetError:
        # A rejected stall's unread partial line turns the server's
        # close into a reset, after the 503 it already received.
        pass
    return data


class TestConnectionCap:
    def test_cap_is_a_class_constant(self):
        assert ReproServer.MAX_CONNECTIONS == 64

    def test_hammer_with_stalls(self, served_store, campaign_ids, monkeypatch):
        """60 sockets from 8 client threads against a cap of 8: 20 stall
        mid request line, the rest make a GET and a 304 round trip."""
        cap, clients, sockets, stalls = 8, 8, 60, 20
        monkeypatch.setattr(ServeHandler, "timeout", 0.2)
        monkeypatch.setattr(ReproServer, "MAX_CONNECTIONS", cap)
        lock = threading.Lock()
        live = peak = 0
        handle = ServeHandler.handle

        def counted(self):
            nonlocal live, peak
            with lock:
                live += 1
                peak = max(peak, live)
            try:
                handle(self)
            finally:
                with lock:
                    live -= 1

        monkeypatch.setattr(ServeHandler, "handle", counted)
        registry = MetricsRegistry()
        instance = serve(str(served_store), port=0, registry=registry)
        address = start(instance)
        base, evolved = campaign_ids
        urls = [
            "/campaigns",
            f"/campaigns/{base}",
            f"/campaigns/{evolved}/layers",
            f"/diff/{base}/{evolved}",
        ]

        def get(connection, url, etag=None):
            headers = {"If-None-Match": etag} if etag else {}
            connection.request("GET", url, headers=headers)
            response = connection.getresponse()
            return response, response.read()

        def round_trip(url: str) -> str:
            connection = http.client.HTTPConnection(*address, timeout=10)
            try:
                response, body = get(connection, url)
                if response.status == 503:
                    head = DATE.sub(b"\r\nDate: {date}\r\n", raw_head(response))
                    assert_overloaded(head, body)
                    return "rejected"
                assert (response.status, body, response.getheader("ETag")) == (
                    200,
                    *baseline[url],
                )
                response, body = get(connection, url, baseline[url][1])
                assert (response.status, body, response.getheader("ETag")) == (
                    304,
                    b"",
                    baseline[url][1],
                )
                return "served"
            finally:
                connection.close()

        def client(plan: list[tuple[int, str]]):
            outcomes, stalled = [], []
            for index, kind in plan:
                if kind == "stall":
                    raw = socket.create_connection(address, timeout=10)
                    raw.sendall(b"GET /campaigns HT")
                    stalled.append(raw)
                else:
                    outcomes.append(round_trip(urls[index % len(urls)]))
            return outcomes, stalled

        # Every client thread starts with a round trip; the stalls and
        # the other round trips follow in a seeded order.
        rest = ["stall"] * stalls + ["get"] * (sockets - clients - stalls)
        random.Random(0).shuffle(rest)
        kinds = list(enumerate(["get"] * clients + rest))
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # more thread switches, more races
        try:
            baseline = {}
            connection = http.client.HTTPConnection(*address, timeout=10)
            for url in urls:
                response, body = get(connection, url)
                baseline[url] = (body, response.getheader("ETag"))
            connection.close()

            with ThreadPoolExecutor(max_workers=clients) as pool:
                results = list(
                    pool.map(client, [kinds[i::clients] for i in range(clients)])
                )
            outcomes = [outcome for done, _ in results for outcome in done]
            replies = []
            for _, stalled in results:
                for raw in stalled:
                    with raw:
                        replies.append(drain(raw))
            for reply in filter(None, replies):
                assert_overloaded(*read_response(io.BytesIO(reply)))

            assert peak <= cap
            assert len(outcomes) == sockets - stalls and len(replies) == stalls
            assert "served" in outcomes
            connections = registry.get("repro_serve_connections_total")
            rejected = outcomes.count("rejected") + sum(map(bool, replies))
            assert rejected > 0
            assert connections.value(outcome="rejected") == rejected
            assert connections.value(outcome="accepted") == 1 + sockets - rejected
            # Each stall that got a handler thread was closed on its
            # timeout, and counted; nothing else timed out.
            assert connections.value(outcome="timed_out") == replies.count(b"")

            connection = http.client.HTTPConnection(*address, timeout=10)
            response, body = get(connection, "/campaigns")
            assert (body, response.getheader("ETag")) == baseline["/campaigns"]
            response, body = get(connection, "/metrics")
            connection.close()
            assert b'repro_serve_connections_total{outcome="rejected"}' in body
        finally:
            sys.setswitchinterval(switch_interval)
            instance.shutdown()
            instance.server_close()
