"""The stdlib HTTP front end: bytes in, :class:`ServeApi` out.

Deliberately thin — the handler parses the request line, delegates to
:meth:`ServeApi.handle`, and writes status/headers/body.  All routing,
caching, ETag, and error logic lives in :mod:`repro.serve.api` where
it is testable without a socket.  ``ThreadingHTTPServer`` gives one
thread per connection, and a connection that stalls for
:attr:`ServeHandler.timeout` seconds is closed; the API layer is
thread-safe by construction (lock-guarded caches, immutable store
objects, atomic manifest reads).
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from ..store.store import CampaignStore
from .api import ApiError, ServeApi, encode_body

__all__ = ["ReproServer", "ServeHandler", "serve"]


class ServeHandler(BaseHTTPRequestHandler):
    """One request: parse, delegate, write.  No logic lives here."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    #: Hide the Python version banner: the API never leaks internals.
    sys_version = ""
    #: Buffer the whole response and disable Nagle: the stdlib default
    #: (unbuffered writes) sends status/headers and body as separate
    #: small segments, and the Nagle + delayed-ACK interaction then
    #: stalls every keep-alive response ~40ms.  One buffered write per
    #: response sidesteps both.
    wbufsize = -1
    disable_nagle_algorithm = True
    #: Socket timeout (s) for every read and write.  A client that
    #: connects and sends nothing, or stops mid-request, would
    #: otherwise pin its thread forever; ``handle_one_request`` turns
    #: the timeout into a closed connection.  Far above the idle gaps
    #: of a live keep-alive client.
    timeout = 30

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        self._respond(head=False)

    def do_HEAD(self) -> None:  # noqa: N802
        self._respond(head=True)

    def _respond(self, head: bool) -> None:
        parsed = urlsplit(self.path)
        response = self.server.api.handle(
            parsed.path,
            parse_qs(parsed.query),
            self.headers.get("If-None-Match"),
        )
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        if response.etag is not None:
            self.send_header("ETag", response.etag)
            self.send_header("Cache-Control", "no-cache")
        if response.status == 304:
            # No body and no length (RFC 9110 §8.6).
            self.end_headers()
            return
        # HEAD advertises the length a GET would send.
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        if not head:
            self.wfile.write(response.body)

    def send_error(  # type: ignore[override]
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Route stdlib-level errors (bad method...) through JSON too."""
        body = encode_body(
            ApiError(
                code, "http_error", message or "request failed"
            ).payload()
        )
        self.send_response(code, message)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # An errored request may carry an unread body, which would
        # desync a kept-alive stream — close, like stdlib send_error.
        self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)
        # handle_one_request returns without flushing after send_error;
        # with a buffered wfile the response would otherwise never leave.
        self.wfile.flush()

    def log_message(self, format: str, *args: object) -> None:
        """Access logs go to the structured logger, not stderr."""
        self.server.log.debug(
            "serve.access",
            client=self.address_string(),
            line=format % args,
        )


class ReproServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ServeApi`."""

    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], api: ServeApi
    ) -> None:
        super().__init__(address, ServeHandler)
        self.api = api
        self.log = get_logger("repro.serve")


def serve(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8080,
    registry: MetricsRegistry | None = None,
) -> ReproServer:
    """Build a ready-to-run server over one store (call serve_forever).

    ``port=0`` binds an ephemeral port (the bench and tests use this);
    the bound address is ``server.server_address``.
    """
    store = CampaignStore(store_root)
    api = ServeApi(store, registry)
    return ReproServer((host, port), api)
