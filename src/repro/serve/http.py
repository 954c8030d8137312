"""The stdlib HTTP front end: bytes in, :class:`ServeApi` out.

A warm request costs its route and one write.  The handler reads the
request itself and writes each response as one bytes object; all
routing, caching, ETag and error logic lives in :mod:`repro.serve.api`,
where it is testable without a socket.

* **Parse.**  The request line follows the stdlib's rules and answers
  (400 for bad syntax or version, 505 for HTTP/2 and above, the
  two-word HTTP/0.9 ``GET``, ``//`` collapsed to ``/``), except that a
  refused version gets an HTTP/1.1 status line where the stdlib writes
  the bare body, which an HTTP/1.x client cannot parse.  Header lines
  are read under http.client's limits: a line over 65,536 bytes, or
  more than 100 lines counting the blank one that ends the head,
  answers 431.  Headers land in a dict by lower-cased name, the first
  occurrence winning as with ``email.message.Message.get``, values
  without surrounding whitespace.  An obs-fold line, whitespace before
  the colon or a line with no colon answers 400 (RFC 9112 §5.1-5.2).
  Nothing calls ``email.parser``.
* **Write.**  Status line, headers and body go out in one ``sendall``.
  ``Date`` is rendered at most once per second; the access log line is
  built only when the logger is at debug.
* **Bound.**  :class:`ReproServer` runs at most
  :attr:`ReproServer.MAX_CONNECTIONS` handler threads.  The accept loop
  answers a connection beyond them with a typed JSON 503 itself, and a
  connection silent for :attr:`ServeHandler.timeout` seconds is
  closed.  ``repro_serve_connections_total{outcome}`` counts accepted,
  rejected and timed-out connections.

The API layer is thread-safe by construction (lock-guarded caches and
metrics registry, immutable store objects, atomic manifest reads).
"""

from __future__ import annotations

import re
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry
from ..store.store import CampaignStore
from .api import JSON, ApiError, ServeApi, encode_body

__all__ = ["ReproServer", "ServeHandler", "serve"]

#: http.client's limits on a request head: bytes in one line, and lines
#: in the head (the blank line that ends it included).
MAX_LINE = 65536
MAX_HEAD_LINES = 100

#: A request line's version: the stdlib accepts exactly two
#: dot-separated runs of 1-10 ASCII digits after ``HTTP/``.
_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)


class ServeHandler(BaseHTTPRequestHandler):
    """One connection: parse a request, delegate, write the response once."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    #: Responses leave as one ``sendall`` each, so an unbuffered writer
    #: (the stdlib default) adds no copy; ``TCP_NODELAY`` keeps Nagle +
    #: delayed ACK from stalling a keep-alive response ~40 ms.
    disable_nagle_algorithm = True
    #: Socket timeout (s) for every read and write.  A client that
    #: connects and sends nothing, or stops mid-request, would
    #: otherwise pin its thread forever; ``handle_one_request`` turns
    #: the timeout into a closed connection.  Far above the idle gaps
    #: of a live keep-alive client.
    timeout = 30

    def handle_one_request(self) -> None:
        """Read one request and answer it (the stdlib's loop step, with
        GET and HEAD dispatched directly and timeouts counted)."""
        try:
            self.raw_requestline = self.rfile.readline(MAX_LINE + 1)
            if len(self.raw_requestline) > MAX_LINE:
                self.requestline = self.request_version = self.command = ""
                self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
                return
            if not self.raw_requestline:
                self.close_connection = True
                return
            if not self.parse_request():
                return
            if self.command == "GET" or self.command == "HEAD":
                self._respond(head=self.command == "HEAD")
            else:
                self.send_error(
                    HTTPStatus.NOT_IMPLEMENTED,
                    f"Unsupported method ({self.command!r})",
                )
        except TimeoutError as exc:
            self.log_error("Request timed out: %r", exc)
            self.server.count("timed_out")
            self.close_connection = True

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and read the header lines.

        Sets ``command``, ``path``, ``request_version``,
        ``close_connection`` and ``headers`` (a dict by lower-cased
        name).  On failure the error response is already written.
        """
        self.command = None
        self.request_version = "HTTP/0.9"
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            # The client sent a version, so it reads a status line: a
            # refused version is answered in HTTP/1.1.
            self.request_version = self.protocol_version
            version = words[-1]
            match = _VERSION.fullmatch(version)
            if match is None:
                self.send_error(
                    HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})"
                )
                return False
            number = int(match[1]), int(match[2])
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})"
            )
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad HTTP/0.9 request type ({command!r})",
                )
                return False
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        headers = self._read_headers()
        if headers is None:
            return False
        self.headers = headers
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _read_headers(self) -> dict[str, str] | None:
        """The header lines up to the blank one, or None once an error
        response is written."""
        headers: dict[str, str] = {}
        readline = self.rfile.readline
        for _ in range(MAX_HEAD_LINES):
            line = readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long"
                )
                return None
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, colon, value = line.partition(b":")
            if not colon or b" " in name or b"\t" in name:
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line")
                return None
            headers.setdefault(
                name.decode("latin-1").lower(),
                value.strip(b" \t\r\n").decode("latin-1"),
            )
        self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers")
        return None

    def _respond(self, head: bool) -> None:
        target = urlsplit(self.path)
        response = self.server.api.handle(
            target.path,
            parse_qs(target.query) if target.query else None,
            self.headers.get("if-none-match"),
        )
        fields = f"Content-Type: {response.content_type}\r\n"
        if response.etag is not None:
            fields += f"ETag: {response.etag}\r\nCache-Control: no-cache\r\n"
        if response.status != 304:  # a 304 has no length (RFC 9110 §8.6)
            # HEAD advertises the length a GET would send.
            fields += f"Content-Length: {len(response.body)}\r\n"
        self._write(response.status, None, fields, b"" if head else response.body)

    def send_error(  # type: ignore[override]
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Route stdlib-level errors (bad method...) through JSON too."""
        body = encode_body(
            ApiError(
                code, "http_error", message or "request failed"
            ).payload()
        )
        # An errored request may carry an unread body, which would
        # desync a kept-alive stream — close, like stdlib send_error.
        self.close_connection = True
        fields = (
            f"Content-Type: {JSON}\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n"
        )
        self._write(code, message, fields, b"" if self.command == "HEAD" else body)

    def _write(
        self, status: int, reason: str | None, fields: str, body: bytes
    ) -> None:
        """Log the request and write its response once.  An HTTP/0.9
        request (two words, or the version ``HTTP/0.9``) gets the body
        alone, as from the stdlib."""
        self.log_request(status)
        if self.request_version != "HTTP/0.9":
            if reason is None:
                reason = self.responses[status][0] if status in self.responses else ""
            body = self.server.render(status, reason, fields, body)
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        """Access logs go to the structured logger, not stderr, and are
        built only when it is at debug."""
        log = self.server.log
        if log.enabled("debug"):
            log.debug(
                "serve.access",
                client=self.address_string(),
                line=format % args,
            )


class ReproServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ServeApi`, with at
    most :attr:`MAX_CONNECTIONS` handler threads."""

    daemon_threads = True
    #: Handler threads at most.  The accept loop answers a connection
    #: beyond them with a 503 and closes it, without starting a thread.
    MAX_CONNECTIONS = 64

    def __init__(
        self, address: tuple[str, int], api: ServeApi
    ) -> None:
        super().__init__(address, ServeHandler)
        self.api = api
        self.log = get_logger("repro.serve")
        self._connections = api.registry.counter(
            "repro_serve_connections_total",
            "connections accepted, rejected at the cap, and timed out",
            labelnames=("outcome",),
        )
        # Every outcome is exported from the start, at 0.
        for outcome in ("accepted", "rejected", "timed_out"):
            self._connections.inc(0, outcome=outcome)
        self._slots = threading.BoundedSemaphore(self.MAX_CONNECTIONS)
        #: ``(second, Date value)`` last rendered: one tuple, so a thread
        #: never reads one second's text with another second's number.
        self._date = (0, "")
        self._overloaded = encode_body(
            ApiError(
                503,
                "overloaded",
                f"more than {self.MAX_CONNECTIONS} open connections; retry",
            ).payload()
        )

    def count(self, outcome: str) -> None:
        """Count one connection outcome (under the registry's lock)."""
        self._connections.inc(outcome=outcome)

    def render(self, status: int, reason: str, fields: str, body: bytes) -> bytes:
        """One whole response: status line, ``Server``, ``Date``,
        ``fields`` (CRLF-terminated lines), the blank line, ``body``."""
        second = int(time.time())
        date = self._date
        if date[0] != second:
            date = self._date = (second, formatdate(second, usegmt=True))
        head = (
            f"HTTP/1.1 {status:d} {reason}\r\n"
            f"Server: {ServeHandler.server_version}\r\n"
            f"Date: {date[1]}\r\n{fields}\r\n"
        )
        return head.encode("latin-1") + body

    def process_request(self, request, client_address) -> None:
        if not self._slots.acquire(blocking=False):
            self.count("rejected")
            self._reject(request)
            return
        self.count("accepted")
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def _reject(self, request) -> None:
        """Answer 503 and close; a client too slow to take a few hundred
        bytes loses the answer rather than stalling the accept loop."""
        fields = (
            f"Content-Type: {JSON}\r\nContent-Length: {len(self._overloaded)}\r\n"
            "Retry-After: 1\r\nConnection: close\r\n"
        )
        try:
            request.setblocking(False)
            request.sendall(
                self.render(503, "Service Unavailable", fields, self._overloaded)
            )
        except OSError:
            pass
        self.shutdown_request(request)


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
