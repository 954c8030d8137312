"""ServeHandler's request parse against the stdlib's.

Both parsers read the same head from an in-memory file.  Where the
property below generates a head, they must reach the same verdict and
status, and an accepted head must yield the same command, path,
version, keep-alive decision and ``If-None-Match`` value.  The lean
parser answers 400 to three kinds of line the stdlib's ``email.parser``
lets through (RFC 9112 §5.1-5.2), and drops the optional whitespace
around a field value; each difference is its own example at the end.
"""

from __future__ import annotations

import io
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.http import ServeHandler


class Recording:
    """``send_error`` records the status instead of writing a response."""

    status: int | None = None

    def send_error(self, code, message=None, explain=None):
        self.status = int(code)
        self.close_connection = True


class Stdlib(Recording, BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"


class Lean(Recording, ServeHandler):
    pass


def parse(handler_class, head: bytes):
    """``(handler, verdict)`` of one parse of ``head``."""
    handler = handler_class.__new__(handler_class)
    handler.rfile = io.BytesIO(head)
    handler.wfile = io.BytesIO()
    handler.raw_requestline = handler.rfile.readline(65537)
    return handler, handler.parse_request()


def mixed_case(name: str):
    return st.lists(st.booleans(), min_size=len(name), max_size=len(name)).map(
        lambda upper: "".join(
            c.upper() if up else c.lower() for c, up in zip(name, upper)
        )
    )


METHODS = st.sampled_from(["GET", "HEAD", "POST", "get", "OPTIONS"])
TARGETS = st.sampled_from(
    [
        "/",
        "/campaigns",
        "//campaigns",
        "///campaigns//abc/",
        "/campaigns/%41%2f?x=%20y",
        "http://example.com/campaigns?knob=spof",
        "/whatif/ab?knob=spof&threshold=0.2#top",
        "*",
    ]
)
#: ``None`` is the two-word (HTTP/0.9) form; the last two make four
#: words, with and without a valid version at the end.  Half the draws
#: are HTTP/1.x, so most heads get as far as their fields.
VERSIONS = st.sampled_from(["HTTP/1.1", "HTTP/1.0"]) | st.sampled_from(
    [
        "HTTP/1.0",
        "HTTP/1.1",
        "HTTP/2.0",
        "HTTP/3.1",
        "HTTP/0.9",
        "HTTP/01.01",
        "HTTP/1.1.1",
        "HTTP/a.b",
        "HTTP/1",
        "http/1.1",
        "HTTP/12345678901.1",
        "HTTP/1.12345678901",
        "HTTP/1.1234567890",
        "HTTP/1.²",
        None,
        "HTTP/1.1 extra",
        "extra HTTP/1.1",
    ]
)
FIELDS = st.one_of(
    st.tuples(mixed_case("If-None-Match"), st.sampled_from(
        ['"abc"', ' "abc" ', '"a", W/"b"', "*", "", '\t"t"\t']
    )),
    st.tuples(mixed_case("Connection"), st.sampled_from(
        ["close", "Close", "CLOSE", "keep-alive", "Keep-Alive", "upgrade", ""]
    )),
    st.tuples(mixed_case("Expect"), st.sampled_from(["100-continue", "nothing"])),
    st.tuples(mixed_case("Host"), st.just("example.com")),
)


@st.composite
def heads(draw) -> bytes:
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    version = draw(VERSIONS)
    words = [draw(METHODS), draw(TARGETS)] + ([version] if version else [])
    lines = [" ".join(words)]
    # A line of exactly the limit (65,536 bytes with its end) or one over.
    long_line = draw(st.sampled_from([None, 65536, 65537]))
    if long_line is not None:
        lines.append("X-Pad: " + "a" * (long_line - len("X-Pad: ") - len(eol)))
    lines += [f"{name}:{value}" for name, value in draw(st.lists(FIELDS, max_size=6))]
    # Fillers to the 100-line limit, the blank line that ends a head
    # counting as one.
    lines += [f"X-Filler-{i}: {i}" for i in range(draw(st.sampled_from([0, 1, 90, 98, 99, 100])))]
    end = draw(st.sampled_from([eol, ""]))  # the blank line, or end of stream
    return (eol.join(lines) + eol + end).encode("latin-1")


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(head=heads())
def test_lean_parse_agrees_with_stdlib(head: bytes) -> None:
    stdlib, stdlib_ok = parse(Stdlib, head)
    lean, lean_ok = parse(Lean, head)
    assert (lean_ok, lean.status) == (stdlib_ok, stdlib.status)
    if not stdlib_ok:
        return
    assert (
        lean.command,
        lean.path,
        lean.request_version,
        lean.close_connection,
    ) == (
        stdlib.command,
        stdlib.path,
        stdlib.request_version,
        stdlib.close_connection,
    )
    etag = stdlib.headers.get("If-None-Match")
    assert lean.headers.get("if-none-match") == (
        None if etag is None else etag.strip(" \t")
    )
    # ``Expect: 100-continue`` writes the same interim response.
    assert lean.wfile.getvalue() == stdlib.wfile.getvalue()


@pytest.mark.parametrize(
    "head",
    [
        # obs-fold: a line that continues the previous field
        b"GET / HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n",
        # whitespace between the field name and the colon
        b"GET / HTTP/1.1\r\nHost : example.com\r\n\r\n",
        # a line with no colon
        b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
    ],
    ids=["obs-fold", "space-before-colon", "no-colon"],
)
def test_malformed_field_lines_answer_400(head: bytes) -> None:
    stdlib, stdlib_ok = parse(Stdlib, head)
    lean, lean_ok = parse(Lean, head)
    assert (stdlib_ok, stdlib.status) == (True, None)
    assert (lean_ok, lean.status) == (False, 400)


def test_field_values_lose_surrounding_whitespace() -> None:
    head = b"GET / HTTP/1.1\r\nConnection: close \r\nIf-None-Match: \"a\" \r\n\r\n"
    stdlib, _ = parse(Stdlib, head)
    lean, _ = parse(Lean, head)
    assert stdlib.close_connection is False  # the stdlib compares "close "
    assert lean.close_connection is True
    assert lean.headers["if-none-match"] == '"a"'


def test_first_occurrence_wins() -> None:
    head = b"GET / HTTP/1.1\r\nIf-None-Match: \"a\"\r\nif-none-match: \"b\"\r\n\r\n"
    lean, ok = parse(Lean, head)
    assert ok and lean.headers == {"if-none-match": '"a"'}
