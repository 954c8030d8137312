"""HTTP load generator for the ``serve`` workload.

One process drives the server over at most ``nproc`` keep-alive
connections, in three kinds of phase:

1. a cold pass: one request per URL, on one connection, in a seeded
   order, against a store with no derived entries; the first request
   for each derived payload builds it;
2. an open loop on one connection: requests scheduled at a fixed
   offered rate, each timed from its scheduled send, so a stall also
   delays the requests queued behind it; an ``idle`` hook may use the
   time before each send (the runner times reference requests there);
3. a closed loop: each connection sends its next request as soon as
   the previous reply arrives.

The runner alternates short open- and closed-loop windows on the same
connections.  :class:`GapReference` times requests to the benchmark's
reference server (``refserver.py``) in the open loop's idle gaps; the
runner scales the program's times by them.

Every reply is checked: a plain GET must return 200 with a body whose
quoted sha256 is the ETag and whose bytes equal the cold-pass bytes
for that URL; a revalidation (``If-None-Match`` with the known ETag)
must return 304 with an empty body and the same ETag.
"""

from __future__ import annotations

import hashlib
import http.client
import random
import statistics
import threading
import time
from dataclasses import dataclass

#: About the reference-request time (``refserver.py``) of the 2-vCPU
#: host the benchmark was defined on.  Any constant works for
#: comparisons (it cancels).
REFERENCE_REQUEST_S = 0.0009
#: Reference requests per set-up block.
REQUESTS_PER_BLOCK = 100
#: Pause after a reply before the first reference request of a gap.
SETTLE_S = 0.0005


@dataclass
class Reply:
    status: int
    etag: str | None
    body: bytes
    sent: float
    done: float


class Connection:
    """One keep-alive client connection; reconnects after an error."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None
        #: Seconds spent waiting on every request (send to last byte).
        self.busy_s = 0.0

    def get(self, path: str, etag: str | None = None) -> Reply:
        headers = {"If-None-Match": etag} if etag else {}
        sent = time.monotonic()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=self.timeout
                )
            self._conn.request("GET", path, headers=headers)
            response = self._conn.getresponse()
            body = response.read()
            reply = Reply(
                response.status, response.getheader("ETag"), body, sent,
                time.monotonic(),
            )
        except (OSError, http.client.HTTPException):
            self.close()
            reply = Reply(0, None, b"", sent, time.monotonic())
        self.busy_s += reply.done - reply.sent
        return reply

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def etag_of(body: bytes) -> str:
    return f'"{hashlib.sha256(body).hexdigest()}"'


class Oracle:
    """The expected reply for every URL, learned in the cold pass."""

    def __init__(self) -> None:
        self.etags: dict[str, str] = {}
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def learn(self, url: str, reply: Reply) -> bool:
        ok = reply.status == 200 and reply.etag == etag_of(reply.body)
        if ok:
            self.etags[url] = reply.etag
        else:
            self._fail(url, reply, "cold")
        return ok

    def check(self, url: str, revalidate: bool, reply: Reply) -> bool:
        known = self.etags.get(url)
        if revalidate:
            ok = reply.status == 304 and not reply.body and reply.etag == known
        else:
            ok = (
                reply.status == 200
                and reply.etag == etag_of(reply.body)
                and reply.etag == known
            )
        if not ok:
            self._fail(url, reply, "revalidate" if revalidate else "get")
        return ok

    def _fail(self, url: str, reply: Reply, kind: str) -> None:
        with self._lock:
            if len(self.failures) < 20:
                self.failures.append(f"{kind} {url} -> {reply.status}")


def zipf_picker(rng: random.Random, items: list, skew: float):
    """Draw from ``items`` with Zipf weights over a seeded ranking."""
    ranked = list(items)
    rng.shuffle(ranked)
    cumulative = []
    total = 0.0
    for rank in range(1, len(ranked) + 1):
        total += 1.0 / rank**skew
        cumulative.append(total)
    return lambda: rng.choices(ranked, cum_weights=cumulative)[0]


#: The request mix: ``(share, kind, revalidate)``.  Kinds are drawn
#: with fixed shares, so the cost mix is the same for every seed; the
#: seed picks which keys within a kind are hot.
MIX = (
    (0.10, "campaign", False),
    (0.10, "layers", False),
    (0.20, "country", False),
    (0.05, "campaign", True),
    (0.05, "layers", True),
    (0.05, "country", True),
    (0.075, "schism", True),
    (0.075, "spof", True),
    (0.15, "schism", False),
    (0.15, "spof", False),
)


def request_mix(seed: int, universe: dict, count: int, skew: float) -> list:
    """``count`` seeded ``(url, revalidate)`` requests.

    Each kind of request has a fixed share of them.  Two fifths are
    full GETs of the campaign, layers and country views, three tenths
    revalidate a URL with its ETag, and the rest are full GETs of what-if
    queries (``universe`` maps each kind to its URLs).
    Within a kind, keys are drawn with Zipf skew, so a hot set stays in
    the server's memory tier and the tail falls to disk.
    """
    rng = random.Random(seed)
    pickers = {
        kind: zipf_picker(rng, universe[kind], skew)
        for kind in sorted({kind for _, kind, _ in MIX})
    }
    # Exact counts per entry of the mix (the largest remainders round
    # up), in a seeded order.
    exact = [(share * count, kind, revalidate) for share, kind, revalidate in MIX]
    counts = [int(want) for want, _, _ in exact]
    by_remainder = sorted(
        range(len(exact)), key=lambda i: exact[i][0] - counts[i], reverse=True
    )
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    kinds = [
        (kind, revalidate)
        for (_, kind, revalidate), n in zip(exact, counts)
        for _ in range(n)
    ]
    rng.shuffle(kinds)
    return [(pickers[kind](), revalidate) for kind, revalidate in kinds]


def cold_pass(
    port: int, urls: list[str], oracle: Oracle
) -> tuple[list[float], int]:
    """GET every URL once in order; per-request seconds and replies ok."""
    conn = Connection(port)
    latencies = []
    ok = 0
    try:
        for url in urls:
            reply = conn.get(url)
            ok += oracle.learn(url, reply)
            latencies.append(reply.done - reply.sent)
    finally:
        conn.close()
    return latencies, ok


def open_loop(
    conn: Connection, mix: list, rate: float, oracle: Oracle, idle
) -> dict:
    """Send ``mix`` on ``conn`` at ``rate`` per second from a fixed
    schedule; ``idle(due)`` runs before each send that is not yet due,
    and the generator spins, rather than sleeps, for the rest of the
    time until the send."""
    latencies = []
    ok = 0
    generator_late = []
    start = time.monotonic() + 0.05
    for i, (url, revalidate) in enumerate(mix):
        due = start + i / rate
        idle(due)
        waited = time.monotonic() < due
        while time.monotonic() < due:
            pass  # spin: a sleeping CPU is one a shared host may hand away
        reply = conn.get(url, oracle.etags.get(url) if revalidate else None)
        if waited:
            generator_late.append(reply.sent - due)
        latencies.append(reply.done - due)
        ok += oracle.check(url, revalidate, reply)
    return {
        "latencies": latencies,
        "ok": ok,
        "sent": len(mix),
        "generator_late": generator_late,
    }


def closed_loop(
    conns: list[Connection], mix: list, first: int, seconds: float, oracle: Oracle
) -> dict:
    """Send back to back on every connection for ``seconds``, taking
    requests from ``mix`` (cyclically) at index ``first`` on."""
    lock = threading.Lock()
    cursor = [first]
    counts = {"ok": 0, "sent": 0}
    start = time.monotonic()
    deadline = start + seconds

    def worker(index: int) -> None:
        conn = conns[index]
        while time.monotonic() < deadline:
            with lock:
                url, revalidate = mix[cursor[0] % len(mix)]
                cursor[0] += 1
            reply = conn.get(url, oracle.etags.get(url) if revalidate else None)
            good = oracle.check(url, revalidate, reply)
            with lock:
                counts["sent"] += 1
                counts["ok"] += good

    threads = [
        threading.Thread(target=worker, args=(index,), daemon=True)
        for index in range(len(conns))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        if thread.is_alive():
            raise TimeoutError("load generator thread did not finish")
    elapsed = time.monotonic() - start
    return {**counts, "next": cursor[0], "rate": counts["ok"] / elapsed}


class GapReference:
    """Requests to the reference server, timed between the program's.

    :meth:`fill` runs before each scheduled send of the open loop and
    sends reference requests until the next one might run into the
    send at ``due`` (twice the recent reference time, plus half a
    millisecond, is kept free), so they take no time from the program's
    requests, and the program's server is idle while they run.  Gap
    ``j`` is the one before request ``j``.  A reply that is not 200
    with a quoted-sha256 ETag counts in ``bad``."""

    def __init__(self, port: int) -> None:
        self.conn = Connection(port)
        self.gaps: list[list[float]] = []
        self.bad = 0
        self._recent = 0.002

    def _request(self) -> float:
        reply = self.conn.get("/")
        if reply.status != 200 or reply.etag != etag_of(reply.body):
            self.bad += 1
        spent = reply.done - reply.sent
        self._recent = 0.8 * self._recent + 0.2 * spent
        return spent

    def fill(self, due: float) -> None:
        times = []
        # Let the program's server finish the request it just answered
        # (unless the next send is due already).
        if due - time.monotonic() > SETTLE_S:
            time.sleep(SETTLE_S)
        while due - time.monotonic() > 2.0 * self._recent + 0.0005:
            times.append(self._request())
        self.gaps.append(times)

    def block(self) -> float:
        """Mean seconds of a block of reference requests sent back to back."""
        return statistics.mean(self._request() for _ in range(REQUESTS_PER_BLOCK))

    def speed(self, first: int = 0, last: int | None = None) -> float:
        """The factor that scales times taken over gaps ``first`` to
        ``last`` to the reference host; over every gap when those hold
        no reference request."""
        times = [t for gap in self.gaps[first:last] for t in gap] or [
            t for gap in self.gaps for t in gap
        ]
        return REFERENCE_REQUEST_S / statistics.mean(times) if times else 1.0

    def local_speeds(self, first: int, last: int, reach: int) -> list[float]:
        """For each request ``j`` in ``first`` to ``last``, the factor
        over the ``reach`` gaps before it and the ``reach`` after it
        (within the range): the host speed around that request."""
        window = self.speed(first, last)
        speeds = []
        for j in range(first, last):
            around = self.gaps[max(first, j - reach + 1) : min(last, j + reach + 1)]
            times = [t for gap in around for t in gap]
            speeds.append(
                REFERENCE_REQUEST_S / statistics.mean(times) if times else window
            )
        return speeds

    def close(self) -> None:
        self.conn.close()
