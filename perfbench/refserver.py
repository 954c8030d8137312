"""The reference server of the ``serve`` workload.

Run as ``python3 perfbench/refserver.py WORK_DIR``: it writes a fixed
JSON document into ``WORK_DIR``, prints its port and serves ``GET /``
until it is terminated.  Each request does, in small, what a request to
``repro serve`` does: read a JSON file, parse it, encode it
canonically, hash the body and send it with a quoted-sha256 ETag, on
the same standard-library HTTP stack with ``TCP_NODELAY``.

The load generator times requests to this server in the idle gaps of
its open loop (``hostspeed.GapReference``) and scales the program's
times by them: the reference goes through the same Python, system
calls, loopback and process switches as the program's requests, at the
same moments, on the same CPU.  The code is the benchmark's and fixed,
so a change to the program does not move it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

#: Records in the served document (a request takes about a millisecond).
RECORDS = 100


def document() -> dict:
    return {
        f"www.site{i}.example.com": {
            "ip": i * 2654435761 % 4294967296,
            "zone": "example.com",
            "tags": [f"t{i}", str(i)],
        }
        for i in range(RECORDS)
    }


def main() -> None:
    path = Path(sys.argv[1]) / "reference.json"
    path.write_text(json.dumps(document()), encoding="utf-8")

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def do_GET(self) -> None:
            payload = json.loads(path.read_text(encoding="utf-8"))
            body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("ETag", f'"{hashlib.sha256(body).hexdigest()}"')
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args) -> None:  # noqa: A002
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
