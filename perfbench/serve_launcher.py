"""Traced ``repro serve``: the server the ``serve`` workload's traced run
starts instead of the CLI.

Run as ``python3 perfbench/serve_launcher.py STORE OUT_JSON``.  It
imports what ``python -m repro serve`` imports, wraps the layers' public
calls with the benchmark's span recorder, records every garbage
collection pause through ``gc.callbacks``, and serves the store through
``repro.serve.serve`` on an ephemeral port, announced on stdout in the
CLI's format.  On SIGTERM it stops and writes its span summary, pause
record and peak RSS to ``OUT_JSON``.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    store_root, out_path = sys.argv[1:3]
    import repro.cli  # noqa: F401  (the CLI's import set)
    from repro.serve import serve

    imported = time.monotonic()
    from tracer import Tracer, install_program_spans

    tracer = Tracer(run_id="serve")
    install_program_spans(tracer)
    pauses: list[float] = []
    began: list[float] = []

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            began.append(time.perf_counter())
        elif began:
            pauses.append(time.perf_counter() - began.pop())

    def on_term(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, on_term)
    gc.callbacks.append(on_gc)
    server = serve(store_root, port=0)
    host, port = server.server_address[:2]
    print(f"repro serve: {store_root} on http://{host}:{port} (traced)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        gc.callbacks.remove(on_gc)
    Path(out_path).write_text(
        json.dumps(
            {
                "started": STARTED,
                "imported": imported,
                "trace": tracer.summary(),
                "gc_pauses": pauses,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
            }
        ),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
