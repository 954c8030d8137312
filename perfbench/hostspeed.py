"""Host-speed calibration for the timed figures.

The hosts this benchmark runs on are shared, and their speed drifts:
identical processes a few minutes apart differ by tens of percent, and
whole sets of runs drift together.  So the benchmark times a fixed
reference task, written in its own code, at the same moments as the
timed work, and scales each time by a constant over the mean reference
time of its window.

* Batch processes time slices inside the measured process, at the
  points the program's public API offers (:class:`Slices`): a block
  before the imports and one after set-up (the set-up window), one
  slice at each country checkpoint (``run_campaign(should_halt=...)``),
  a block before each watch epoch and after the last.  Slice time is
  left out of every reported time, and the collector is off while a
  slice runs, so the slices neither do nor trigger the program's
  garbage collection.
* Server sessions: the server is the CLI and cannot time slices, and a
  request's time is mostly system calls, loopback and process switches,
  which a slice does not exercise.  So the load generator times
  requests to a reference server of the benchmark's own
  (``refserver.py``) in the idle gaps of its open loop, while no
  request to the program is in flight and before each scheduled send
  (``load.GapReference``).  Each open-loop request is scaled by the
  reference requests of the gaps around it, each closed-loop window by
  those of the open-loop windows on either side, and set-up by blocks
  of reference requests before the spawn and after the first reply.

The references are the benchmark's, so a change to the program moves
a scaled figure as it moves the raw one, except through the state the
references share with the program (caches, allocator).  A slower host
slows both, and the ratio cancels the part of the slow-down they share.
Scaled figures read as seconds on a host where one slice takes
``REFERENCE_SLICE_S`` and one reference request
``load.REFERENCE_REQUEST_S``; the runner also reports the raw figures.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time

#: About the slice time of the 2-vCPU host the benchmark was defined on
#: (4–8 ms as its speed moved).  Any constant works for comparisons (it
#: cancels); this one keeps scaled figures close to that host's seconds.
REFERENCE_SLICE_S = 0.006


def reference_slice() -> int:
    """A fixed mix of the interpreter work the program does most:
    building dicts of strings, a JSON round trip, hashing, sorting."""
    rows = {}
    for i in range(1000):
        name = f"www.site{i}.example.com"
        rows[name] = {
            "ip": i * 2654435761 % 4294967296,
            "zone": name.split(".", 1)[1],
            "tags": [name[:7], str(i)],
        }
    text = json.dumps(rows, sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    ordered = sorted(
        json.loads(text).items(), key=lambda item: (item[1]["ip"], item[0])
    )
    return len(ordered) + len(digest)


class Slices:
    """Reference slices timed inside a measured process."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def take(self, count: int) -> float:
        """Time ``count`` slices with the collector off; returns the
        wall seconds spent, which the caller leaves out of its times."""
        enabled = gc.isenabled()
        gc.disable()
        began = time.monotonic()
        try:
            for _ in range(count):
                start = time.perf_counter()
                reference_slice()
                self.times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return time.monotonic() - began

    def speed(self) -> float:
        """The factor that scales this window's times to the reference
        host (below 1 when this host ran slow)."""
        return REFERENCE_SLICE_S / statistics.mean(self.times) if self.times else 1.0
