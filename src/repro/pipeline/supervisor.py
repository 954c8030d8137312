"""Process supervision for sharded campaigns.

The executor in :mod:`repro.pipeline.parallel` made the country the
unit of determinism; this module makes it the unit of *failure*.  A
long campaign at paper scale (150 countries x 10K sites) will meet the
operational faults the in-pipeline injectors cannot model: a worker
process SIGKILLed by the OOM killer, a worker wedged on one
pathological country, a box rebooting mid-run.  Without supervision
any of those aborts the whole campaign and throws away every country
already measured.

:class:`ShardSupervisor` owns a fleet of long-lived worker processes,
each connected to the parent by its own duplex pipe (no shared queue:
a worker killed mid-``put`` can corrupt a queue's lock, while a dead
pipe simply reads EOF).  The parent dispatches one ``(country,
attempt)`` task at a time to each worker and watches for three fault
shapes:

* **worker death** — the worker's pipe hits EOF or its process exits
  nonzero.  The in-flight country is resubmitted to a fresh worker.
* **hung shard** — a per-country wall-clock deadline
  (``country_timeout``) expires.  The worker is SIGKILLed and the
  country resubmitted.  Wall clock, not the logical clock: a wedged
  worker by definition stops advancing logical time.
* **in-pipeline error** — the worker caught an exception and reported
  it over the pipe.  Also resubmitted: the box-level conditions that
  produce spurious errors (fd exhaustion, memory pressure) often
  clear.

Resubmission is bounded and jittered: each country gets at most
``max_shard_retries`` extra dispatches, spaced by the same
decorrelated-jitter schedule the in-pipeline
:class:`~repro.faults.retry.RetryPolicy` uses (seeded per country, so
a thundering herd of failed shards does not resubmit in lockstep).
When the budget is exhausted the supervisor either aborts the campaign
(default — same observable behavior as before this module existed) or,
with ``quarantine=True``, records a :class:`~repro.pipeline.parallel.
CountryResult`-shaped tombstone and moves on, so the campaign always
terminates with the maximal valid subset of its output.  Tombstones
carry degraded-row semantics: zero rows, a recorded reason, a
``quarantined`` marker persisted in the store manifest — and a later
``--resume`` re-measures exactly the quarantined countries.

Because every country unit is a pure function of ``(spec, country)``,
none of this machinery can change output: a retried country produces
byte-identical rows/metrics/spans to a first-try success, so a
campaign that survives crashes converges to the same artifacts as one
that never saw them.  The test suite asserts exactly that under a
process-level chaos harness (:mod:`repro.faults.chaos`).
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from typing import TYPE_CHECKING, Callable

from ..errors import PipelineError
from ..faults.retry import RetryPolicy
from ..obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.chaos import ChaosPlan
    from ..obs.profile import CampaignProfiler
    from .parallel import CampaignSpec, CountryResult

__all__ = [
    "SupervisorPolicy",
    "ShardSupervisor",
    "quarantine_tombstone",
]


@dataclass(frozen=True, slots=True)
class SupervisorPolicy:
    """Fault-handling knobs for the sharded campaign supervisor.

    The defaults are deliberately no-ops on the happy path: no
    deadline, and the retry/backoff knobs only matter once something
    actually fails.  ``country_timeout`` is a *wall-clock* budget per
    country dispatch; ``max_shard_retries`` bounds resubmissions per
    country (on top of the first dispatch); ``quarantine`` turns
    budget exhaustion into a tombstone instead of a campaign abort.
    """

    country_timeout: float | None = None
    max_shard_retries: int = 2
    quarantine: bool = False
    #: Countries dispatched to a worker per pipe round trip.  None
    #: picks an automatic size that spreads the queue over roughly
    #: four dispatch rounds per worker (1 at small scales, so chunking
    #: only kicks in when there are enough countries to amortize).
    chunk_size: int | None = None
    #: Backoff before resubmitting a failed country, following the
    #: decorrelated-jitter recurrence of the in-pipeline RetryPolicy —
    #: but spent on the real clock (the supervisor has no logical one).
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    seed: int = 0
    #: How often the supervisor wakes to check deadlines when no pipe
    #: is readable.
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.country_timeout is not None and self.country_timeout <= 0:
            raise PipelineError(
                f"country_timeout must be positive, got {self.country_timeout}"
            )
        if self.max_shard_retries < 0:
            raise PipelineError(
                f"max_shard_retries must be >= 0, got {self.max_shard_retries}"
            )
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise PipelineError(
                f"invalid backoff window [{self.backoff_base}, "
                f"{self.backoff_cap}]"
            )
        if self.poll_interval <= 0:
            raise PipelineError(
                f"poll_interval must be positive, got {self.poll_interval}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise PipelineError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )

    def backoff_schedule(self, country: str) -> tuple[float, ...]:
        """Jittered resubmission delays for one country's retries."""
        if self.max_shard_retries == 0:
            return ()
        policy = RetryPolicy(
            max_attempts=self.max_shard_retries + 1,
            base_delay=self.backoff_base,
            max_delay=self.backoff_cap,
            seed=self.seed,
        )
        return policy.backoff_schedule(f"shard:{country}")


def quarantine_tombstone(country: str, reason: str) -> "CountryResult":
    """A CountryResult-shaped tombstone for a quarantined country.

    Degraded-row semantics taken to the limit: zero rows, no
    telemetry, and the failure reason recorded so manifests and
    reports can surface *why* the country is missing.
    """
    from .parallel import CountryResult

    return CountryResult(
        country=country,
        rows=(),
        metrics=None,
        spans=None,
        injected_faults=0,
        open_circuits=(),
        quarantined=reason,
    )


def _supervised_worker(
    spec: "CampaignSpec", chaos: "ChaosPlan | None", conn: Connection
) -> None:
    """Worker-process loop: measure country chunks until told to stop.

    Each task arrives as a tuple of ``(country, attempt)`` pairs — a
    locality-aware chunk — and the worker streams one message back per
    country as it finishes: ``("ok", country, attempt, CountryResult,
    timings)`` or ``("error", country, attempt, reason, None)``.  A
    per-country error does not abandon the rest of the chunk: the
    failed country is reported (the parent resubmits it) and the loop
    moves on to the next chunk member.  ``timings`` is the worker's
    own :func:`time.monotonic` readings around the country (processing
    start, World-build interval if this country triggered one, measure
    interval, send instant) — CLOCK_MONOTONIC is system-wide on Linux,
    so the parent-side profiler can place them on its own axis.  The
    chaos hooks are the test harness's seam for killing or wedging the
    process at deterministic points; they are no-ops in production.
    """
    from .parallel import measure_country_unit, pop_world_build, worker_context

    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                return
            if task is None:
                return
            for country, attempt in task:
                recv_at = time.monotonic()
                try:
                    if chaos is not None:
                        chaos.before_measure(country, attempt)
                    context = worker_context(spec)
                    build = pop_world_build()
                    measure_start = time.monotonic()
                    result = measure_country_unit(
                        context.world,
                        spec,
                        country,
                        zone_cache=context.zone_cache,
                    )
                    measure_end = time.monotonic()
                    if chaos is not None:
                        chaos.after_measure(country, attempt)
                    timings = {
                        "recv": recv_at,
                        "build": build,
                        "measure": (measure_start, measure_end),
                        "send": time.monotonic(),
                    }
                    conn.send(("ok", country, attempt, result, timings))
                except BaseException as exc:  # noqa: BLE001 - report, don't die
                    try:
                        conn.send(
                            (
                                "error",
                                country,
                                attempt,
                                f"{type(exc).__name__}: {exc}",
                                None,
                            )
                        )
                    except (BrokenPipeError, OSError):
                        return
    finally:
        conn.close()


class _Worker:
    """Parent-side handle on one worker process."""

    __slots__ = ("process", "conn", "chunk", "deadline", "label", "token")

    def __init__(self, process, conn: Connection, label: str) -> None:
        self.process = process
        self.conn = conn
        #: Outstanding ``(country, attempt)`` pairs of the dispatched
        #: chunk, in the order the worker processes them; ``chunk[0]``
        #: is in flight, the rest are queued worker-side.  Empty when
        #: idle.
        self.chunk: list[tuple[str, int]] = []
        #: Wall-clock instant the in-flight country times out (None
        #: when idle or no country_timeout configured); reset as each
        #: chunk member's result arrives, so the budget stays
        #: per-country under chunking.
        self.deadline: float | None = None
        #: Stable profiling label ("w0", "w1", ...) — a replacement
        #: process inherits its predecessor's label, so a worker
        #: timeline survives crashes.
        self.label = label
        #: Profiler token for the in-flight country's dispatch span
        #: (None when idle or unprofiled).  Tokens open lazily — one
        #: per country, at the instant it becomes the chunk head — so
        #: per-country dispatch spans survive chunked dispatch.
        self.token: int | None = None


class ShardSupervisor:
    """Run a campaign's country shards under crash/hang supervision.

    Drives ``workers`` long-lived processes over per-worker pipes,
    dispatching countries in sorted order and resubmitting failures
    per the :class:`SupervisorPolicy`.  Purely an orchestration layer:
    results (and the merge the caller performs on them) are identical
    to the unsupervised executor's whenever nothing fails.

    Retries, timeouts and quarantines are counted on ``metrics``, a
    registry of their own that never merges into a campaign's
    measurement metrics: a campaign that survived worker crashes must
    still export ``--metrics-out`` byte-identical to one that never
    saw them.
    """

    def __init__(
        self,
        spec: "CampaignSpec",
        countries: list[str],
        workers: int,
        policy: SupervisorPolicy,
        *,
        chaos: "ChaosPlan | None" = None,
        metrics: MetricsRegistry | None = None,
        profiler: "CampaignProfiler | None" = None,
        mp_context=None,
    ) -> None:
        self.spec = spec
        self.countries = list(countries)
        self.worker_count = max(1, min(workers, len(self.countries) or 1))
        self.policy = policy
        self.chaos = chaos
        if metrics is None:
            metrics = MetricsRegistry()
        self._retries = metrics.counter(
            "repro_shard_retries_total",
            "Country shards resubmitted after a worker crash, error, "
            "or deadline",
            labelnames=("country", "reason"),
        )
        self._timeouts = metrics.counter(
            "repro_shard_timeouts_total",
            "Country shards killed for exceeding the wall-clock "
            "country deadline",
            labelnames=("country",),
        )
        self._quarantined = metrics.counter(
            "repro_countries_quarantined_total",
            "Countries tombstoned after exhausting the shard retry "
            "budget",
            labelnames=("country", "reason"),
        )
        self.profiler = profiler
        self._context = (
            mp_context if mp_context is not None else multiprocessing
        )
        #: country -> (attempt, wall-clock instant it may be dispatched)
        self._pending: dict[str, tuple[int, float]] = {}
        self._results: dict[str, "CountryResult"] = {}
        self._workers: list[_Worker] = []
        self._halted = False

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn_worker(self, label: str) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_supervised_worker,
            args=(self.spec, self.chaos, child_conn),
            daemon=True,
        )
        spawn_start = time.monotonic()
        process.start()
        if self.profiler is not None:
            self.profiler.worker_spawned(
                label, spawn_start, time.monotonic()
            )
        # Close the parent's copy of the child end: otherwise the pipe
        # never reads EOF when the worker dies.
        child_conn.close()
        return _Worker(process, parent_conn, label)

    def _retire_worker(self, worker: _Worker) -> None:
        """Tear one worker down hard (it is dead or being killed)."""
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)

    def _replace_worker(self, worker: _Worker) -> None:
        self._retire_worker(worker)
        index = self._workers.index(worker)
        self._workers[index] = self._spawn_worker(worker.label)

    def _shutdown(self) -> None:
        for worker in self._workers:
            if worker.process.is_alive() and not worker.chunk:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in self._workers:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            worker.process.join(timeout=0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
        self._workers = []

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def _task_failed(
        self,
        country: str,
        attempt: int,
        reason: str,
        detail: str,
        note: Callable[["CountryResult"], bool],
    ) -> None:
        """One dispatch of a country failed; resubmit or quarantine."""
        if reason == "timeout":
            self._timeouts.inc(country=country)
        if attempt <= self.policy.max_shard_retries:
            delays = self.policy.backoff_schedule(country)
            delay = delays[min(attempt - 1, len(delays) - 1)] if delays else 0.0
            now = time.monotonic()
            self._pending[country] = (attempt + 1, now + delay)
            self._retries.inc(country=country, reason=reason)
            if self.profiler is not None:
                self.profiler.backoff(country, reason, now, now + delay)
            return
        message = (
            f"country {country} failed {attempt} dispatch"
            f"{'es' if attempt != 1 else ''} ({reason}: {detail})"
        )
        if not self.policy.quarantine:
            raise PipelineError(
                f"{message}; raise --max-shard-retries or pass "
                f"--quarantine to tombstone the country and keep going"
            )
        tombstone = quarantine_tombstone(country, f"{reason}: {detail}")
        self._results[country] = tombstone
        self._quarantined.inc(country=country, reason=reason)
        if note(tombstone):
            self._halted = True

    def _worker_died(
        self, worker: _Worker, note: Callable[["CountryResult"], bool]
    ) -> None:
        worker.process.join(timeout=5.0)
        exitcode = worker.process.exitcode
        chunk = list(worker.chunk)
        if (
            chunk
            and self.profiler is not None
            and worker.token is not None
        ):
            self.profiler.failed(worker.token, time.monotonic(), "crash")
        self._replace_worker(worker)
        if not chunk:
            return
        self._requeue_chunk_mates(chunk[1:])
        country, attempt = chunk[0]
        self._task_failed(
            country,
            attempt,
            "crash",
            f"worker exited with code {exitcode}",
            note,
        )

    def _requeue_chunk_mates(
        self, mates: list[tuple[str, int]]
    ) -> None:
        """Requeue the not-yet-started members of a failed chunk.

        Only the in-flight head caused (or suffered) the failure; its
        chunk-mates never started, so they go back to the ready queue
        at the *same* attempt — no retry-budget penalty, no backoff
        (their profiler queue-wait simply keeps running, since their
        dispatch tokens are opened lazily).
        """
        now = time.monotonic()
        for country, attempt in mates:
            self._pending[country] = (attempt, now)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _chunk_size(self) -> int:
        """Countries per dispatch round trip.

        The automatic size spreads the campaign over roughly four
        dispatch rounds per worker: enough chunking to amortize pipe
        latency at paper scale, enough rounds to keep the tail
        balanced.  It evaluates to 1 until the country count outgrows
        ``4 × workers``, so small campaigns keep one-at-a-time
        dispatch.
        """
        if self.policy.chunk_size is not None:
            return self.policy.chunk_size
        return max(
            1, math.ceil(len(self.countries) / (self.worker_count * 4))
        )

    def _dispatch_ready(self, now: float) -> None:
        idle = [w for w in self._workers if not w.chunk]
        if not idle:
            return
        ready = sorted(
            cc
            for cc, (_attempt, ready_at) in self._pending.items()
            if ready_at <= now
        )
        size = self._chunk_size()
        for worker in idle:
            if not ready:
                break
            # Contiguous slice of the sorted ready list: neighbouring
            # countries ship together, preserving the sorted dispatch
            # order the serial run and merge both use.
            take, ready = ready[:size], ready[size:]
            chunk = [
                (cc, self._pending.pop(cc)[0]) for cc in take
            ]
            try:
                worker.conn.send(tuple(chunk))
            except (BrokenPipeError, OSError):
                # Worker died while idle; put the tasks back and bring
                # up a replacement immediately.
                for country, attempt in chunk:
                    self._pending[country] = (attempt, now)
                self._replace_worker(worker)
                continue
            worker.chunk = chunk
            worker.deadline = (
                now + self.policy.country_timeout
                if self.policy.country_timeout is not None
                else None
            )
            if self.profiler is not None:
                country, attempt = chunk[0]
                worker.token = self.profiler.dispatched(
                    worker.label,
                    country,
                    attempt,
                    time.monotonic(),
                    len(self._pending),
                )

    def _wait_budget(self, now: float) -> float:
        budget = self.policy.poll_interval
        for worker in self._workers:
            if worker.deadline is not None:
                budget = min(budget, max(worker.deadline - now, 0.0))
        for _attempt, ready_at in self._pending.values():
            budget = min(budget, max(ready_at - now, 0.0))
        return budget

    def run(
        self, note: Callable[["CountryResult"], bool]
    ) -> tuple[dict[str, "CountryResult"], bool]:
        """Measure every country; returns ``(results, halted)``.

        ``note`` is invoked for every finished unit (fresh result or
        quarantine tombstone) in completion order — the caller's
        checkpoint hook; returning True halts the campaign (the
        ``--halt-after`` contract).  ``results`` maps country to its
        unit (tombstones included) unless halted early.
        """
        self._pending = {cc: (1, 0.0) for cc in self.countries}
        self._results = {}
        self._halted = False
        if self.profiler is not None:
            enqueue_at = time.monotonic()
            for cc in self.countries:
                self.profiler.enqueued(cc, enqueue_at)
        self._workers = [
            self._spawn_worker(f"w{i}") for i in range(self.worker_count)
        ]
        try:
            while (
                len(self._results) < len(self.countries)
                and not self._halted
            ):
                now = time.monotonic()
                self._dispatch_ready(now)
                busy = {
                    w.conn: w for w in self._workers if w.chunk
                }
                if not busy and not self._pending:
                    # Nothing in flight and nothing schedulable: every
                    # remaining country is already resolved.
                    break
                if busy:
                    readable = connection_wait(
                        list(busy), timeout=self._wait_budget(now)
                    )
                else:
                    time.sleep(self._wait_budget(now))
                    readable = []
                for conn in readable:
                    worker = busy[conn]
                    # Drain every streamed chunk result already on the
                    # pipe — a chunked worker can land several results
                    # between two wakeups.
                    while worker.chunk:
                        try:
                            message = conn.recv()
                        except (EOFError, OSError):
                            self._worker_died(worker, note)
                            break
                        kind, country, attempt, payload, timings = message
                        pair = (country, attempt)
                        if worker.chunk and worker.chunk[0] == pair:
                            worker.chunk.pop(0)
                        elif pair in worker.chunk:  # pragma: no cover
                            worker.chunk.remove(pair)
                        arrived = time.monotonic()
                        token, worker.token = worker.token, None
                        if kind == "ok":
                            if (
                                self.profiler is not None
                                and token is not None
                            ):
                                self.profiler.completed(
                                    token, arrived, timings
                                )
                            self._results[country] = payload
                            if note(payload):
                                self._halted = True
                                break
                        else:
                            if (
                                self.profiler is not None
                                and token is not None
                            ):
                                self.profiler.failed(
                                    token, arrived, "error"
                                )
                            self._task_failed(
                                country, attempt, "error", payload, note
                            )
                        if self._halted:
                            break
                        if worker.chunk:
                            # The next chunk member is now in flight:
                            # restart its per-country deadline and open
                            # its dispatch span.
                            worker.deadline = (
                                arrived + self.policy.country_timeout
                                if self.policy.country_timeout is not None
                                else None
                            )
                            if self.profiler is not None:
                                head, head_attempt = worker.chunk[0]
                                worker.token = self.profiler.dispatched(
                                    worker.label,
                                    head,
                                    head_attempt,
                                    arrived,
                                    len(self._pending),
                                )
                        else:
                            worker.deadline = None
                        if not conn.poll():
                            break
                    if self._halted:
                        break
                if self._halted:
                    break
                now = time.monotonic()
                for worker in list(self._workers):
                    if (
                        worker.chunk
                        and worker.deadline is not None
                        and now >= worker.deadline
                    ):
                        chunk = list(worker.chunk)
                        country, attempt = chunk[0]
                        if (
                            self.profiler is not None
                            and worker.token is not None
                        ):
                            self.profiler.failed(
                                worker.token, now, "timeout"
                            )
                        self._replace_worker(worker)
                        self._requeue_chunk_mates(chunk[1:])
                        self._task_failed(
                            country,
                            attempt,
                            "timeout",
                            f"exceeded the {self.policy.country_timeout:g}s "
                            f"wall-clock country deadline",
                            note,
                        )
                    elif (
                        worker.chunk
                        and not worker.process.is_alive()
                        and not worker.conn.poll()
                    ):
                        # Exited without writing a result (covers the
                        # rare case where EOF was consumed elsewhere).
                        self._worker_died(worker, note)
        finally:
            self._shutdown()
        return dict(self._results), self._halted
