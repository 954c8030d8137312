"""Campaign-level profiling: where the wall clock goes *between* sites.

The per-site spans in :mod:`repro.obs.spans` explain a pipeline's
inner stages, but a sharded campaign spends real time in places no
site span covers — forking workers, building one World per process,
shipping tasks over pipes, waiting for a free worker, backing off
failed shards, merging results.  :class:`CampaignProfiler` records
exactly that layer: the parent process (and, via timings shipped back
over the supervisor pipe, each worker) reports lifecycle events, and
the profiler turns them into

* **lifecycle spans** — :class:`~repro.obs.spans.Span` rows, the
  shape the site tracer emits, so they stitch into the campaign trace
  and flow through every existing trace tool.  Timestamps are
  campaign-relative wall-clock seconds stored in the
  ``start_logical``/``logical_seconds`` fields: the
  profiler's "logical clock" *is* the campaign wall clock, which is
  what makes worker timelines and the critical path computable from
  the trace alone (:mod:`repro.analysis.traceprof`);
* **metric families** — worker busy/idle/spawn seconds, per-worker
  World-build seconds, queue-depth and queue-wait distributions, and
  phase-attributed totals (:func:`lifecycle_accounting` over those
  spans, the same function ``repro trace summarize`` reads a trace
  with), kept in the profiler's *own*
  :class:`~repro.obs.metrics.MetricsRegistry` (never merged into a
  campaign's measurement metrics, which must stay byte-identical
  across worker counts and wall-clock noise).

The span taxonomy (all children of one ``campaign`` root)::

    campaign
    ├── worker-spawn {worker}           process start()
    ├── world-build  {worker}           World construction (parent or
    │                                   per-worker under spawn)
    ├── zone-warm    {worker}           pre-fork shared DNS zone-plan
    │                                   warmup (parent only)
    ├── queue-wait   {country,attempt}  enqueued/ready → dispatched
    ├── dispatch     {worker,country,attempt}
    │   │                               send → result received; gaps
    │   │                               around children are IPC cost
    │   ├── world-build {worker}        first task in a spawned worker
    │   └── compute  {worker,country}   measure_country_unit proper
    ├── backoff      {country,reason}   supervisor resubmission delay
    └── merge                           sorted-country merge/stitch

Everything here is opt-in: :func:`repro.pipeline.parallel.run_campaign`
only builds a profiler when the spec is instrumented, so
uninstrumented runs stay byte-identical.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable

from .metrics import MetricsRegistry
from .spans import Span

__all__ = [
    "CampaignProfiler",
    "PROFILE_SPAN_NAMES",
    "QUEUE_DEPTH_BUCKETS",
    "lifecycle_accounting",
]

#: Every span name the profiler emits.  Disjoint from the pipeline's
#: per-site stage names (site/http/resolve/label/ns-walk/tls/enrich),
#: which is how trace analyzers split the two layers apart.
PROFILE_SPAN_NAMES = frozenset(
    {
        "campaign",
        "worker-spawn",
        "world-build",
        "zone-warm",
        "queue-wait",
        "dispatch",
        "compute",
        "backoff",
        "merge",
    }
)

#: Queue-depth histogram boundaries (countries waiting for a worker).
QUEUE_DEPTH_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def lifecycle_accounting(
    spans: Iterable[Span],
) -> tuple[float, dict[str, dict], dict[str, float], dict[str, float]] | None:
    """Worker, phase and queue-wait accounting of one campaign.

    The one definition behind both ``--profile-out`` and ``repro trace
    summarize``.  Returns ``(wall, workers, phases, queue_wait)``, or
    None when the spans hold no ``campaign`` root; pipeline spans
    (names outside :data:`PROFILE_SPAN_NAMES`) are ignored.

    ``workers`` maps a worker label to its ``busy``, ``idle``,
    ``spawn`` and ``world_build`` seconds, its ``tasks`` count, the
    ``busy_frac``/``idle_frac`` shares of the wall clock, and
    ``segments``, its task intervals as ``(start, end, country)`` in
    start order.  The busy rule: a worker is busy while it holds a
    dispatched country (the round trip, IPC included), and every span
    the parent runs directly under the campaign root — inline
    ``compute``, its ``world-build``, the pre-fork ``zone-warm`` and
    the ``merge`` — is ``main``'s busy time.  Idle is the rest of the
    wall clock after spawn, so ``spawn + busy + idle`` equals it.

    ``phases`` sums seconds per span name (overlapping spans each
    count: attribution, not a partition) plus ``dispatch-overhead``,
    the dispatch round trips minus the worker-side compute and World
    build nested in them.  ``queue-wait`` is not a phase: every queued
    country waits at once, so its total grows with the country count
    past wall x workers.  ``queue_wait`` instead holds the ``p50``,
    ``p95`` and ``max`` wait over dispatches (nearest rank; a dispatch
    without a ``queue-wait`` span waited 0), empty when nothing was
    dispatched.  Every figure is rounded to microseconds.
    """
    lifecycle = [s for s in spans if s.name in PROFILE_SPAN_NAMES]
    root = next((s for s in lifecycle if s.name == "campaign"), None)
    if root is None:
        return None
    wall = root.logical_seconds
    workers: dict[str, dict] = {}
    phases: dict[str, float] = {}
    dispatches: dict[int, float] = {}
    #: dispatch span id -> worker-side seconds nested under it.
    nested: dict[int, float] = {}
    waits: list[float] = []

    def track(label: str) -> dict:
        return workers.setdefault(
            label,
            {
                "busy": 0.0,
                "idle": 0.0,
                "spawn": 0.0,
                "world_build": 0.0,
                "tasks": 0,
                "busy_frac": 0.0,
                "idle_frac": 0.0,
                "segments": [],
            },
        )

    for span in lifecycle:
        name = span.name
        if name == "campaign":
            continue
        seconds = span.logical_seconds
        if name == "queue-wait":
            waits.append(seconds)
            continue
        phases[name] = phases.get(name, 0.0) + seconds
        on_root = span.parent_id == root.span_id
        label = span.attrs.get("worker", "main")
        if name == "dispatch" or (name == "compute" and on_root):
            entry = track(label)
            entry["busy"] += seconds
            entry["tasks"] += 1
            start = span.start_logical
            entry["segments"].append(
                (start, start + seconds, span.attrs.get("country", "?"))
            )
        elif name == "worker-spawn":
            track(label)["spawn"] += seconds
        elif on_root and name in ("world-build", "zone-warm", "merge"):
            track(label)["busy"] += seconds
        if name == "world-build":
            track(label)["world_build"] += seconds
        if name == "dispatch":
            dispatches[span.span_id] = seconds
        elif name in ("compute", "world-build") and not on_root:
            parent = span.parent_id
            nested[parent] = nested.get(parent, 0.0) + seconds
    phases["dispatch-overhead"] = sum(
        max(seconds - nested.get(span_id, 0.0), 0.0)
        for span_id, seconds in dispatches.items()
    )
    for entry in workers.values():
        for key in ("busy", "spawn", "world_build"):
            entry[key] = round(entry[key], 6)
        idle = wall - entry["spawn"] - entry["busy"]
        entry["idle"] = round(max(idle, 0.0), 6)
        if wall > 0:
            entry["busy_frac"] = entry["busy"] / wall
            entry["idle_frac"] = entry["idle"] / wall
        entry["segments"].sort()
    waits.extend([0.0] * (len(dispatches) - len(waits)))
    waits.sort()
    # Nearest rank: the p-th percentile is the ceil(p * n / 100)-th
    # smallest wait.
    queue_wait = {
        stat: round(waits[-(-percent * len(waits) // 100) - 1], 6)
        for stat, percent in (("p50", 50), ("p95", 95), ("max", 100))
        if waits
    }
    return (
        wall,
        workers,
        {name: round(seconds, 6) for name, seconds in phases.items()},
        queue_wait,
    )


class CampaignProfiler:
    """Collects campaign lifecycle events into spans and metrics.

    Parent-process side only: worker processes never see this object.
    Timestamps are raw readings of ``wall`` (default
    :func:`time.monotonic`, which is comparable across processes on
    one machine — worker-side readings shipped over the pipe land on
    the same axis); :meth:`finish` normalizes them to campaign-relative
    seconds.
    """

    def __init__(self, wall: Callable[[], float] | None = None) -> None:
        self.wall = wall if wall is not None else time.monotonic
        self._t0 = self.wall()
        #: (name, start, end, parent_key, attrs, status, error); parent
        #: key None means the campaign root.
        self._events: list[tuple] = []
        #: country -> instant it became schedulable (campaign start or
        #: the end of its backoff window).
        self._enqueued: dict[str, float] = {}
        self._queue_depths: list[int] = []
        self._merge: tuple[float, float] | None = None
        self._finished: tuple[list[Span], dict] | None = None

    # ------------------------------------------------------------------
    # Event hooks (parent side)
    # ------------------------------------------------------------------

    def now(self) -> float:
        """A raw wall reading on the profiler's clock."""
        return self.wall()

    def worker_spawned(self, worker: str, start: float, end: float) -> None:
        """One worker process was started (``process.start()`` window)."""
        self._events.append(
            ("worker-spawn", start, end, None, {"worker": worker}, "ok", None)
        )

    def world_built(
        self,
        worker: str,
        start: float,
        end: float,
        parent: int | None = None,
    ) -> None:
        """A World was materialized (parent pre-fork or in a worker).

        ``parent`` is the dispatch token returned by :meth:`dispatched`
        when the build happened inside a worker task; None parents the
        span on the campaign root.
        """
        self._events.append(
            ("world-build", start, end, parent, {"worker": worker}, "ok", None)
        )

    def zone_warmed(self, worker: str, start: float, end: float) -> None:
        """Shared DNS zone plans were pre-built (parent, pre-fork)."""
        self._events.append(
            ("zone-warm", start, end, None, {"worker": worker}, "ok", None)
        )

    def enqueued(self, country: str, at: float) -> None:
        """A country became schedulable (start of its queue wait)."""
        self._enqueued[country] = at

    def dispatched(
        self,
        worker: str,
        country: str,
        attempt: int,
        at: float,
        queue_depth: int,
    ) -> int:
        """A country was sent to a worker; returns a dispatch token.

        Emits the country's ``queue-wait`` span (enqueue → dispatch)
        and opens the ``dispatch`` round-trip span, which
        :meth:`completed`/:meth:`failed` closes.  ``queue_depth`` is
        the number of countries still waiting after this dispatch.
        """
        waited_since = self._enqueued.pop(country, None)
        if waited_since is not None and at > waited_since:
            self._events.append(
                (
                    "queue-wait",
                    waited_since,
                    at,
                    None,
                    {"country": country, "attempt": attempt},
                    "ok",
                    None,
                )
            )
        self._queue_depths.append(queue_depth)
        token = len(self._events)
        self._events.append(
            (
                "dispatch",
                at,
                None,  # closed by completed()/failed()
                None,
                {"worker": worker, "country": country, "attempt": attempt},
                "ok",
                None,
            )
        )
        return token

    def _close_dispatch(
        self, token: int, end: float, status: str, error: str | None
    ) -> None:
        name, start, _end, parent, attrs, _status, _error = self._events[token]
        self._events[token] = (name, start, end, parent, attrs, status, error)

    def completed(self, token: int, at: float, timings: dict | None) -> None:
        """A dispatched country returned a result.

        ``timings`` is the worker-side clock readings shipped back over
        the pipe: ``{"recv": t, "build": (t0, t1) | None,
        "measure": (t0, t1), "send": t}``.  Build and measure become
        children of the dispatch span; the uncovered remainder of the
        round trip is IPC + scheduling cost, deliberately left as the
        dispatch span's own time.
        """
        self._close_dispatch(token, at, "ok", None)
        if not timings:
            return
        attrs = self._events[token][4]
        worker = attrs["worker"]
        build = timings.get("build")
        if build is not None:
            self.world_built(worker, build[0], build[1], parent=token)
        measure = timings.get("measure")
        if measure is not None:
            self._events.append(
                (
                    "compute",
                    measure[0],
                    measure[1],
                    token,
                    {"worker": worker, "country": attrs["country"]},
                    "ok",
                    None,
                )
            )

    def failed(self, token: int, at: float, reason: str) -> None:
        """A dispatched country failed (crash / error / timeout)."""
        self._close_dispatch(token, at, "error", reason)

    def backoff(
        self, country: str, reason: str, start: float, ready_at: float
    ) -> None:
        """A failed country is waiting out its resubmission delay."""
        if ready_at > start:
            self._events.append(
                (
                    "backoff",
                    start,
                    ready_at,
                    None,
                    {"country": country, "reason": reason},
                    "ok",
                    None,
                )
            )
        self.enqueued(country, ready_at)

    def computed(
        self, country: str, start: float, end: float, worker: str = "main"
    ) -> None:
        """One country was measured inline (the ``workers<=1`` path)."""
        self._events.append(
            (
                "compute",
                start,
                end,
                None,
                {"worker": worker, "country": country},
                "ok",
                None,
            )
        )

    def merged(self, start: float, end: float) -> None:
        """The sorted-country merge/stitch phase ran."""
        self._merge = (start, end)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finish(self) -> tuple[list[Span], dict]:
        """Close the campaign and return ``(spans, metrics payload)``.

        Spans are rows with campaign-relative wall-clock timestamps;
        the payload is a metrics-registry export holding the
        worker-utilization, queue-depth, queue-wait and
        phase-attribution families.  Idempotent: the first call
        freezes the campaign end.
        """
        if self._finished is not None:
            return self._finished
        end = self.wall()
        if self._merge is not None:
            self._events.append(
                ("merge", self._merge[0], self._merge[1], None, {}, "ok", None)
            )
            end = max(end, self._merge[1])
        spans = self._build_spans(end)
        payload = self._build_metrics(spans)
        self._finished = (spans, payload)
        return self._finished

    def _build_spans(self, end: float) -> list[Span]:
        t0 = self._t0

        def rel(t: float) -> float:
            return round(max(t - t0, 0.0), 6)

        spans: list[Span] = []

        def emit(
            name: str,
            start: float,
            stop: float,
            parent_id: int | None,
            attrs: dict,
            status: str,
            error: str | None,
        ) -> int:
            span_id = len(spans) + 1
            duration = max(stop - start, 0.0)
            spans.append(
                Span(
                    attrs=attrs,
                    error=error,
                    logical_seconds=round(duration, 6),
                    name=name,
                    parent_id=parent_id,
                    span_id=span_id,
                    start_logical=rel(start),
                    status=status,
                    wall_ms=duration * 1000.0,
                )
            )
            return span_id

        root = emit("campaign", t0, end, None, {}, "ok", None)
        #: event index -> emitted span id (for dispatch parenting).
        ids: dict[int, int] = {}
        # Two passes: parents (parent_key None) first, then children of
        # dispatch events, so parent ids exist when children emit.
        for index, event in enumerate(self._events):
            name, start, stop, parent, attrs, status, error = event
            if parent is not None:
                continue
            ids[index] = emit(
                name,
                start,
                stop if stop is not None else end,
                root,
                attrs,
                status,
                error,
            )
        for index, event in enumerate(self._events):
            name, start, stop, parent, attrs, status, error = event
            if parent is None:
                continue
            ids[index] = emit(
                name,
                start,
                stop if stop is not None else end,
                ids.get(parent, root),
                attrs,
                status,
                error,
            )
        return spans

    def _build_metrics(self, spans: list[Span]) -> dict:
        accounting = lifecycle_accounting(spans)
        assert accounting is not None  # _build_spans always emits the root
        wall, workers, phases, queue_wait = accounting
        registry = MetricsRegistry()
        registry.gauge(
            "repro_campaign_wall_seconds",
            "campaign wall-clock duration as seen by the profiler",
        ).set(wall)
        worker_gauges = {
            key: registry.gauge(name, help, ("worker",))
            for key, name, help in (
                ("busy", "repro_worker_busy_seconds",
                 "wall-clock seconds each worker spent holding a "
                 "dispatched country (for main: inline compute, World "
                 "build, zone warm-up and merge)"),
                ("idle", "repro_worker_idle_seconds",
                 "wall-clock seconds each worker sat idle between spawn "
                 "and campaign end (campaign wall - spawn - busy)"),
                ("spawn", "repro_worker_spawn_seconds",
                 "wall-clock seconds spent starting each worker process"),
                ("world_build", "repro_world_build_seconds",
                 "wall-clock seconds spent building the World, per "
                 "process"),
            )
        }
        tasks_counter = registry.counter(
            "repro_worker_tasks_total",
            "country dispatches handled per worker",
            ("worker",),
        )
        for worker in sorted(workers):
            entry = workers[worker]
            for key, gauge in worker_gauges.items():
                gauge.set(entry[key], worker=worker)
            tasks_counter.inc(entry["tasks"], worker=worker)

        phase_gauge = registry.gauge(
            "repro_phase_seconds",
            "wall-clock seconds attributed to each campaign phase "
            "(overlapping phases sum independently; this is "
            "attribution, not a partition)",
            ("phase",),
        )
        for phase in sorted(phases):
            phase_gauge.set(phases[phase], phase=phase)
        wait_gauge = registry.gauge(
            "repro_queue_wait_seconds",
            "wall-clock seconds a country waited for a worker, over "
            "dispatches (nearest-rank p50, p95 and max)",
            ("stat",),
        )
        for stat, seconds in queue_wait.items():
            wait_gauge.set(seconds, stat=stat)

        depth_hist = registry.histogram(
            "repro_queue_depth",
            "countries still waiting for a worker, observed at each "
            "dispatch",
            buckets=QUEUE_DEPTH_BUCKETS,
        )
        for depth in self._queue_depths:
            depth_hist.observe(depth)
        registry.gauge(
            "repro_queue_depth_peak",
            "largest observed dispatch-time queue depth",
        ).set(max(self._queue_depths, default=0))
        return registry.to_dict()
