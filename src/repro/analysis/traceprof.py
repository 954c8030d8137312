"""Trace profiling: turning a campaign trace into perf numbers.

The campaign trace written by ``repro measure --trace-out`` holds two
layers in one JSONL file: per-site *pipeline* spans (logical-clock
stage timings: site/http/resolve/label/ns-walk/tls/enrich) and, when
the run was profiled, campaign *lifecycle* spans
(:data:`~repro.obs.profile.PROFILE_SPAN_NAMES`: worker spawn, World
build, queue wait, dispatch round-trips, compute, backoff, merge —
wall-clock, campaign-relative).  This module reads that file back into
the three artifacts the "make parallelism pay" roadmap item needs:

* **worker timelines** — per-worker busy/idle/spawn seconds and the
  task segments behind them, so "0.87x speedup at 4 workers" becomes
  "each worker was idle 60% of the campaign";
* **the critical path** — the single chain of spans that bounds the
  campaign's wall clock, extracted by walking back from the campaign
  end and descending into whichever child span ends latest; the
  resulting segments partition the campaign exactly, so their
  per-phase sums equal the measured wall clock by construction;
* **an empirical Amdahl decomposition** — a concurrency sweep over
  the work intervals (compute + World build): time with >= 2 overlapping
  work spans is the parallel section, the rest of the campaign is
  serial, and ``1 / (s + p/N)`` bounds any speedup more workers could
  buy.

Everything degrades gracefully on a trace with no lifecycle spans
(an unsharded or pre-profiling trace): the pipeline-stage aggregation
still works and the profile-only sections report as absent.

:func:`chrome_trace` exports the same spans as Chrome ``trace_event``
JSON (Perfetto-loadable): one process group for the campaign's wall
clock (a track per worker) and one for the pipeline's logical clock
(a track per country).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.profile import PROFILE_SPAN_NAMES, lifecycle_accounting
from ..obs.spans import Span

__all__ = [
    "TraceProfile",
    "analyze_trace",
    "critical_path",
    "amdahl_decomposition",
    "worker_timelines",
    "chrome_trace",
    "render_trace_summary",
    "render_critical_path",
]

#: Slack for float comparisons between span bounds: trace timestamps
#: are rounded to microseconds on export, so a child may overhang its
#: parent by up to 1e-6 s.
_EPS = 2e-6


def _end(span: Span) -> float:
    return span.start_logical + span.logical_seconds


def _split(spans: list[Span]) -> tuple[list[Span], list[Span]]:
    """``(pipeline spans, lifecycle spans)`` of one loaded trace."""
    pipeline: list[Span] = []
    profile: list[Span] = []
    for span in spans:
        (profile if span.name in PROFILE_SPAN_NAMES else pipeline).append(
            span
        )
    return pipeline, profile


def _campaign_root(profile: list[Span]) -> Span | None:
    for span in profile:
        if span.name == "campaign":
            return span
    return None


def worker_timelines(spans: list[Span]) -> dict[str, dict]:
    """Per-worker utilization: busy/idle/spawn seconds and segments.

    The ``workers`` part of
    :func:`~repro.obs.profile.lifecycle_accounting`, which also renders
    ``--profile-out``, so both artifacts report the same figures.
    Empty when the trace has no lifecycle spans.
    """
    accounting = lifecycle_accounting(spans)
    return accounting[1] if accounting is not None else {}


def critical_path(spans: list[Span]) -> list[dict]:
    """The chain of spans bounding the campaign's wall clock.

    Walks backward from the campaign root's end: at each cursor the
    latest-ending lifecycle child still at or before the cursor is
    the span the campaign was waiting on; the walk descends into it,
    and any gap between children is attributed to the parent
    (coordination/IPC at the dispatch level, scheduler idle at the
    campaign level).  The returned segments — ``{"name", "start",
    "seconds", "attrs"}`` in start order — partition the campaign
    interval exactly, so summing ``seconds`` by ``name`` reproduces
    the measured wall clock.  Empty when the trace has no lifecycle
    spans.
    """
    _pipeline, profile = _split(spans)
    root = _campaign_root(profile)
    if root is None:
        return []
    children: dict[int, list[Span]] = {}
    for span in profile:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    segments: list[tuple[float, float, Span]] = []

    def walk(span: Span, lo: float, hi: float) -> None:
        cursor = hi
        # Children sorted by end; the index walks down as the cursor
        # recedes, so every child is considered at most once — which
        # both bounds the walk at O(n) per parent and guarantees
        # termination when zero-duration children sit exactly at the
        # cursor.
        kids = sorted(children.get(span.span_id, ()), key=_end)
        index = len(kids) - 1
        while cursor > lo + _EPS:
            while index >= 0 and _end(kids[index]) > cursor + _EPS:
                index -= 1
            if index < 0 or min(_end(kids[index]), cursor) <= lo + _EPS:
                segments.append((lo, cursor, span))
                return
            best = kids[index]
            index -= 1
            best_end = min(_end(best), cursor)
            if cursor > best_end + _EPS:
                segments.append((best_end, cursor, span))
            best_start = max(best.start_logical, lo)
            walk(best, best_start, best_end)
            cursor = best_start

    walk(root, root.start_logical, _end(root))
    segments.sort(key=lambda seg: seg[0])
    return [
        {
            "name": span.name,
            "start": round(start, 6),
            "seconds": round(stop - start, 6),
            "attrs": span.attrs,
        }
        for start, stop, span in segments
        if stop - start > 0
    ]


def amdahl_decomposition(
    spans: list[Span], worker_counts: tuple[int, ...] = (2, 4, 8, 16)
) -> dict | None:
    """Empirical serial/parallel split plus speedup bounds.

    Sweeps the work intervals (``compute`` and ``world-build``
    lifecycle spans) counting how many overlap at each instant: the
    campaign time covered by >= 2 concurrent work spans is the
    *parallel section*, everything else (single-threaded work, IPC,
    spawn, merge, idle) is the *serial section*.  With serial
    fraction ``s``, Amdahl's law caps any speedup at
    ``1 / (s + (1 - s) / N)`` — reported per requested worker count.
    None when the trace has no lifecycle spans or zero wall clock.
    """
    _pipeline, profile = _split(spans)
    root = _campaign_root(profile)
    if root is None:
        return None
    wall = root.logical_seconds
    if wall <= 0:
        return None
    events: list[tuple[float, int]] = []
    for span in profile:
        if span.name in ("compute", "world-build"):
            events.append((span.start_logical, 1))
            events.append((_end(span), -1))
    events.sort()
    parallel = 0.0
    depth = 0
    previous = root.start_logical
    for at, delta in events:
        if depth >= 2:
            parallel += at - previous
        previous = at
        depth += delta
    parallel = min(parallel, wall)
    serial_fraction = max(1.0 - parallel / wall, 0.0)
    return {
        "wall_seconds": round(wall, 6),
        "serial_seconds": round(wall - parallel, 6),
        "parallel_seconds": round(parallel, 6),
        "serial_fraction": round(serial_fraction, 4),
        "speedup_bounds": {
            str(n): round(
                1.0 / (serial_fraction + (1.0 - serial_fraction) / n), 2
            )
            for n in worker_counts
        },
    }


@dataclass(frozen=True)
class TraceProfile:
    """Everything :func:`analyze_trace` extracts from one trace."""

    #: Campaign wall clock (0 when the trace has no lifecycle spans).
    wall_seconds: float
    #: Whether the trace carried campaign lifecycle spans at all.
    has_profile: bool
    #: Per-worker utilization (:func:`worker_timelines`).
    workers: dict[str, dict] = field(default_factory=dict)
    #: Total seconds per lifecycle phase name plus
    #: ``dispatch-overhead`` (overlap-counting attribution, not a
    #: partition; the ``repro_phase_seconds`` figures of the profile).
    phases: dict[str, float] = field(default_factory=dict)
    #: Queue wait over dispatches: nearest-rank ``p50``, ``p95`` and
    #: ``max`` seconds (the ``repro_queue_wait_seconds`` figures of the
    #: profile; empty when nothing was dispatched).
    queue_wait: dict[str, float] = field(default_factory=dict)
    #: Critical-path segments (:func:`critical_path`).
    critical: list[dict] = field(default_factory=list)
    #: Critical-path seconds summed by phase name — a partition of
    #: ``wall_seconds``.
    critical_phases: dict[str, float] = field(default_factory=dict)
    #: Amdahl decomposition (:func:`amdahl_decomposition`) or None.
    amdahl: dict | None = None
    #: Logical-clock seconds per pipeline stage name.
    pipeline_stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Span counts.
    pipeline_span_count: int = 0
    profile_span_count: int = 0

    def to_dict(self) -> dict:
        """A JSON-ready rendering (the ``--json`` output)."""
        return {
            "wall_seconds": self.wall_seconds,
            "has_profile": self.has_profile,
            "workers": {
                label: {
                    key: value
                    for key, value in entry.items()
                    if key != "segments"
                }
                for label, entry in self.workers.items()
            },
            "phases": self.phases,
            "queue_wait": self.queue_wait,
            "critical_path": self.critical,
            "critical_phases": self.critical_phases,
            "amdahl": self.amdahl,
            "pipeline_stage_seconds": self.pipeline_stage_seconds,
            "pipeline_span_count": self.pipeline_span_count,
            "profile_span_count": self.profile_span_count,
        }


def analyze_trace(spans: list[Span]) -> TraceProfile:
    """Profile one loaded trace (``load_trace`` output)."""
    pipeline, profile = _split(spans)
    accounting = lifecycle_accounting(profile)
    wall, workers, phases, queue_wait = (
        accounting if accounting is not None else (0.0, {}, {}, {})
    )
    stage_seconds: dict[str, float] = {}
    for span in pipeline:
        stage_seconds[span.name] = round(
            stage_seconds.get(span.name, 0.0) + span.logical_seconds,
            6,
        )
    critical = critical_path(spans)
    critical_phases: dict[str, float] = {}
    for segment in critical:
        critical_phases[segment["name"]] = round(
            critical_phases.get(segment["name"], 0.0) + segment["seconds"],
            6,
        )
    return TraceProfile(
        wall_seconds=wall,
        has_profile=accounting is not None,
        workers=workers,
        phases=phases,
        queue_wait=queue_wait,
        critical=critical,
        critical_phases=critical_phases,
        amdahl=amdahl_decomposition(spans),
        pipeline_stage_seconds=stage_seconds,
        pipeline_span_count=len(pipeline),
        profile_span_count=len(profile),
    )


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------

#: Process ids in the Chrome export: one track group per clock domain.
_PID_CAMPAIGN = 1
_PID_PIPELINE = 2


def chrome_trace(spans: list[Span]) -> dict:
    """The trace as Chrome ``trace_event`` JSON (Perfetto-loadable).

    Two process groups: pid 1 is the campaign on the wall clock with
    one thread per worker (lifecycle spans), pid 2 is the pipeline on
    the logical clock with one thread per country (per-site stage
    spans).  All events are complete events (``ph: "X"``) with
    microsecond timestamps; ``M`` metadata events name the processes
    and threads.
    """
    pipeline, profile = _split(spans)
    by_id = {span.span_id: span for span in spans}

    def country_of(span: Span) -> str:
        walker: Span | None = span
        while walker is not None:
            country = walker.attrs.get("country")
            if country is not None:
                return str(country)
            parent = walker.parent_id
            walker = by_id.get(parent) if parent is not None else None
        return "?"

    events: list[dict] = []
    threads: dict[tuple[int, str], int] = {}

    def tid(pid: int, label: str) -> int:
        key = (pid, label)
        if key not in threads:
            threads[key] = len(threads) + 1
        return threads[key]

    for span in profile:
        label = str(span.attrs.get("worker", "main"))
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round(span.start_logical * 1e6, 3),
                "dur": round(span.logical_seconds * 1e6, 3),
                "pid": _PID_CAMPAIGN,
                "tid": tid(_PID_CAMPAIGN, label),
                "args": {
                    str(k): v for k, v in span.attrs.items()
                }
                | {"status": span.status},
            }
        )
    for span in pipeline:
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round(span.start_logical * 1e6, 3),
                "dur": round(span.logical_seconds * 1e6, 3),
                "pid": _PID_PIPELINE,
                "tid": tid(_PID_PIPELINE, country_of(span)),
                "args": {
                    str(k): v for k, v in span.attrs.items()
                }
                | {"status": span.status},
            }
        )
    metadata: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID_CAMPAIGN,
            "tid": 0,
            "args": {"name": "campaign (wall clock)"},
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID_PIPELINE,
            "tid": 0,
            "args": {"name": "pipeline (logical clock)"},
        },
    ]
    for (pid, label), thread in sorted(
        threads.items(), key=lambda item: item[1]
    ):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": thread,
                "args": {"name": label},
            }
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
    }


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------


def render_trace_summary(profile: TraceProfile) -> str:
    """The ``repro trace summarize`` report."""
    lines: list[str] = ["# Trace profile", ""]
    lines.append(
        f"pipeline spans: {profile.pipeline_span_count}   "
        f"lifecycle spans: {profile.profile_span_count}"
    )
    if profile.pipeline_stage_seconds:
        lines.append("")
        lines.append("## Pipeline stages (logical clock)")
        width = max(len(n) for n in profile.pipeline_stage_seconds)
        for name in sorted(
            profile.pipeline_stage_seconds,
            key=lambda n: -profile.pipeline_stage_seconds[n],
        ):
            lines.append(
                f"  {name:<{width}}  "
                f"{profile.pipeline_stage_seconds[name]:>12.6f} s"
            )
    if not profile.has_profile:
        lines.append("")
        lines.append(
            "no campaign lifecycle spans in this trace (run measure "
            "with --trace-out on an instrumented campaign to record "
            "worker timelines)"
        )
        return "\n".join(lines) + "\n"
    lines.append("")
    lines.append(f"## Campaign ({profile.wall_seconds:.3f} s wall clock)")
    lines.append("")
    lines.append(
        f"  {'worker':<8} {'tasks':>5} {'busy s':>9} {'busy %':>7} "
        f"{'idle %':>7} {'spawn s':>8} {'build s':>8}"
    )
    for label in sorted(profile.workers):
        entry = profile.workers[label]
        lines.append(
            f"  {label:<8} {entry['tasks']:>5} {entry['busy']:>9.3f} "
            f"{entry['busy_frac'] * 100:>6.1f}% "
            f"{entry['idle_frac'] * 100:>6.1f}% "
            f"{entry['spawn']:>8.3f} {entry['world_build']:>8.3f}"
        )
    if profile.phases:
        lines.append("")
        lines.append("## Phase attribution (wall clock, overlap-counted)")
        width = max(len(n) for n in profile.phases)
        for name in sorted(profile.phases, key=lambda n: -profile.phases[n]):
            lines.append(
                f"  {name:<{width}}  {profile.phases[name]:>10.3f} s"
            )
    if profile.queue_wait:
        lines.append("")
        lines.append("## Queue wait per dispatch (wall clock)")
        lines.append(
            "  "
            + "   ".join(
                f"{stat} {seconds:.3f} s"
                for stat, seconds in profile.queue_wait.items()
            )
        )
    if profile.critical_phases:
        lines.append("")
        total = sum(profile.critical_phases.values())
        lines.append(
            f"## Critical path ({total:.3f} s — partitions the wall clock)"
        )
        width = max(len(n) for n in profile.critical_phases)
        for name in sorted(
            profile.critical_phases,
            key=lambda n: -profile.critical_phases[n],
        ):
            seconds = profile.critical_phases[name]
            share = seconds / total * 100 if total > 0 else 0.0
            lines.append(
                f"  {name:<{width}}  {seconds:>10.3f} s  {share:>5.1f}%"
            )
    if profile.amdahl is not None:
        lines.append("")
        lines.append("## Amdahl decomposition")
        lines.append(
            f"  serial {profile.amdahl['serial_seconds']:.3f} s / "
            f"parallel {profile.amdahl['parallel_seconds']:.3f} s "
            f"(serial fraction "
            f"{profile.amdahl['serial_fraction'] * 100:.1f}%)"
        )
        bounds = ", ".join(
            f"{n}w <= {bound:.2f}x"
            for n, bound in profile.amdahl["speedup_bounds"].items()
        )
        lines.append(f"  speedup bounds: {bounds}")
    return "\n".join(lines) + "\n"


def render_critical_path(profile: TraceProfile, top: int = 20) -> str:
    """The ``repro trace critical-path`` report: longest segments."""
    if not profile.critical:
        return (
            "no campaign lifecycle spans in this trace; nothing to "
            "walk\n"
        )
    lines = [
        f"# Critical path ({profile.wall_seconds:.3f} s wall clock, "
        f"{len(profile.critical)} segments)",
        "",
    ]
    ranked = sorted(
        profile.critical, key=lambda seg: -seg["seconds"]
    )[:top]
    for segment in ranked:
        attrs = segment["attrs"]
        detail = " ".join(
            f"{key}={attrs[key]}"
            for key in ("worker", "country", "attempt", "reason")
            if key in attrs
        )
        lines.append(
            f"  {segment['start']:>10.3f}s  {segment['seconds']:>9.3f}s  "
            f"{segment['name']:<12} {detail}"
        )
    dropped = len(profile.critical) - len(ranked)
    if dropped > 0:
        lines.append(f"  ... {dropped} shorter segments not shown")
    return "\n".join(lines) + "\n"
