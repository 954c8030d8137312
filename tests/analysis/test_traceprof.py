"""Tests for trace profiling: timelines, critical path, Amdahl."""

from __future__ import annotations

import json

from repro.analysis.traceprof import (
    amdahl_decomposition,
    analyze_trace,
    chrome_trace,
    critical_path,
    render_critical_path,
    render_trace_summary,
    worker_timelines,
)
from repro.obs.spans import Span


def _span(
    span_id: int,
    name: str,
    start: float,
    seconds: float,
    parent_id: int | None = None,
    **attrs: object,
) -> Span:
    return Span(
        attrs=attrs,
        error=None,
        logical_seconds=seconds,
        name=name,
        parent_id=parent_id,
        span_id=span_id,
        start_logical=start,
        status="ok",
        wall_ms=seconds * 1000.0,
    )


def _sharded_trace() -> list[Span]:
    """A hand-built two-worker campaign with known timings.

    Wall clock 10 s: spawn 0-1 (both workers), w0 runs TH 1-5 then
    US 5-8, w1 runs BR 1-7, merge 9-10.  The campaign end waits on
    the merge; before it there is a 1 s scheduler gap (8-9... but BR
    ends at 7, US at 8) — the walk descends into the latest-ending
    work at each cursor.
    """
    spans = [
        _span(1, "campaign", 0.0, 10.0),
        _span(2, "worker-spawn", 0.0, 1.0, 1, worker="w0"),
        _span(3, "worker-spawn", 0.0, 1.0, 1, worker="w1"),
        _span(4, "queue-wait", 0.0, 1.0, 1, country="TH", attempt=1),
        _span(5, "dispatch", 1.0, 4.0, 1, worker="w0", country="TH", attempt=1),
        _span(6, "world-build", 1.2, 1.0, 5, worker="w0"),
        _span(7, "compute", 2.2, 2.5, 5, worker="w0", country="TH"),
        _span(8, "queue-wait", 0.0, 1.0, 1, country="BR", attempt=1),
        _span(9, "dispatch", 1.0, 6.0, 1, worker="w1", country="BR", attempt=1),
        _span(10, "world-build", 1.2, 1.1, 9, worker="w1"),
        _span(11, "compute", 2.3, 4.5, 9, worker="w1", country="BR"),
        _span(12, "queue-wait", 0.0, 5.0, 1, country="US", attempt=1),
        _span(13, "dispatch", 5.0, 3.0, 1, worker="w0", country="US", attempt=1),
        _span(14, "compute", 5.1, 2.7, 13, worker="w0", country="US"),
        _span(15, "merge", 9.0, 1.0, 1),
    ]
    # A few pipeline-layer spans riding in the same trace.
    spans += [
        _span(16, "site", 0.0, 2.0, None, domain="a.th", country="TH"),
        _span(17, "resolve", 0.0, 1.5, 16),
        _span(18, "tls", 1.5, 0.5, 16),
    ]
    return spans


class TestWorkerTimelines:
    def test_busy_spawn_idle_partition_wall(self) -> None:
        timelines = worker_timelines(_sharded_trace())
        assert set(timelines) == {"w0", "w1", "main"}
        w0 = timelines["w0"]
        assert w0["busy"] == 7.0  # TH 4 s + US 3 s round trips
        assert w0["spawn"] == 1.0
        assert w0["idle"] == 2.0
        assert w0["tasks"] == 2
        assert w0["busy_frac"] == 0.7
        w1 = timelines["w1"]
        assert w1["busy"] == 6.0
        assert w1["idle"] == 3.0
        for entry in timelines.values():
            assert entry["busy"] + entry["idle"] + entry["spawn"] == 10.0

    def test_segments_are_task_intervals(self) -> None:
        timelines = worker_timelines(_sharded_trace())
        assert timelines["w0"]["segments"] == [
            (1.0, 5.0, "TH"),
            (5.0, 8.0, "US"),
        ]

    def test_world_build_attributed_per_worker(self) -> None:
        timelines = worker_timelines(_sharded_trace())
        assert timelines["w0"]["world_build"] == 1.0
        assert timelines["w1"]["world_build"] == 1.1

    def test_empty_without_lifecycle_spans(self) -> None:
        pipeline_only = [s for s in _sharded_trace() if s.span_id >= 16]
        assert worker_timelines(pipeline_only) == {}


class TestCriticalPath:
    def test_segments_partition_wall_clock(self) -> None:
        segments = critical_path(_sharded_trace())
        assert sum(s["seconds"] for s in segments) == 10.0
        # Segments tile [0, 10] with no gaps or overlaps.
        cursor = 0.0
        for segment in segments:
            assert segment["start"] == cursor
            cursor += segment["seconds"]
        assert cursor == 10.0

    def test_walk_descends_into_latest_ending_child(self) -> None:
        segments = critical_path(_sharded_trace())
        names = [s["name"] for s in segments]
        # End of campaign waits on merge (9-10); the 8-9 gap belongs
        # to the campaign root (scheduler idle); before that the US
        # dispatch/compute chain, and so on back to the queue wait.
        assert names[-1] == "merge"
        assert "campaign" in names
        assert "compute" in names
        us_segments = [
            s for s in segments if s["attrs"].get("country") == "US"
        ]
        assert us_segments, "US chain bounds the 5-8 window"

    def test_zero_duration_children_terminate(self) -> None:
        spans = [
            _span(1, "campaign", 0.0, 5.0),
            _span(2, "merge", 5.0, 0.0, 1),
            _span(3, "compute", 0.0, 5.0, 1, worker="main", country="TH"),
        ]
        segments = critical_path(spans)
        assert sum(s["seconds"] for s in segments) == 5.0

    def test_empty_without_lifecycle_spans(self) -> None:
        assert critical_path([_span(1, "site", 0.0, 1.0)]) == []


class TestAmdahl:
    def test_overlap_sweep(self) -> None:
        result = amdahl_decomposition(_sharded_trace())
        assert result is not None
        # Work intervals: w0 build 1.2-2.2, compute 2.2-4.7; w1 build
        # 1.2-2.3, compute 2.3-6.8; US compute 5.1-7.8.  >= 2 overlap
        # during 1.2-4.7 and 5.1-6.8 -> 5.2 s parallel.
        assert abs(result["parallel_seconds"] - 5.2) < 1e-6
        assert abs(result["serial_seconds"] - 4.8) < 1e-6
        assert result["serial_fraction"] == 0.48
        bound_2 = result["speedup_bounds"]["2"]
        assert bound_2 == round(1.0 / (0.48 + 0.52 / 2), 2)
        # Bounds grow with worker count but never beyond 1/s.
        bounds = [
            result["speedup_bounds"][str(n)] for n in (2, 4, 8, 16)
        ]
        assert bounds == sorted(bounds)
        assert bounds[-1] <= 1.0 / 0.48

    def test_none_without_lifecycle_spans(self) -> None:
        assert amdahl_decomposition([_span(1, "site", 0.0, 1.0)]) is None


class TestAnalyzeTrace:
    def test_full_profile(self) -> None:
        profile = analyze_trace(_sharded_trace())
        assert profile.has_profile
        assert profile.wall_seconds == 10.0
        assert profile.pipeline_span_count == 3
        assert profile.profile_span_count == 15
        assert profile.pipeline_stage_seconds == {
            "site": 2.0,
            "resolve": 1.5,
            "tls": 0.5,
        }
        assert profile.phases["dispatch"] == 13.0
        assert "campaign" not in profile.phases
        assert sum(profile.critical_phases.values()) == 10.0

    def test_queue_wait_is_a_distribution_not_a_phase(self) -> None:
        profile = analyze_trace(_sharded_trace())
        # Waits of 1, 1 and 5 s over three dispatches (nearest rank).
        assert profile.queue_wait == {"p50": 1.0, "p95": 5.0, "max": 5.0}
        assert "queue-wait" not in profile.phases
        assert profile.to_dict()["queue_wait"] == profile.queue_wait
        summary = render_trace_summary(profile)
        assert "p50 1.000 s   p95 5.000 s   max 5.000 s" in summary

    def test_graceful_on_pipeline_only_trace(self) -> None:
        profile = analyze_trace(
            [_span(1, "site", 0.0, 2.0), _span(2, "resolve", 0.0, 1.0, 1)]
        )
        assert not profile.has_profile
        assert profile.wall_seconds == 0.0
        assert profile.workers == {}
        assert profile.critical == []
        assert profile.amdahl is None
        assert profile.pipeline_stage_seconds == {
            "site": 2.0,
            "resolve": 1.0,
        }

    def test_to_dict_is_json_ready_and_drops_segments(self) -> None:
        payload = analyze_trace(_sharded_trace()).to_dict()
        encoded = json.dumps(payload)  # must not raise
        decoded = json.loads(encoded)
        assert "segments" not in decoded["workers"]["w0"]
        assert decoded["critical_phases"]["merge"] == 1.0


class TestChromeTrace:
    def test_two_process_groups(self) -> None:
        trace = chrome_trace(_sharded_trace())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["ph"] for e in events} == {"M", "X"}
        assert len(spans) == 18
        pids = {e["pid"] for e in spans}
        assert pids == {1, 2}
        process_names = {
            e["args"]["name"]
            for e in metadata
            if e["name"] == "process_name"
        }
        assert process_names == {
            "campaign (wall clock)",
            "pipeline (logical clock)",
        }

    def test_timestamps_in_microseconds(self) -> None:
        trace = chrome_trace(_sharded_trace())
        merge = next(
            e for e in trace["traceEvents"] if e.get("name") == "merge"
        )
        assert merge["ts"] == 9_000_000.0
        assert merge["dur"] == 1_000_000.0

    def test_pipeline_threads_grouped_by_country(self) -> None:
        trace = chrome_trace(_sharded_trace())
        events = [
            e
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 2
        ]
        # All three pipeline spans resolve to country TH (resolve and
        # tls inherit it through their parent chain) -> one thread.
        assert len({e["tid"] for e in events}) == 1
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 2
        }
        assert names == {"TH"}


class TestRendering:
    def test_summary_sections(self) -> None:
        text = render_trace_summary(analyze_trace(_sharded_trace()))
        assert "## Campaign (10.000 s wall clock)" in text
        assert "## Critical path" in text
        assert "## Amdahl decomposition" in text
        assert "w0" in text and "w1" in text

    def test_summary_without_profile(self) -> None:
        text = render_trace_summary(
            analyze_trace([_span(1, "site", 0.0, 1.0)])
        )
        assert "no campaign lifecycle spans" in text

    def test_critical_path_report_caps_at_top(self) -> None:
        profile = analyze_trace(_sharded_trace())
        text = render_critical_path(profile, top=2)
        assert "not shown" in text
        full = render_critical_path(profile, top=100)
        assert "not shown" not in full
