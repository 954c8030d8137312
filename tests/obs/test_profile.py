"""Unit tests for the campaign profiler (fake wall clock)."""

from __future__ import annotations

from repro.obs.profile import PROFILE_SPAN_NAMES, CampaignProfiler
from repro.obs.spans import Span


class _Wall:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _by_name(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def _gauge(payload: dict, name: str) -> dict:
    samples = payload["metrics"][name]["samples"]
    if not samples or any(s["labels"] for s in samples):
        return {
            tuple(s["labels"].values()): s["value"] for s in samples
        }
    return {(): samples[0]["value"]}


class TestSupervisedLifecycle:
    def _profiled_round_trip(self) -> tuple[list[Span], dict, _Wall]:
        wall = _Wall()
        profiler = CampaignProfiler(wall=wall)
        profiler.enqueued("TH", 0.0)
        profiler.enqueued("US", 0.0)
        wall.now = 1.0
        profiler.worker_spawned("w0", 0.0, 1.0)
        token_th = profiler.dispatched("w0", "TH", 1, 1.0, 1)
        wall.now = 5.0
        profiler.completed(
            token_th,
            5.0,
            {
                "recv": 1.5,
                "build": (1.5, 2.5),
                "measure": (2.5, 4.5),
                "send": 4.6,
            },
        )
        token_us = profiler.dispatched("w0", "US", 1, 5.0, 0)
        wall.now = 8.0
        profiler.completed(
            token_us,
            8.0,
            {"recv": 5.2, "build": None, "measure": (5.2, 7.8), "send": 7.9},
        )
        profiler.merged(8.0, 9.0)
        wall.now = 9.0
        spans, payload = profiler.finish()
        return spans, payload, wall

    def test_span_shapes_match_tracer_dicts(self) -> None:
        spans, _payload, _wall = self._profiled_round_trip()
        expected_keys = {
            "span_id",
            "parent_id",
            "name",
            "attrs",
            "start_logical",
            "logical_seconds",
            "wall_ms",
            "status",
            "error",
        }
        for span in spans:
            assert type(span) is Span
            assert set(span._fields) == expected_keys
            assert span.name in PROFILE_SPAN_NAMES

    def test_hierarchy(self) -> None:
        spans, _payload, _wall = self._profiled_round_trip()
        (root,) = _by_name(spans, "campaign")
        assert root.span_id == 1
        assert root.parent_id is None
        assert root.logical_seconds == 9.0
        for name in ("worker-spawn", "queue-wait", "backoff", "merge"):
            for span in _by_name(spans, name):
                assert span.parent_id == root.span_id
        dispatches = _by_name(spans, "dispatch")
        assert [d.attrs["country"] for d in dispatches] == ["TH", "US"]
        assert all(d.parent_id == root.span_id for d in dispatches)
        # Worker-side intervals nest under their dispatch.
        (build,) = _by_name(spans, "world-build")
        th_dispatch = dispatches[0]
        assert build.parent_id == th_dispatch.span_id
        computes = _by_name(spans, "compute")
        assert len(computes) == 2
        assert {c.parent_id for c in computes} == {
            d.span_id for d in dispatches
        }

    def test_queue_wait_spans(self) -> None:
        spans, _payload, _wall = self._profiled_round_trip()
        waits = _by_name(spans, "queue-wait")
        # TH waited 0->1 (spawn), US waited 0->5 (worker busy with TH).
        assert [
            (w.attrs["country"], w.logical_seconds) for w in waits
        ] == [("TH", 1.0), ("US", 5.0)]

    def test_utilization_sums_to_wall(self) -> None:
        _spans, payload, _wall = self._profiled_round_trip()
        wall = _gauge(payload, "repro_campaign_wall_seconds")[()]
        assert wall == 9.0
        busy = _gauge(payload, "repro_worker_busy_seconds")
        idle = _gauge(payload, "repro_worker_idle_seconds")
        spawn = _gauge(payload, "repro_worker_spawn_seconds")
        for worker in busy:
            assert (
                abs(busy[worker] + idle[worker] + spawn[worker] - wall)
                < 1e-6
            )
        # w0 held dispatches 1->5 and 5->8: 7 s busy, 1 s spawning.
        assert busy[("w0",)] == 7.0
        assert spawn[("w0",)] == 1.0
        assert idle[("w0",)] == 1.0

    def test_phase_and_queue_metrics(self) -> None:
        _spans, payload, _wall = self._profiled_round_trip()
        phases = _gauge(payload, "repro_phase_seconds")
        assert phases[("compute",)] == 2.0 + 2.6
        assert phases[("world-build",)] == 1.0
        assert phases[("merge",)] == 1.0
        # Dispatch overhead = round trips minus worker-side intervals.
        assert abs(phases[("dispatch-overhead",)] - (7.0 - 5.6)) < 1e-6
        depth = payload["metrics"]["repro_queue_depth"]["samples"][0]
        assert depth["count"] == 2
        assert _gauge(payload, "repro_queue_depth_peak")[()] == 1

    def test_finish_is_idempotent(self) -> None:
        wall = _Wall()
        profiler = CampaignProfiler(wall=wall)
        wall.now = 3.0
        first = profiler.finish()
        wall.now = 99.0
        assert profiler.finish() is first


class TestFailurePaths:
    def test_failed_dispatch_marks_error(self) -> None:
        wall = _Wall()
        profiler = CampaignProfiler(wall=wall)
        profiler.enqueued("TH", 0.0)
        token = profiler.dispatched("w0", "TH", 1, 0.0, 0)
        profiler.failed(token, 2.0, "crash")
        profiler.backoff("TH", "crash", 2.0, 2.5)
        token = profiler.dispatched("w0", "TH", 2, 3.0, 0)
        profiler.completed(
            token, 4.0, {"measure": (3.1, 3.9)}
        )
        wall.now = 4.0
        spans, _payload = profiler.finish()
        first, second = _by_name(spans, "dispatch")
        assert first.status == "error"
        assert first.error == "crash"
        assert second.status == "ok"
        (backoff,) = _by_name(spans, "backoff")
        assert backoff.logical_seconds == 0.5
        # The retry's queue wait starts when the backoff ends.
        (wait,) = [
            w
            for w in _by_name(spans, "queue-wait")
            if w.attrs["attempt"] == 2
        ]
        assert wait.start_logical == 2.5
        assert wait.logical_seconds == 0.5

    def test_open_dispatch_is_closed_at_campaign_end(self) -> None:
        wall = _Wall()
        profiler = CampaignProfiler(wall=wall)
        profiler.enqueued("TH", 0.0)
        profiler.dispatched("w0", "TH", 1, 0.0, 0)
        wall.now = 6.0
        spans, _payload = profiler.finish()
        (dispatch,) = _by_name(spans, "dispatch")
        assert dispatch.logical_seconds == 6.0


class TestSerialPath:
    def test_inline_computes_count_as_main_busy(self) -> None:
        wall = _Wall()
        profiler = CampaignProfiler(wall=wall)
        profiler.world_built("main", 0.0, 1.0)
        profiler.computed("TH", 1.0, 3.0)
        profiler.computed("US", 3.0, 6.0)
        profiler.merged(6.0, 7.0)
        wall.now = 7.0
        spans, payload = profiler.finish()
        computes = _by_name(spans, "compute")
        (root,) = _by_name(spans, "campaign")
        assert all(c.parent_id == root.span_id for c in computes)
        busy = _gauge(payload, "repro_worker_busy_seconds")
        # build 1 + computes 5 + merge 1 = fully busy for 7 s.
        assert busy[("main",)] == 7.0
        idle = _gauge(payload, "repro_worker_idle_seconds")
        assert idle[("main",)] == 0.0
