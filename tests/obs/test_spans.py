"""Tests for the span tracer."""

from __future__ import annotations

import json

import pytest

from repro.errors import TraceFormatError
from repro.obs import TRACE_SCHEMA, Tracer, load_trace, write_spans_jsonl


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTracer:
    def test_nesting_records_parent_ids(self) -> None:
        tracer = Tracer()
        with tracer.span("site") as site:
            with tracer.span("resolve") as resolve:
                pass
            with tracer.span("tls") as tls:
                pass
        assert site.span_id == 1
        assert site.parent_id is None
        assert resolve.parent_id == site.span_id
        assert tls.parent_id == site.span_id
        # Children finish before the parent.
        names = [s.name for s in tracer.finished()]
        assert names == ["resolve", "tls", "site"]

    def test_logical_durations_use_injected_clock(self) -> None:
        clock = _Clock()
        tracer = Tracer(clock=clock)
        with tracer.span("stage"):
            clock.now = 2.5
        (span,) = tracer.finished()
        assert span.start_logical == 0.0
        assert span.logical_seconds == 2.5

    def test_error_status_and_propagation(self) -> None:
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("stage"):
                raise RuntimeError("boom")
        (span,) = tracer.finished()
        assert span.status == "error"
        assert span.error == "RuntimeError: boom"

    def test_attrs_recorded(self) -> None:
        tracer = Tracer()
        with tracer.span("site", domain="a.com", country="TH"):
            pass
        (span,) = tracer.finished()
        assert span.attrs == {"domain": "a.com", "country": "TH"}

    def test_active_tracks_innermost(self) -> None:
        tracer = Tracer()
        assert tracer.active is None
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert tracer.active.name == "inner"
            assert tracer.active.name == "outer"
        assert tracer.active is None


class TestJsonl:
    def test_write_and_load_round_trip(self, tmp_path) -> None:
        clock = _Clock()
        tracer = Tracer(clock=clock)
        with tracer.span("site", domain="x.th"):
            clock.now = 1.0
            with tracer.span("resolve"):
                clock.now = 3.0
        path = tmp_path / "trace.jsonl"
        spans = [span.to_dict() for span in tracer.finished()]
        assert write_spans_jsonl(spans, path) == 2
        # Every line is standalone JSON: a schema header, then spans.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        header = json.loads(lines[0])
        assert header == {"_schema": TRACE_SCHEMA}
        parsed = [json.loads(line) for line in lines[1:]]
        assert parsed[0]["name"] == "resolve"
        assert parsed[0]["logical_seconds"] == 2.0
        assert parsed[1]["attrs"] == {"domain": "x.th"}
        # load_trace drops the header and returns only spans.
        assert load_trace(path) == parsed

    def test_wall_ms_present_and_nonnegative(self, tmp_path) -> None:
        tracer = Tracer()
        with tracer.span("stage"):
            pass
        path = tmp_path / "t.jsonl"
        write_spans_jsonl([s.to_dict() for s in tracer.finished()], path)
        (span,) = load_trace(path)
        assert span["wall_ms"] >= 0.0


class TestTraceSchema:
    def _span_line(self) -> str:
        return json.dumps(
            {
                "span_id": 1,
                "parent_id": None,
                "name": "site",
                "attrs": {},
                "start_logical": 0.0,
                "logical_seconds": 1.0,
                "wall_ms": 1.0,
                "status": "ok",
                "error": None,
            }
        )

    def test_headerless_file_is_accepted_as_legacy(self, tmp_path) -> None:
        path = tmp_path / "legacy.jsonl"
        path.write_text(self._span_line() + "\n")
        (span,) = load_trace(path)
        assert span["name"] == "site"

    def test_wrong_schema_version_always_raises(self, tmp_path) -> None:
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"_schema": "repro-trace-v99"})
            + "\n"
            + self._span_line()
            + "\n"
        )
        with pytest.raises(TraceFormatError, match="repro-trace-v99"):
            load_trace(path)
        # Even lenient loading refuses a wrong-version file as a whole.
        with pytest.raises(TraceFormatError):
            load_trace(path, errors="skip")

    def test_malformed_line_raises_with_location(self, tmp_path) -> None:
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"_schema": TRACE_SCHEMA})
            + "\n"
            + self._span_line()
            + "\n{not json\n"
        )
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        assert excinfo.value.line == 3
        assert str(path) in str(excinfo.value)

    def test_malformed_line_skipped_when_asked(self, tmp_path) -> None:
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"_schema": TRACE_SCHEMA})
            + "\n{not json\n"
            + self._span_line()
            + "\n"
            + json.dumps({"some": "object"})
            + "\n"
        )
        spans = load_trace(path, errors="skip")
        assert [s["name"] for s in spans] == ["site"]

    def test_non_span_object_raises(self, tmp_path) -> None:
        path = tmp_path / "notspan.jsonl"
        path.write_text(json.dumps({"foo": 1}) + "\n")
        with pytest.raises(TraceFormatError, match="not a span object"):
            load_trace(path)

    def test_invalid_errors_mode_rejected(self, tmp_path) -> None:
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="errors must be"):
            load_trace(path, errors="ignore")

    def test_empty_file_loads_to_zero_spans(self, tmp_path) -> None:
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_trace(path) == []
