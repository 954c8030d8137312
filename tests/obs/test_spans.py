"""Tests for the span tracer, the trace writer and the trace loader."""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.obs import TRACE_SCHEMA, Span, Tracer, load_trace, write_spans_jsonl
from repro.pipeline.parallel import CampaignHalted, CampaignSpec, run_campaign
from repro.store import CampaignStore
from repro.worldgen import WorldConfig


#: sha256 of the traces of the campaign in :class:`TestPinnedTraceBytes`
#: under constant wall clocks: a fresh run, and a run halted after one
#: country and then resumed.
FRESH_TRACE_SHA256 = (
    "a0ca04cd40878c0ad525eb0b2d5dbc07ae9566293ccec16c2bfea33e7c4e97eb"
)
RESUMED_TRACE_SHA256 = (
    "2734075926dbf8377c855d022e86cdb82e297847089ee78b992c9dbc056a62f8"
)

_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 1e-7, 1e16]
)
_TEXT = st.text()
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _FINITE | _TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)
_IDS = st.integers(min_value=0, max_value=2**62)
_ROWS = st.builds(
    Span,
    attrs=st.dictionaries(_TEXT, _JSON_VALUES, max_size=4),
    error=st.none() | _TEXT,
    logical_seconds=_FINITE,
    name=_TEXT,
    parent_id=st.none() | _IDS,
    span_id=_IDS,
    start_logical=_FINITE,
    status=_TEXT,
    wall_ms=st.none() | _FINITE,
)


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTracer:
    def test_nesting_records_parent_ids(self) -> None:
        tracer = Tracer()
        with tracer.span("site"):
            with tracer.span("resolve"):
                pass
            with tracer.span("tls"):
                pass
        resolve, tls, site = tracer.finished()
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
        spans = tracer.finished()
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
        assert [span._asdict() for span in load_trace(path)] == parsed

    def test_wall_ms_present_and_nonnegative(self, tmp_path) -> None:
        tracer = Tracer()
        with tracer.span("stage"):
            pass
        path = tmp_path / "t.jsonl"
        write_spans_jsonl(tracer.finished(), path)
        (span,) = load_trace(path)
        assert span.wall_ms >= 0.0


class TestWriter:
    @settings(deadline=None, max_examples=200)
    @given(rows=st.lists(_ROWS, max_size=6))
    def test_lines_match_json_dumps(self, rows: list[Span]) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            assert write_spans_jsonl(rows, path) == len(rows)
            lines = path.read_bytes().decode("utf-8").split("\n")
            loaded = load_trace(path)
        rounded = [
            row
            if row.wall_ms is None
            else row._replace(wall_ms=round(row.wall_ms, 3))
            for row in rows
        ]
        expected = []
        for row in rounded:
            as_dict = row._asdict()
            if row.wall_ms is None:
                del as_dict["wall_ms"]
            expected.append(json.dumps(as_dict, sort_keys=True))
        # The header, one line per row, and the final newline.
        assert len(lines) == len(rows) + 2
        assert lines[0] == json.dumps({"_schema": TRACE_SCHEMA})
        assert lines[1:-1] == expected
        assert lines[-1] == ""
        assert loaded == rounded


class TestPinnedTraceBytes:
    def test_traces_match_pinned_bytes(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        monkeypatch.setattr(time, "monotonic", lambda: 0.0)
        spec = CampaignSpec(
            config=WorldConfig(
                seed=7, sites_per_country=50, countries=("TH", "US")
            ),
            fault_profile="chaos",
            fault_seed=7,
            retries=3,
            instrument=True,
        )
        fresh = tmp_path / "fresh.jsonl"
        run_campaign(spec, store=CampaignStore(tmp_path / "a")).write_trace(
            fresh
        )
        store = CampaignStore(tmp_path / "b")
        with pytest.raises(CampaignHalted):
            run_campaign(spec, store=store, halt_after=1)
        resumed = tmp_path / "resumed.jsonl"
        run_campaign(spec, store=store, resume=True).write_trace(resumed)

        def sha256(path: Path) -> str:
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert sha256(fresh) == FRESH_TRACE_SHA256
        assert sha256(resumed) == RESUMED_TRACE_SHA256
        # TH, measured before the halt, is reused from the store: its
        # block of lines, first in the trace, carries no wall time.
        rows = load_trace(resumed)
        lines = resumed.read_text(encoding="utf-8").splitlines()[1:]
        reused = sum(1 for row in rows if row.wall_ms is None)
        assert reused
        assert all('"wall_ms"' not in line for line in lines[:reused])
        assert all('"wall_ms"' in line for line in lines[reused:])
        assert {
            row.attrs["country"] for row in rows[:reused] if row.name == "site"
        } == {"TH"}


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
        assert span.name == "site"

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
        assert [s.name for s in spans] == ["site"]

    @pytest.mark.parametrize(
        "field", [name for name in Span._fields if name != "wall_ms"]
    )
    def test_line_missing_a_required_field_raises(
        self, tmp_path, field: str
    ) -> None:
        record = json.loads(self._span_line())
        del record[field]
        path = tmp_path / "missing.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(TraceFormatError, match=f"missing {field}"):
            load_trace(path)

    def test_line_missing_only_wall_ms_loads(self, tmp_path) -> None:
        record = json.loads(self._span_line())
        del record["wall_ms"]
        path = tmp_path / "stored.jsonl"
        path.write_text(json.dumps(record) + "\n")
        (span,) = load_trace(path)
        assert span.wall_ms is None
        assert span._replace(wall_ms=1.0)._asdict() == json.loads(
            self._span_line()
        )

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
