"""Span-based tracing for the measurement pipeline.

A *span* is one timed stage of work — measuring a site, resolving its
serving host, walking its authoritative nameservers, handshaking TLS —
with a parent link, so a trace reconstructs the nested structure of a
campaign.  Every span carries **two** clocks:

* the resolver's deterministic *logical* clock (what the simulation
  itself believes time is — backoff, TTLs, outage windows), and
* the *wall* clock (what the host machine actually spent), which is
  what perf work optimizes.

Only logical durations are deterministic; wall durations vary run to
run and therefore never feed the metrics registry.

A finished span is a :class:`Span` row: an immutable tuple whose
fields are the trace keys in sorted order.  The tracer appends each
row once, when its span closes, and every later stage — the unit
result, the store, the stitch, the trace readers — passes rows along
unconverted.  A row becomes JSON in two places only: the store codec
(:func:`repro.store.store.encode_shard`, which drops ``wall_ms``) and
:func:`write_spans_jsonl`, which writes JSON Lines (a ``_schema``
header line, then one object per span), a format that streams, greps,
and loads into dataframes without a schema negotiation.  Loading is
versioned and typed: :func:`load_trace` raises
:class:`~repro.errors.TraceFormatError` (or, when asked, skips) on
malformed lines and refuses schema versions it does not speak,
instead of crashing mid-file with a bare decoder error.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path
from typing import NamedTuple

from ..errors import TraceFormatError
from .log import get_logger

__all__ = [
    "Span",
    "Tracer",
    "TRACE_SCHEMA",
    "load_trace",
    "stitch_spans",
    "write_spans_jsonl",
]

#: Schema tag written as the first JSONL line of every trace export.
#: Readers accept headerless files (pre-versioning traces) but refuse
#: any *other* version string.
TRACE_SCHEMA = "repro-trace-v1"


class Span(NamedTuple):
    """One finished span; the fields are the trace keys, sorted.

    Numeric fields are Python ints or floats.  ``wall_ms`` is the
    unrounded wall-clock duration in milliseconds (the trace file
    rounds it to microseconds), or None for a span read back from the
    campaign store, which never stores wall time.
    """

    attrs: dict[str, object]
    error: str | None
    logical_seconds: float
    name: str
    parent_id: int | None
    span_id: int
    start_logical: float
    status: str
    wall_ms: float | None


#: Builds a row from a ready tuple without a Python-level ``__new__``
#: frame: the tracer closes seven spans per site.
_row = tuple.__new__

#: The fields every trace line must carry; ``wall_ms`` may be absent.
_REQUIRED_FIELDS = Span._fields[:-1]

#: ``json.dumps(..., sort_keys=True)`` without building an encoder per
#: call; ``attrs`` values may nest.
_ATTRS_ENCODER = json.JSONEncoder(sort_keys=True)

#: A span line up to ``status``, in ``json.dumps`` default separators.
#: ``%r`` of an int or float is its JSON form.
_LINE_HEAD = (
    '{"attrs": %s, "error": %s, "logical_seconds": %r, "name": %s, '
    '"parent_id": %s, "span_id": %r, "start_logical": %r, "status": %s'
)


class _SpanContext:
    """One open span: its state until it closes, then its row.

    A plain ``__slots__`` class rather than a generator-based
    ``@contextmanager``: the pipeline opens seven spans per site, and
    the generator machinery (frame suspend/resume plus the wrapper
    object) dominated the instrumented hot path.  A tracer keeps one
    context per nesting depth, linked to the depth above, and reuses
    it for every span opened there, so the value ``with`` binds
    describes the span only while it is open; the finished span is
    the row :meth:`Tracer.finished` holds.
    """

    __slots__ = (
        "_tracer",
        "parent",
        "child",
        "name",
        "span_id",
        "attrs",
        "start_logical",
        "start_wall",
    )

    def __enter__(self) -> "_SpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end_logical = tracer.clock()
        end_wall = tracer._wall()
        if exc_type is None:
            status = "ok"
            error = None
        else:
            status = "error"
            error = f"{exc_type.__name__}: {exc}"
        parent = self.parent
        start = self.start_logical
        tracer._finished.append(
            _row(Span, (
                self.attrs, error, end_logical - start, self.name,
                None if parent is None else parent.span_id, self.span_id,
                start, status, (end_wall - self.start_wall) * 1000.0,
            ))
        )
        tracer._active = parent
        return False


class Tracer:
    """Records nested spans against a logical clock and the wall.

    ``clock`` supplies logical time (the pipeline binds the resolver's
    clock); ``wall`` defaults to :func:`time.perf_counter` and is
    injectable for tests.  Span ids are sequential integers, so the
    id sequence — unlike wall durations — is deterministic.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        wall: Callable[[], float] | None = None,
    ) -> None:
        self.clock: Callable[[], float] = (
            clock if clock is not None else (lambda: 0.0)
        )
        self._wall = wall if wall is not None else time.perf_counter
        self._finished: list[Span] = []
        self._next_id = 1
        #: The innermost open span's context (None outside any span).
        self._active: _SpanContext | None = None
        #: The context of top-level spans; deeper ones hang off it.
        self._root: _SpanContext | None = None

    @property
    def active(self) -> _SpanContext | None:
        """The innermost open span (None outside any span)."""
        return self._active

    def finished(self) -> list[Span]:
        """All finished spans, in completion order."""
        return list(self._finished)

    def span(self, name: str, **attrs: object) -> _SpanContext:
        """Open a child span of the innermost open span."""
        parent = self._active
        context = self._root if parent is None else parent.child
        if context is None:
            context = _SpanContext.__new__(_SpanContext)
            context._tracer = self
            context.parent = parent
            context.child = None
            if parent is None:
                self._root = context
            else:
                parent.child = context
        context.name = name
        context.span_id = span_id = self._next_id
        self._next_id = span_id + 1
        context.attrs = attrs
        context.start_logical = self.clock()
        context.start_wall = self._wall()
        self._active = context
        return context


def write_spans_jsonl(spans: Iterable[Span], path: str | Path) -> int:
    """Write span rows as JSON Lines; returns the span count.

    The first line is a ``{"_schema": TRACE_SCHEMA}`` header; it is
    not counted and :func:`load_trace` never returns it.  Each span
    line is the bytes ``json.dumps(span, sort_keys=True)`` gives for
    the row as a dict, with ``wall_ms`` rounded to three places and
    left out when None: the row's field order is that key order, so a
    fixed format renders it, and only a non-empty ``attrs`` goes
    through the JSON encoder.
    """
    encode = json.encoder.encode_basestring_ascii
    encode_attrs = _ATTRS_ENCODER.encode
    head = _LINE_HEAD
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        write = handle.write
        write(json.dumps({"_schema": TRACE_SCHEMA}) + "\n")
        for (attrs, error, logical_seconds, name, parent_id, span_id,
             start_logical, status, wall_ms) in spans:
            line = head % (
                encode_attrs(attrs) if attrs else "{}",
                "null" if error is None else encode(error),
                logical_seconds,
                encode(name),
                "null" if parent_id is None else parent_id,
                span_id,
                start_logical,
                encode(status),
            )
            if wall_ms is None:
                write(line + "}\n")
            else:
                write(line + ', "wall_ms": %r}\n' % round(wall_ms, 3))
            count += 1
    return count


def stitch_spans(traces: Sequence[Sequence[Span]]) -> list[Span]:
    """Concatenate traces, in the order given, into one span id space.

    Every tracer numbers its spans 1..n, so each span's ``span_id`` and
    ``parent_id`` move up by the number of spans before its trace.
    Nothing is reordered: ``run_campaign`` passes its countries in
    sorted order, each country's spans in completion order, so the
    stitched trace is the same however the campaign was sharded.  A
    trace at offset 0 passes through as the same rows (stitching one
    trace is the identity); a later trace's rows are rebuilt with the
    offset ids.
    """
    stitched: list[Span] = []
    for trace in traces:
        offset = len(stitched)
        if not offset:
            stitched.extend(trace)
            continue
        stitched.extend(
            [
                _row(Span, (
                    attrs, error, logical_seconds, name,
                    None if parent_id is None else parent_id + offset,
                    span_id + offset, start_logical, status, wall_ms,
                ))
                for (attrs, error, logical_seconds, name, parent_id,
                     span_id, start_logical, status, wall_ms) in trace
            ]
        )
    return stitched


def load_trace(path: str | Path, errors: str = "raise") -> list[Span]:
    """Load a JSONL trace file back into span rows.

    A leading ``{"_schema": ...}`` header line is validated and
    dropped: an unknown version always raises
    :class:`~repro.errors.TraceFormatError` (whatever ``errors`` says —
    a wrong-version file is wrong as a whole), while a headerless file
    is accepted as a legacy trace.  A span line must be a JSON object
    holding ``attrs``, ``error``, ``logical_seconds``, ``name``,
    ``parent_id``, ``span_id``, ``start_logical`` and ``status``;
    ``wall_ms`` may be absent (spans reused from the campaign store
    carry none) and loads as None, and other keys are ignored.  A line
    that is not JSON or lacks a required field raises the same typed
    error with the offending line number, or — with ``errors="skip"``
    — is dropped with a structured warning so one mangled line cannot
    poison a multi-gigabyte campaign trace.
    """
    if errors not in ("raise", "skip"):
        raise ValueError(f"errors must be 'raise' or 'skip', got {errors!r}")
    log = get_logger("repro.obs.spans")
    spans: list[Span] = []
    skipped = 0
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if errors == "skip":
                    skipped += 1
                    log.warning(
                        "trace-line-skipped",
                        path=str(path),
                        line=lineno,
                        reason=f"not JSON: {exc.msg}",
                    )
                    continue
                raise TraceFormatError(
                    f"trace line is not JSON: {exc.msg}", path, lineno
                ) from exc
            if isinstance(record, dict) and "_schema" in record:
                if record["_schema"] != TRACE_SCHEMA:
                    raise TraceFormatError(
                        f"unsupported trace schema "
                        f"{record['_schema']!r} (this build reads "
                        f"{TRACE_SCHEMA!r})",
                        path,
                        lineno,
                    )
                continue
            missing = (
                [key for key in _REQUIRED_FIELDS if key not in record]
                if isinstance(record, dict)
                else list(_REQUIRED_FIELDS)
            )
            if missing:
                if errors == "skip":
                    skipped += 1
                    log.warning(
                        "trace-line-skipped",
                        path=str(path),
                        line=lineno,
                        reason="not a span object",
                    )
                    continue
                raise TraceFormatError(
                    f"trace line is not a span object (missing "
                    f"{', '.join(missing)})",
                    path,
                    lineno,
                )
            spans.append(
                Span(
                    *[record[key] for key in _REQUIRED_FIELDS],
                    record.get("wall_ms"),
                )
            )
    if skipped:
        log.warning(
            "trace-lines-skipped-total", path=str(path), skipped=skipped
        )
    return spans
