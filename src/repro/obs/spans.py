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
run and therefore never feed the metrics registry.  Finished spans are
emitted as JSON Lines (a ``_schema`` header line, then one object per
span) via :func:`write_spans_jsonl`, a format that streams, greps,
and loads into dataframes without a schema negotiation.  Loading is
versioned and typed: :func:`load_trace` raises
:class:`~repro.errors.TraceFormatError` (or, when asked, skips) on
malformed lines and refuses schema versions it does not speak,
instead of crashing mid-file with a bare decoder error.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass(slots=True)
class Span:
    """One timed, attributed stage of pipeline work."""

    name: str
    span_id: int
    parent_id: int | None
    attrs: dict[str, object] = field(default_factory=dict)
    start_logical: float = 0.0
    end_logical: float | None = None
    start_wall: float = 0.0
    end_wall: float | None = None
    status: str = "ok"
    error: str | None = None

    @property
    def logical_seconds(self) -> float:
        """Logical-clock duration (0 until the span finishes)."""
        if self.end_logical is None:
            return 0.0
        return self.end_logical - self.start_logical

    @property
    def wall_seconds(self) -> float:
        """Wall-clock duration (0 until the span finishes)."""
        if self.end_wall is None:
            return 0.0
        return self.end_wall - self.start_wall

    def to_dict(self) -> dict:
        """The JSONL representation of a finished span."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": self.attrs,
            "start_logical": self.start_logical,
            "logical_seconds": self.logical_seconds,
            "wall_ms": round(self.wall_seconds * 1000.0, 3),
            "status": self.status,
            "error": self.error,
        }


class _SpanContext:
    """Context manager closing one open span.

    A plain ``__slots__`` class rather than a generator-based
    ``@contextmanager``: the pipeline opens seven spans per site, and
    the generator machinery (frame suspend/resume plus the wrapper
    object) dominated the instrumented hot path.
    """

    __slots__ = ("_tracer", "span")

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self.span
        if exc_type is not None:
            span.status = "error"
            span.error = f"{exc_type.__name__}: {exc}"
        tracer = self._tracer
        span.end_logical = tracer.clock()
        span.end_wall = tracer._wall()
        tracer._stack.pop()
        tracer._finished.append(span)
        # Recycle this context: the span keeps all the data, and the
        # pipeline churns through seven contexts per site.
        tracer._context_pool.append(self)
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
        self._stack: list[Span] = []
        self._next_id = 1
        #: Recycled span contexts (a context is poolable the moment it
        #: exits; the Span object itself is never reused).
        self._context_pool: list[_SpanContext] = []

    @property
    def active(self) -> Span | None:
        """The innermost open span (None outside any span)."""
        return self._stack[-1] if self._stack else None

    def finished(self) -> list[Span]:
        """All finished spans, in completion order."""
        return list(self._finished)

    def span(self, name: str, **attrs: object) -> _SpanContext:
        """Open a child span of the innermost open span."""
        stack = self._stack
        # Hand-rolled construction: the dataclass __init__ processes
        # ten keyword defaults per call, and the pipeline opens seven
        # spans per site — direct attribute stores halve the cost.
        span = Span.__new__(Span)
        span.name = name
        span.span_id = self._next_id
        span.parent_id = stack[-1].span_id if stack else None
        span.attrs = attrs
        span.start_logical = self.clock()
        span.end_logical = None
        span.start_wall = self._wall()
        span.end_wall = None
        span.status = "ok"
        span.error = None
        self._next_id += 1
        stack.append(span)
        pool = self._context_pool
        if pool:
            context = pool.pop()
        else:
            context = _SpanContext.__new__(_SpanContext)
            context._tracer = self
        context.span = span
        return context


def write_spans_jsonl(spans: list[dict], path: str | Path) -> int:
    """Write serialized span dicts as JSON Lines; returns the span count.

    The first line is a ``{"_schema": TRACE_SCHEMA}`` header; it is
    not counted and :func:`load_trace` never returns it.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"_schema": TRACE_SCHEMA}) + "\n")
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
    return len(spans)


def stitch_spans(traces: Sequence[Sequence[dict]]) -> list[dict]:
    """Concatenate traces, in the order given, into one span id space.

    Every tracer numbers its spans 1..n, so each span's ``span_id`` and
    ``parent_id`` move up by the number of spans before its trace.
    Nothing is reordered: ``run_campaign`` passes its countries in
    sorted order, each country's spans in completion order, so the
    stitched trace is the same however the campaign was sharded.  A
    trace at offset 0 passes through uncopied (stitching one trace is
    the identity); later spans are copied, so inputs are not mutated.
    """
    stitched: list[dict] = []
    for trace in traces:
        offset = len(stitched)
        if not offset:
            stitched.extend(trace)
            continue
        for span in trace:
            span = dict(span)
            span["span_id"] += offset
            if span["parent_id"] is not None:
                span["parent_id"] += offset
            stitched.append(span)
    return stitched


def load_trace(path: str | Path, errors: str = "raise") -> list[dict]:
    """Load a JSONL trace file back into span dicts.

    A leading ``{"_schema": ...}`` header line is validated and
    dropped: an unknown version always raises
    :class:`~repro.errors.TraceFormatError` (whatever ``errors`` says —
    a wrong-version file is wrong as a whole), while a headerless file
    is accepted as a legacy trace.  A line that does not parse as a
    JSON object or lacks the required span fields raises the same
    typed error with the offending line number, or — with
    ``errors="skip"`` — is dropped with a structured warning so one
    mangled line cannot poison a multi-gigabyte campaign trace.
    """
    if errors not in ("raise", "skip"):
        raise ValueError(f"errors must be 'raise' or 'skip', got {errors!r}")
    log = get_logger("repro.obs.spans")
    spans: list[dict] = []
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
            if (
                not isinstance(record, dict)
                or "span_id" not in record
                or "name" not in record
            ):
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
                    "trace line is not a span object (missing span_id/"
                    "name)",
                    path,
                    lineno,
                )
            spans.append(record)
    if skipped:
        log.warning(
            "trace-lines-skipped-total", path=str(path), skipped=skipped
        )
    return spans
