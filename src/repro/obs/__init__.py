"""Observability: spans, deterministic metrics, and structured logs.

The telemetry substrate for the measurement pipeline (and the yard-
stick every perf PR measures itself against):

* :mod:`~repro.obs.spans` — a span tracer recording nested pipeline
  stages per website on both the wall clock and the resolver's
  deterministic logical clock, emitted as JSONL;
* :mod:`~repro.obs.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms whose JSON export is byte-identical for two
  runs with the same seed (Prometheus text format also supported);
* :mod:`~repro.obs.log` — a structured ``level event key=value``
  logger behind the CLI's ``-v/-q`` flags;
* :mod:`~repro.obs.instrument` — the :class:`Instrumentation` facade
  the pipeline threads through the resolver, retry, and breaker
  hooks, with a no-op default (:data:`NULL_OBS`) that leaves the
  uninstrumented hot path byte-identical to pre-observability output.
"""

from .instrument import NULL_OBS, Instrumentation, NullInstrumentation
from .log import StructuredLogger, configure, get_logger
from .metrics import (
    DEFAULT_SECONDS_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_metrics_payloads,
    metric_total,
    render_metrics_json,
)
from .profile import (
    PROFILE_SPAN_NAMES,
    CampaignProfiler,
    lifecycle_accounting,
)
from .spans import (
    TRACE_SCHEMA,
    Span,
    Tracer,
    load_trace,
    stitch_spans,
    write_spans_jsonl,
)

__all__ = [
    "Instrumentation",
    "NullInstrumentation",
    "NULL_OBS",
    "StructuredLogger",
    "configure",
    "get_logger",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS_SCHEMA",
    "DEFAULT_SECONDS_BUCKETS",
    "merge_metrics_payloads",
    "metric_total",
    "render_metrics_json",
    "CampaignProfiler",
    "PROFILE_SPAN_NAMES",
    "lifecycle_accounting",
    "Span",
    "Tracer",
    "TRACE_SCHEMA",
    "load_trace",
    "stitch_spans",
    "write_spans_jsonl",
]
