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
* :mod:`~repro.obs.instrument` — the :class:`Instrumentation` of one
  measurement unit: it folds the unit's counts into its registry at
  the unit's end from the rows, the resolver and the pipeline's
  nameserver-label cache, and hears per event only retry backoffs,
  failed cache misses and breaker transitions.  An uninstrumented
  pipeline observes nothing, and measures the same rows.
"""

from .instrument import Instrumentation
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
