"""The instrumentation facade threaded through the pipeline.

:class:`Instrumentation` bundles the three observability primitives —
the span :class:`~repro.obs.spans.Tracer`, the deterministic
:class:`~repro.obs.metrics.MetricsRegistry`, and the structured
logger — behind one object implementing every observer protocol the
measurement stack exposes:

* the :class:`~repro.net.dns.Resolver`'s ``observer`` (queries, cache
  hits, uncached outcomes),
* the :class:`~repro.faults.retry.RetrySession`'s ``observer``
  (attempts, backoff spend),
* the :class:`~repro.faults.breaker.CircuitBreaker`'s
  ``on_transition`` callback, and
* the pipeline's own stage spans, nameserver-cache events, TLS
  outcomes, and per-row accounting.

:data:`NULL_OBS` is the no-op twin: every hook is an empty method and
``span`` yields a shared null context, so an uninstrumented pipeline
pays one attribute lookup and a no-op call per hook — no branches in
the calling code, and byte-identical measurement output.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import nullcontext

from ..faults.breaker import BreakerState
from ..faults.taxonomy import failure_class, failure_class_of
from .log import StructuredLogger, get_logger
from .metrics import MetricsRegistry
from .spans import Tracer

__all__ = [
    "Instrumentation",
    "NullInstrumentation",
    "NULL_OBS",
]


class Instrumentation:
    """Live tracer + metrics + logger wired into the pipeline hooks."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        logger: StructuredLogger | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.log = logger if logger is not None else get_logger("repro.obs")
        r = self.registry
        self.dns_queries = r.counter(
            "repro_dns_queries_total",
            "DNS queries issued to the resolver (cached or not)",
        )
        self.dns_cache_hits = r.counter(
            "repro_dns_cache_hits_total",
            "resolver cache hits by kind (positive answer / negative "
            "RFC 2308 entry)",
            ("kind",),
        )
        self.dns_uncached_total = r.counter(
            "repro_dns_uncached_total",
            "cache misses that contacted the authorities, by outcome "
            "(ok or a failure-taxonomy class)",
            ("outcome",),
        )
        self.ns_cache_events = r.counter(
            "repro_ns_cache_events_total",
            "pipeline nameserver-label cache events (hit / "
            "negative_hit / miss)",
            ("event",),
        )
        self.attempts = r.counter(
            "repro_attempts_total",
            "network operations attempted, including retries (matches "
            "the dataset's per-row attempts column in aggregate)",
        )
        self.retries = r.counter(
            "repro_retries_total",
            "retries spent on transient failures",
        )
        self.backoff_seconds = r.counter(
            "repro_backoff_seconds_total",
            "logical-clock seconds spent in retry backoff",
        )
        self.breaker_transitions = r.counter(
            "repro_breaker_transitions_total",
            "circuit-breaker state transitions",
            ("from_state", "to_state"),
        )
        self.breaker_skips = r.counter(
            "repro_breaker_skips_total",
            "operations skipped because a nameserver's circuit was open",
            ("ns",),
        )
        self.ns_failures = r.counter(
            "repro_ns_failures_total",
            "per-nameserver labeling failures by taxonomy class",
            ("ns", "failure_class"),
        )
        self.failures = r.counter(
            "repro_failures_total",
            "recorded per-row failures by taxonomy class, layer, and "
            "country (matches MeasurementDataset.failure_taxonomy)",
            ("failure_class", "layer", "country"),
        )
        self.tls_handshakes = r.counter(
            "repro_tls_handshakes_total",
            "TLS handshake outcomes (ok or a failure-taxonomy class)",
            ("outcome",),
        )
        self.rows = r.counter(
            "repro_rows_total",
            "measured rows by status (ok / failed)",
            ("status",),
        )
        self.degraded_rows = r.counter(
            "repro_degraded_rows_total",
            "rows measured with a degraded layer (matches the "
            "dataset's degraded column)",
        )
        self.stage_seconds = r.histogram(
            "repro_stage_logical_seconds",
            "logical-clock seconds per pipeline stage",
            ("stage",),
        )
        # Hot-path fast paths.  Bound children validate their labels
        # once here instead of on every event; the per-event firehose
        # (queries, cache hits, attempts) batches into plain ints and
        # flushes once per row.  Counter values are identical either
        # way — n increments of 1.0 sum to exactly float(n).
        self._queries_child = self.dns_queries.child()
        self._hits_positive = self.dns_cache_hits.child(kind="positive")
        self._hits_negative = self.dns_cache_hits.child(kind="negative")
        self._uncached_ok = self.dns_uncached_total.child(outcome="ok")
        self._attempts_child = self.attempts.child()
        self._retries_child = self.retries.child()
        self._backoff_child = self.backoff_seconds.child()
        self._degraded_child = self.degraded_rows.child()
        self._rows_ok = self.rows.child(status="ok")
        self._rows_failed = self.rows.child(status="failed")
        self._tls_ok = self.tls_handshakes.child(outcome="ok")
        self._ns_event_children = {
            event: self.ns_cache_events.child(event=event)
            for event in ("hit", "negative_hit", "miss")
        }
        #: The span API is the tracer's bound method itself — no facade
        #: frame on the per-stage hot path.  The stage histogram is
        #: folded from the finished spans in :meth:`finalize` instead
        #: of per-span callbacks.
        self.span = self.tracer.span
        self._stages_folded = False
        self._pending_queries = 0
        self._pending_hits_positive = 0
        self._pending_hits_negative = 0
        self._pending_uncached_ok = 0
        self._pending_attempts = 0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer's logical clock at the resolver's."""
        self.tracer.clock = clock

    def _fold_stage_seconds(self) -> None:
        """Fold every finished span into the stage histogram (once).

        One pass at the end of the run replaces a per-span callback
        chain on the hot path; the resulting histogram is identical
        because logical durations are deterministic.
        """
        if self._stages_folded:
            return
        self._stages_folded = True
        observers: dict[str, Callable[[float], None]] = {}
        for span in self.tracer._finished:
            observe = observers.get(span.name)
            if observe is None:
                observe = observers[span.name] = self.stage_seconds.child(
                    stage=span.name
                ).observe
            observe(span.logical_seconds)

    # ------------------------------------------------------------------
    # Resolver observer protocol (see repro.net.dns.Resolver.observer)
    # ------------------------------------------------------------------

    def dns_query(self, name: str) -> None:
        """One query arrived at the resolver (batched per row)."""
        self._pending_queries += 1

    def dns_cache_hit(self, name: str, negative: bool = False) -> None:
        """A query was answered from the cache (batched per row)."""
        if negative:
            self._pending_hits_negative += 1
        else:
            self._pending_hits_positive += 1

    def dns_uncached(
        self, name: str, error: BaseException | None
    ) -> None:
        """A cache miss contacted the authorities; record the outcome."""
        if error is None:
            self._pending_uncached_ok += 1
            return
        outcome = failure_class(error)
        self.dns_uncached_total.inc(outcome=outcome)
        self.log.debug("dns-miss-failed", name=name, outcome=outcome)

    # ------------------------------------------------------------------
    # Retry observer protocol (see repro.faults.retry.RetrySession)
    # ------------------------------------------------------------------

    def retry_attempt(self, key: str) -> None:
        """One operation attempt started (batched per row)."""
        self._pending_attempts += 1

    def retry_backoff(self, key: str, delay: float) -> None:
        """A transient failure is about to be retried after a backoff."""
        self._retries_child.inc()
        self._backoff_child.inc(delay)
        self.log.debug("retry-backoff", key=key, delay=delay)

    # ------------------------------------------------------------------
    # Breaker hooks (see repro.faults.breaker.CircuitBreaker)
    # ------------------------------------------------------------------

    def breaker_transition(
        self, key: str, old: BreakerState, new: BreakerState
    ) -> None:
        """The circuit for a key changed state."""
        self.breaker_transitions.inc(
            from_state=old.value, to_state=new.value
        )
        self.log.info(
            "breaker-transition",
            key=key,
            from_state=old.value,
            to_state=new.value,
        )

    def breaker_skip(self, ns: str) -> None:
        """A nameserver was skipped because its circuit was open."""
        self.breaker_skips.inc(ns=ns)

    # ------------------------------------------------------------------
    # Pipeline hooks
    # ------------------------------------------------------------------

    def ns_cache_event(self, event: str) -> None:
        """A nameserver-label cache hit / negative_hit / miss."""
        child = self._ns_event_children.get(event)
        if child is not None:
            child.inc()
        else:  # pragma: no cover - future event kinds
            self.ns_cache_events.inc(event=event)

    def ns_failure(self, ns: str, cls: str) -> None:
        """Labeling one nameserver failed with a taxonomy class."""
        self.ns_failures.inc(ns=ns, failure_class=cls)

    def tls_outcome(self, outcome: str) -> None:
        """A TLS handshake finished (``"ok"`` or a taxonomy class)."""
        if outcome == "ok":
            self._tls_ok.inc()
        else:
            self.tls_handshakes.inc(outcome=outcome)

    def _flush_pending(self) -> None:
        """Fold the batched per-event tallies into their counters."""
        if self._pending_queries:
            self._queries_child.inc(self._pending_queries)
            self._pending_queries = 0
        if self._pending_hits_positive:
            self._hits_positive.inc(self._pending_hits_positive)
            self._pending_hits_positive = 0
        if self._pending_hits_negative:
            self._hits_negative.inc(self._pending_hits_negative)
            self._pending_hits_negative = 0
        if self._pending_uncached_ok:
            self._uncached_ok.inc(self._pending_uncached_ok)
            self._pending_uncached_ok = 0
        if self._pending_attempts:
            self._attempts_child.inc(self._pending_attempts)
            self._pending_attempts = 0

    def row_measured(self, record) -> None:
        """A row is final: fold its status and failures into metrics.

        Uses exactly the row's :meth:`failures()
        <repro.pipeline.records.WebsiteMeasurement.failures>` view and
        the shared taxonomy classifier, so
        ``repro_failures_total`` aggregates to the same numbers as
        :meth:`MeasurementDataset.failure_taxonomy
        <repro.pipeline.records.MeasurementDataset.failure_taxonomy>`.
        """
        self._flush_pending()
        if record.ok:
            self._rows_ok.inc()
        else:
            self._rows_failed.inc()
            self.log.info(
                "row-failed",
                domain=record.domain,
                country=record.country,
                error=record.error or record.tls_error or "",
            )
        if record.degraded:
            self._degraded_child.inc()
        for layer, message in record.failures():
            self.failures.inc(
                failure_class=failure_class_of(message),
                layer=layer,
                country=record.country,
            )

    def finalize(self, pipeline) -> None:
        """Snapshot end-of-run state (gauges) from a pipeline."""
        self._flush_pending()
        self._fold_stage_seconds()
        r = self.registry
        resolver = pipeline.resolver
        r.gauge(
            "repro_resolver_queries",
            "resolver's own query count (cross-check of "
            "repro_dns_queries_total)",
        ).set(resolver.queries)
        r.gauge(
            "repro_resolver_cache_hits", "resolver positive cache hits"
        ).set(resolver.cache_hits)
        r.gauge(
            "repro_resolver_negative_cache_hits",
            "resolver negative cache hits",
        ).set(resolver.negative_cache_hits)
        r.gauge(
            "repro_breaker_open_circuits",
            "circuits open or half-open at end of run",
        ).set(len(pipeline.breaker.open_keys()))
        if pipeline.fault_plan is not None:
            injected = r.gauge(
                "repro_faults_injected",
                "faults actually injected by the plan, per injector",
                ("injector",),
            )
            for injector, count in sorted(
                pipeline.fault_plan.injected.items()
            ):
                injected.set(count, injector=injector)


#: A reusable do-nothing context manager for :class:`NullInstrumentation`.
_NULL_CONTEXT = nullcontext()


class NullInstrumentation:
    """The no-op twin of :class:`Instrumentation` (default wiring)."""

    registry = None
    tracer = None

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """No-op."""

    def span(self, name: str, **attrs: object):
        """A shared null context (no allocation per call)."""
        return _NULL_CONTEXT

    def dns_query(self, name: str) -> None:
        """No-op."""

    def dns_cache_hit(self, name: str, negative: bool = False) -> None:
        """No-op."""

    def dns_uncached(
        self, name: str, error: BaseException | None
    ) -> None:
        """No-op."""

    def retry_attempt(self, key: str) -> None:
        """No-op."""

    def retry_backoff(self, key: str, delay: float) -> None:
        """No-op."""

    def breaker_transition(
        self, key: str, old: BreakerState, new: BreakerState
    ) -> None:
        """No-op."""

    def breaker_skip(self, ns: str) -> None:
        """No-op."""

    def ns_cache_event(self, event: str) -> None:
        """No-op."""

    def ns_failure(self, ns: str, cls: str) -> None:
        """No-op."""

    def tls_outcome(self, outcome: str) -> None:
        """No-op."""

    def row_measured(self, record) -> None:
        """No-op."""

    def finalize(self, pipeline) -> None:
        """No-op."""


#: Shared no-op instance used wherever no instrumentation was given.
NULL_OBS = NullInstrumentation()
