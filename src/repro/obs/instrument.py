"""The instrumentation facade of one measurement unit.

:class:`Instrumentation` bundles the three observability primitives —
the span :class:`~repro.obs.spans.Tracer`, the deterministic
:class:`~repro.obs.metrics.MetricsRegistry`, and the structured
logger.  A unit's counts enter its registry once, at the unit's end:
:meth:`Instrumentation.finalize` reads each count from the object that
already keeps it —

* the rows (status, degraded, attempts, failures by taxonomy class,
  TLS outcomes),
* the :class:`~repro.net.dns.Resolver` (queries, cache hits,
  uncached answers),
* the pipeline's nameserver-label cache (cache events, labeling
  failures, breaker skips), and
* the finished spans (the stage histogram).

Per event it hears only what no object counts, and logs each: the
resolver's failed cache misses (``dns_uncached``), the retry
session's backoffs (``retry_backoff``) and the
:class:`~repro.faults.breaker.CircuitBreaker`'s transitions
(``breaker_transition``).  An uninstrumented pipeline has no
instrumentation at all: the resolver, session and breaker get no
observer.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..faults.breaker import BreakerState
from ..faults.taxonomy import failure_class, failure_class_of
from .log import StructuredLogger, get_logger
from .metrics import MetricsRegistry
from .spans import Tracer

__all__ = ["Instrumentation"]


class Instrumentation:
    """A unit's tracer + metrics + logger, folded at the unit's end."""

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
        self._finalized = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer's logical clock at the resolver's."""
        self.tracer.clock = clock

    # ------------------------------------------------------------------
    # Per-event hooks: only what no object keeps a count of
    # ------------------------------------------------------------------

    def dns_uncached(self, name: str, error: BaseException) -> None:
        """A cache miss contacted the authorities and failed
        (:attr:`repro.net.dns.Resolver.observer`)."""
        outcome = failure_class(error)
        self.dns_uncached_total.inc(outcome=outcome)
        self.log.debug("dns-miss-failed", name=name, outcome=outcome)

    def retry_backoff(self, key: str, delay: float) -> None:
        """A transient failure is about to be retried after a backoff
        (:attr:`repro.faults.retry.RetrySession.observer`)."""
        self.retries.inc()
        self.backoff_seconds.inc(delay)
        self.log.debug("retry-backoff", key=key, delay=delay)

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

    # ------------------------------------------------------------------
    # The fold at the unit's end
    # ------------------------------------------------------------------

    def finalize(self, pipeline, rows: Iterable) -> None:
        """Fold a finished unit into the registry (once).

        ``pipeline`` is the unit's
        :class:`~repro.pipeline.measure.MeasurementPipeline` and
        ``rows`` every row it measured.  A family is incremented only
        by a count above 0, so a unit exports the samples its events
        produced and nothing else; an integer count equals the sum of
        as many 1.0 steps exactly.  The failure fold uses each row's
        :meth:`failures() <repro.pipeline.records.WebsiteMeasurement.failures>`
        and the shared taxonomy classifier, so ``repro_failures_total``
        aggregates to :meth:`MeasurementDataset.failure_taxonomy
        <repro.pipeline.records.MeasurementDataset.failure_taxonomy>`.
        """
        if self._finalized:
            return
        self._finalized = True
        self._fold_rows(rows)
        resolver = pipeline.resolver
        # A failed miss reached dns_uncached, and any exception other
        # than a ReproError aborts the unit: every other miss answered.
        answered = (
            resolver.queries
            - resolver.cache_hits
            - resolver.negative_cache_hits
            - self.dns_uncached_total.total()
        )
        if resolver.queries:
            self.dns_queries.inc(resolver.queries)
        for kind, count in (
            ("positive", resolver.cache_hits),
            ("negative", resolver.negative_cache_hits),
        ):
            if count:
                self.dns_cache_hits.inc(count, kind=kind)
        if answered:
            self.dns_uncached_total.inc(answered, outcome="ok")
        for event, count in pipeline.ns_cache_events.items():
            if count:
                self.ns_cache_events.inc(count, event=event)
        for (ns, cls), count in pipeline.ns_failures.items():
            self.ns_failures.inc(count, ns=ns, failure_class=cls)
            if cls == "circuit-open":
                self.breaker_skips.inc(count, ns=ns)
        stages: dict[str, list[float]] = {}
        for span in self.tracer._finished:
            values = stages.get(span.name)
            if values is None:
                values = stages[span.name] = []
            values.append(span.logical_seconds)
        for stage, values in stages.items():
            self.stage_seconds.observe_all(values, stage=stage)
        r = self.registry
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

    def _fold_rows(self, rows: Iterable) -> None:
        """Row status, degraded rows, attempts, failures and TLS
        outcomes; one ``row-failed`` log line per failed row."""
        status = {"ok": 0, "failed": 0}
        degraded = attempts = 0
        tls: dict[str, int] = {}
        failures: dict[tuple[str, str, str], int] = {}
        for record in rows:
            attempts += record.attempts
            if record.ok:
                status["ok"] += 1
            else:
                status["failed"] += 1
                self.log.info(
                    "row-failed",
                    domain=record.domain,
                    country=record.country,
                    error=record.error or record.tls_error or "",
                )
            if record.degraded:
                degraded += 1
            if record.ip is not None:  # every such row reached the TLS step
                outcome = (
                    "ok"
                    if record.tls_error is None
                    else failure_class_of(record.tls_error)
                )
                tls[outcome] = tls.get(outcome, 0) + 1
            for layer, message in record.failures():
                key = (failure_class_of(message), layer, record.country)
                failures[key] = failures.get(key, 0) + 1
        for name, count in status.items():
            if count:
                self.rows.inc(count, status=name)
        if degraded:
            self.degraded_rows.inc(degraded)
        if attempts:
            self.attempts.inc(attempts)
        for outcome, count in tls.items():
            self.tls_handshakes.inc(count, outcome=outcome)
        for (cls, layer, country), count in failures.items():
            self.failures.inc(
                count, failure_class=cls, layer=layer, country=country
            )
