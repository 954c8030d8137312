"""Campaign reports: summarizing one measurement run's telemetry.

Operators of real §3.4-scale campaigns live off exactly four
questions — where did the time go, which infrastructure keeps
failing, how healthy are the caches, and how much did resilience
machinery (retries, breakers) have to work?  This module answers them
from the artifacts an instrumented run leaves behind: the metrics JSON
written by :class:`~repro.obs.metrics.MetricsRegistry` and, optionally,
the span trace JSONL written by :class:`~repro.obs.spans.Tracer`.

The renderer is pure (dict in, text out), so reports can be rebuilt
from archived artifacts long after the run — the CLI's
``repro report-campaign`` is a two-line wrapper over
:func:`render_campaign_report`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from ..errors import PipelineError
from ..obs.metrics import metric_total
from ..obs.spans import Span

__all__ = ["load_metrics", "render_campaign_report"]


def load_metrics(path: str | Path) -> dict:
    """Load a metrics JSON export (as written by ``--metrics-out``)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PipelineError(f"cannot load metrics from {path}: {exc}") from exc
    if not isinstance(payload, dict) or "metrics" not in payload:
        raise PipelineError(
            f"{path} is not a metrics export (missing 'metrics' key)"
        )
    return payload


def _samples(metrics: dict, name: str) -> list[tuple[dict, object]]:
    entry = metrics.get("metrics", {}).get(name)
    if entry is None:
        return []
    out = []
    for sample in entry.get("samples", ()):
        out.append((sample.get("labels", {}), sample))
    return out


def _fmt_count(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


def _overview_lines(metrics: dict) -> list[str]:
    ok = metric_total(metrics, "repro_rows_total", status="ok")
    failed = metric_total(metrics, "repro_rows_total", status="failed")
    total = ok + failed
    degraded = metric_total(metrics, "repro_degraded_rows_total")
    attempts = metric_total(metrics, "repro_attempts_total")
    retries = metric_total(metrics, "repro_retries_total")
    backoff = metric_total(metrics, "repro_backoff_seconds_total")
    lines = [
        f"rows:      {_fmt_count(total)} total, {_fmt_count(ok)} ok, "
        f"{_fmt_count(failed)} failed, {_fmt_count(degraded)} degraded",
        f"attempts:  {_fmt_count(attempts)} "
        f"({_fmt_count(retries)} retries, {backoff:.1f}s logical backoff)",
    ]
    injected = _samples(metrics, "repro_faults_injected")
    if injected:
        detail = ", ".join(
            f"{labels.get('injector')}={_fmt_count(float(s['value']))}"
            for labels, s in injected
        )
        lines.append(f"faults:    {detail}")
    return lines


def _cache_lines(metrics: dict) -> list[str]:
    queries = metric_total(metrics, "repro_dns_queries_total")
    pos = metric_total(metrics, "repro_dns_cache_hits_total", kind="positive")
    neg = metric_total(metrics, "repro_dns_cache_hits_total", kind="negative")
    uncached = metric_total(metrics, "repro_dns_uncached_total")
    ratio = 100.0 * (pos + neg) / queries if queries else 0.0
    lines = [
        f"dns:       {_fmt_count(queries)} queries, "
        f"{_fmt_count(pos)} cache hits + {_fmt_count(neg)} negative, "
        f"{_fmt_count(uncached)} uncached  (hit ratio {ratio:.1f}%)",
    ]
    ns_hit = metric_total(
        metrics, "repro_ns_cache_events_total", event="hit"
    )
    ns_neg = metric_total(
        metrics, "repro_ns_cache_events_total", event="negative_hit"
    )
    ns_miss = metric_total(
        metrics, "repro_ns_cache_events_total", event="miss"
    )
    ns_total = ns_hit + ns_neg + ns_miss
    if ns_total:
        ns_ratio = 100.0 * (ns_hit + ns_neg) / ns_total
        lines.append(
            f"ns-label:  {_fmt_count(ns_hit)} hits + "
            f"{_fmt_count(ns_neg)} negative, {_fmt_count(ns_miss)} "
            f"misses  (hit ratio {ns_ratio:.1f}%)"
        )
    return lines


def _stage_lines(metrics: dict, spans: list[Span] | None) -> list[str]:
    lines: list[str] = []
    entry = metrics.get("metrics", {}).get("repro_stage_logical_seconds")
    if entry is not None and entry.get("samples"):
        rows = []
        for sample in entry["samples"]:
            stage = sample.get("labels", {}).get("stage", "?")
            total = float(sample.get("sum", 0.0))
            count = int(sample.get("count", 0))
            mean = total / count if count else 0.0
            rows.append((total, stage, count, mean))
        rows.sort(key=lambda r: (-r[0], r[1]))
        lines.append("slowest stages (logical clock):")
        for total, stage, count, mean in rows:
            lines.append(
                f"  {stage:<8} {total:>9.2f}s total  "
                f"{count:>6} spans  {mean * 1000.0:>8.2f}ms mean"
            )
    # Spans reused from a campaign store carry no wall time; only the
    # freshly measured ones count here.
    by_stage: dict[str, list[float]] = defaultdict(list)
    for span in spans or ():
        if span.wall_ms is not None:
            by_stage[span.name].append(float(span.wall_ms))
    if by_stage:
        rows_w = sorted(
            (
                (sum(values), stage, len(values), max(values))
                for stage, values in by_stage.items()
            ),
            key=lambda r: (-r[0], r[1]),
        )
        lines.append("slowest stages (wall clock, from trace):")
        for total, stage, count, worst in rows_w:
            lines.append(
                f"  {stage:<8} {total:>9.2f}ms total  "
                f"{count:>6} spans  {worst:>8.2f}ms worst"
            )
    return lines


def _nameserver_lines(metrics: dict, top: int) -> list[str]:
    per_ns: dict[str, dict[str, float]] = defaultdict(dict)
    for labels, sample in _samples(metrics, "repro_ns_failures_total"):
        ns = labels.get("ns", "?")
        cls = labels.get("failure_class", "?")
        per_ns[ns][cls] = per_ns[ns].get(cls, 0.0) + float(
            sample.get("value", 0)
        )
    if not per_ns:
        return []
    ranked = sorted(
        per_ns.items(), key=lambda kv: (-sum(kv[1].values()), kv[0])
    )[:top]
    lines = [f"top failing nameservers (of {len(per_ns)}):"]
    for ns, classes in ranked:
        detail = ", ".join(
            f"{cls}={_fmt_count(n)}"
            for cls, n in sorted(
                classes.items(), key=lambda kv: (-kv[1], kv[0])
            )
        )
        lines.append(
            f"  {ns:<28} {_fmt_count(sum(classes.values())):>5}  ({detail})"
        )
    skips = metric_total(metrics, "repro_breaker_skips_total")
    if skips:
        lines.append(f"  breaker skips: {_fmt_count(skips)}")
    return lines


def _breaker_lines(metrics: dict) -> list[str]:
    transitions = _samples(metrics, "repro_breaker_transitions_total")
    if not transitions:
        return []
    detail = ", ".join(
        f"{labels.get('from_state')}→{labels.get('to_state')}"
        f"={_fmt_count(float(s['value']))}"
        for labels, s in transitions
    )
    lines = [f"breaker:   {detail}"]
    open_now = metric_total(metrics, "repro_breaker_open_circuits")
    if open_now:
        lines.append(
            f"           {_fmt_count(open_now)} circuits still "
            f"open/half-open at end of run"
        )
    return lines


def _failure_lines(metrics: dict, top: int) -> list[str]:
    cells: dict[tuple[str, str], dict[str, float]] = defaultdict(dict)
    for labels, sample in _samples(metrics, "repro_failures_total"):
        key = (
            labels.get("failure_class", "?"),
            labels.get("layer", "?"),
        )
        country = labels.get("country", "?")
        cells[key][country] = cells[key].get(country, 0.0) + float(
            sample.get("value", 0)
        )
    if not cells:
        return ["no failures recorded"]
    lines = [
        f"{'class':<14} {'layer':<6} {'count':>7}  top countries"
    ]
    for cls, layer in sorted(cells):
        per_country = cells[(cls, layer)]
        total = sum(per_country.values())
        worst = sorted(
            per_country.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top]
        detail = ", ".join(
            f"{cc}={_fmt_count(n)}" for cc, n in worst
        )
        lines.append(
            f"{cls:<14} {layer:<6} {_fmt_count(total):>7}  {detail}"
        )
    return lines


def _store_lines(store_metrics: dict) -> list[str]:
    """Summarize the campaign-store hit/miss/skip accounting."""
    hits = metric_total(store_metrics, "repro_store_shard_hits_total")
    misses = metric_total(store_metrics, "repro_store_shard_misses_total")
    skipped = metric_total(
        store_metrics, "repro_store_resume_skipped_total"
    )
    lines = [
        f"   shard hits:       {_fmt_count(hits)}",
        f"   shard misses:     {_fmt_count(misses)}",
        f"   resume skipped:   {_fmt_count(skipped)}",
    ]
    hit_countries = sorted(
        labels["country"]
        for labels, _ in _samples(
            store_metrics, "repro_store_shard_hits_total"
        )
    )
    miss_countries = sorted(
        labels["country"]
        for labels, _ in _samples(
            store_metrics, "repro_store_shard_misses_total"
        )
    )
    if hit_countries:
        lines.append(f"   reused: {' '.join(hit_countries)}")
    if miss_countries:
        lines.append(f"   measured: {' '.join(miss_countries)}")
    return lines


def _supervisor_lines(store_metrics: dict) -> list[str]:
    """Summarize supervision events (retries, timeouts, quarantine).

    The supervisor's registry is merged into the per-campaign store
    artifact only when events actually occurred, so this section
    appears exactly when a run needed supervision.
    """
    retries = metric_total(store_metrics, "repro_shard_retries_total")
    timeouts = metric_total(store_metrics, "repro_shard_timeouts_total")
    quarantined = metric_total(
        store_metrics, "repro_countries_quarantined_total"
    )
    if not (retries or timeouts or quarantined):
        return []
    lines = [
        f"   shard retries:    {_fmt_count(retries)}",
        f"   shard timeouts:   {_fmt_count(timeouts)}",
        f"   quarantined:      {_fmt_count(quarantined)}",
    ]
    by_reason: dict[str, float] = defaultdict(float)
    for labels, sample in _samples(
        store_metrics, "repro_shard_retries_total"
    ):
        by_reason[labels.get("reason", "?")] += float(
            sample.get("value", 0)
        )
    if by_reason:
        detail = ", ".join(
            f"{reason}={_fmt_count(n)}"
            for reason, n in sorted(
                by_reason.items(), key=lambda kv: (-kv[1], kv[0])
            )
        )
        lines.append(f"   retry reasons:    {detail}")
    tombstoned = sorted(
        labels["country"]
        for labels, _ in _samples(
            store_metrics, "repro_countries_quarantined_total"
        )
    )
    if tombstoned:
        lines.append(
            f"   quarantined countries: {' '.join(tombstoned)} "
            f"(a --resume run re-measures them)"
        )
    return lines


def render_campaign_report(
    metrics: dict,
    spans: list[Span] | None = None,
    top: int = 5,
    store_metrics: dict | None = None,
) -> str:
    """Render the operator-facing summary of one campaign run.

    ``metrics`` is a loaded metrics export (:func:`load_metrics`);
    ``spans`` an optional loaded trace
    (:func:`repro.obs.spans.load_trace`) that adds wall-clock stage
    timings.  ``top`` bounds the nameserver and country rankings.
    ``store_metrics`` is the per-campaign store-telemetry artifact
    (kept out of the measurement metrics so resumed runs stay
    byte-identical); when given, a campaign-store section reports
    shard reuse.
    """
    sections: list[tuple[str, list[str]]] = [
        ("overview", _overview_lines(metrics)),
        ("cache efficiency", _cache_lines(metrics)),
        ("stage timings", _stage_lines(metrics, spans)),
        ("failing infrastructure", _nameserver_lines(metrics, top)),
        ("resilience", _breaker_lines(metrics)),
        ("failures by class × layer", _failure_lines(metrics, top)),
    ]
    if store_metrics is not None:
        sections.append(("campaign store", _store_lines(store_metrics)))
        sections.append(("supervision", _supervisor_lines(store_metrics)))
    out: list[str] = ["campaign report", "==============="]
    for title, lines in sections:
        if not lines:
            continue
        out.append("")
        out.append(f"-- {title}")
        out.extend(lines)
    return "\n".join(out)
