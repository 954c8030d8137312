"""A deterministic metrics registry: counters, gauges, histograms.

A measurement campaign is judged by its accounting — queries issued,
cache hits, retries spent, circuits opened, failures per taxonomy
class — so the accounting itself must be reproducible: two runs with
the same seed must emit *byte-identical* metrics files.  That rules
out wall-clock timestamps and unordered iteration anywhere in the
export path.  Every instrument here is therefore pure state updated by
explicit calls; histograms use fixed bucket boundaries declared at
creation; exports sort metric families by name and samples by label
values; and JSON serialization sorts keys.  Wall-clock timings belong
in the tracer's spans (:mod:`repro.obs.spans`), never here.

Exports: :meth:`MetricsRegistry.to_json` (the stable machine-readable
release format) and :meth:`MetricsRegistry.to_prometheus` (the
text exposition format scrapers expect).
"""

from __future__ import annotations

import json
import threading
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "METRICS_SCHEMA",
    "merge_metrics_payloads",
    "metric_total",
    "render_metrics_json",
]

#: Schema tag written into every metrics JSON export.
METRICS_SCHEMA = "repro-metrics-v1"

#: Default histogram boundaries for logical-clock durations (seconds).
#: Spanning sub-millisecond cache hits to multi-minute backoff storms.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.001,
    0.01,
    0.1,
    0.5,
    1.0,
    5.0,
    15.0,
    60.0,
    300.0,
)


def _format_value(value: float) -> int | float:
    """Render integral floats as ints so JSON output stays tidy."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return int(value)
    if float(value).is_integer() and abs(value) < 2**53:
        return int(value)
    return float(value)


def _prom_number(value: float) -> str:
    """Prometheus text-format rendering of a sample value."""
    formatted = _format_value(value)
    return str(formatted)


class _Metric:
    """Shared label handling for all instrument kinds."""

    kind = "metric"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        lock: threading.Lock,
    ) -> None:
        if not name.isidentifier():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not label.isidentifier():
                raise ValueError(f"invalid label name {label!r}")
        #: Guards every update: the lock of the registry that owns it.
        self._lock = lock

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _labels_dict(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, key))


class Counter(_Metric):
    """A monotonically increasing sum, optionally labeled."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        lock: threading.Lock,
    ) -> None:
        super().__init__(name, help, labelnames, lock=lock)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labeled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of one labeled series (0 if never touched)."""
        return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum across every labeled series."""
        return sum(self._values.values())

    def samples(self) -> list[tuple[dict[str, str], float]]:
        """All series as ``(labels, value)``, sorted by label values."""
        return [
            (self._labels_dict(key), self._values[key])
            for key in sorted(self._values)
        ]


class Gauge(_Metric):
    """A value that can go up and down (set to the latest reading)."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        lock: threading.Lock,
    ) -> None:
        super().__init__(name, help, labelnames, lock=lock)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Record the latest reading for the labeled series."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def value(self, **labels: object) -> float:
        """Latest reading of one labeled series (0 if never set)."""
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        """All series as ``(labels, value)``, sorted by label values."""
        return [
            (self._labels_dict(key), self._values[key])
            for key in sorted(self._values)
        ]


class Histogram(_Metric):
    """A distribution over fixed, creation-time bucket boundaries.

    Boundaries are upper bounds; an implicit ``+Inf`` bucket catches
    the rest.  Exported counts are cumulative (Prometheus ``le``
    semantics) in both the JSON and text formats, so the same numbers
    mean the same thing everywhere.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
        *,
        lock: threading.Lock,
    ) -> None:
        super().__init__(name, help, labelnames, lock=lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name} buckets must be strictly increasing"
            )
        self.buckets = bounds
        #: key -> [per-bucket counts [len(buckets)+1], sum, count]
        #: (a mutable list so the hot path updates in place).
        self._series: dict[
            tuple[str, ...], list
        ] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the labeled series."""
        self.observe_all((value,), **labels)

    def observe_all(self, values: Iterable[float], **labels: object) -> None:
        """Record observations into the labeled series, in order, under
        one acquisition of the lock (the stage fold's batch)."""
        key = self._key(labels)
        buckets = self.buckets
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [[0] * (len(buckets) + 1), 0.0, 0]
            counts, total, count = series
            for value in values:
                for i, bound in enumerate(buckets):
                    if value <= bound:
                        counts[i] += 1
                        break
                else:
                    counts[-1] += 1
                total += float(value)
                count += 1
            series[1] = total
            series[2] = count

    def snapshot(
        self, **labels: object
    ) -> tuple[dict[str, int], float, int]:
        """Cumulative ``(bucket counts, sum, count)`` for one series."""
        series = self._series.get(self._key(labels))
        if series is None:
            empty = {str(b): 0 for b in self.buckets}
            empty["+Inf"] = 0
            return empty, 0.0, 0
        counts, total, count = series
        cumulative: dict[str, int] = {}
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            cumulative[str(bound)] = running
        cumulative["+Inf"] = running + counts[-1]
        return cumulative, total, count

    def samples(
        self,
    ) -> list[tuple[dict[str, str], dict[str, int], float, int]]:
        """All series as ``(labels, cumulative buckets, sum, count)``."""
        out = []
        for key in sorted(self._series):
            labels = self._labels_dict(key)
            buckets, total, count = self.snapshot(**labels)
            out.append((labels, buckets, total, count))
        return out


class MetricsRegistry:
    """A named collection of instruments with deterministic export.

    Thread-safe: one lock guards the registry, every update of its
    instruments and each export, so concurrent updates lose no count
    and an export never sees a series being inserted.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if (
                    type(existing) is not type(metric)
                    or existing.labelnames != metric.labelnames
                ):
                    raise ValueError(
                        f"metric {metric.name!r} already registered with a "
                        f"different type or label set"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or create a counter (idempotent for identical shape)."""
        metric = self._register(
            Counter(name, help, labelnames, lock=self._lock)
        )
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Get or create a gauge (idempotent for identical shape)."""
        metric = self._register(
            Gauge(name, help, labelnames, lock=self._lock)
        )
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram (idempotent for identical shape)."""
        metric = self._register(
            Histogram(name, help, labelnames, buckets, lock=self._lock)
        )
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> _Metric | None:
        """A registered metric by name (None when absent)."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The registry as a JSON-ready mapping, fully sorted."""
        with self._lock:
            out: dict = {"_schema": METRICS_SCHEMA, "metrics": {}}
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                entry: dict = {"type": metric.kind, "help": metric.help}
                if isinstance(metric, (Counter, Gauge)):
                    entry["samples"] = [
                        {"labels": labels, "value": _format_value(value)}
                        for labels, value in metric.samples()
                    ]
                elif isinstance(metric, Histogram):
                    entry["buckets"] = [
                        _format_value(b) for b in metric.buckets
                    ]
                    entry["samples"] = [
                        {
                            "labels": labels,
                            "cumulative": buckets,
                            "sum": _format_value(total),
                            "count": count,
                        }
                        for labels, buckets, total, count in metric.samples()
                    ]
                out["metrics"][name] = entry
            return out

    def to_json(self) -> str:
        """Deterministic JSON rendering (byte-identical across runs)."""
        return render_metrics_json(self.to_dict())

    def write_json(self, path: str | Path) -> None:
        """Write :meth:`to_json` to a file."""
        Path(path).write_text(self.to_json(), encoding="utf-8")

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (0.0.4)."""
        with self._lock:
            lines: list[str] = []
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
                if isinstance(metric, (Counter, Gauge)):
                    for labels, value in metric.samples():
                        lines.append(
                            f"{name}{_prom_labels(labels)} "
                            f"{_prom_number(value)}"
                        )
                elif isinstance(metric, Histogram):
                    for labels, buckets, total, count in metric.samples():
                        for bound, n in buckets.items():
                            le = dict(labels)
                            le["le"] = bound
                            lines.append(
                                f"{name}_bucket{_prom_labels(le)} {n}"
                            )
                        lines.append(
                            f"{name}_sum{_prom_labels(labels)} "
                            f"{_prom_number(total)}"
                        )
                        lines.append(
                            f"{name}_count{_prom_labels(labels)} {count}"
                        )
            return "\n".join(lines) + "\n"


def render_metrics_json(payload: dict) -> str:
    """The canonical JSON rendering of a metrics payload.

    Shared by :meth:`MetricsRegistry.to_json` and the shard merge, so
    a merged campaign export renders like a single registry's (whose
    samples keep label-name order; the merge orders them by label set).
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sample_sort_key(
    labels: Mapping[str, object]
) -> tuple[tuple[str, str], ...]:
    # The label set, by sorted name: a fresh shard's labels keep
    # labelnames order while a stored shard's come back key-sorted, and
    # both must land on one sample.
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def merge_metrics_payloads(payloads: Sequence[dict]) -> dict:
    """Merge per-shard metrics exports into one campaign payload.

    Counters and gauges sum per label set (gauges here are end-of-run
    totals like resolver query counts, so summing per-shard readings
    yields the campaign total); histograms sum cumulative bucket
    counts, sums, and counts.  Families must agree on type across
    payloads.  Output families are sorted by name and samples by label
    set (label names sorted, each with its value), so the result
    depends only on the multiset of inputs and their order — callers
    feed shards in sorted-country order to make the merge independent
    of shard layout — and never on the order a payload lists a
    sample's labels in.
    """
    families: dict[str, dict] = {}
    accumulators: dict[str, dict[tuple[tuple[str, str], ...], dict]] = {}
    for payload in payloads:
        for name, entry in payload.get("metrics", {}).items():
            family = families.get(name)
            if family is None:
                family = {"type": entry["type"], "help": entry.get("help", "")}
                if "buckets" in entry:
                    family["buckets"] = list(entry["buckets"])
                families[name] = family
                accumulators[name] = {}
            elif family["type"] != entry["type"]:
                raise ValueError(
                    f"metric {name!r} has conflicting types across "
                    f"shards: {family['type']} vs {entry['type']}"
                )
            acc = accumulators[name]
            if entry["type"] == "histogram":
                for sample in entry.get("samples", ()):
                    key = _sample_sort_key(sample["labels"])
                    merged = acc.get(key)
                    if merged is None:
                        acc[key] = {
                            "labels": dict(sample["labels"]),
                            "cumulative": dict(sample["cumulative"]),
                            "sum": float(sample["sum"]),
                            "count": int(sample["count"]),
                        }
                    else:
                        cumulative = merged["cumulative"]
                        for bound, n in sample["cumulative"].items():
                            cumulative[bound] = cumulative.get(bound, 0) + n
                        merged["sum"] += float(sample["sum"])
                        merged["count"] += int(sample["count"])
            else:
                for sample in entry.get("samples", ()):
                    key = _sample_sort_key(sample["labels"])
                    merged = acc.get(key)
                    if merged is None:
                        acc[key] = {
                            "labels": dict(sample["labels"]),
                            "value": float(sample["value"]),
                        }
                    else:
                        merged["value"] += float(sample["value"])
    out: dict = {"_schema": METRICS_SCHEMA, "metrics": {}}
    for name in sorted(families):
        family = families[name]
        entry = {"type": family["type"], "help": family["help"]}
        if "buckets" in family:
            entry["buckets"] = family["buckets"]
        samples = []
        acc = accumulators[name]
        for key in sorted(acc):
            merged = acc[key]
            if family["type"] == "histogram":
                samples.append(
                    {
                        "labels": merged["labels"],
                        "cumulative": merged["cumulative"],
                        "sum": _format_value(merged["sum"]),
                        "count": merged["count"],
                    }
                )
            else:
                samples.append(
                    {
                        "labels": merged["labels"],
                        "value": _format_value(merged["value"]),
                    }
                )
        entry["samples"] = samples
        out["metrics"][name] = entry
    return out


def metric_total(payload: dict, name: str, **labels: str) -> float:
    """Sum a counter or gauge family's samples in a metrics payload.

    ``labels`` keeps only the samples carrying those label values.  An
    absent family sums to 0, so callers can read any artifact —
    including one written before the family existed.
    """
    entry = payload.get("metrics", {}).get(name, {})
    total = 0.0
    for sample in entry.get("samples", ()):
        sample_labels = sample.get("labels", {})
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            total += float(sample.get("value", 0))
    return total


def _prom_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_prom_escape(value)}"' for key, value in labels.items()
    )
    return "{" + body + "}"


def _prom_escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )
