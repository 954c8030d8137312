"""Tests for the deterministic metrics registry."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults import FAULT_PROFILES
from repro.obs import MetricsRegistry, metric_total, render_metrics_json
from repro.obs.metrics import METRICS_SCHEMA
from repro.pipeline.parallel import CampaignSpec, run_campaign
from repro.worldgen import WorldConfig

#: sha256 of ``render_metrics_json`` of the instrumented campaign in
#: :class:`TestPinnedMetricsBytes`, by (fault profile, retries).  The
#: same under any ``PYTHONHASHSEED``.
PINNED_METRICS_SHA256 = {
    ("chaos", 3): "298a24a36292fcabfc4b7e9cd815549796b90298d23e1bb78d4cc5c942ae27b7",
    ("flaky-dns", 3): "a4110053103394f579cfa7c785a67f2ce8da907b22ffc349f7c5bdeaec69c00e",
    ("flaky-tls", 3): "447de3f90d11f3d6d5d56b3c12dd42ccf3196d3fae14e10f72cdc81c2f93b2d7",
    ("none", 3): "ff632927762ae2ce5a0d5d4af16250c8dba7851d43906399eb9f4fed07716a3f",
    ("ns-outage", 3): "f4539dd0fc75fe8d596537058e46b9fa5d68db4c9b85b1eabb5bc68ce16ba463",
    ("slow-dns", 3): "f51a965364653fe7fa80c7c646d6340a9ee35b317cdc60919fbc2fd53e92a387",
    ("stale-geo", 3): "621571c8b6497b46596bd644eff23fff7228060e582b227b5a5b2f833b3d85af",
    ("none", 1): "ff632927762ae2ce5a0d5d4af16250c8dba7851d43906399eb9f4fed07716a3f",
    ("chaos", 1): "313fb075e1d4e2dd07ee881e39a4574a1470bc195dffe403337401b3a1d0f235",
}


class TestCounter:
    def test_starts_at_zero_and_accumulates(self) -> None:
        c = MetricsRegistry().counter("requests_total")
        assert c.value() == 0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        assert c.total() == 3.5

    def test_labels_partition_series(self) -> None:
        c = MetricsRegistry().counter("events_total", labelnames=("kind",))
        c.inc(kind="hit")
        c.inc(kind="hit")
        c.inc(kind="miss")
        assert c.value(kind="hit") == 2
        assert c.value(kind="miss") == 1
        assert c.total() == 3

    def test_rejects_decrease_and_wrong_labels(self) -> None:
        c = MetricsRegistry().counter("n_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            c.inc(-1.0, kind="hit")
        with pytest.raises(ValueError):
            c.inc(other="hit")
        with pytest.raises(ValueError):
            c.inc()

    def test_samples_sorted_by_label_value(self) -> None:
        c = MetricsRegistry().counter("n_total", labelnames=("kind",))
        c.inc(kind="zebra")
        c.inc(kind="aardvark")
        labels = [s[0]["kind"] for s in c.samples()]
        assert labels == ["aardvark", "zebra"]


class TestGauge:
    def test_set_overwrites(self) -> None:
        g = MetricsRegistry().gauge("open_circuits")
        g.set(4)
        g.set(2)
        assert g.value() == 2


class TestHistogram:
    def test_cumulative_buckets(self) -> None:
        h = MetricsRegistry().histogram(
            "latency_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        buckets, total, count = h.snapshot()
        assert buckets == {"0.1": 1, "1.0": 3, "10.0": 4, "+Inf": 5}
        assert count == 5
        assert total == pytest.approx(56.05)

    def test_empty_series_snapshot(self) -> None:
        h = MetricsRegistry().histogram("x_seconds", buckets=(1.0,))
        buckets, total, count = h.snapshot()
        assert buckets == {"1.0": 0, "+Inf": 0}
        assert count == 0

    def test_rejects_bad_buckets(self) -> None:
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("a_seconds", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("b_seconds", buckets=(2.0, 1.0))


    def test_observe_all_matches_repeated_observe(self) -> None:
        r = MetricsRegistry()
        h = r.histogram(
            "t_seconds", buckets=(1.0, 5.0), labelnames=("stage",)
        )
        h.observe_all([0.5, 3.0, 7.0, 0.1], stage="tls")
        h.observe(2.0, stage="tls")
        buckets, total, count = h.snapshot(stage="tls")
        assert buckets == {"1.0": 2, "5.0": 4, "+Inf": 5}
        assert total == 0.5 + 3.0 + 7.0 + 0.1 + 2.0  # in observation order
        assert count == 5
        with pytest.raises(ValueError):
            h.observe_all([1.0], wrong="tls")


class TestRegistry:
    def test_idempotent_registration(self) -> None:
        r = MetricsRegistry()
        first = r.counter("n_total", labelnames=("kind",))
        again = r.counter("n_total", labelnames=("kind",))
        assert first is again

    def test_conflicting_registration_rejected(self) -> None:
        r = MetricsRegistry()
        r.counter("n_total")
        with pytest.raises(ValueError):
            r.gauge("n_total")
        with pytest.raises(ValueError):
            r.counter("n_total", labelnames=("kind",))

    def test_json_export_is_deterministic(self) -> None:
        def build() -> MetricsRegistry:
            r = MetricsRegistry()
            c = r.counter("events_total", "help", ("kind",))
            c.inc(kind="b")
            c.inc(0.25, kind="a")
            h = r.histogram("t_seconds", buckets=(0.5, 5.0))
            h.observe(0.1)
            h.observe(1.0)
            r.gauge("open").set(3)
            return r

        assert build().to_json() == build().to_json()
        payload = json.loads(build().to_json())
        assert payload["_schema"] == METRICS_SCHEMA
        assert set(payload["metrics"]) == {
            "events_total",
            "t_seconds",
            "open",
        }

    def test_write_json_round_trip(self, tmp_path) -> None:
        r = MetricsRegistry()
        r.counter("n_total").inc(7)
        path = tmp_path / "m.json"
        r.write_json(path)
        loaded = json.loads(path.read_text())
        sample = loaded["metrics"]["n_total"]["samples"][0]
        assert sample == {"labels": {}, "value": 7}

    def test_prometheus_text_format(self) -> None:
        r = MetricsRegistry()
        c = r.counter("events_total", "things that happened", ("kind",))
        c.inc(2, kind="hit")
        h = r.histogram("t_seconds", "timing", buckets=(1.0,))
        h.observe(0.5)
        text = r.to_prometheus()
        assert "# HELP events_total things that happened" in text
        assert "# TYPE events_total counter" in text
        assert 'events_total{kind="hit"} 2' in text
        assert 't_seconds_bucket{le="1.0"} 1' in text
        assert 't_seconds_bucket{le="+Inf"} 1' in text
        assert "t_seconds_sum 0.5" in text
        assert "t_seconds_count 1" in text

    def test_prometheus_escapes_label_values(self) -> None:
        r = MetricsRegistry()
        c = r.counter("n_total", labelnames=("msg",))
        c.inc(msg='say "hi"\nplease')
        text = r.to_prometheus()
        assert '\\"hi\\"' in text
        assert "\\n" in text


class TestPinnedMetricsBytes:
    def test_campaign_metrics_match_pinned_bytes(self) -> None:
        assert {p for p, retries in PINNED_METRICS_SHA256 if retries == 3} == (
            set(FAULT_PROFILES)
        )
        # 1,000 sites per country is the smallest size at which chaos
        # opens a circuit, so the breaker families carry samples too.
        config = WorldConfig(seed=7, sites_per_country=1000, countries=("TH", "US"))
        world = None
        digests = {}
        payloads = {}
        for profile, retries in PINNED_METRICS_SHA256:
            spec = CampaignSpec(
                config=config,
                fault_profile=profile,
                fault_seed=7,
                retries=retries,
                instrument=True,
            )
            if world is None:
                world = spec.build_world()
            payload = payloads[profile, retries] = run_campaign(
                spec, world=world
            ).metrics
            digests[profile, retries] = hashlib.sha256(
                render_metrics_json(payload).encode("utf-8")
            ).hexdigest()
        assert digests == PINNED_METRICS_SHA256
        chaos = payloads["chaos", 3]
        assert metric_total(chaos, "repro_breaker_skips_total") > 0
        assert metric_total(chaos, "repro_retries_total") > 0


class TestMergePayloads:
    """Shard payloads merge into the registry a single run would build."""

    @staticmethod
    def _registry(hit_count: int, seconds: float) -> MetricsRegistry:
        r = MetricsRegistry()
        c = r.counter("events_total", "events", labelnames=("kind",))
        for _ in range(hit_count):
            c.inc(kind="hit")
        r.gauge("queries", "end-of-run total").set(float(hit_count))
        h = r.histogram("t_seconds", "timings", buckets=(1.0, 5.0))
        h.observe(seconds)
        return r

    def test_merge_equals_single_registry(self) -> None:
        from repro.obs.metrics import (
            merge_metrics_payloads,
            render_metrics_json,
        )

        merged = merge_metrics_payloads(
            [
                self._registry(2, 0.5).to_dict(),
                self._registry(3, 3.0).to_dict(),
            ]
        )
        combined = MetricsRegistry()
        c = combined.counter(
            "events_total", "events", labelnames=("kind",)
        )
        c.inc(kind="hit", amount=5)
        combined.gauge("queries", "end-of-run total").set(5.0)
        h = combined.histogram(
            "t_seconds", "timings", buckets=(1.0, 5.0)
        )
        h.observe(0.5)
        h.observe(3.0)
        assert render_metrics_json(merged) == render_metrics_json(
            combined.to_dict()
        )

    def test_single_payload_roundtrips(self) -> None:
        from repro.obs.metrics import merge_metrics_payloads

        payload = self._registry(4, 0.2).to_dict()
        merged = merge_metrics_payloads([payload])
        assert merged["metrics"] == payload["metrics"]

    def test_type_conflict_raises(self) -> None:
        from repro.obs.metrics import merge_metrics_payloads

        a = MetricsRegistry()
        a.counter("x_total").inc()
        b = MetricsRegistry()
        b.gauge("x_total").set(1.0)
        with pytest.raises(ValueError):
            merge_metrics_payloads([a.to_dict(), b.to_dict()])
