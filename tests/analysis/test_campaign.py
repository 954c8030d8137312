"""Tests for the campaign report renderer."""

from __future__ import annotations

import json

import pytest

from repro.analysis import load_metrics, render_campaign_report
from repro.errors import PipelineError
from repro.faults import RetryPolicy, fault_profile
from repro.obs import (
    Instrumentation,
    MetricsRegistry,
    load_trace,
    merge_metrics_payloads,
    write_spans_jsonl,
)
from repro.pipeline import MeasurementPipeline
from repro.worldgen import World, WorldConfig


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Metrics + trace files from a real instrumented chaos run."""
    world = World(
        WorldConfig(sites_per_country=60, countries=("TH", "US"))
    )
    obs = Instrumentation()
    pipeline = MeasurementPipeline(
        world,
        fault_plan=fault_profile("chaos", seed=0),
        retry_policy=RetryPolicy(max_attempts=3, seed=0),
        obs=obs,
    )
    rows = []
    for cc in ("TH", "US"):
        rows.extend(pipeline.measure_country(cc))
    obs.finalize(pipeline, rows)
    out = tmp_path_factory.mktemp("campaign")
    metrics_path = out / "metrics.json"
    trace_path = out / "trace.jsonl"
    obs.registry.write_json(metrics_path)
    write_spans_jsonl(obs.tracer.finished(), trace_path)
    return metrics_path, trace_path


class TestLoadMetrics:
    def test_round_trips_export(self, artifacts) -> None:
        metrics_path, _ = artifacts
        payload = load_metrics(metrics_path)
        assert "repro_rows_total" in payload["metrics"]

    def test_missing_file_raises_pipeline_error(self, tmp_path) -> None:
        with pytest.raises(PipelineError, match="cannot load metrics"):
            load_metrics(tmp_path / "nope.json")

    def test_invalid_json_raises_pipeline_error(self, tmp_path) -> None:
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(PipelineError, match="cannot load metrics"):
            load_metrics(bad)

    def test_wrong_shape_rejected(self, tmp_path) -> None:
        shapeless = tmp_path / "other.json"
        shapeless.write_text(json.dumps({"rows": []}))
        with pytest.raises(PipelineError, match="missing 'metrics'"):
            load_metrics(shapeless)


class TestRenderReport:
    def test_sections_present(self, artifacts) -> None:
        metrics_path, _ = artifacts
        report = render_campaign_report(load_metrics(metrics_path))
        for section in (
            "-- overview",
            "-- cache efficiency",
            "-- stage timings",
            "-- failures by class × layer",
        ):
            assert section in report
        assert report.startswith("campaign report\n===")

    def test_overview_counts_rendered(self, artifacts) -> None:
        metrics_path, _ = artifacts
        metrics = load_metrics(metrics_path)
        report = render_campaign_report(metrics)
        rows = metrics["metrics"]["repro_rows_total"]["samples"]
        total = int(sum(s["value"] for s in rows))
        assert f"rows:      {total} total" in report
        assert "faults:    " in report  # chaos plan injected something

    def test_trace_adds_wall_clock_section(self, artifacts) -> None:
        metrics_path, trace_path = artifacts
        metrics = load_metrics(metrics_path)
        spans = load_trace(trace_path)
        bare = render_campaign_report(metrics)
        traced = render_campaign_report(metrics, spans=spans)
        assert "wall clock, from trace" not in bare
        assert "slowest stages (wall clock, from trace):" in traced
        assert "slowest stages (logical clock):" in traced
        # spans reused from a store carry no wall time and count for none
        stored = [span._replace(wall_ms=None) for span in spans]
        assert "wall clock, from trace" not in render_campaign_report(
            metrics, spans=stored
        )

    def test_top_bounds_nameserver_ranking(self, artifacts) -> None:
        metrics_path, _ = artifacts
        metrics = load_metrics(metrics_path)
        report = render_campaign_report(metrics, top=1)
        section = report.split("top failing nameservers")[1]
        ns_lines = [
            line
            for line in section.splitlines()[1:]
            if line.startswith("  ") and "breaker skips" not in line
        ]
        # Section ends at the next blank line; only one ranked entry.
        head = []
        for line in section.splitlines()[1:]:
            if not line.strip():
                break
            head.append(line)
        ranked = [
            ln for ln in head if not ln.strip().startswith("breaker skips")
        ]
        assert len(ranked) == 1
        assert ns_lines  # sanity: the section is non-empty

    def test_empty_metrics_render_without_crashing(self) -> None:
        report = render_campaign_report({"metrics": {}})
        assert "no failures recorded" in report
        assert "rows:      0 total" in report


def _counted(**families: list[dict]) -> dict:
    """A registry payload counting one event per labels dict."""
    registry = MetricsRegistry()
    for name, events in families.items():
        counter = registry.counter(name, labelnames=tuple(events[0]))
        for labels in events:
            counter.inc(**labels)
    return registry.to_dict()


class TestStoreSection:
    def store_metrics(self) -> dict:
        return _counted(
            repro_store_shard_hits_total=[
                {"country": cc} for cc in ("DE", "TH", "US")
            ],
            repro_store_shard_misses_total=[{"country": "BR"}],
            repro_store_resume_skipped_total=[{"country": "DE"}],
        )

    def test_absent_without_store_metrics(self, artifacts) -> None:
        metrics_path, _ = artifacts
        report = render_campaign_report(load_metrics(metrics_path))
        assert "campaign store" not in report

    def test_store_section_rendered(self, artifacts) -> None:
        metrics_path, _ = artifacts
        report = render_campaign_report(
            load_metrics(metrics_path),
            store_metrics=self.store_metrics(),
        )
        assert "-- campaign store" in report
        assert "shard hits:       3" in report
        assert "shard misses:     1" in report
        assert "resume skipped:   1" in report
        assert "reused: DE TH US" in report
        assert "measured: BR" in report


class TestSupervisionSection:
    def store_metrics(self, with_supervision: bool) -> dict:
        store = _counted(repro_store_shard_misses_total=[{"country": "TH"}])
        if not with_supervision:
            return store
        supervisor = _counted(
            repro_shard_retries_total=[
                {"country": "TH", "reason": "crash"},
                {"country": "TH", "reason": "timeout"},
            ],
            repro_shard_timeouts_total=[{"country": "TH"}],
            repro_countries_quarantined_total=[
                {"country": "TH", "reason": "crash"}
            ],
        )
        return merge_metrics_payloads([store, supervisor])

    def test_absent_on_unsupervised_artifacts(self, artifacts) -> None:
        metrics_path, _ = artifacts
        report = render_campaign_report(
            load_metrics(metrics_path),
            store_metrics=self.store_metrics(with_supervision=False),
        )
        assert "-- supervision" not in report

    def test_supervision_section_rendered(self, artifacts) -> None:
        metrics_path, _ = artifacts
        report = render_campaign_report(
            load_metrics(metrics_path),
            store_metrics=self.store_metrics(with_supervision=True),
        )
        assert "-- supervision" in report
        assert "shard retries:    2" in report
        assert "shard timeouts:   1" in report
        assert "quarantined:      1" in report
        assert "retry reasons:    crash=1, timeout=1" in report
        assert "quarantined countries: TH" in report
        assert "--resume run re-measures them" in report
