"""Integration tests: the telemetry substrate against a real campaign.

The observability acceptance properties:

* a traced run's metrics agree exactly with the dataset's own
  ``attempts`` / ``degraded`` / error-field accounting;
* two runs with the same seed emit byte-identical metrics JSON;
* instrumentation never changes the measurement itself — the dataset
  of an instrumented run is identical to an uninstrumented one;
* spans reconstruct the per-site stage structure.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults import RetryPolicy, fault_profile
from repro.obs import Instrumentation
from repro.pipeline import MeasurementDataset, MeasurementPipeline
from repro.pipeline import measure as measure_module
from repro.worldgen import World, WorldConfig

COUNTRIES = ("TH", "US")
SITES = 60
SEED = 3


@pytest.fixture(scope="module")
def world() -> World:
    return World(
        WorldConfig(sites_per_country=SITES, countries=COUNTRIES)
    )


def _run(world: World, instrumented: bool):
    obs = Instrumentation() if instrumented else None
    pipeline = MeasurementPipeline(
        world,
        fault_plan=fault_profile("chaos", seed=SEED),
        retry_policy=RetryPolicy(max_attempts=3, seed=SEED),
        obs=obs,
    )
    dataset = MeasurementDataset()
    for cc in COUNTRIES:
        dataset.extend(pipeline.measure_country(cc))
    if obs is not None:
        obs.finalize(pipeline, dataset)
    return dataset, obs, pipeline


class TestMetricsMatchDataset:
    @pytest.fixture(scope="class")
    def traced(self, world: World):
        return _run(world, instrumented=True)

    def test_attempts_counter_matches_rows(self, traced) -> None:
        dataset, obs, _ = traced
        assert obs.attempts.total() == sum(r.attempts for r in dataset)

    def test_degraded_counter_matches_rows(self, traced) -> None:
        dataset, obs, _ = traced
        assert obs.degraded_rows.total() == sum(
            1 for r in dataset if r.degraded
        )

    def test_row_status_counters_match(self, traced) -> None:
        dataset, obs, _ = traced
        assert obs.rows.value(status="ok") == sum(
            1 for r in dataset if r.ok
        )
        assert obs.rows.value(status="failed") == sum(
            1 for r in dataset if not r.ok
        )
        assert obs.rows.total() == len(dataset)

    def test_failure_counter_matches_taxonomy(self, traced) -> None:
        dataset, obs, _ = traced
        expected = {
            (cls, layer, country): count
            for cls, layers in dataset.failure_taxonomy().items()
            for layer, countries in layers.items()
            for country, count in countries.items()
        }
        observed = {
            (
                labels["failure_class"],
                labels["layer"],
                labels["country"],
            ): value
            for labels, value in obs.failures.samples()
        }
        assert observed == expected
        assert sum(expected.values()) > 0  # chaos profile really fired

    def test_dns_counters_match_resolver(self, traced) -> None:
        _, obs, pipeline = traced
        resolver = pipeline.resolver
        assert obs.dns_queries.total() == resolver.queries
        assert (
            obs.dns_cache_hits.value(kind="positive")
            == resolver.cache_hits
        )
        assert (
            obs.dns_cache_hits.value(kind="negative")
            == resolver.negative_cache_hits
        )
        assert obs.dns_uncached_total.total() == (
            resolver.queries
            - resolver.cache_hits
            - resolver.negative_cache_hits
        )

    def test_injected_fault_gauges_match_plan(self, traced) -> None:
        _, obs, pipeline = traced
        gauge = obs.registry.get("repro_faults_injected")
        observed = {
            labels["injector"]: value
            for labels, value in gauge.samples()
        }
        assert observed == dict(pipeline.fault_plan.injected)


class TestDeterminism:
    def test_same_seed_identical_metrics_json(self, world: World) -> None:
        _, obs_a, _ = _run(world, instrumented=True)
        _, obs_b, _ = _run(world, instrumented=True)
        assert obs_a.registry.to_json() == obs_b.registry.to_json()

    def test_same_seed_identical_prometheus(self, world: World) -> None:
        _, obs_a, _ = _run(world, instrumented=True)
        _, obs_b, _ = _run(world, instrumented=True)
        assert (
            obs_a.registry.to_prometheus()
            == obs_b.registry.to_prometheus()
        )


class TestNoopDefault:
    def test_instrumentation_does_not_change_measurements(
        self, world: World
    ) -> None:
        bare, _, _ = _run(world, instrumented=False)
        traced, _, _ = _run(world, instrumented=True)
        assert [dataclasses.asdict(r) for r in bare] == [
            dataclasses.asdict(r) for r in traced
        ]

    def test_uninstrumented_pipeline_has_no_observers(
        self, world: World, monkeypatch
    ) -> None:
        sessions = []
        real_session = measure_module.RetrySession

        def recording_session(*args, **kwargs):
            sessions.append(real_session(*args, **kwargs))
            return sessions[-1]

        monkeypatch.setattr(measure_module, "RetrySession", recording_session)
        pipeline = MeasurementPipeline(
            world, retry_policy=RetryPolicy(max_attempts=3, seed=SEED)
        )
        pipeline.measure_country(COUNTRIES[0])
        assert pipeline.resolver.observer is None
        assert pipeline.breaker.on_transition is None
        assert len(sessions) == SITES
        assert all(session.observer is None for session in sessions)


class TestSpans:
    def test_site_spans_cover_every_row(self, world: World) -> None:
        dataset, obs, _ = _run(world, instrumented=True)
        sites = [s for s in obs.tracer.finished() if s.name == "site"]
        assert len(sites) == len(dataset)
        assert {s.attrs["country"] for s in sites} == set(COUNTRIES)

    def test_stage_spans_nest_under_sites(self, world: World) -> None:
        _, obs, _ = _run(world, instrumented=True)
        spans = obs.tracer.finished()
        by_id = {s.span_id: s for s in spans}
        stage_names = set()
        for span in spans:
            if span.parent_id is not None:
                assert by_id[span.parent_id].name == "site"
                stage_names.add(span.name)
        assert {"http", "resolve", "label", "ns-walk", "tls", "enrich"} == (
            stage_names
        )

    def test_stage_histogram_observed_per_span(self, world: World) -> None:
        _, obs, _ = _run(world, instrumented=True)
        spans = obs.tracer.finished()
        for stage in ("site", "resolve", "tls"):
            _, _, count = obs.stage_seconds.snapshot(stage=stage)
            assert count == sum(1 for s in spans if s.name == stage)
