"""Campaign lifecycle profiling: structure identity and accounting.

The profiler rides along the supervisor/parallel execution paths, so
its guarantees are behavioral, not unit-level: the *pipeline* span
structure a campaign emits must not depend on the worker count, the
lifecycle spans must account for the campaign wall clock, and the
whole thing must round-trip through the trace file into the analyzer.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.traceprof import analyze_trace, chrome_trace
from repro.obs.profile import PROFILE_SPAN_NAMES
from repro.obs.spans import Span, load_trace
from repro.pipeline import CampaignSpec, run_campaign
from repro.worldgen import WorldConfig

CONFIG = WorldConfig(
    sites_per_country=50, countries=("BR", "DE", "TH", "US")
)

SPEC = CampaignSpec(
    config=CONFIG,
    fault_profile="chaos",
    fault_seed=3,
    retries=3,
    instrument=True,
)


@pytest.fixture(scope="module")
def campaigns():
    return {
        workers: run_campaign(SPEC, workers=workers)
        for workers in (1, 2, 4)
    }


def _structure(spans) -> list[tuple]:
    return [
        (s.name, s.parent_id, tuple(sorted(s.attrs.items())))
        for s in spans
    ]


def _by_name(spans, name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


class TestStructureIdentity:
    def test_pipeline_spans_identical_across_worker_counts(
        self, campaigns
    ) -> None:
        reference = _structure(campaigns[1].spans)
        for workers in (2, 4):
            assert _structure(campaigns[workers].spans) == reference

    def test_pipeline_spans_never_contain_lifecycle_names(
        self, campaigns
    ) -> None:
        for result in campaigns.values():
            assert not any(
                s.name in PROFILE_SPAN_NAMES for s in result.spans
            )

    def test_lifecycle_spans_live_in_profile_spans(self, campaigns) -> None:
        for workers, result in campaigns.items():
            spans = result.profile_spans
            assert spans, f"workers={workers} has no lifecycle spans"
            assert all(s.name in PROFILE_SPAN_NAMES for s in spans)
            roots = _by_name(spans, "campaign")
            assert len(roots) == 1

    def test_uninstrumented_run_has_no_profile(self) -> None:
        import dataclasses

        spec = dataclasses.replace(SPEC, instrument=False)
        result = run_campaign(spec, workers=2)
        assert result.profile is None
        assert result.profile_spans is None


class TestLifecycleCounts:
    def test_spawn_count_matches_workers(self, campaigns) -> None:
        assert _by_name(campaigns[1].profile_spans, "worker-spawn") == []
        for workers in (2, 4):
            spawns = _by_name(
                campaigns[workers].profile_spans, "worker-spawn"
            )
            assert len(spawns) == workers
            assert sorted(s.attrs["worker"] for s in spawns) == [
                f"w{i}" for i in range(workers)
            ]

    def test_every_country_computed_exactly_once(self, campaigns) -> None:
        for result in campaigns.values():
            computes = _by_name(result.profile_spans, "compute")
            assert sorted(
                s.attrs["country"] for s in computes
            ) == sorted(CONFIG.countries)

    def test_sharded_dispatch_covers_every_country(self, campaigns) -> None:
        for workers in (2, 4):
            dispatches = _by_name(
                campaigns[workers].profile_spans, "dispatch"
            )
            ok = [d for d in dispatches if d.status == "ok"]
            assert sorted(d.attrs["country"] for d in ok) == sorted(
                CONFIG.countries
            )

    def test_serial_run_has_no_dispatch_layer(self, campaigns) -> None:
        names = {s.name for s in campaigns[1].profile_spans}
        assert "dispatch" not in names
        assert "queue-wait" not in names


class TestUtilizationAccounting:
    def test_busy_idle_spawn_sum_to_wall(self, campaigns) -> None:
        for workers, result in campaigns.items():
            metrics = result.profile["metrics"]
            wall = metrics["repro_campaign_wall_seconds"]["samples"][0][
                "value"
            ]
            assert wall > 0

            def series(name: str) -> dict[str, float]:
                return {
                    s["labels"]["worker"]: s["value"]
                    for s in metrics[name]["samples"]
                }

            busy = series("repro_worker_busy_seconds")
            idle = series("repro_worker_idle_seconds")
            spawn = series("repro_worker_spawn_seconds")
            for worker in busy:
                total = (
                    busy[worker]
                    + idle.get(worker, 0.0)
                    + spawn.get(worker, 0.0)
                )
                assert total == pytest.approx(wall, rel=0.05), (
                    f"workers={workers} {worker}: "
                    f"{total} != wall {wall}"
                )

    def test_tasks_total_matches_country_count(self, campaigns) -> None:
        for result in campaigns.values():
            samples = result.profile["metrics"][
                "repro_worker_tasks_total"
            ]["samples"]
            assert sum(s["value"] for s in samples) >= len(
                CONFIG.countries
            )


class TestQueueWait:
    def test_no_phase_total_exceeds_wall_times_workers(self) -> None:
        # Twelve countries on two workers: the countries wait for a
        # worker concurrently, so their summed wait is several times
        # the wall clock and must not be reported as a phase.
        config = WorldConfig(
            sites_per_country=50,
            countries=(
                "AR", "AU", "BR", "CA", "DE", "FR",
                "GB", "IN", "JP", "NG", "TH", "US",
            ),
        )
        result = run_campaign(
            CampaignSpec(config=config, instrument=True), workers=2
        )
        metrics = result.profile["metrics"]
        wall = metrics["repro_campaign_wall_seconds"]["samples"][0]["value"]
        phases = {
            s["labels"]["phase"]: s["value"]
            for s in metrics["repro_phase_seconds"]["samples"]
        }
        assert "queue-wait" not in phases
        for phase, seconds in phases.items():
            assert seconds <= wall * 2, (phase, seconds, wall)
        waits = {
            s["labels"]["stat"]: s["value"]
            for s in metrics["repro_queue_wait_seconds"]["samples"]
        }
        assert waits == analyze_trace(list(result.profile_spans)).queue_wait
        assert 0 < waits["p50"] <= waits["p95"] <= waits["max"] <= wall


class TestTraceRoundTrip:
    def test_trace_file_feeds_the_analyzer(
        self, campaigns, tmp_path
    ) -> None:
        result = campaigns[4]
        path = tmp_path / "trace.jsonl"
        result.write_trace(path)
        spans = load_trace(path)
        profile = analyze_trace(spans)
        assert profile.has_profile
        assert profile.pipeline_span_count == len(result.spans)
        assert profile.profile_span_count == len(result.profile_spans)
        # Critical path partitions the campaign wall clock.
        assert sum(
            profile.critical_phases.values()
        ) == pytest.approx(profile.wall_seconds, rel=0.05)
        # Worker utilization adds up from the loaded trace too.
        for entry in profile.workers.values():
            assert entry["busy"] + entry["idle"] + entry[
                "spawn"
            ] == pytest.approx(profile.wall_seconds, rel=0.05)

    def test_span_ids_stay_dense_with_profile_appended(
        self, campaigns, tmp_path
    ) -> None:
        result = campaigns[2]
        path = tmp_path / "trace.jsonl"
        result.write_trace(path)
        spans = load_trace(path)
        ids = sorted(s.span_id for s in spans)
        assert ids == list(range(1, len(spans) + 1))
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id

    def test_chrome_export_covers_both_layers(
        self, campaigns, tmp_path
    ) -> None:
        result = campaigns[2]
        path = tmp_path / "trace.jsonl"
        result.write_trace(path)
        trace = chrome_trace(load_trace(path))
        assert {e["ph"] for e in trace["traceEvents"]} == {"M", "X"}
        pids = {
            e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert pids == {1, 2}

    def test_write_profile_artifact(self, campaigns, tmp_path) -> None:
        path = tmp_path / "profile.json"
        campaigns[2].write_profile(path)
        payload = json.loads(path.read_text())
        assert "repro_worker_busy_seconds" in payload["metrics"]
        assert "repro_queue_depth" in payload["metrics"]


class TestTraceCli:
    @pytest.fixture()
    def trace_path(self, campaigns, tmp_path):
        path = tmp_path / "trace.jsonl"
        campaigns[2].write_trace(path)
        return path

    def test_summarize(self, trace_path, capsys) -> None:
        from repro.cli import main

        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "## Campaign" in out
        assert "## Critical path" in out

    def test_summarize_json(self, trace_path, capsys) -> None:
        from repro.cli import main

        assert main(["trace", "summarize", str(trace_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["has_profile"] is True
        assert payload["pipeline_span_count"] > 0

    def test_critical_path(self, trace_path, capsys) -> None:
        from repro.cli import main

        assert (
            main(["trace", "critical-path", str(trace_path), "--top", "5"])
            == 0
        )
        assert "# Critical path" in capsys.readouterr().out

    def test_export_chrome(self, trace_path, tmp_path, capsys) -> None:
        from repro.cli import main

        out_path = tmp_path / "chrome.json"
        assert (
            main(
                [
                    "trace",
                    "export",
                    str(trace_path),
                    "--format",
                    "chrome",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        trace = json.loads(out_path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
