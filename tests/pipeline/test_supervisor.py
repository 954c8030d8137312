"""Unit tests for the shard supervisor and its policy knobs.

The integration-level convergence proofs live in
``tests/integration/test_chaos.py``; these tests pin the smaller
contracts — policy validation, the jittered resubmission schedule,
tombstone shape, and the supervisor's bookkeeping — without paying
for full chaotic campaigns.
"""

from __future__ import annotations

import pytest

from repro.errors import PipelineError
from repro.obs.metrics import MetricsRegistry, metric_total
from repro.pipeline import CampaignSpec, run_campaign
from repro.pipeline.supervisor import (
    ShardSupervisor,
    SupervisorPolicy,
    quarantine_tombstone,
)
from repro.worldgen import WorldConfig

CONFIG = WorldConfig(sites_per_country=50, countries=("TH", "US"))
SPEC = CampaignSpec(config=CONFIG, instrument=False)


class TestPolicyValidation:
    def test_defaults_are_valid(self) -> None:
        policy = SupervisorPolicy()
        assert policy.country_timeout is None
        assert policy.max_shard_retries == 2
        assert policy.quarantine is False

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_nonpositive_timeout_rejected(self, timeout: float) -> None:
        with pytest.raises(PipelineError, match="country_timeout"):
            SupervisorPolicy(country_timeout=timeout)

    def test_negative_retries_rejected(self) -> None:
        with pytest.raises(PipelineError, match="max_shard_retries"):
            SupervisorPolicy(max_shard_retries=-1)

    def test_inverted_backoff_window_rejected(self) -> None:
        with pytest.raises(PipelineError, match="backoff"):
            SupervisorPolicy(backoff_base=1.0, backoff_cap=0.5)

    def test_nonpositive_poll_interval_rejected(self) -> None:
        with pytest.raises(PipelineError, match="poll_interval"):
            SupervisorPolicy(poll_interval=0.0)


class TestBackoffSchedule:
    def test_length_matches_retry_budget(self) -> None:
        policy = SupervisorPolicy(max_shard_retries=3)
        assert len(policy.backoff_schedule("TH")) == 3

    def test_zero_retries_means_empty_schedule(self) -> None:
        assert SupervisorPolicy(
            max_shard_retries=0
        ).backoff_schedule("TH") == ()

    def test_deterministic_per_country_and_seed(self) -> None:
        policy = SupervisorPolicy(seed=5)
        assert policy.backoff_schedule("TH") == policy.backoff_schedule(
            "TH"
        )
        # Different countries decorrelate (no resubmission lockstep).
        assert policy.backoff_schedule("TH") != policy.backoff_schedule(
            "US"
        )

    def test_delays_respect_the_window(self) -> None:
        policy = SupervisorPolicy(
            max_shard_retries=8, backoff_base=0.05, backoff_cap=0.4
        )
        for delay in policy.backoff_schedule("BR"):
            assert 0.0 <= delay <= 0.4


class TestTombstone:
    def test_shape(self) -> None:
        stone = quarantine_tombstone("TH", "crash: exit -9")
        assert stone.country == "TH"
        assert stone.rows == ()
        assert stone.metrics is None
        assert stone.spans is None
        assert stone.injected_faults == 0
        assert stone.open_circuits == ()
        assert stone.quarantined == "crash: exit -9"

    def test_ordinary_results_are_not_quarantined(self) -> None:
        result = run_campaign(SPEC, workers=1)
        assert result.quarantined == ()
        assert result.supervisor_metrics is None


class TestSupervisorBookkeeping:
    def test_worker_count_clamps_to_countries(self) -> None:
        supervisor = ShardSupervisor(
            SPEC, ["TH", "US"], workers=8, policy=SupervisorPolicy()
        )
        assert supervisor.worker_count == 2

    def test_happy_path_returns_all_results(self) -> None:
        registry = MetricsRegistry()
        supervisor = ShardSupervisor(
            SPEC,
            ["TH", "US"],
            workers=2,
            policy=SupervisorPolicy(),
            metrics=registry,
        )
        results, halted = supervisor.run(lambda result: False)
        assert halted is False
        assert sorted(results) == ["TH", "US"]
        assert all(
            r.quarantined is None for r in results.values()
        )
        # No failures -> the supervisor registry stays empty, so the
        # campaign's artifacts stay byte-identical to unsupervised runs.
        families = registry.to_dict()["metrics"].values()
        assert not any(entry["samples"] for entry in families)

    def test_note_halts_the_fleet(self) -> None:
        supervisor = ShardSupervisor(
            SPEC, ["TH", "US"], workers=1, policy=SupervisorPolicy()
        )
        results, halted = supervisor.run(lambda result: True)
        assert halted is True
        assert len(results) == 1


class TestSupervisorTelemetry:
    def test_counts_and_separation(self) -> None:
        registry = MetricsRegistry()
        supervisor = ShardSupervisor(
            SPEC,
            ["TH", "US"],
            workers=1,
            policy=SupervisorPolicy(max_shard_retries=1, quarantine=True),
            metrics=registry,
        )
        # TH crashes with retry budget left; US times out on its last
        # allowed attempt and is quarantined.
        supervisor._task_failed("TH", 1, "crash", "exit -9", lambda r: False)
        supervisor._task_failed("US", 2, "timeout", "deadline", lambda r: False)
        payload = registry.to_dict()
        assert [
            metric_total(payload, name)
            for name in (
                "repro_shard_retries_total",
                "repro_shard_timeouts_total",
                "repro_countries_quarantined_total",
            )
        ] == [1, 1, 1]
        assert metric_total(
            payload, "repro_countries_quarantined_total", reason="timeout"
        ) == 1
        families = set(payload["metrics"])
        assert families == {
            "repro_shard_retries_total",
            "repro_shard_timeouts_total",
            "repro_countries_quarantined_total",
        }
