"""Watch driver units: spec validation, retirement planning, reports."""

from __future__ import annotations

import pytest

from repro.errors import PipelineError
from repro.pipeline import CampaignSpec, WatchReport, WatchSpec
from repro.pipeline.watch import plan_retirement
from repro.store.series import series_id
from repro.worldgen import ChurnConfig, WorldConfig

CONFIG = WorldConfig(sites_per_country=50, countries=("BR", "TH"))
SPEC = CampaignSpec(config=CONFIG, fault_profile="flaky-dns", retries=2)


def watch_spec(**overrides) -> WatchSpec:
    kwargs = {
        "spec": SPEC,
        "epochs": 3,
        "churn": ChurnConfig(churn_countries=("TH",)),
    }
    kwargs.update(overrides)
    return WatchSpec(**kwargs)


class TestWatchSpec:
    def test_requires_at_least_one_epoch(self) -> None:
        with pytest.raises(PipelineError, match="at least one epoch"):
            watch_spec(epochs=0)

    def test_refuses_pre_churned_base_spec(self) -> None:
        churned = CampaignSpec(config=CONFIG, churn=ChurnConfig())
        with pytest.raises(PipelineError, match="owns world evolution"):
            watch_spec(spec=churned)

    def test_rejects_non_positive_quota_and_deadline(self) -> None:
        with pytest.raises(PipelineError, match="quota"):
            watch_spec(store_quota_bytes=0)
        with pytest.raises(PipelineError, match="deadline"):
            watch_spec(epoch_deadline=0.0)

    def test_rejects_churn_country_outside_the_config(self) -> None:
        with pytest.raises(PipelineError, match="churn countries.*: XX"):
            watch_spec(churn=ChurnConfig(churn_countries=("TH", "XX")))

    def test_epoch_zero_is_the_base_spec(self) -> None:
        assert watch_spec().epoch_spec(0) == SPEC

    def test_epoch_n_chains_n_churn_steps(self) -> None:
        spec = watch_spec().epoch_spec(2)
        assert isinstance(spec.churn, tuple)
        assert [c.new_snapshot for c in spec.churn] == [
            "2023-05+e1",
            "2023-05+e2",
        ]
        assert all(c.churn_countries == ("TH",) for c in spec.churn)

    def test_recipe_drops_derived_snapshot(self) -> None:
        recipe = watch_spec().recipe()
        assert "new_snapshot" not in recipe["churn_step"]
        assert recipe["churn_step"]["churn_countries"] == ["TH"]

    def test_series_identity_ignores_operational_knobs(self) -> None:
        base = watch_spec()
        extended = watch_spec(
            epochs=9, store_quota_bytes=1, epoch_deadline=5.0
        )
        assert series_id(base.recipe()) == series_id(extended.recipe())

    def test_series_identity_tracks_world_and_churn(self) -> None:
        other_churn = watch_spec(churn=ChurnConfig(keep_fraction=0.5))
        assert series_id(watch_spec().recipe()) != series_id(
            other_churn.recipe()
        )


def ledger_entry(epoch: int, objects, retired=()) -> dict:
    return {
        "epoch": epoch,
        "campaign": f"c{epoch}",
        "snapshot": "s",
        "status": "ok",
        "baseline": None,
        "objects": objects,
        "retired": list(retired),
        "quota_met": True,
    }


class TestPlanRetirement:
    def test_no_quota_never_retires(self) -> None:
        entries = [ledger_entry(0, [["a", 1000]])]
        assert plan_retirement(entries, [["b", 1000]], None) == ([], True)

    def test_within_quota_keeps_everything(self) -> None:
        entries = [ledger_entry(0, [["a", 100]])]
        assert plan_retirement(entries, [["b", 100]], 300) == ([], True)

    def test_retires_oldest_first_until_fit(self) -> None:
        entries = [
            ledger_entry(0, [["a", 100]]),
            ledger_entry(1, [["b", 100]]),
        ]
        retired, met = plan_retirement(entries, [["c", 100]], 200)
        assert (retired, met) == ([0], True)

    def test_shared_objects_counted_once(self) -> None:
        # Epoch 1 shares object "a" with epoch 0: the union is 200
        # bytes, not 300, so a 200-byte quota needs no retirement.
        entries = [
            ledger_entry(0, [["a", 100]]),
            ledger_entry(1, [["a", 100], ["b", 100]]),
        ]
        retired, met = plan_retirement(
            entries, [["a", 100], ["b", 100]], 200
        )
        assert (retired, met) == ([], True)

    def test_already_retired_epochs_are_skipped(self) -> None:
        entries = [
            ledger_entry(0, [["a", 100]]),
            ledger_entry(1, [["b", 100]], retired=[0]),
        ]
        retired, met = plan_retirement(entries, [["c", 100]], 200)
        assert (retired, met) == ([], True)

    def test_unmeetable_quota_is_recorded_not_fatal(self) -> None:
        entries = [ledger_entry(0, [["a", 100]])]
        retired, met = plan_retirement(entries, [["b", 500]], 300)
        assert (retired, met) == ([0], False)

    def test_pressure_bytes_force_retirement(self) -> None:
        entries = [
            ledger_entry(0, [["a", 100]]),
            ledger_entry(1, [["b", 100]]),
        ]
        retired, met = plan_retirement(
            entries, [["c", 100]], 1000, pressure_bytes=850
        )
        assert (retired, met) == ([0, 1], True)
        # Pressure the quota can never absorb retires everything and
        # records the miss.
        retired, met = plan_retirement(
            entries, [["c", 100]], 1000, pressure_bytes=1000
        )
        assert (retired, met) == ([0, 1], False)

    def test_current_epoch_is_never_retired(self) -> None:
        retired, met = plan_retirement([], [["a", 500]], 100)
        assert (retired, met) == ([], False)


def report(**overrides) -> WatchReport:
    kwargs = {
        "series": "s" * 64,
        "epochs_recorded": 3,
        "epochs_target": 3,
        "ran": (0, 1, 2),
        "statuses": ("ok", "ok", "ok"),
        "interrupted": None,
        "retired": (),
        "quota_unmet": (),
        "metrics": {},
        "store_bytes": 0,
    }
    kwargs.update(overrides)
    return WatchReport(**kwargs)


class TestWatchReport:
    def test_clean_complete_exits_zero(self) -> None:
        assert report().exit_code() == 0
        assert report().complete

    def test_interrupted_exits_six(self) -> None:
        assert report(interrupted="SIGTERM").exit_code() == 6

    def test_degraded_or_unmet_quota_exits_seven(self) -> None:
        degraded = report(statuses=("ok", "degraded:deadline", "ok"))
        assert degraded.exit_code() == 7
        assert degraded.degraded == (1,)
        assert report(quota_unmet=(2,)).exit_code() == 7

    def test_interrupt_outranks_degradation(self) -> None:
        both = report(
            interrupted="SIGINT",
            statuses=("ok", "degraded:deadline"),
            epochs_recorded=2,
        )
        assert both.exit_code() == 6
        assert not both.complete
