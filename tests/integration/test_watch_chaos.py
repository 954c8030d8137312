"""Watcher-level chaos: kill-anywhere convergence, quota, deadlines.

The watch's acceptance contract, asserted end to end: a longitudinal
series battered by simulated kills at every watch phase — epoch
boundary, mid-measure, mid-GC — plus resumes produces a ledger and
per-epoch CSV artifacts byte-identical to a series that never saw the
chaos; quota retention holds the live payload under budget after every
epoch; unmeetable quota and blown deadlines degrade gracefully and are
recorded rather than crashing the series.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import PipelineError
from repro.faults.chaos import (
    DiskPressure,
    KillWatch,
    SimulatedKill,
    WatchChaosPlan,
    watch_chaos_profile,
)
from repro.pipeline import CampaignSpec, WatchSpec, run_watch
from repro.store import CampaignStore
from repro.worldgen import ChurnConfig, WorldConfig

SPEC = CampaignSpec(
    config=WorldConfig(
        sites_per_country=50, countries=("BR", "DE", "TH", "US"), seed=7
    ),
    fault_profile="flaky-dns",
    fault_seed=7,
    retries=3,
)
CHURN = ChurnConfig(churn_countries=("TH", "US"))
EPOCHS = 4


def make_watch(**overrides) -> WatchSpec:
    kwargs = {"spec": SPEC, "epochs": EPOCHS, "churn": CHURN}
    kwargs.update(overrides)
    return WatchSpec(**kwargs)


def run_to_completion(watch, root: Path, plan: WatchChaosPlan):
    """Batter a series to completion: kill, strip the fired kill, resume.

    The in-process equivalent of ``kill -9`` plus a process restart,
    repeated until the series reaches its target.  Returns the final
    report and the number of sessions it took.
    """
    store = CampaignStore(root / "store")
    sessions = 0
    while True:
        sessions += 1
        assert sessions <= 16, "battered series failed to converge"
        try:
            report = run_watch(
                watch,
                store,
                resume=sessions > 1,
                export_dir=root / "exports",
                chaos=plan,
            )
        except SimulatedKill as kill:
            plan = plan.without(kill.kill)
            continue
        if report.interrupted is not None:
            continue
        if report.complete:
            return report, sessions


def artifacts(root: Path, series: str, epochs: int = EPOCHS):
    ledger = (root / "store" / "series" / f"{series}.json").read_bytes()
    csvs = [
        (root / "exports" / f"epoch-{epoch:03d}.csv").read_bytes()
        for epoch in range(epochs)
    ]
    return ledger, csvs


@pytest.fixture(scope="module")
def clean(tmp_path_factory) -> tuple[Path, str]:
    """Reference series: same watch, no chaos, single session."""
    root = tmp_path_factory.mktemp("watch-clean")
    report, sessions = run_to_completion(
        make_watch(), root, WatchChaosPlan()
    )
    assert sessions == 1
    assert report.exit_code() == 0
    assert report.statuses == ("ok",) * EPOCHS
    return root, report.series


class TestKillAnywhereConvergence:
    def test_kills_at_three_phases_converge(
        self, clean, tmp_path: Path
    ) -> None:
        clean_root, series = clean
        plan = WatchChaosPlan(
            kills=(
                KillWatch(epoch=1, phase="epoch-start"),
                KillWatch(
                    epoch=2, phase="mid-measure", after_checkpoints=1
                ),
                KillWatch(epoch=3, phase="mid-gc"),
            )
        )
        report, sessions = run_to_completion(
            make_watch(), tmp_path, plan
        )
        assert sessions == 4  # one per kill, plus the finishing run
        assert report.exit_code() == 0
        assert artifacts(tmp_path, series) == artifacts(
            clean_root, series
        )

    def test_kill_at_epoch_end_converges(
        self, clean, tmp_path: Path
    ) -> None:
        clean_root, series = clean
        plan = WatchChaosPlan(
            kills=(KillWatch(epoch=1, phase="epoch-end"),)
        )
        report, _ = run_to_completion(make_watch(), tmp_path, plan)
        assert report.exit_code() == 0
        assert artifacts(tmp_path, series) == artifacts(
            clean_root, series
        )

    def test_named_profiles_converge(
        self, clean, tmp_path: Path
    ) -> None:
        clean_root, series = clean
        for name in ("kill-boundary", "kill-mid-measure", "kill-mid-gc"):
            plan = watch_chaos_profile(name, EPOCHS, seed=3)
            root = tmp_path / name
            root.mkdir()
            report, sessions = run_to_completion(
                make_watch(), root, plan
            )
            assert sessions == 2, name
            assert report.exit_code() == 0, name
            assert artifacts(root, series) == artifacts(
                clean_root, series
            ), name


class TestGracefulSigterm:
    def test_sigterm_stops_cleanly_and_resume_converges(
        self, clean, tmp_path: Path
    ) -> None:
        clean_root, series = clean
        store = CampaignStore(tmp_path / "store")
        plan = WatchChaosPlan(
            kills=(
                KillWatch(epoch=2, phase="epoch-start", graceful=True),
            )
        )
        first = run_watch(
            make_watch(),
            store,
            export_dir=tmp_path / "exports",
            chaos=plan,
        )
        # The signal stopped the series between epochs: everything
        # recorded so far is durable and the exit code says "resume".
        assert first.interrupted == "SIGTERM"
        assert first.exit_code() == 6
        assert first.epochs_recorded == 2
        second = run_watch(
            make_watch(),
            store,
            resume=True,
            export_dir=tmp_path / "exports",
        )
        assert second.exit_code() == 0
        assert artifacts(tmp_path, series) == artifacts(
            clean_root, series
        )

    def test_fresh_watch_refuses_existing_series(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path / "store")
        watch = make_watch(epochs=1)
        run_watch(watch, store)
        with pytest.raises(PipelineError, match="--resume-series"):
            run_watch(watch, store)


class TestQuotaRetention:
    def test_meetable_quota_bounds_live_payload_every_epoch(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path / "store")
        # Probe epoch 0's footprint, then budget for about 1.8 epochs:
        # every epoch from 2 on must retire its oldest predecessor.
        probe = run_watch(make_watch(epochs=1), store)
        epoch_bytes = store.objects_bytes()
        quota = int(epoch_bytes * 1.8)
        for target in range(2, EPOCHS + 1):
            report = run_watch(
                make_watch(epochs=target, store_quota_bytes=quota),
                store,
                resume=True,
            )
            assert report.quota_unmet == ()
            assert store.objects_bytes() <= quota, (
                f"epoch {target - 1}: store exceeds quota"
            )
        assert report.retired == (0, 1)
        assert report.statuses == ("ok",) * EPOCHS
        assert report.exit_code() == 0
        # GC actions land in the watch metrics.
        metrics = report.metrics["metrics"]
        del probe
        assert (
            sum(
                s["value"]
                for s in metrics["repro_watch_gc_retired_epochs_total"][
                    "samples"
                ]
            )
            >= 1
        )

    def test_battered_quota_series_converges(
        self, tmp_path: Path
    ) -> None:
        quota = 30_000
        watch = make_watch(store_quota_bytes=quota)
        clean_root = tmp_path / "clean"
        clean_root.mkdir()
        clean_report, _ = run_to_completion(
            watch, clean_root, WatchChaosPlan()
        )
        plan = WatchChaosPlan(
            kills=(
                KillWatch(epoch=1, phase="mid-gc"),
                KillWatch(
                    epoch=2, phase="mid-measure", after_checkpoints=2
                ),
                KillWatch(epoch=3, phase="mid-gc"),
            )
        )
        battered_root = tmp_path / "battered"
        battered_root.mkdir()
        battered_report, sessions = run_to_completion(
            watch, battered_root, plan
        )
        assert sessions == 4
        series = clean_report.series
        assert artifacts(battered_root, series) == artifacts(
            clean_root, series
        )
        # Converged all the way down to observed payload bytes: the
        # half-executed GC a kill left behind was replayed on resume.
        assert battered_report.store_bytes == clean_report.store_bytes

    def test_unmeetable_quota_is_skip_and_record(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path / "store")
        report = run_watch(
            make_watch(store_quota_bytes=1), store
        )
        # Every epoch misses the impossible quota, retires whatever it
        # can, records the miss, and the series still completes.
        assert report.complete
        assert report.quota_unmet == tuple(range(EPOCHS))
        assert report.retired == tuple(range(EPOCHS - 1))
        assert report.exit_code() == 7


class TestDiskPressure:
    def test_pressure_forces_retirement_then_recovery(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path / "store")
        probe_store = CampaignStore(tmp_path / "probe")
        run_watch(make_watch(epochs=1), probe_store)
        epoch_bytes = probe_store.objects_bytes()
        quota = epoch_bytes * 3
        plan = WatchChaosPlan(
            pressure=DiskPressure(epochs=(1, 2), extra_bytes=quota)
        )
        report = run_watch(
            make_watch(store_quota_bytes=quota), store, chaos=plan
        )
        # Pressured epochs retire everything retirable and record the
        # miss; the post-pressure epoch fits again.
        assert report.complete
        assert report.quota_unmet == (1, 2)
        assert report.statuses == ("ok",) * EPOCHS
        assert report.exit_code() == 7


class TestDeadline:
    def test_blown_deadline_tombstones_epoch_and_series_continues(
        self, tmp_path: Path
    ) -> None:
        store = CampaignStore(tmp_path / "store")
        report = run_watch(
            make_watch(epochs=2, epoch_deadline=1e-9), store
        )
        assert report.complete
        assert report.statuses == ("degraded:deadline",) * 2
        assert report.exit_code() == 7
        # Tombstoned epochs are never retried: a resume with the same
        # target runs nothing.
        again = run_watch(
            make_watch(epochs=2, epoch_deadline=1e-9),
            store,
            resume=True,
        )
        assert again.ran == ()


class TestReplayIdempotence:
    def test_resuming_a_complete_series_changes_nothing(
        self, clean, tmp_path: Path
    ) -> None:
        clean_root, series = clean
        store = CampaignStore(clean_root / "store")
        before = artifacts(clean_root, series)
        report = run_watch(make_watch(), store, resume=True)
        assert report.ran == ()
        assert report.exit_code() == 0
        assert artifacts(clean_root, series) == before


class TestSessionCarriesItsWorld:
    def test_one_session_matches_one_epoch_sessions(
        self, tmp_path: Path, monkeypatch
    ) -> None:
        # A session evolves its previous epoch's world once per epoch
        # (N - 1 evolve calls for N epochs); a one-epoch session
        # replays the whole chain.  Both write the same bytes.
        from repro.pipeline import parallel, watch
        from repro.worldgen import evolve

        calls: list[str] = []

        def counting(world, churn=None):
            calls.append(churn.new_snapshot)
            return evolve(world, churn)

        monkeypatch.setattr(watch, "evolve", counting)
        monkeypatch.setattr(parallel, "evolve", counting)
        report = run_watch(
            make_watch(),
            CampaignStore(tmp_path / "one" / "store"),
            export_dir=tmp_path / "one" / "exports",
        )
        assert report.ran == tuple(range(EPOCHS))
        assert len(calls) == EPOCHS - 1

        store = CampaignStore(tmp_path / "many" / "store")
        for target in range(1, EPOCHS + 1):
            run_watch(
                make_watch(epochs=target),
                store,
                resume=True,
                export_dir=tmp_path / "many" / "exports",
            )
        assert artifacts(tmp_path / "many", report.series) == artifacts(
            tmp_path / "one", report.series
        )
