"""Crash-safe longitudinal watcher: ``repro watch``.

The driver behind continuous measurement: evolve the world one churn
step per epoch, measure each epoch incrementally through the campaign
store's ``--since`` machinery (unchurned countries reuse their stored
shards byte-identically), and append each finished epoch to a durable
series ledger (:mod:`repro.store.series`).  One watch invocation runs
epochs ``len(ledger)..epochs-1``; ``--resume-series`` is the same call
against a store that already holds part of the series.

Durability model (DESIGN.md §14 is the full failure matrix):

* **Signals.**  :class:`GracefulShutdown` converts the first
  SIGTERM/SIGINT into a cooperative stop flag; the campaign's
  ``should_halt`` hook sees it after the *next country checkpoint*, so
  nothing measured is ever lost.  The watch stops the series between
  durable steps and reports ``interrupted`` (CLI exit 6).  A second
  signal raises ``KeyboardInterrupt`` — the operator's escape hatch.
* **Kills.**  Every step between ledger appends is idempotent or
  replayable: a kill anywhere loses at most in-flight country units,
  and a resumed series converges to the byte-identical ledger and
  epoch artifacts (the integration suite batters every phase).
* **Quota.**  ``store_quota_bytes`` bounds the series' live payload.
  The planner is deterministic — it sees only prior ledger entries
  plus the current epoch's object list, never the disk — and retires
  oldest epochs first by dropping their manifests, then sweeps with
  the shared :meth:`~repro.store.store.CampaignStore.gc`.  When the
  quota cannot be met even after retiring everything retirable, the
  epoch records ``quota_met=false`` and the series continues
  (skip-and-record, never a crash).
* **Deadlines.**  ``epoch_deadline`` seconds of wall clock per epoch;
  a blown epoch is tombstoned ``degraded:deadline`` in the ledger and
  never retried — a wedged epoch must not block the series.

Quota accounting covers the ``objects/`` payload bytes of the series'
live epochs: object sizes are deterministic (canonical JSON, written
once), which keeps retirement decisions — and therefore the ledger —
independent of kill placement.  Index entries, manifests, ledgers,
and telemetry artifacts are small and non-deterministic across
battered runs, so they are deliberately outside the accounted set;
foreign campaigns sharing the store are not the watcher's to delete
and are likewise uncounted.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import PipelineError
from ..obs.metrics import MetricsRegistry
from ..worldgen.churn import ChurnConfig, evolve
from .export import export_csv
from .parallel import (
    CampaignHalted,
    CampaignSpec,
    check_churn_countries,
    run_campaign,
)
from .supervisor import SupervisorPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.chaos import WatchChaosPlan
    from ..store.store import CampaignStore

__all__ = [
    "GracefulShutdown",
    "WatchSpec",
    "WatchReport",
    "plan_retirement",
    "run_watch",
]


class GracefulShutdown:
    """Convert SIGTERM/SIGINT into a cooperative checkpoint-then-exit.

    A context manager installing handlers that set a flag instead of
    dying: the campaign runner polls :meth:`requested` after every
    country checkpoint, so the response to a signal is always "finish
    the unit in flight, persist it, stop cleanly".  The second signal
    raises :class:`KeyboardInterrupt` — if graceful isn't happening,
    the operator can still force it.  Handlers are restored on exit,
    so nesting a watch inside other signal-aware tooling is safe.
    """

    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self) -> None:
        self._signum: int | None = None
        self._previous: dict[int, object] = {}

    def __enter__(self) -> "GracefulShutdown":
        for signum in self.SIGNALS:
            self._previous[signum] = signal.signal(
                signum, self._handle
            )
        return self

    def __exit__(self, *exc_info: object) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()

    def _handle(self, signum: int, frame: object) -> None:
        if self._signum is not None:
            raise KeyboardInterrupt
        self._signum = signum

    def requested(self) -> bool:
        """True once a shutdown signal has been received."""
        return self._signum is not None

    @property
    def signal_name(self) -> str | None:
        """The received signal's name (None before any signal)."""
        if self._signum is None:
            return None
        return signal.Signals(self._signum).name


@dataclass(frozen=True)
class WatchSpec:
    """A longitudinal watch: base campaign + one churn step per epoch.

    Series *identity* is the pair ``(spec, churn)`` — the operational
    knobs (target epoch count, quota, deadline, worker count) can
    change between sessions of the same series.  Convergence testing
    holds them fixed, since quota decisions are recorded in the
    ledger.
    """

    spec: CampaignSpec
    #: Total epochs the series should reach (epoch 0 is the base
    #: world; epoch N is N churn steps).  A resumed watch with a
    #: larger target extends the same series.
    epochs: int
    #: The per-epoch churn recipe.  Its ``new_snapshot`` is overridden
    #: per step (``<base>+e<i>``) so every epoch names its snapshot.
    churn: ChurnConfig = field(default_factory=ChurnConfig)
    #: Retention budget for the series' live ``objects/`` payload.
    store_quota_bytes: int | None = None
    #: Wall-clock budget per epoch; a blown epoch is tombstoned.
    epoch_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise PipelineError("a watch needs at least one epoch")
        if self.spec.churn is not None:
            raise PipelineError(
                "the watch owns world evolution; pass a base spec "
                "with churn=None and set WatchSpec.churn instead"
            )
        check_churn_countries(self.churn, self.spec.config)
        if (
            self.store_quota_bytes is not None
            and self.store_quota_bytes < 1
        ):
            raise PipelineError("store quota must be positive bytes")
        if self.epoch_deadline is not None and self.epoch_deadline <= 0:
            raise PipelineError("epoch deadline must be positive")

    def epoch_churn(self, step: int) -> ChurnConfig:
        """The churn recipe for evolution step ``step`` (1-based)."""
        return replace(
            self.churn,
            new_snapshot=f"{self.spec.config.snapshot}+e{step}",
        )

    def epoch_spec(self, epoch: int) -> CampaignSpec:
        """The campaign spec measuring epoch ``epoch`` of the series."""
        if epoch == 0:
            return self.spec
        return replace(
            self.spec,
            churn=tuple(
                self.epoch_churn(step) for step in range(1, epoch + 1)
            ),
        )

    def recipe(self) -> dict:
        """The series identity payload the ledger is addressed by."""
        import dataclasses

        from ..store.digest import spec_fingerprint

        step = dataclasses.asdict(self.churn)
        # Per-step snapshots are derived (``<base>+e<i>``), so the
        # recipe drops the field — a watch's identity must not depend
        # on the template recipe's incidental snapshot name.
        step.pop("new_snapshot", None)
        if step.get("churn_countries") is not None:
            step["churn_countries"] = list(step["churn_countries"])
        return {
            "spec": spec_fingerprint(self.spec),
            "churn_step": step,
        }


@dataclass(frozen=True)
class WatchReport:
    """What one watch session did and where the series stands."""

    series: str
    #: Epochs now in the ledger (across all sessions).
    epochs_recorded: int
    #: The series' target epoch count this session ran toward.
    epochs_target: int
    #: Epochs this session measured and appended.
    ran: tuple[int, ...]
    #: Ledger status per recorded epoch.
    statuses: tuple[str, ...]
    #: Signal name when a graceful shutdown stopped the session.
    interrupted: str | None
    #: Epochs retired by quota GC (across the whole ledger).
    retired: tuple[int, ...]
    #: Epochs recorded with an unmet quota.
    quota_unmet: tuple[int, ...]
    #: This session's watch-telemetry payload (already merged into
    #: the series artifact).
    metrics: dict
    #: Observed ``objects/`` bytes after the last epoch's GC (a
    #: wall-truth reading for the report; never written to the ledger).
    store_bytes: int

    @property
    def complete(self) -> bool:
        """True when the ledger has reached the target epoch count."""
        return self.epochs_recorded >= self.epochs_target

    @property
    def degraded(self) -> tuple[int, ...]:
        """Epochs recorded with a degraded status."""
        return tuple(
            epoch
            for epoch, status in enumerate(self.statuses)
            if status != "ok"
        )

    def exit_code(self) -> int:
        """The CLI exit code this session's outcome maps to.

        0 clean and complete; 6 interrupted by a signal (resume with
        ``--resume-series``); 7 complete but with degraded epochs or
        unmet quotas recorded.
        """
        if self.interrupted is not None:
            return 6
        if self.degraded or self.quota_unmet:
            return 7
        return 0


def _objects_of(manifest: dict, store: "CampaignStore") -> list:
    """Sorted ``[digest, bytes]`` pairs for a manifest's shards.

    Sizes come from the object files themselves — deterministic,
    because objects are canonical JSON written once — so the list is
    identical no matter which session (battered or clean) records it.
    """
    digests = sorted(
        {
            entry["object"]
            for entry in manifest.get("countries", {}).values()
            if entry.get("object")
        }
    )
    objects = []
    for digest in digests:
        size = store.object_size(digest)
        if size is None:
            raise PipelineError(
                f"manifest references missing object {digest[:16]} "
                f"while recording the epoch; run `repro campaigns "
                f"fsck --repair`"
            )
        objects.append([digest, size])
    return objects


def plan_retirement(
    prior_entries: list[dict],
    current_objects: list,
    quota_bytes: int | None,
    pressure_bytes: int = 0,
) -> tuple[list[int], bool]:
    """Decide which prior epochs quota GC retires this epoch.

    Pure planning over ledger state: prior entries contribute their
    recorded object lists (shared digests count once — unchurned
    epochs share most of their shards), the current epoch contributes
    its own, and the oldest live epoch is retired until the union fits
    the quota.  The current epoch is never retired.  Returns
    ``(retired_epochs, quota_met)``.

    Determinism is the point: replaying the same ledger prefix and the
    same current object list yields the same decision, so a kill
    between planning and sweeping changes nothing — the resumed
    session re-plans identically and the sweep is idempotent.
    """
    from ..store.series import retired_epochs, union_bytes

    if quota_bytes is None:
        return [], True
    already_retired = retired_epochs(prior_entries)
    live = [
        entry
        for entry in prior_entries
        if entry["epoch"] not in already_retired
    ]
    retired: list[int] = []
    while True:
        total = (
            union_bytes(
                [*(entry["objects"] for entry in live), current_objects]
            )
            + pressure_bytes
        )
        if total <= quota_bytes:
            return retired, True
        if not live:
            return retired, False
        victim = live.pop(0)
        retired.append(victim["epoch"])


def run_watch(
    watch: WatchSpec,
    store: "CampaignStore",
    *,
    workers: int = 1,
    resume: bool = False,
    export_dir: str | Path | None = None,
    policy: SupervisorPolicy | None = None,
    chaos: "WatchChaosPlan | None" = None,
) -> WatchReport:
    """Drive a longitudinal series to its target epoch count.

    Runs epochs ``len(ledger)..watch.epochs-1``, each one a full
    campaign with store checkpointing and shard reuse against the
    newest live ``ok`` epoch.  ``resume=False`` refuses to touch a
    series that already has entries (the operator must say
    ``--resume-series``); with ``resume=True`` the call picks up
    mid-epoch (via shard-level resume) or mid-series (via the ledger).
    ``export_dir`` writes one ``epoch-<n>.csv`` per fully measured
    epoch.  ``chaos`` is the watcher-level fault injector — a testing
    hook, exactly like the campaign runner's.
    """
    from ..store.series import SeriesLedger

    ledger = SeriesLedger(store, watch.recipe())
    if ledger.entries and not resume:
        raise PipelineError(
            f"series {ledger.series[:16]} already has "
            f"{len(ledger.entries)} epochs in {store.root}; pass "
            f"--resume-series to continue it"
        )
    # How the driver fared (sessions, kills, sweeps) differs between a
    # battered and a clean run by design, so these counters live in a
    # registry of their own, folded into the series' ``.watch.json``
    # and never into the ledger or the per-epoch artifacts.
    metrics = MetricsRegistry()
    metrics.counter(
        "repro_watch_sessions_total",
        "Watch driver invocations against this series",
        labelnames=("mode",),
    ).inc(mode="resume" if ledger.entries else "fresh")
    epochs_total = metrics.counter(
        "repro_watch_epochs_total",
        "Epochs appended to the series ledger, by final status",
        labelnames=("status",),
    )
    signals = metrics.counter(
        "repro_watch_signals_total",
        "Graceful-shutdown signals that stopped a watch session",
        labelnames=("signal",),
    )
    deadlines = metrics.counter(
        "repro_watch_deadlines_blown_total",
        "Epochs tombstoned as degraded for blowing the per-epoch "
        "wall-clock deadline",
    )
    gc_epochs = metrics.counter(
        "repro_watch_gc_retired_epochs_total",
        "Epochs retired by the store-quota retention policy",
    )
    gc_objects = metrics.counter(
        "repro_watch_gc_objects_swept_total",
        "Store objects swept by between-epoch quota GC",
    )
    gc_bytes = metrics.counter(
        "repro_watch_gc_bytes_swept_total",
        "Store bytes reclaimed by between-epoch quota GC",
    )
    unmet = metrics.counter(
        "repro_watch_quota_unmet_total",
        "Epochs whose quota could not be met even after retiring "
        "every retirable epoch (recorded, not fatal)",
    )

    def record_sweep(retired: int, objects: int, freed: int) -> None:
        # Zero amounts are skipped: inc(0) would add a sample.
        for counter, amount in (
            (gc_epochs, retired),
            (gc_objects, objects),
            (gc_bytes, freed),
        ):
            if amount:
                counter.inc(amount)

    # Replay half-executed retirement: the ledger records retirement
    # decisions *before* manifests are deleted and objects swept, so a
    # kill inside the GC window leaves victims whose manifests (or
    # orphaned objects) are still on disk.  Execution is idempotent —
    # finish it before measuring anything.
    if ledger.retired_epochs():
        campaigns_by_epoch = {
            entry["epoch"]: entry["campaign"]
            for entry in ledger.entries
        }
        replayed = False
        for victim in ledger.retired_epochs():
            replayed |= store.delete_manifest(campaigns_by_epoch[victim])
        if replayed or resume:
            sweep = store.gc()
            if sweep.objects_removed or sweep.index_removed:
                record_sweep(0, sweep.objects_removed, sweep.bytes_freed)
    ran: list[int] = []
    interrupted: str | None = None
    export_root = Path(export_dir) if export_dir is not None else None
    if export_root is not None:
        export_root.mkdir(parents=True, exist_ok=True)

    def fire(epoch: int, phase: str) -> None:
        if chaos is not None:
            chaos.fire(epoch, phase)

    # The session's first epoch replays the churn chain from the base
    # world; each later epoch evolves the previous epoch's world.
    world = None
    with GracefulShutdown() as shutdown:
        for epoch in range(len(ledger.entries), watch.epochs):
            fire(epoch, "epoch-start")
            if shutdown.requested():
                interrupted = shutdown.signal_name
                break
            spec = watch.epoch_spec(epoch)
            baseline_entry = ledger.latest_ok()
            baseline = (
                baseline_entry["campaign"]
                if baseline_entry is not None
                else None
            )
            deadline_at = (
                time.monotonic() + watch.epoch_deadline
                if watch.epoch_deadline is not None
                else None
            )
            deadline_blown = False
            checkpoints = 0

            def should_halt() -> bool:
                nonlocal checkpoints, deadline_blown
                checkpoints += 1
                if chaos is not None:
                    chaos.fire(epoch, "mid-measure", checkpoints)
                if shutdown.requested():
                    return True
                if (
                    deadline_at is not None
                    and time.monotonic() > deadline_at
                ):
                    deadline_blown = True
                    return True
                return False

            world = (
                spec.build_world()
                if world is None
                else evolve(world, watch.epoch_churn(epoch))
            )
            try:
                result = run_campaign(
                    spec,
                    workers=workers,
                    store=store,
                    resume=True,
                    baseline=baseline,
                    policy=policy,
                    should_halt=should_halt,
                    world=world,
                )
            except CampaignHalted as halted:
                if not deadline_blown:
                    # A signal stopped the campaign mid-epoch.  The
                    # checkpointed countries are durable; no ledger
                    # entry lands, and --resume-series re-enters this
                    # epoch reusing them.
                    interrupted = shutdown.signal_name
                    signals.inc(signal=interrupted or "unknown")
                    break
                deadlines.inc()
                status = "degraded:deadline"
                campaign = halted.campaign
                result = None
            else:
                status = (
                    "degraded:quarantine"
                    if result.quarantined
                    else "ok"
                )
                campaign = result.campaign
            assert campaign is not None
            if (
                interrupted is None
                and shutdown.requested()
                and result is not None
            ):
                # The signal landed after the epoch's last checkpoint:
                # the epoch is complete, so record it, then stop.
                signals.inc(signal=shutdown.signal_name or "unknown")

            if export_root is not None and result is not None:
                export_csv(
                    result.dataset,
                    export_root / f"epoch-{epoch:03d}.csv",
                )

            manifest = store.load_manifest(campaign)
            if manifest is None:  # pragma: no cover - checkpointing wrote it
                raise PipelineError(
                    f"epoch {epoch} campaign {campaign[:16]} left no "
                    f"manifest"
                )
            objects = _objects_of(manifest, store)
            retired, quota_met = plan_retirement(
                ledger.entries,
                objects,
                watch.store_quota_bytes,
                chaos.pressure_bytes(epoch) if chaos is not None else 0,
            )
            if not quota_met:
                unmet.inc()
            epoch_to_campaign = {
                entry["epoch"]: entry["campaign"]
                for entry in ledger.entries
            }
            # Write-ahead ordering: the ledger entry (with its
            # retirement decision) lands *before* any manifest is
            # deleted, so a kill anywhere in the GC leaves the intent
            # durable and the execution replayable — never the
            # reverse, where deleted manifests would orphan a ledger
            # that still considers their epochs live.
            ledger.append(
                {
                    "epoch": epoch,
                    "campaign": campaign,
                    "snapshot": (
                        spec.config.snapshot
                        if epoch == 0
                        else f"{spec.config.snapshot}+e{epoch}"
                    ),
                    "status": status,
                    "baseline": baseline,
                    "objects": objects,
                    "retired": retired,
                    "quota_met": quota_met,
                }
            )
            for victim in retired:
                store.delete_manifest(epoch_to_campaign[victim])
            fire(epoch, "mid-gc")
            if retired:
                sweep = store.gc()
                record_sweep(
                    len(retired), sweep.objects_removed, sweep.bytes_freed
                )
            epochs_total.inc(status=status)
            ran.append(epoch)
            fire(epoch, "epoch-end")
            if shutdown.requested():
                interrupted = shutdown.signal_name
                break

    payload = metrics.to_dict()
    store.merge_watch_metrics(ledger.series, payload)
    quota_unmet = tuple(
        entry["epoch"]
        for entry in ledger.entries
        if not entry["quota_met"]
    )
    return WatchReport(
        series=ledger.series,
        epochs_recorded=len(ledger.entries),
        epochs_target=watch.epochs,
        ran=tuple(ran),
        statuses=tuple(
            entry["status"] for entry in ledger.entries
        ),
        interrupted=interrupted,
        retired=tuple(sorted(ledger.retired_epochs())),
        quota_unmet=quota_unmet,
        metrics=payload,
        store_bytes=store.objects_bytes(),
    )
