"""Process-level chaos: kill, wedge, and corrupt — deterministically.

The injectors in :mod:`repro.faults.plan` model *in-pipeline* faults
(SERVFAILs, TLS flaps) that the retry/breaker machinery absorbs.
This module models the faults that machinery cannot see because they
happen to the measurement *system* itself:

* a worker process SIGKILLed mid-country (the OOM killer, a reboot),
* a worker wedged past any reasonable deadline (an fd leak, a lock),
* bytes flipped inside the campaign store (disk rot, torn flush).

The harness is the supervision layer's proof obligation: under every
seeded chaos plan a campaign must terminate without manual
intervention and — after supervisor retries plus at most one
``--resume`` — produce byte-identical CSV and metrics to a run that
never saw the chaos.  The integration suite
(``tests/integration/test_chaos.py``) and the CLI tests assert
exactly that.

Determinism matters as much here as in the fault plans: a chaos plan
is a frozen, picklable value addressed by ``(country, attempt)``, so
"the worker measuring TH dies on its first two dispatches" replays
identically on every run.  Target selection for the named profiles is
seeded (:func:`~repro.faults.seeding.stable_fraction`), never random.

Chaos plans ride into worker processes next to the
:class:`~repro.pipeline.parallel.CampaignSpec` but are deliberately
*not* part of campaign identity: they change how the orchestration is
battered, never what a country's measurements are — which is exactly
why a battered campaign can converge to the unbattered artifacts.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from ..errors import PipelineError
from .seeding import stable_fraction

__all__ = [
    "KillWorker",
    "WedgeWorker",
    "ChaosPlan",
    "CHAOS_PROFILES",
    "chaos_profile",
    "corrupt_object",
    "corrupt_store",
    "SimulatedKill",
    "KillWatch",
    "DiskPressure",
    "WatchChaosPlan",
    "WATCH_CHAOS_PROFILES",
    "WATCH_PHASES",
    "watch_chaos_profile",
]


def _die() -> None:  # pragma: no cover - the process does not return
    os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True, slots=True)
class KillWorker:
    """SIGKILL the worker dispatched a country on chosen attempts.

    ``after_measure=True`` (the default) kills after the country has
    been measured but before the result is reported — the worst case:
    the work is done, then lost, and the supervisor must detect the
    broken pipe and pay for the country again.
    """

    country: str
    attempts: tuple[int, ...] = (1,)
    after_measure: bool = True

    def fires(self, country: str, attempt: int) -> bool:
        """Whether this dispatch is the one that dies."""
        return country == self.country and attempt in self.attempts


@dataclass(frozen=True, slots=True)
class WedgeWorker:
    """Wedge the worker (a long sleep) before it starts measuring.

    Models a hung shard: the worker blocks on the *wall* clock, which
    only a wall-clock deadline (``--country-timeout``) can detect —
    the logical clock never advances in a wedged process.  ``seconds``
    should dwarf the configured deadline; the supervisor's SIGKILL
    ends the sleep early.
    """

    country: str
    attempts: tuple[int, ...] = (1,)
    seconds: float = 300.0

    def fires(self, country: str, attempt: int) -> bool:
        """Whether this dispatch is the one that hangs."""
        return country == self.country and attempt in self.attempts


@dataclass(frozen=True, slots=True)
class ChaosPlan:
    """A composed set of process-level faults (frozen, picklable)."""

    kills: tuple[KillWorker, ...] = ()
    wedges: tuple[WedgeWorker, ...] = ()

    def before_measure(self, country: str, attempt: int) -> None:
        """Worker hook fired as a dispatch starts."""
        for wedge in self.wedges:
            if wedge.fires(country, attempt):
                time.sleep(wedge.seconds)
        for kill in self.kills:
            if not kill.after_measure and kill.fires(country, attempt):
                _die()

    def after_measure(self, country: str, attempt: int) -> None:
        """Worker hook fired after measurement, before reporting."""
        for kill in self.kills:
            if kill.after_measure and kill.fires(country, attempt):
                _die()


def _target(countries: list[str], seed: int) -> str:
    """Seeded choice of the country whose worker gets battered."""
    if not countries:
        raise PipelineError("chaos profile needs at least one country")
    ordered = sorted(countries)
    index = int(
        stable_fraction(seed, "chaos-target", *ordered) * len(ordered)
    )
    return ordered[min(index, len(ordered) - 1)]


#: Named chaos profiles for ``repro measure --chaos`` and the tests.
#: Each maps the campaign's country list + seed to a plan:
#:
#: ``worker-kill``        one country's worker dies after measuring,
#:                        on the first dispatch (one retry recovers);
#: ``worker-kill-repeat`` same, on the first two dispatches (the
#:                        default retry budget just barely absorbs it);
#: ``hung-shard``         one country's worker wedges on its first
#:                        dispatch (requires ``--country-timeout``);
#: ``quarantine``         one country's worker dies on every dispatch
#:                        a sane budget allows — only ``--quarantine``
#:                        lets the campaign terminate, and a later
#:                        chaos-free ``--resume`` heals it.
CHAOS_PROFILES: dict[str, object] = {
    "worker-kill": lambda target: ChaosPlan(
        kills=(KillWorker(target, attempts=(1,)),)
    ),
    "worker-kill-repeat": lambda target: ChaosPlan(
        kills=(KillWorker(target, attempts=(1, 2)),)
    ),
    "hung-shard": lambda target: ChaosPlan(
        wedges=(WedgeWorker(target, attempts=(1,)),)
    ),
    "quarantine": lambda target: ChaosPlan(
        kills=(KillWorker(target, attempts=tuple(range(1, 33))),)
    ),
}


def chaos_profile(
    name: str, countries: list[str], seed: int = 0
) -> ChaosPlan:
    """Build a named chaos plan against a seeded target country."""
    try:
        build = CHAOS_PROFILES[name]
    except KeyError:
        raise PipelineError(
            f"unknown chaos profile {name!r}; expected one of "
            f"{sorted(CHAOS_PROFILES)}"
        ) from None
    return build(_target(list(countries), seed))


# ----------------------------------------------------------------------
# Watcher-level chaos (repro watch)
# ----------------------------------------------------------------------

#: The hook points a watch exposes to chaos, in epoch order.
#: ``mid-measure`` fires from the campaign's checkpoint hook (after
#: ``after_checkpoints`` countries have been persisted this epoch);
#: the others fire between the watch driver's own durable steps.
WATCH_PHASES = (
    "epoch-start",
    "mid-measure",
    "mid-gc",
    "epoch-end",
)


class SimulatedKill(BaseException):
    """A simulated hard kill of the watch driver (testing hook).

    Deliberately a ``BaseException``: nothing in the watch or campaign
    machinery may catch it, exactly as nothing catches SIGKILL.  The
    harness that injected the plan catches it at the very top, then
    resumes the series with the fired kill removed — the in-process
    equivalent of ``kill -9`` plus a restart.
    """

    def __init__(self, kill: "KillWatch") -> None:
        super().__init__(
            f"simulated watcher kill at epoch {kill.epoch} "
            f"phase {kill.phase}"
        )
        self.kill = kill


@dataclass(frozen=True, slots=True)
class KillWatch:
    """Kill the watch driver at a chosen epoch and phase.

    ``graceful=False`` (the default) models SIGKILL: the driver dies
    mid-step via :class:`SimulatedKill` with nothing flushed beyond
    what was already durable.  ``graceful=True`` models SIGTERM: the
    real signal is raised through the installed handler, so the watch
    checkpoints and stops the series cleanly instead.
    """

    epoch: int
    phase: str
    #: For ``mid-measure``: fire after this many countries have been
    #: checkpointed in the epoch (ignored for the other phases).
    after_checkpoints: int = 1
    graceful: bool = False

    def __post_init__(self) -> None:
        if self.phase not in WATCH_PHASES:
            raise PipelineError(
                f"unknown watch phase {self.phase!r}; expected one "
                f"of {WATCH_PHASES}"
            )

    def fires(
        self, epoch: int, phase: str, checkpoints: int | None
    ) -> bool:
        """Whether this hook invocation is the one that dies."""
        if epoch != self.epoch or phase != self.phase:
            return False
        if self.phase == "mid-measure":
            return checkpoints == self.after_checkpoints
        return True


@dataclass(frozen=True, slots=True)
class DiskPressure:
    """Phantom bytes added to the quota accounting of chosen epochs.

    Models a disk filling up under the store: the quota planner sees
    ``extra_bytes`` it cannot reclaim, retires everything retirable,
    and — when still over budget — records the epoch as
    ``quota_met=false`` and keeps going (skip-and-record, never a
    crash).
    """

    epochs: tuple[int, ...]
    extra_bytes: int = 1 << 30

    def bytes_for(self, epoch: int) -> int:
        """Phantom bytes this epoch's planner must account for."""
        return self.extra_bytes if epoch in self.epochs else 0


@dataclass(frozen=True, slots=True)
class WatchChaosPlan:
    """A composed set of watcher-level faults (frozen, picklable).

    Like :class:`ChaosPlan`, never part of series identity: chaos
    batters the *driver*, and a battered-then-resumed series must
    converge to the unbattered ledger bytes.
    """

    kills: tuple[KillWatch, ...] = ()
    pressure: DiskPressure | None = None

    def fire(
        self,
        epoch: int,
        phase: str,
        checkpoints: int | None = None,
        raise_signal: bool = True,
    ) -> None:
        """Watch hook: die (or raise SIGTERM) when a kill matches."""
        for kill in self.kills:
            if not kill.fires(epoch, phase, checkpoints):
                continue
            if kill.graceful:
                if raise_signal:
                    signal.raise_signal(signal.SIGTERM)
                return
            raise SimulatedKill(kill)

    def pressure_bytes(self, epoch: int) -> int:
        """Phantom quota bytes injected into this epoch's GC planning."""
        if self.pressure is None:
            return 0
        return self.pressure.bytes_for(epoch)

    def without(self, fired: KillWatch) -> "WatchChaosPlan":
        """The plan minus one fired kill — what a restart runs under."""
        return WatchChaosPlan(
            kills=tuple(k for k in self.kills if k != fired),
            pressure=self.pressure,
        )


def _watch_epoch(epochs: int, seed: int, salt: str) -> int:
    """Seeded choice of the epoch a watcher-level fault lands in."""
    if epochs < 1:
        raise PipelineError("watch chaos needs at least one epoch")
    index = int(stable_fraction(seed, "watch-chaos", salt) * epochs)
    return min(index, epochs - 1)


#: Named watcher chaos profiles for ``repro watch --watch-chaos`` and
#: the soak tests.  Each maps (epoch count, seed) to a plan:
#:
#: ``kill-boundary``     hard kill as a seeded epoch starts (nothing
#:                       of that epoch exists yet);
#: ``kill-mid-measure``  hard kill after the epoch's first country
#:                       checkpoint (the campaign is half-durable);
#: ``kill-mid-gc``       hard kill between manifest retirement and
#:                       the object sweep (GC half-applied);
#: ``sigterm-boundary``  graceful SIGTERM at a seeded epoch start
#:                       (exit 6, ledger intact);
#: ``disk-pressure``     phantom bytes swamp the quota from a seeded
#:                       epoch on (exercises skip-and-record).
#:
#: A hard kill re-fires every time its (epoch, phase) is re-attempted,
#: so a CLI soak drives each profile once and resumes under the next —
#: the in-test harness instead strips fired kills via ``without``.
WATCH_CHAOS_PROFILES: dict[str, object] = {
    "kill-boundary": lambda epochs, seed: WatchChaosPlan(
        kills=(
            KillWatch(
                _watch_epoch(epochs, seed, "boundary"), "epoch-start"
            ),
        )
    ),
    "kill-mid-measure": lambda epochs, seed: WatchChaosPlan(
        kills=(
            KillWatch(
                _watch_epoch(epochs, seed, "measure"),
                "mid-measure",
                after_checkpoints=1,
            ),
        )
    ),
    "kill-mid-gc": lambda epochs, seed: WatchChaosPlan(
        kills=(
            KillWatch(_watch_epoch(epochs, seed, "gc"), "mid-gc"),
        )
    ),
    "sigterm-boundary": lambda epochs, seed: WatchChaosPlan(
        kills=(
            KillWatch(
                _watch_epoch(epochs, seed, "sigterm"),
                "epoch-start",
                graceful=True,
            ),
        )
    ),
    "disk-pressure": lambda epochs, seed: WatchChaosPlan(
        pressure=DiskPressure(
            epochs=tuple(
                range(_watch_epoch(epochs, seed, "pressure"), epochs)
            )
        )
    ),
}


def watch_chaos_profile(
    name: str, epochs: int, seed: int = 0
) -> WatchChaosPlan:
    """Build a named watcher chaos plan against seeded epochs."""
    try:
        build = WATCH_CHAOS_PROFILES[name]
    except KeyError:
        raise PipelineError(
            f"unknown watch chaos profile {name!r}; expected one of "
            f"{sorted(WATCH_CHAOS_PROFILES)}"
        ) from None
    return build(epochs, seed)


# ----------------------------------------------------------------------
# Store corruption
# ----------------------------------------------------------------------


def corrupt_object(path: Path, seed: int = 0, truncate: bool = False) -> None:
    """Damage one store object file in place, deterministically.

    ``truncate=True`` cuts the file in half (the torn-flush shape);
    otherwise one seeded alphanumeric byte is bit-flipped (the disk-rot
    shape).  Either way the object fails content verification.
    """
    data = bytearray(path.read_bytes())
    if not data:
        raise PipelineError(f"cannot corrupt empty file {path}")
    if truncate:
        path.write_bytes(bytes(data[: max(len(data) // 2, 1)]))
        return
    positions = [
        i for i, b in enumerate(data)
        if (48 <= b <= 57) or (97 <= b <= 122) or (65 <= b <= 90)
    ]
    if not positions:  # pragma: no cover - JSON always has alnum bytes
        positions = list(range(len(data)))
    frac = stable_fraction(seed, "corrupt", path.name)
    start = min(int(frac * len(positions)), len(positions) - 1)
    for offset in range(len(positions)):
        pos = positions[(start + offset) % len(positions)]
        flipped = bytearray(data)
        flipped[pos] ^= 0x01
        if _flip_is_detectable(bytes(flipped), path.stem):
            path.write_bytes(bytes(flipped))
            return
    raise PipelineError(  # pragma: no cover - needs an unflippable file
        f"no detectable single-byte corruption found for {path}"
    )


def _flip_is_detectable(flipped: bytes, digest: str) -> bool:
    """Would content verification catch this byte flip?

    Not every flip damages the *content*: objects are stored
    pretty-printed but hashed over their canonical form, so a flip on
    the last digit of a 17-significant-digit float repr can parse back
    to the very same double and re-hash clean.  Corruption injection
    must skip such semantic no-ops or fsck tests chase ghosts.
    """
    try:
        payload = json.loads(flipped.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return True
    from ..store.digest import digest_of

    try:
        return digest_of(payload) != digest
    except (TypeError, ValueError):  # pragma: no cover - unhashable JSON
        return True


def corrupt_store(
    store, seed: int = 0, count: int = 1, truncate: bool = False
) -> list[str]:
    """Corrupt ``count`` seeded objects in a campaign store.

    Returns the digests of the damaged objects (sorted), so tests can
    assert fsck finds exactly them.
    """
    paths = sorted(Path(store.root, "objects").glob("*/*.json"))
    if len(paths) < count:
        raise PipelineError(
            f"store has only {len(paths)} objects, cannot corrupt {count}"
        )
    chosen: list[Path] = []
    remaining = list(paths)
    for pick in range(count):
        frac = stable_fraction(seed, "corrupt-pick", pick)
        index = min(int(frac * len(remaining)), len(remaining) - 1)
        chosen.append(remaining.pop(index))
    for path in chosen:
        corrupt_object(path, seed=seed, truncate=truncate)
    return sorted(path.stem for path in chosen)
