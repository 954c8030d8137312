"""Sharded parallel campaign execution with checkpoint/resume.

A measurement campaign is embarrassingly parallel *by country*: the
paper measures each country's toplist independently, so the campaign
runner makes the country the unit of determinism.  Every country is
measured with completely fresh pipeline state — its own resolver
(cache and logical clock), fault plan, retry policy, circuit breaker,
and, when instrumented, its own metrics registry and span tracer —
against a :class:`~repro.worldgen.world.World` built from the same
:class:`~repro.worldgen.config.WorldConfig`.  Because a country unit
never observes another country's state, its rows, metrics, and spans
are a pure function of ``(config, campaign knobs, country)``.

That invariant is what makes sharding safe: ``run_campaign`` hands
one task per country to a supervised worker fleet
(:class:`~repro.pipeline.supervisor.ShardSupervisor`; each worker
builds one World — inherited copy-on-write under fork, rebuilt once
per process under spawn — and reuses it across its tasks), then
merges the per-country results **in sorted country order** regardless
of completion order.  The supervisor resubmits countries whose worker
crashed or hung, which cannot change output for the same reason
sharding cannot: a country unit is a pure function of the spec.  The
merge is exact, not approximate:

* rows concatenate in ``(country, rank)`` order, the order the serial
  run produces;
* metrics registries merge by summing counters/gauges and cumulative
  histogram buckets (:func:`~repro.obs.metrics.merge_metrics_payloads`)
  and render through the same JSON formatter;
* span traces concatenate in the same order, each country's ids
  offset by the spans before it, so the id sequence is again 1..N.

``workers <= 1`` runs the same country units inline through the same
merge path — so ``--workers 4`` output is byte-identical to the
serial run for the same seed, which the test suite asserts on the
exported CSV and the merged metrics JSON.

The same purity powers persistence: with a
:class:`~repro.store.store.CampaignStore` attached, every country's
result is checkpointed through the store as it completes, keyed by
:func:`~repro.store.digest.shard_key` (campaign knobs + the country's
world-slice digest).  ``resume=True`` reuses any shard whose key
already matches — an interrupted campaign picks up where it stopped
and merges to byte-identical output, because reused rows and metrics
pass through exactly the same codec and merge as fresh ones.
``baseline=<campaign-id>`` (the ``--since`` path) is the same lookup
after a world evolution: unchurned countries keep their slice digest,
hit the store, and are never re-measured.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import PipelineError, StoreCorruptionError
from ..faults.plan import FaultPlan, fault_profile
from ..net.dns import ZoneCache
from ..faults.retry import RetryPolicy
from ..obs.instrument import Instrumentation
from ..obs.metrics import (
    MetricsRegistry,
    merge_metrics_payloads,
    render_metrics_json,
)
from ..obs.profile import CampaignProfiler
from ..obs.spans import Span, stitch_spans, write_spans_jsonl
from ..worldgen.churn import ChurnConfig, evolve
from ..worldgen.config import WorldConfig
from ..worldgen.world import World
from .measure import STANFORD_VANTAGE_CONTINENT, MeasurementPipeline
from .records import MeasurementDataset, WebsiteMeasurement
from .supervisor import ShardSupervisor, SupervisorPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.chaos import ChaosPlan
    from ..store.store import CampaignStore

__all__ = [
    "CampaignSpec",
    "CountryResult",
    "CampaignResult",
    "CampaignHalted",
    "WorkerContext",
    "measure_country_unit",
    "pop_world_build",
    "run_campaign",
    "worker_context",
]


class CampaignHalted(PipelineError):
    """Raised when ``halt_after`` stops a campaign mid-run.

    The checkpoint machinery's test hook: everything measured so far
    is already persisted in the store, so a subsequent ``--resume``
    completes the campaign.
    """

    def __init__(self, campaign: str | None, completed: int) -> None:
        super().__init__(
            f"campaign halted after {completed} measured "
            f"countr{'y' if completed == 1 else 'ies'}"
        )
        self.campaign = campaign
        self.completed = completed


def check_churn_countries(churn: ChurnConfig, config: WorldConfig) -> None:
    """Reject a churn recipe naming countries outside the world config.

    ``evolve`` checks this too, but only when it runs — after earlier
    epochs were measured and stored.
    """
    if churn.churn_countries is None:
        return
    unknown = sorted(set(churn.churn_countries) - set(config.countries))
    if unknown:
        raise PipelineError(
            f"churn countries not in the world config: {', '.join(unknown)}"
        )


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a worker needs to measure a country deterministically.

    Frozen and picklable: the spec crosses the process boundary once
    per shard, and every knob that influences output lives here (a
    worker rebuilds the World from ``config`` and the fault plan from
    the profile name + seed, never from live objects).
    """

    config: WorldConfig
    fault_profile: str = "none"
    fault_seed: int = 0
    retries: int = 1
    vantage_continent: str = STANFORD_VANTAGE_CONTINENT
    vantage_country: str | None = None
    instrument: bool = False
    countries: tuple[str, ...] | None = None
    #: When set, the measured world is the churned evolution of the
    #: base world: ``evolve(World(config), churn)``.  An evolved world
    #: cannot be rebuilt from its *own* config (the evolution plan
    #: carries sites from the previous epoch), so the spec carries the
    #: base config + churn recipe instead — still a pure, picklable
    #: description that any worker process can replay exactly.  A
    #: *tuple* of recipes is a churn chain applied left to right
    #: (epoch N of a longitudinal watch is N chained evolutions).
    churn: ChurnConfig | tuple[ChurnConfig, ...] | None = None

    def __post_init__(self) -> None:
        for churn in self.churn_chain():
            check_churn_countries(churn, self.config)
        if self.countries is None:
            return
        repeated = sorted(
            cc for cc, n in Counter(self.countries).items() if n > 1
        )
        if repeated:
            raise PipelineError(
                f"campaign countries repeated: {', '.join(repeated)}"
            )
        unknown = sorted(set(self.countries) - set(self.config.countries))
        if unknown:
            raise PipelineError(
                f"campaign countries not in the world config: "
                f"{', '.join(unknown)}"
            )

    def churn_chain(self) -> tuple[ChurnConfig, ...]:
        """The churn recipes applied to the base world, in order."""
        if self.churn is None:
            return ()
        if isinstance(self.churn, ChurnConfig):
            return (self.churn,)
        return tuple(self.churn)

    def build_world(self) -> World:
        """Build the world this campaign measures, substrate included.

        ``evolve`` reads only the logical layer, so the chain's
        intermediate worlds never materialize a network substrate.
        """
        world = World(self.config)
        for churn in self.churn_chain():
            world = evolve(world, churn)
        return world.materialize()

    def resolved_countries(self) -> list[str]:
        """The sorted country list this campaign will measure."""
        if self.countries is not None:
            return sorted(self.countries)
        return sorted(self.config.countries)


@dataclass(frozen=True)
class CountryResult:
    """One country's measurements plus its unit-local telemetry."""

    country: str
    rows: tuple[WebsiteMeasurement, ...]
    #: Metrics-registry payload (``MetricsRegistry.to_dict``) or None
    #: when the unit ran uninstrumented.
    metrics: dict | None
    #: Finished span rows (completion order, span ids 1..n) or None
    #: when the unit ran uninstrumented.
    spans: tuple[Span, ...] | None
    #: Faults the unit's plan actually injected.
    injected_faults: int
    #: Nameserver circuits open or half-open at end of unit.
    open_circuits: tuple[str, ...]
    #: Why the supervisor quarantined this country (None for a real
    #: measurement).  A quarantined unit is a tombstone: zero rows, no
    #: telemetry — the degraded-row idea applied to a whole country.
    quarantined: str | None = None


@dataclass(frozen=True)
class CampaignResult:
    """The merged output of a campaign, serial or sharded."""

    dataset: MeasurementDataset
    #: Merged metrics payload (None when uninstrumented).
    metrics: dict | None
    #: The countries' span rows concatenated in sorted country order,
    #: ids offset into one 1..N sequence (None when uninstrumented).
    spans: tuple[Span, ...] | None
    injected_faults: int
    open_circuits: tuple[str, ...]
    #: Campaign id in the attached store (None when no store was used).
    campaign: str | None = None
    #: Store hit/miss/skip payload (None when no store was used).  Kept
    #: separate from ``metrics`` so resumed runs stay byte-identical.
    store_metrics: dict | None = None
    #: Countries the supervisor quarantined (empty on a clean run);
    #: their rows are absent from ``dataset`` and a later ``--resume``
    #: re-measures exactly these.
    quarantined: tuple[str, ...] = ()
    #: Supervisor telemetry payload (shard retries/timeouts/quarantine
    #: counters).  None when nothing went wrong, so happy-path
    #: artifacts stay byte-identical to the unsupervised executor's.
    supervisor_metrics: dict | None = None
    #: Campaign profiler payload (worker utilization, queue depth,
    #: phase attribution; :mod:`repro.obs.profile`).  Its own artifact,
    #: never merged into ``metrics``: profiler numbers are wall-clock
    #: and vary run to run, while ``metrics`` must stay byte-identical
    #: across worker counts.  None when uninstrumented.
    profile: dict | None = None
    #: Campaign lifecycle spans (spawn/world-build/dispatch/compute/
    #: queue-wait/backoff/merge under one ``campaign`` root), kept out
    #: of ``spans`` for the same reason ``profile`` is kept out of
    #: ``metrics``.  :meth:`write_trace` appends them to the trace
    #: file, where trace analyzers split the layers by span name.
    profile_spans: tuple[Span, ...] | None = None

    def write_metrics(self, path: str | Path) -> None:
        """Write the merged metrics payload as deterministic JSON."""
        if self.metrics is None:
            raise PipelineError(
                "campaign ran uninstrumented; no metrics to write"
            )
        Path(path).write_text(
            render_metrics_json(self.metrics), encoding="utf-8"
        )

    def write_trace(self, path: str | Path) -> int:
        """Write the stitched spans as JSONL; returns the span count.

        Campaign lifecycle spans, when profiling ran, follow the
        pipeline spans with ids continuing the sequence — one file
        holds both layers, and loaders need no special casing.
        """
        if self.spans is None:
            raise PipelineError(
                "campaign ran uninstrumented; no trace to write"
            )
        return write_spans_jsonl(
            stitch_spans([self.spans, self.profile_spans or ()]), path
        )

    def write_profile(self, path: str | Path) -> None:
        """Write the campaign profile payload as deterministic JSON."""
        if self.profile is None:
            raise PipelineError(
                "campaign ran without profiling; no profile to write"
            )
        Path(path).write_text(
            render_metrics_json(self.profile), encoding="utf-8"
        )


def _build_plan(spec: CampaignSpec) -> FaultPlan:
    return fault_profile(spec.fault_profile, seed=spec.fault_seed)


def measure_country_unit(
    world: World,
    spec: CampaignSpec,
    country: str,
    zone_cache: ZoneCache | None = None,
) -> CountryResult:
    """Measure one country with completely fresh pipeline state.

    The World — and the optional :class:`~repro.net.dns.ZoneCache`,
    which is pure world structure — are the only shared objects (both
    immutable during measurement); resolver, fault plan, retry policy,
    breaker, and instrumentation are all unit-local, so the result is
    independent of what other countries ran before it — the invariant
    sharding relies on.
    """
    plan = _build_plan(spec)
    policy = (
        RetryPolicy(max_attempts=spec.retries, seed=spec.fault_seed)
        if spec.retries > 1
        else None
    )
    obs = Instrumentation() if spec.instrument else None
    pipeline = MeasurementPipeline(
        world,
        spec.vantage_continent,
        vantage_country=spec.vantage_country,
        fault_plan=plan,
        retry_policy=policy,
        obs=obs,
        zone_cache=zone_cache,
    )
    rows = pipeline.measure_country(country)
    metrics: dict | None = None
    spans: tuple[Span, ...] | None = None
    if obs is not None:
        obs.finalize(pipeline, rows)
        metrics = obs.registry.to_dict()
        spans = tuple(obs.tracer.finished())
    return CountryResult(
        country=country,
        rows=tuple(rows),
        metrics=metrics,
        spans=spans,
        injected_faults=sum(plan.injected.values()),
        open_circuits=tuple(pipeline.breaker.open_keys()),
    )


@dataclass
class WorkerContext:
    """Long-lived measurement state shared across country units.

    The reusable per-worker context the dispatch overhaul amortizes
    setup behind: the World plus the DNS plan table
    (:class:`~repro.net.dns.ZoneCache`).  Both are pure functions of
    the world recipe — never of campaign progress — so sharing one
    context across every unit a process measures cannot couple
    country units (the purity invariant sharding relies on).
    Unit-local state (resolver caches, fault plans, breakers,
    instrumentation) is still built fresh per country inside
    :func:`measure_country_unit`.
    """

    world: World
    zone_cache: ZoneCache

    @classmethod
    def for_world(cls, world: World) -> "WorkerContext":
        return cls(
            world=world, zone_cache=ZoneCache(world.namespace)
        )


#: Context handed to forked workers copy-on-write.  The parent builds
#: it once (and pre-warms the shared provider-zone plans) before
#: creating the pool; fork children inherit it for free, which beats
#: rebuilding a multi-second World in every worker.  Set only for the
#: duration of one sharded run (run_campaign is not reentrant while a
#: pool is live).
_PREFORK_CONTEXT: WorkerContext | None = None

#: Per-process context memo for spawn-based pools, where workers
#: inherit nothing: the first task in each worker builds the World
#: from the spec's recipe (identical by construction — the world is a
#: pure function of config + churn) and every later task in that
#: process reuses it, zone plans included.
_WORKER_CONTEXT: (
    tuple[
        tuple[WorldConfig, ChurnConfig | tuple[ChurnConfig, ...] | None],
        WorkerContext,
    ]
    | None
) = None

#: Monotonic (start, end) of the most recent in-process World build,
#: consumed once by :func:`pop_world_build` so the supervised worker
#: can report the build interval for exactly the task that paid it.
_LAST_WORLD_BUILD: tuple[float, float] | None = None


def worker_context(spec: CampaignSpec) -> WorkerContext:
    """The context a worker process measures with (memoized).

    Forked workers reuse the parent's pre-built context copy-on-write;
    spawned (or respawned) workers build it once per process from the
    spec's recipe and keep it across tasks.
    """
    global _WORKER_CONTEXT, _LAST_WORLD_BUILD
    if _PREFORK_CONTEXT is not None:
        return _PREFORK_CONTEXT
    recipe = (spec.config, spec.churn)
    if _WORKER_CONTEXT is None or _WORKER_CONTEXT[0] != recipe:
        build_start = time.monotonic()
        context = WorkerContext.for_world(spec.build_world())
        _WORKER_CONTEXT = (recipe, context)
        _LAST_WORLD_BUILD = (build_start, time.monotonic())
    return _WORKER_CONTEXT[1]


def pop_world_build() -> tuple[float, float] | None:
    """The monotonic interval of this process's last World build.

    Returns ``(start, end)`` once — the caller that triggered the
    build collects it; later calls (and calls after a copy-on-write
    reuse, which builds nothing) return None.
    """
    global _LAST_WORLD_BUILD
    interval, _LAST_WORLD_BUILD = _LAST_WORLD_BUILD, None
    return interval


class _StoreSession:
    """One campaign's interaction with the store, parent-process side.

    Computes the campaign id, per-country slice digests and shard
    keys, decides which countries can reuse stored shards, checkpoints
    each measured result as it lands, and keeps the manifest current on
    disk — so a kill at any instant loses at most the country units
    still in flight.  The digests are projected through the context's
    zone cache, the one the campaign's inline and pre-fork units
    measure with, so measurement reads the plans the projection built.

    Its hit/miss/skip counters live in a registry of their own, never
    merged into the campaign's measurement metrics: a resumed run must
    write ``--metrics-out`` byte-identical to an uninterrupted one, and
    store hit counts differ between the two by design.
    """

    def __init__(
        self,
        store: "CampaignStore",
        spec: CampaignSpec,
        context: WorkerContext,
        countries: list[str],
        *,
        resume: bool,
        baseline: str | None,
    ) -> None:
        from ..store.digest import campaign_id, shard_key, spec_fingerprint
        from ..store.store import MANIFEST_SCHEMA
        from ..worldgen.slices import world_slice_digest

        self.store = store
        self.spec = spec
        self.metrics = MetricsRegistry()
        hits = self.metrics.counter(
            "repro_store_shard_hits_total",
            "Countries whose stored shard was reused",
            labelnames=("country",),
        )
        misses = self.metrics.counter(
            "repro_store_shard_misses_total",
            "Countries measured because no stored shard matched",
            labelnames=("country",),
        )
        skipped = self.metrics.counter(
            "repro_store_resume_skipped_total",
            "Countries skipped by --resume (shard already present)",
            labelnames=("country",),
        )
        self.campaign = campaign_id(spec)
        if baseline is not None and store.load_manifest(baseline) is None:
            raise PipelineError(
                f"--since campaign {baseline} not found in store "
                f"{store.root}"
            )
        self.slices = {
            cc: world_slice_digest(
                context.world,
                cc,
                spec.vantage_continent,
                spec.vantage_country,
                context.zone_cache,
            )
            for cc in countries
        }
        self.keys = {
            cc: shard_key(spec, cc, self.slices[cc]) for cc in countries
        }
        self.reused: dict[str, CountryResult] = {}
        reuse_wanted = resume or baseline is not None
        for cc in countries:
            if reuse_wanted and store.has_shard(self.keys[cc]):
                try:
                    shard = store.get_shard(self.keys[cc])
                except StoreCorruptionError as exc:
                    # Re-raise with the campaign the reuse was for: the
                    # operator sees *which* resume/--since hit damage,
                    # not just a bare digest.
                    raise StoreCorruptionError(
                        f"campaign {self.campaign}: reusing {cc} "
                        f"(shard key {self.keys[cc][:16]}...): {exc}"
                    ) from exc
                assert shard is not None
                if shard.quarantined is not None:
                    # A stored tombstone is a promise to re-measure,
                    # never a reusable result.
                    misses.inc(country=cc)
                    continue
                self.reused[cc] = shard
                hits.inc(country=cc)
                if resume:
                    skipped.inc(country=cc)
            elif reuse_wanted:
                misses.inc(country=cc)
        self.manifest: dict = {
            "_schema": MANIFEST_SCHEMA,
            "campaign": self.campaign,
            "spec": spec_fingerprint(spec),
            "baseline": baseline,
            "complete": False,
            "countries": {
                cc: {
                    "slice": self.slices[cc],
                    "shard_key": self.keys[cc],
                    "object": store.shard_digest(self.keys[cc])
                    if cc in self.reused
                    else None,
                }
                for cc in countries
            },
        }
        store.save_manifest(self.manifest)

    def checkpoint(self, result: CountryResult) -> None:
        """Persist one finished country and update the manifest.

        Quarantine tombstones are persisted too (provenance: the
        manifest records *why* a country is missing), but marked so
        resume treats them as work to redo, not results to reuse.
        """
        cc = result.country
        digest = self.store.put_shard(self.keys[cc], result)
        entry = self.manifest["countries"][cc]
        entry["object"] = digest
        if result.quarantined is not None:
            entry["quarantined"] = result.quarantined
        else:
            entry.pop("quarantined", None)
        self.store.save_manifest(self.manifest)

    def finish(
        self, complete: bool, supervisor_metrics: dict | None = None
    ) -> None:
        """Record final state and write the store-metrics artifact."""
        self.manifest["complete"] = complete
        self.store.save_manifest(self.manifest)
        payload = self.metrics.to_dict()
        if supervisor_metrics is not None:
            payload = merge_metrics_payloads(
                [payload, supervisor_metrics]
            )
        self.store.write_store_metrics(self.campaign, payload)


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    *,
    store: "CampaignStore | None" = None,
    resume: bool = False,
    baseline: str | None = None,
    halt_after: int | None = None,
    mp_start_method: str | None = None,
    policy: SupervisorPolicy | None = None,
    chaos: "ChaosPlan | None" = None,
    should_halt: Callable[[], bool] | None = None,
    world: World | None = None,
) -> CampaignResult:
    """Run a campaign, optionally sharded, persisted, and supervised.

    ``workers <= 1`` measures every country inline; ``workers > 1``
    dispatches countries to that many supervised worker processes
    (:class:`~repro.pipeline.supervisor.ShardSupervisor`): a worker
    that crashes, reports an error, or blows its per-country
    wall-clock deadline has its country resubmitted with jittered
    backoff, and — with ``policy.quarantine`` — tombstoned once the
    retry budget is spent.  Either way the per-country results merge
    in sorted country order, so the output is invariant under
    ``workers`` (and under any supervision that ends in success).

    With a ``store``, every finished country is checkpointed as it
    completes.  ``resume=True`` reuses stored shards whose key matches
    (continuing an interrupted run of the *same* campaign; quarantine
    tombstones are re-measured, never reused);
    ``baseline=<campaign-id>`` additionally asserts the baseline
    campaign exists and reuses shards across world epochs (the
    ``--since`` path).  ``halt_after=N`` aborts with
    :class:`CampaignHalted` once N fresh countries are persisted —
    the deterministic stand-in for a mid-campaign crash in tests.
    ``mp_start_method`` pins the multiprocessing start method
    (default: fork when available).  ``policy`` (or ``chaos``) forces
    the supervised path even for ``workers=1``; ``chaos`` is the test
    harness's process-fault injector and must never be set in
    production use.  ``should_halt`` is the cooperative-stop hook:
    checked after every checkpoint, a True return halts the campaign
    exactly like ``halt_after`` (used for signal-triggered graceful
    shutdown and per-epoch deadlines in ``repro watch``).  ``world``
    is an already-built ``spec.build_world()``: the parent measures
    (and, under fork, shares) it instead of building its own, so a
    caller that holds the world never pays for a second build.
    """
    if (resume or baseline is not None) and store is None:
        raise PipelineError(
            "resume/baseline require a campaign store"
        )
    countries = spec.resolved_countries()
    if not countries:
        raise PipelineError("campaign has no countries to measure")

    profiler = CampaignProfiler() if spec.instrument else None

    def build_parent_world() -> World:
        if world is not None:
            return world
        if profiler is None:
            return spec.build_world()
        build_start = profiler.now()
        built = spec.build_world()
        profiler.world_built("main", build_start, profiler.now())
        return built

    # The parent's world and zone plans: built for the store session's
    # digests, then measured with inline or shared with forked workers.
    shared: WorkerContext | None = None
    session: _StoreSession | None = None
    if store is not None:
        shared = WorkerContext.for_world(build_parent_world())
        session = _StoreSession(
            store,
            spec,
            shared,
            countries,
            resume=resume,
            baseline=baseline,
        )

    to_measure = [
        cc
        for cc in countries
        if session is None or cc not in session.reused
    ]
    measured: dict[str, CountryResult] = {}
    halted = False
    supervisor_metrics: dict | None = None

    def note(result: CountryResult) -> bool:
        """Record one fresh result; True when the campaign must halt."""
        measured[result.country] = result
        if session is not None:
            session.checkpoint(result)
        if halt_after is not None and len(measured) >= halt_after:
            return True
        # The cooperative-halt hook fires *after* the checkpoint, so a
        # signal-triggered stop never loses a finished country: the
        # shard is already durable and --resume picks up from here.
        return should_halt is not None and should_halt()

    workers = min(workers, max(len(to_measure), 1))
    supervised = workers > 1 or policy is not None or chaos is not None
    if not supervised:
        if to_measure and shared is None:
            shared = WorkerContext.for_world(build_parent_world())
        for cc in to_measure:
            assert shared is not None
            compute_start = profiler.now() if profiler is not None else 0.0
            result = measure_country_unit(
                shared.world, spec, cc, zone_cache=shared.zone_cache
            )
            if profiler is not None:
                profiler.computed(cc, compute_start, profiler.now())
            if note(result):
                halted = True
                break
    elif to_measure:
        if mp_start_method is not None:
            context = multiprocessing.get_context(mp_start_method)
        else:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - platform-specific
                context = None
        method = (
            context.get_start_method()
            if context is not None
            else multiprocessing.get_start_method()
        )
        global _PREFORK_CONTEXT
        if method == "fork":
            if shared is None:
                shared = WorkerContext.for_world(build_parent_world())
            warm_start = profiler.now() if profiler is not None else 0.0
            shared.zone_cache.warm_shared_zones()
            if profiler is not None:
                profiler.zone_warmed(
                    "main", warm_start, profiler.now()
                )
            _PREFORK_CONTEXT = shared
        supervisor_registry = MetricsRegistry()
        supervisor = ShardSupervisor(
            spec,
            to_measure,
            workers,
            policy if policy is not None else SupervisorPolicy(),
            chaos=chaos,
            metrics=supervisor_registry,
            profiler=profiler,
            mp_context=context,
        )
        try:
            _results, halted = supervisor.run(note)
        finally:
            _PREFORK_CONTEXT = None
        payload = supervisor_registry.to_dict()
        # Only a run the supervisor had to intervene in carries its
        # families, so a clean run's store artifact stays identical to
        # an unsupervised one's.
        if any(entry["samples"] for entry in payload["metrics"].values()):
            supervisor_metrics = payload

    if halted:
        if session is not None:
            session.finish(
                complete=False, supervisor_metrics=supervisor_metrics
            )
            raise CampaignHalted(session.campaign, len(measured))
        raise CampaignHalted(None, len(measured))

    merge_start = profiler.now() if profiler is not None else 0.0
    units = [
        session.reused[cc] if session is not None and cc in session.reused
        else measured[cc]
        for cc in countries
    ]
    quarantined = tuple(
        unit.country for unit in units if unit.quarantined is not None
    )

    dataset = MeasurementDataset(
        vantage_continent=spec.vantage_continent
    )
    for unit in units:
        dataset.extend(unit.rows)

    metrics: dict | None = None
    spans: tuple[Span, ...] | None = None
    if spec.instrument:
        metrics = merge_metrics_payloads(
            [unit.metrics for unit in units if unit.metrics is not None]
        )
        spans = tuple(
            stitch_spans([unit.spans or () for unit in units])
        )

    open_circuits = sorted(
        {key for unit in units for key in unit.open_circuits}
    )
    profile: dict | None = None
    profile_spans: tuple[Span, ...] | None = None
    if profiler is not None:
        profiler.merged(merge_start, profiler.now())
        finished_spans, profile = profiler.finish()
        profile_spans = tuple(finished_spans)
    if session is not None:
        session.finish(
            complete=not quarantined,
            supervisor_metrics=supervisor_metrics,
        )
    return CampaignResult(
        dataset=dataset,
        metrics=metrics,
        spans=spans,
        injected_faults=sum(unit.injected_faults for unit in units),
        open_circuits=tuple(open_circuits),
        campaign=session.campaign if session is not None else None,
        store_metrics=(
            session.metrics.to_dict() if session is not None else None
        ),
        quarantined=quarantined,
        supervisor_metrics=supervisor_metrics,
        profile=profile,
        profile_spans=profile_spans,
    )
