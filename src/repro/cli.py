"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``score``        compute S / HHI / top-N for provider counts
``study``        run a full synthetic study and print layer summaries
``country``      print one country's dependence profile
``compare``      print measured-vs-published rows for one layer
``longitudinal`` run the 2023→2025 churn study
``measure``      run the pipeline with fault injection and resilience
``watch``        crash-safe longitudinal watcher: one churn step per
                 epoch, incremental measurement, durable series ledger
``report-campaign``  summarize a run's metrics/trace artifacts
``trace``        profile a campaign trace (summarize / critical-path /
                 export --format chrome for Perfetto)
``campaigns``    list / show / diff / series / gc / fsck the store
``serve``        read-optimized HTTP API over a campaign store
                 (materialized summaries, ETag revalidation)
``version``      print the package version (also ``--version``)

Exit codes: 0 success; 3 campaign halted (``--halt-after``); 4 a
country was quarantined; 5 ``fsck`` found unrepaired damage; 6 a
SIGTERM/SIGINT stopped a stored run after a checkpoint (finish with
``--resume`` / ``--resume-series``); 7 a watch completed but recorded
degraded epochs or unmet quotas; 9 a ``--watch-chaos`` simulated kill
fired (testing hook).

Global flags: ``-v/--verbose`` (repeatable) raises the structured-log
level, ``-q/--quiet`` lowers it to errors only.  ``measure`` grows
``--trace-out`` (JSONL spans) and ``--metrics-out`` (deterministic
metrics JSON) for the observability substrate, plus the campaign-store
family: ``--store`` (persist per-country shards as they complete),
``--resume`` (skip countries whose shard is already stored),
``--since <campaign-id>`` (incremental re-measurement after a world
evolution — pair with ``--evolve``/``--churn-countries``), and
``--halt-after N`` (testing hook: abort after N checkpointed
countries, exit code 3).  Supervision flags harden sharded runs:
``--country-timeout`` (wall-clock deadline per country),
``--max-shard-retries`` (resubmission budget after worker crashes,
hangs, or errors), and ``--quarantine`` (tombstone a country that
exhausts its budget instead of aborting; exit code 4 when any
country ends up quarantined — a later ``--resume`` re-measures it).
``--chunk-size N`` tunes how many countries ride one dispatch to a
worker process (default: auto-sized from the campaign).
``campaigns fsck [--repair]`` verifies store integrity (exit code 5
when damage is found and not repaired).

The CLI is a thin veneer over :mod:`repro.analysis`; anything it prints
can be obtained programmatically.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .core import (
    ProviderDistribution,
    centralization_score,
    hhi,
    interpret_score,
    top_n_share,
)

__all__ = ["main", "build_parser", "package_version"]


def package_version() -> str:
    """The installed package version, falling back to the source tree.

    Prefers importlib.metadata (authoritative for an installed wheel);
    a source checkout run via ``PYTHONPATH=src`` has no distribution
    metadata, so fall back to ``repro.__version__``.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: a float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Formalizing Dependence of Web "
            "Infrastructure' (SIGCOMM 2025)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {package_version()}",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise structured-log verbosity (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="silence structured logs below error level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser(
        "score", help="compute the Centralization Score for counts"
    )
    score.add_argument(
        "counts",
        nargs="+",
        help="provider counts, either numbers ('60 25 15') or "
        "name=count pairs ('cloudflare=60 amazon=25')",
    )

    study = sub.add_parser("study", help="run a synthetic study")
    study.add_argument("--sites", type=int, default=1000)
    study.add_argument(
        "--countries", nargs="*", default=None, metavar="CC"
    )

    country = sub.add_parser("country", help="one country's profile")
    country.add_argument("code", help="ISO country code, e.g. TH")
    country.add_argument("--sites", type=int, default=1000)
    country.add_argument("--countries", nargs="*", default=None)

    compare = sub.add_parser(
        "compare", help="measured vs published scores for a layer"
    )
    compare.add_argument(
        "layer", choices=("hosting", "dns", "ca", "tld")
    )
    compare.add_argument("--sites", type=int, default=1000)
    compare.add_argument("--limit", type=int, default=None)
    compare.add_argument("--countries", nargs="*", default=None)

    longitudinal = sub.add_parser(
        "longitudinal", help="2023 vs 2025 churn study"
    )
    longitudinal.add_argument("--sites", type=int, default=1000)
    longitudinal.add_argument("--countries", nargs="*", default=None)

    from .faults.plan import FAULT_PROFILES

    measure = sub.add_parser(
        "measure",
        help="run the measurement pipeline under a fault profile and "
        "report the failure taxonomy",
    )
    measure.add_argument("--sites", type=int, default=300)
    measure.add_argument("--countries", nargs="*", default=None)
    measure.add_argument(
        "--fault-profile",
        choices=sorted(FAULT_PROFILES),
        default="none",
        help="named fault plan injected into the DNS/TLS/enrichment "
        "steps (default: none)",
    )
    measure.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault injectors and retry jitter",
    )
    measure.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="attempts per network operation; N>1 enables retry with "
        "deterministic exponential backoff (default: 1, no retries)",
    )
    measure.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="shard the campaign's countries across N worker "
        "processes; output is byte-identical to --workers 1 for the "
        "same seed (default: 1, in-process)",
    )
    measure.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="countries per dispatch to a worker process; larger "
        "chunks amortize pipe round trips at paper scale (default: "
        "auto, ceil(countries / (workers * 4)))",
    )
    measure.add_argument(
        "--country-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per country dispatch; a worker that "
        "blows it is killed and the country resubmitted (default: no "
        "deadline)",
    )
    measure.add_argument(
        "--max-shard-retries",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="resubmissions per country after a worker crash, hang, "
        "or error, with jittered backoff (default: 2)",
    )
    measure.add_argument(
        "--quarantine",
        action="store_true",
        help="when a country exhausts its retry budget, record a "
        "tombstone and keep going instead of aborting; the campaign "
        "exits 4 and a later --resume re-measures the quarantined "
        "countries",
    )
    measure.add_argument(
        "--export", default=None, metavar="CSV",
        help="also write the per-site records to a CSV release",
    )
    measure.add_argument(
        "--trace-out",
        default=None,
        metavar="JSONL",
        help="write per-site stage spans (logical + wall clock) as "
        "JSON Lines",
    )
    measure.add_argument(
        "--metrics-out",
        default=None,
        metavar="JSON",
        help="write the deterministic metrics registry (counters, "
        "histograms) as JSON",
    )
    measure.add_argument(
        "--profile-out",
        default=None,
        metavar="JSON",
        help="write the campaign profile (worker utilization, queue "
        "depth, phase attribution — wall-clock, so not byte-stable) "
        "as JSON; implies instrumentation",
    )
    measure.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="campaign store directory; per-country results are "
        "checkpointed there as they complete",
    )
    measure.add_argument(
        "--resume",
        action="store_true",
        help="skip countries whose shard already exists in the store "
        "(finishing an interrupted run of the same campaign); output "
        "is byte-identical to an uninterrupted run",
    )
    measure.add_argument(
        "--since",
        default=None,
        metavar="CAMPAIGN",
        help="incremental re-measurement: reuse stored shards from a "
        "baseline campaign for countries whose world slice is "
        "unchanged (campaign id, unique prefix accepted)",
    )
    measure.add_argument(
        "--evolve",
        action="store_true",
        help="measure the churned evolution of the world "
        "(worldgen.churn.evolve) instead of the base snapshot",
    )
    measure.add_argument(
        "--churn-countries",
        nargs="+",
        default=None,
        metavar="CC",
        help="with --evolve: restrict churn to these countries; all "
        "others carry into the new snapshot byte-identically",
    )
    measure.add_argument(
        "--halt-after",
        type=int,
        default=None,
        metavar="N",
        help="testing hook: abort (exit code 3) once N countries have "
        "been measured and checkpointed",
    )
    from .faults.chaos import CHAOS_PROFILES

    measure.add_argument(
        "--chaos",
        choices=sorted(CHAOS_PROFILES),
        default=None,
        help="testing hook: batter the worker fleet with a seeded "
        "process-level chaos profile (SIGKILLed or wedged workers); "
        "never changes what a converged campaign measures",
    )
    measure.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for chaos target selection (default: 0)",
    )

    from .faults.chaos import WATCH_CHAOS_PROFILES

    watch = sub.add_parser(
        "watch",
        help="crash-safe longitudinal watcher: evolve the world one "
        "churn step per epoch, measure incrementally, and append "
        "each epoch to a durable series ledger (exit 0 complete, 6 "
        "signal-interrupted after a checkpoint, 7 complete with "
        "degraded epochs or unmet quota)",
    )
    watch.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="campaign store directory holding the series ledger and "
        "every epoch's shards",
    )
    watch.add_argument(
        "--epochs",
        type=_positive_int,
        required=True,
        metavar="N",
        help="target epoch count for the series (epoch 0 is the base "
        "world; a --resume-series run with a larger N extends the "
        "same series)",
    )
    watch.add_argument("--sites", type=int, default=300)
    watch.add_argument("--countries", nargs="*", default=None)
    watch.add_argument(
        "--fault-profile",
        choices=sorted(FAULT_PROFILES),
        default="none",
    )
    watch.add_argument("--fault-seed", type=int, default=0)
    watch.add_argument("--retries", type=int, default=1, metavar="N")
    watch.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N"
    )
    watch.add_argument(
        "--churn-countries",
        nargs="+",
        default=None,
        metavar="CC",
        help="restrict each epoch's churn step to these countries; "
        "all others carry between epochs byte-identically and reuse "
        "their stored shards",
    )
    watch.add_argument(
        "--store-quota-bytes",
        type=_positive_int,
        default=None,
        metavar="BYTES",
        help="retention budget for the series' live objects/ payload; "
        "oldest epochs are retired (manifest dropped, objects swept) "
        "until the live set fits; an unmeetable quota is recorded, "
        "never fatal",
    )
    watch.add_argument(
        "--epoch-deadline",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per epoch; a blown epoch is "
        "tombstoned degraded:deadline in the ledger and never "
        "retried",
    )
    watch.add_argument(
        "--resume-series",
        action="store_true",
        help="continue a series that already has ledger entries "
        "(picking up mid-epoch via shard resume or mid-series via "
        "the ledger); without it, touching an existing series is an "
        "error",
    )
    watch.add_argument(
        "--export-dir",
        default=None,
        metavar="DIR",
        help="write one epoch-<n>.csv per fully measured epoch",
    )
    watch.add_argument(
        "--quarantine",
        action="store_true",
        help="tombstone countries that exhaust their shard-retry "
        "budget instead of aborting the epoch; such epochs are "
        "recorded degraded:quarantine",
    )
    watch.add_argument(
        "--watch-chaos",
        choices=sorted(WATCH_CHAOS_PROFILES),
        default=None,
        help="testing hook: batter the watcher itself with a seeded "
        "kill/disk-pressure profile (exit 9 when a simulated kill "
        "fires; resume with --resume-series)",
    )
    watch.add_argument(
        "--watch-chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for watcher chaos placement (default: 0)",
    )

    campaigns = sub.add_parser(
        "campaigns",
        help="inspect and maintain the campaign store "
        "(list / show / diff / series / gc / fsck)",
    )
    campaigns.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="campaign store directory",
    )
    campaigns_sub = campaigns.add_subparsers(
        dest="subcommand", required=True
    )
    campaigns_sub.add_parser("list", help="list stored campaigns")
    show = campaigns_sub.add_parser(
        "show", help="one campaign's manifest in detail"
    )
    show.add_argument("campaign", help="campaign id (prefix accepted)")
    diff = campaigns_sub.add_parser(
        "diff",
        help="per-layer centralization and insularity deltas between "
        "two stored campaigns",
    )
    diff.add_argument("campaign_a", help="baseline campaign id")
    diff.add_argument("campaign_b", help="comparison campaign id")
    diff.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="countries per layer, ranked by |score delta| (default 10)",
    )
    series_cmd = campaigns_sub.add_parser(
        "series",
        help="list stored longitudinal series, or show one series' "
        "epoch table and epoch-over-epoch centralization deltas",
    )
    series_cmd.add_argument(
        "series",
        nargs="?",
        default=None,
        help="series id (prefix accepted); omit to list all series",
    )
    series_cmd.add_argument(
        "--top",
        type=_positive_int,
        default=5,
        metavar="N",
        help="countries per layer in the delta section, ranked by "
        "|score delta| (default 5)",
    )
    series_cmd.add_argument(
        "--trend",
        action="store_true",
        help="full-series consolidation trend instead of the epoch "
        "detail: per-layer centralization/insularity time series "
        "across every recorded epoch (retired epochs as summary "
        "rows) plus provider entry/exit events",
    )
    gc = campaigns_sub.add_parser(
        "gc",
        help="drop shard objects and index entries no manifest "
        "references",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed (objects, index entries, "
        "bytes) without deleting anything",
    )
    fsck = campaigns_sub.add_parser(
        "fsck",
        help="verify store integrity: re-hash every object and detect "
        "corrupt/truncated objects, dangling or unparseable index "
        "entries, and damaged manifests (exit code 5 when damage is "
        "found and not repaired)",
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="drop damaged objects and index entries and clear the "
        "manifest references to them, so --resume/--since re-measure "
        "exactly the damaged countries",
    )

    serve = sub.add_parser(
        "serve",
        help="serve a campaign store over HTTP: materialized score "
        "summaries, campaign diffs, series trends, and what-if "
        "queries with content-digest ETags (Ctrl-C to stop)",
    )
    serve.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="campaign store directory to serve",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        metavar="P",
        help="listen port (default 8080; 0 picks an ephemeral port)",
    )

    sub.add_parser("version", help="print the package version")

    report = sub.add_parser(
        "report-campaign",
        help="summarize a measured run from its metrics/trace "
        "artifacts (slowest stages, failing nameservers, cache "
        "efficiency)",
    )
    report.add_argument(
        "--metrics",
        required=True,
        metavar="JSON",
        help="metrics file written by 'measure --metrics-out'",
    )
    report.add_argument(
        "--trace",
        default=None,
        nargs="+",
        metavar="JSONL",
        help="optional trace(s) written by 'measure --trace-out'; "
        "several files are concatenated in the order given into one "
        "id space (adds wall-clock stage timings)",
    )
    report.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="rows per ranking (nameservers, countries; default 5)",
    )
    report.add_argument(
        "--store-metrics",
        default=None,
        metavar="JSON",
        help="per-campaign store-telemetry artifact "
        "(campaigns/<id>.store.json); adds a campaign-store section "
        "with shard hit/miss/resume counts",
    )

    trace = sub.add_parser(
        "trace",
        help="profile a campaign trace: worker timelines, critical "
        "path, Chrome/Perfetto export",
    )
    trace_sub = trace.add_subparsers(dest="subcommand", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="worker busy/idle fractions, phase attribution, critical-"
        "path phases, and an Amdahl decomposition for one trace",
    )
    summarize.add_argument(
        "traces",
        nargs="+",
        metavar="JSONL",
        help="trace file(s) written by 'measure --trace-out'; several "
        "files are concatenated in the order given into one id space",
    )
    summarize.add_argument(
        "--json",
        action="store_true",
        help="emit the profile as JSON instead of the text report",
    )
    crit = trace_sub.add_parser(
        "critical-path",
        help="the chain of spans bounding the campaign wall clock, "
        "longest segments first",
    )
    crit.add_argument("traces", nargs="+", metavar="JSONL")
    crit.add_argument(
        "--top",
        type=_positive_int,
        default=20,
        metavar="N",
        help="segments to show (default 20)",
    )
    export_trace = trace_sub.add_parser(
        "export",
        help="convert a trace for an external viewer",
    )
    export_trace.add_argument("traces", nargs="+", metavar="JSONL")
    export_trace.add_argument(
        "--format",
        choices=("chrome",),
        default="chrome",
        help="output format: chrome trace_event JSON, loadable in "
        "Perfetto / chrome://tracing (default)",
    )
    export_trace.add_argument(
        "--out",
        required=True,
        metavar="JSON",
        help="output file",
    )
    return parser


def _parse_counts(tokens: list[str]) -> ProviderDistribution:
    if all("=" in token for token in tokens):
        items = {}
        for token in tokens:
            name, _, value = token.partition("=")
            items[name] = float(value)
        return ProviderDistribution(items)
    return ProviderDistribution.from_counts_array(
        [float(t) for t in tokens]
    )


def _cmd_score(args: argparse.Namespace) -> int:
    dist = _parse_counts(args.counts)
    s = centralization_score(dist)
    print(f"C (total sites):       {dist.total:g}")
    print(f"providers:             {dist.n_providers}")
    print(f"Centralization Score:  {s:.4f} ({interpret_score(s).value})")
    print(f"HHI:                   {hhi(dist):.4f}")
    print(f"top-1 / top-5 share:   {top_n_share(dist, 1):.3f} / "
          f"{top_n_share(dist, 5):.3f}")
    return 0


def _study(args: argparse.Namespace):
    from .analysis import DependenceStudy
    from .worldgen import WorldConfig

    kwargs = {"sites_per_country": args.sites}
    if getattr(args, "countries", None):
        countries = {c.upper() for c in args.countries}
        if getattr(args, "code", None):
            countries.add(args.code.upper())
        kwargs["countries"] = tuple(sorted(countries))
    return DependenceStudy.run(WorldConfig(**kwargs))


def _cmd_study(args: argparse.Namespace) -> int:
    from .analysis import layer_summary
    from .datasets.paper_scores import LAYERS

    study = _study(args)
    for layer in LAYERS:
        print(layer_summary(study, layer))
    return 0


def _cmd_country(args: argparse.Namespace) -> int:
    from .analysis import country_report

    study = _study(args)
    print(country_report(study, args.code.upper()))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import comparison_table

    study = _study(args)
    print(comparison_table(study, args.layer, limit=args.limit))
    return 0


def _cmd_longitudinal(args: argparse.Namespace) -> int:
    from .analysis import DependenceStudy, SnapshotComparison
    from .worldgen import evolve

    old = _study(args)
    new = DependenceStudy.measure(evolve(old.world))
    cmp = SnapshotComparison(old, new)
    print(f"score correlation: {cmp.score_correlation}")
    print(f"largest increase:  {cmp.largest_increase}")
    print(f"largest decrease:  {cmp.largest_decrease}")
    print(
        f"mean Cloudflare delta: {cmp.mean_cloudflare_delta_points:+.1f} pts"
    )
    print(f"mean toplist Jaccard:  {cmp.mean_jaccard:.3f}")
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .errors import PipelineError
    from .faults import render_failure_report
    from .obs.metrics import metric_total
    from .pipeline import (
        CampaignHalted,
        CampaignSpec,
        export_csv,
        run_campaign,
    )
    from .worldgen import ChurnConfig, WorldConfig

    # The outputs are written after the campaign: a missing directory
    # must fail before it runs, not lose what it measured.
    for flag, path in (
        ("--export", args.export),
        ("--metrics-out", args.metrics_out),
        ("--trace-out", args.trace_out),
        ("--profile-out", args.profile_out),
    ):
        if path and not Path(path).parent.is_dir():
            raise PipelineError(
                f"{flag} {path}: directory {Path(path).parent} does not "
                f"exist"
            )
    kwargs = {"sites_per_country": args.sites}
    if args.countries:
        kwargs["countries"] = tuple(
            sorted({c.upper() for c in args.countries})
        )
    churn = None
    if args.evolve or args.churn_countries:
        churn_kwargs = {}
        if args.churn_countries:
            churn_kwargs["churn_countries"] = tuple(
                sorted({c.upper() for c in args.churn_countries})
            )
        churn = ChurnConfig(**churn_kwargs)
    # Only instrument when asked: the default path stays the
    # observability-free (byte-identical) hot path.
    spec = CampaignSpec(
        config=WorldConfig(**kwargs),
        fault_profile=args.fault_profile,
        fault_seed=args.fault_seed,
        retries=args.retries,
        instrument=bool(
            args.trace_out or args.metrics_out or args.profile_out
        ),
        churn=churn,
    )
    store = None
    baseline = None
    if args.store:
        from .store import CampaignStore

        store = CampaignStore(args.store)
        if args.since:
            baseline = store.resolve_id("campaign", args.since)
    elif args.resume or args.since:
        raise PipelineError("--resume/--since require --store DIR")
    countries = spec.resolved_countries()
    if args.workers > len(countries):
        print(
            f"warning: --workers {args.workers} exceeds the campaign's "
            f"{len(countries)} countries; clamping to {len(countries)}",
            file=sys.stderr,
        )
    policy = None
    if (
        args.country_timeout is not None
        or args.max_shard_retries is not None
        or args.quarantine
        # chunk size only matters across a process boundary; alone it
        # must not force the supervised path onto a --workers 1 run,
        # which measures inline (and ignores chunking) by design.
        or (args.chunk_size is not None and args.workers > 1)
    ):
        from .pipeline import SupervisorPolicy

        policy_kwargs = {
            "quarantine": args.quarantine,
            "seed": args.fault_seed,
        }
        if args.country_timeout is not None:
            policy_kwargs["country_timeout"] = args.country_timeout
        if args.max_shard_retries is not None:
            policy_kwargs["max_shard_retries"] = args.max_shard_retries
        if args.chunk_size is not None:
            policy_kwargs["chunk_size"] = args.chunk_size
        policy = SupervisorPolicy(**policy_kwargs)
    chaos = None
    if args.chaos:
        from .faults.chaos import chaos_profile

        chaos = chaos_profile(
            args.chaos, list(countries), seed=args.chaos_seed
        )
    # With a store, SIGTERM/SIGINT mean checkpoint-then-exit: the
    # next country boundary persists everything measured, the run
    # stops with exit 6, and --resume finishes it.  Without a store
    # there is nothing durable to save, so signals keep their default
    # behavior.
    import contextlib

    from .pipeline import GracefulShutdown

    shutdown = GracefulShutdown() if store is not None else None
    try:
        with shutdown if shutdown is not None else contextlib.nullcontext():
            result = run_campaign(
                spec,
                workers=args.workers,
                store=store,
                resume=args.resume,
                baseline=baseline,
                halt_after=args.halt_after,
                policy=policy,
                chaos=chaos,
                should_halt=(
                    shutdown.requested if shutdown is not None else None
                ),
            )
    except CampaignHalted as halted:
        if shutdown is not None and shutdown.requested():
            print(
                f"interrupted by {shutdown.signal_name} after a "
                f"checkpoint (campaign {halted.campaign or '-'}); "
                f"finish it with --resume"
            )
            return 6
        print(f"{halted} (campaign {halted.campaign or '-'}); "
              f"finish it with --resume")
        return 3
    dataset = result.dataset

    total = len(dataset)
    failed = sum(1 for r in dataset if not r.ok)
    degraded = sum(1 for r in dataset if r.degraded)
    attempts = sum(r.attempts for r in dataset)
    print(
        f"measured {total} sites across {len(dataset.countries)} "
        f"countries (profile={args.fault_profile}, "
        f"retries={args.retries}, workers={args.workers})"
    )
    print(
        f"failed rows:    {failed} ({100.0 * failed / total:.2f}%)"
        if total
        else "failed rows:    0"
    )
    print(
        f"degraded rows:  {degraded} ({100.0 * degraded / total:.2f}%)"
        if total
        else "degraded rows:  0"
    )
    print(f"attempts spent: {attempts} (injected faults: "
          f"{result.injected_faults})")
    if result.open_circuits:
        print(f"open circuits:  {', '.join(result.open_circuits)}")
    print()
    print(render_failure_report(dataset.failure_taxonomy()))
    if args.export:
        rows = export_csv(dataset, args.export)
        print(f"\nwrote {rows} rows to {args.export}")
    if args.metrics_out:
        result.write_metrics(args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    if args.trace_out:
        spans = result.write_trace(args.trace_out)
        print(f"wrote {spans} spans to {args.trace_out}")
    if args.profile_out:
        result.write_profile(args.profile_out)
        print(f"wrote campaign profile to {args.profile_out}")
    if result.campaign is not None:
        hits, misses, skipped = (
            int(metric_total(result.store_metrics or {}, name))
            for name in (
                "repro_store_shard_hits_total",
                "repro_store_shard_misses_total",
                "repro_store_resume_skipped_total",
            )
        )
        print(
            f"campaign {result.campaign[:16]} stored in {args.store} "
            f"(shard hits {hits}, misses {misses}, "
            f"resume skipped {skipped})"
        )
    if result.supervisor_metrics is not None:
        retries, timeouts, quarantined = (
            int(metric_total(result.supervisor_metrics, name))
            for name in (
                "repro_shard_retries_total",
                "repro_shard_timeouts_total",
                "repro_countries_quarantined_total",
            )
        )
        print(
            f"supervision: {retries} shard retries, {timeouts} timeouts, "
            f"{quarantined} quarantined"
        )
    if result.quarantined:
        print(
            f"quarantined countries: {', '.join(result.quarantined)}"
        )
        print(
            "a --resume run re-measures exactly the quarantined "
            "countries"
            if store is not None
            else "re-run with --store + --resume to re-measure them"
        )
        return 4
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .faults.chaos import SimulatedKill, watch_chaos_profile
    from .pipeline import CampaignSpec
    from .pipeline.watch import WatchSpec, run_watch
    from .store import CampaignStore
    from .worldgen import ChurnConfig, WorldConfig

    kwargs = {"sites_per_country": args.sites}
    if args.countries:
        kwargs["countries"] = tuple(
            sorted({c.upper() for c in args.countries})
        )
    churn_kwargs = {}
    if args.churn_countries:
        churn_kwargs["churn_countries"] = tuple(
            sorted({c.upper() for c in args.churn_countries})
        )
    watch = WatchSpec(
        spec=CampaignSpec(
            config=WorldConfig(**kwargs),
            fault_profile=args.fault_profile,
            fault_seed=args.fault_seed,
            retries=args.retries,
        ),
        epochs=args.epochs,
        churn=ChurnConfig(**churn_kwargs),
        store_quota_bytes=args.store_quota_bytes,
        epoch_deadline=args.epoch_deadline,
    )
    store = CampaignStore(args.store)
    policy = None
    if args.quarantine:
        from .pipeline import SupervisorPolicy

        policy = SupervisorPolicy(
            quarantine=True, seed=args.fault_seed
        )
    chaos = None
    if args.watch_chaos:
        chaos = watch_chaos_profile(
            args.watch_chaos, args.epochs, seed=args.watch_chaos_seed
        )
    try:
        report = run_watch(
            watch,
            store,
            workers=args.workers,
            resume=args.resume_series,
            export_dir=args.export_dir,
            policy=policy,
            chaos=chaos,
        )
    except SimulatedKill as kill:
        print(
            f"simulated kill fired at epoch {kill.kill.epoch} "
            f"({kill.kill.phase}); the series is durable — continue "
            f"it with --resume-series"
        )
        return 9
    print(
        f"series {report.series[:16]}: {report.epochs_recorded}/"
        f"{report.epochs_target} epochs recorded "
        f"({len(report.ran)} this session)"
    )
    if report.statuses:
        print(f"statuses: {' '.join(report.statuses)}")
    if report.retired:
        print(
            "quota-retired epochs: "
            + ", ".join(str(e) for e in report.retired)
        )
    if report.quota_unmet:
        print(
            "quota unmet at epochs: "
            + ", ".join(str(e) for e in report.quota_unmet)
            + " (recorded and continued)"
        )
    print(f"live store payload: {report.store_bytes} bytes")
    print(
        f"ledger: {store.series_path(report.series)}"
    )
    print(
        f"watch telemetry: {store.watch_metrics_path(report.series)}"
    )
    if report.interrupted is not None:
        print(
            f"interrupted by {report.interrupted} after a durable "
            f"step; continue with --resume-series"
        )
    return report.exit_code()


def _cmd_report_campaign(args: argparse.Namespace) -> int:
    from .analysis.campaign import load_metrics, render_campaign_report
    from .obs.spans import load_trace, stitch_spans

    metrics = load_metrics(args.metrics)
    spans = None
    if args.trace:
        traces = []
        for path in args.trace:
            trace = load_trace(path, errors="skip")
            if not trace:
                print(
                    f"warning: trace {path} holds no spans; skipping it",
                    file=sys.stderr,
                )
                continue
            traces.append(trace)
        if traces:
            spans = stitch_spans(traces)
        else:
            print(
                "warning: no spans in any --trace file; reporting "
                "from metrics only",
                file=sys.stderr,
            )
    store_metrics = None
    if args.store_metrics:
        store_metrics = load_metrics(args.store_metrics)
    print(
        render_campaign_report(
            metrics, spans, top=args.top, store_metrics=store_metrics
        )
    )
    return 0


def _cmd_campaigns(args: argparse.Namespace) -> int:
    from .store import CampaignStore

    store = CampaignStore(args.store)
    if args.subcommand == "list":
        if not store.list_campaign_ids():
            print(f"no campaigns stored in {store.root}")
            return 0
        from .analysis.storediff import manifest_snapshot

        def warn_corrupt(campaign: str, exc: Exception) -> None:
            print(
                f"warning: skipping corrupt manifest "
                f"{campaign[:16]} (run `repro campaigns fsck`)",
                file=sys.stderr,
            )

        for _, manifest in store.iter_campaigns(on_corrupt=warn_corrupt):
            config = manifest["spec"]["config"]
            countries = manifest.get("countries", {})
            stored = sum(
                1 for entry in countries.values() if entry.get("object")
            )
            quarantined = sum(
                1
                for entry in countries.values()
                if entry.get("quarantined")
            )
            state = "complete" if manifest.get("complete") else "partial"
            line = (
                f"{manifest['campaign'][:16]}  {state:8s}  "
                f"snapshot {manifest_snapshot(manifest)}  "
                f"seed {config.get('seed')}  "
                f"profile {manifest['spec']['knobs']['fault_profile']}  "
                f"{stored}/{len(countries)} shards"
            )
            if quarantined:
                line += f"  {quarantined} quarantined"
            print(line)
        return 0
    if args.subcommand == "show":
        import json as json_module

        from .errors import UnknownIdError

        manifest = store.load_manifest(
            store.resolve_id("campaign", args.campaign)
        )
        if manifest is None:
            raise UnknownIdError("campaign", args.campaign)
        print(json_module.dumps(manifest, indent=2, sort_keys=True))
        return 0
    if args.subcommand == "diff":
        from .analysis import render_campaign_diff

        print(
            render_campaign_diff(
                store,
                store.resolve_id("campaign", args.campaign_a),
                store.resolve_id("campaign", args.campaign_b),
                top=args.top,
            )
        )
        return 0
    if args.subcommand == "series":
        from .analysis import (
            render_series_detail,
            render_series_list,
            render_series_trend,
            series_trend,
        )

        if args.series is None:
            print(render_series_list(store))
        elif args.trend:
            trend = series_trend(
                store, store.resolve_id("series", args.series)
            )
            print(render_series_trend(trend, top=args.top))
        else:
            print(
                render_series_detail(
                    store,
                    store.resolve_id("series", args.series),
                    top=args.top,
                )
            )
        return 0
    if args.subcommand == "gc":
        print(store.gc(dry_run=args.dry_run).render())
        return 0
    if args.subcommand == "fsck":
        report = store.fsck(repair=args.repair)
        print(report.render())
        return 0 if report.clean or report.repaired else 5
    raise AssertionError(  # pragma: no cover - argparse enforces choices
        f"unknown campaigns subcommand {args.subcommand!r}"
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as json_module
    from pathlib import Path

    from .analysis.traceprof import (
        analyze_trace,
        chrome_trace,
        render_critical_path,
        render_trace_summary,
    )
    from .obs.spans import load_trace, stitch_spans

    traces = [load_trace(path) for path in args.traces]
    spans = stitch_spans(traces)
    if args.subcommand == "summarize":
        profile = analyze_trace(spans)
        if args.json:
            print(
                json_module.dumps(
                    profile.to_dict(), indent=2, sort_keys=True
                )
            )
        else:
            print(render_trace_summary(profile), end="")
        return 0
    if args.subcommand == "critical-path":
        profile = analyze_trace(spans)
        print(render_critical_path(profile, top=args.top), end="")
        return 0
    if args.subcommand == "export":
        payload = chrome_trace(spans)
        Path(args.out).write_text(
            json_module.dumps(payload) + "\n", encoding="utf-8"
        )
        print(
            f"wrote {len(payload['traceEvents'])} trace events to "
            f"{args.out} (open in https://ui.perfetto.dev)"
        )
        return 0
    raise AssertionError(  # pragma: no cover - argparse enforces choices
        f"unknown trace subcommand {args.subcommand!r}"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import serve

    server = serve(args.store, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    # Flushed: a supervisor reading the port through a pipe would
    # otherwise wait for the block buffer until the server exits.
    print(
        f"repro serve: {args.store} on http://{host}:{port} "
        f"(Ctrl-C to stop)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_version(args: argparse.Namespace) -> int:
    print(f"repro {package_version()}")
    return 0


_COMMANDS = {
    "score": _cmd_score,
    "study": _cmd_study,
    "country": _cmd_country,
    "compare": _cmd_compare,
    "longitudinal": _cmd_longitudinal,
    "measure": _cmd_measure,
    "watch": _cmd_watch,
    "report-campaign": _cmd_report_campaign,
    "trace": _cmd_trace,
    "campaigns": _cmd_campaigns,
    "serve": _cmd_serve,
    "version": _cmd_version,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .obs.log import configure

    parser = build_parser()
    args = parser.parse_args(argv)
    configure(verbose=args.verbose, quiet=args.quiet)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
