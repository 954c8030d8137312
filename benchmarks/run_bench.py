#!/usr/bin/env python
"""Time the measurement pipeline: observability overhead and sharding.

It times the per-country measurement unit instrumented and bare (the
observability-overhead yardstick) and the campaign runner across
worker counts, and writes a ``BENCH_<date>.json`` at the repository
root.  The core primitives are timed by
``benchmarks/test_perf_primitives.py`` and the serve read path by the
repository benchmark (``perfbench/run.py --workload serve``).

Workflow (documented in DESIGN.md §7):

    python benchmarks/run_bench.py            # full run, BENCH_<date>.json
    python benchmarks/run_bench.py --smoke    # tiny sizes, CI artifact
    python benchmarks/run_bench.py --smoke --max-overhead-pct 30
                                              # CI gate: fail on regression

Overhead is measured **interleaved**: instrumented and bare runs
alternate inside one loop and each takes its best-of-``--repeat``
minimum.  Sequential phases (all instrumented, then all bare) let one
scheduler-noise spike land entirely on one variant — this benchmark
once reported the same build at 19% and 116% overhead that way.  The
embedded metrics are deterministic and double as a regression check
that instrumentation accounting stays honest.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import sys
import time
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.traceprof import analyze_trace  # noqa: E402
from repro.faults import RetryPolicy, fault_profile  # noqa: E402
from repro.net.dns import ZoneCache  # noqa: E402
from repro.obs import Instrumentation  # noqa: E402
from repro.pipeline import (  # noqa: E402
    CampaignSpec,
    MeasurementPipeline,
    WebsiteMeasurement,
    run_campaign,
)
from repro.worldgen import World, WorldConfig  # noqa: E402


def _cpu_info() -> dict:
    """How much parallel hardware this box actually offers.

    Recorded in every report so a speedup number can be judged against
    the machine that produced it — on a 1-CPU container no worker
    count can beat serial by more than scheduling luck, and the Amdahl
    bounds only make sense next to the core count.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {"count": os.cpu_count(), "affinity": affinity}


def _best_of(repeat: int, fn) -> tuple[float, object]:
    """Best wall time over ``repeat`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_overhead(
    sites: int, countries: tuple[str, ...], repeat: int
) -> tuple[dict, dict]:
    """Interleaved instrumented/bare timing of the same country units.

    Returns ``(instrumented, bare)`` result dicts.  Each run measures
    every country with a fresh pipeline (fault plan, retry policy and,
    when instrumented, its own :class:`Instrumentation`, finalized per
    country), exactly as a campaign's country unit does, minus the
    merge.  Both variants run against one shared World, alternate
    within a single loop, and take the minimum over ``repeat`` rounds
    (after one warm-up round each), so the overhead ratio compares two
    noise-floor readings instead of two phase averages.
    """
    config = WorldConfig(sites_per_country=sites, countries=countries)
    build_seconds, world = _best_of(
        repeat, lambda: World(config).materialize()
    )
    assert isinstance(world, World)

    def run(instrumented: bool):
        # A fresh ZoneCache per run, exactly as each campaign gets one:
        # plan building is billed inside the timed region the same way
        # the production path pays it.
        zone_cache = ZoneCache(world.namespace)
        rows: list[WebsiteMeasurement] = []
        observers: list[Instrumentation] = []
        # Collect the previous run's garbage outside the timed region
        # and keep the collector off inside it, so cycle-collection
        # pauses don't land on whichever variant happens to be running
        # (the instrumented variant leaves large cyclic object graphs
        # behind, which would otherwise bill its cleanup to the *next*
        # timed run).
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for cc in countries:
                obs = Instrumentation() if instrumented else None
                pipeline = MeasurementPipeline(
                    world,
                    fault_plan=fault_profile("chaos", seed=0),
                    retry_policy=RetryPolicy(max_attempts=3, seed=0),
                    obs=obs,
                    zone_cache=zone_cache,
                )
                rows.extend(pipeline.measure_country(cc))
                if obs is not None:
                    obs.finalize(pipeline)
                    observers.append(obs)
            seconds = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        return seconds, rows, observers

    run(True)  # warm up caches and allocator on both variants
    run(False)
    best_instrumented = best_bare = float("inf")
    rows: list[WebsiteMeasurement] = []
    observers: list[Instrumentation] = []
    for _ in range(repeat):
        seconds, rows, observers = run(True)
        best_instrumented = min(best_instrumented, seconds)
        seconds, _, _ = run(False)
        best_bare = min(best_bare, seconds)
    total_sites = len(rows)

    def total(metric) -> float:
        return sum(metric(obs) for obs in observers)

    instrumented = {
        "world_build_seconds": round(build_seconds, 4),
        "run_seconds": round(best_instrumented, 4),
        "sites": total_sites,
        "sites_per_second": round(total_sites / best_instrumented, 1)
        if best_instrumented
        else None,
        "metrics": {
            "dns_queries": total(lambda o: o.dns_queries.total()),
            "dns_cache_hits": total(lambda o: o.dns_cache_hits.total()),
            # The resolver-level hit counter alone understates caching:
            # most repeat lookups are absorbed by the pipeline's
            # nameserver-label cache before they reach the resolver,
            # and structural work is shared by the zone-plan cache.
            # Recorded side by side so the caching story in the bench
            # reflects reality.
            "ns_label_cache_hits": int(
                total(lambda o: o.ns_cache_events.value(event="hit"))
            ),
            "attempts": total(lambda o: o.attempts.total()),
            "retries": total(lambda o: o.retries.total()),
            "backoff_seconds": round(
                total(lambda o: o.backoff_seconds.total()), 3
            ),
            "failed_rows": total(lambda o: o.rows.value(status="failed")),
            "degraded_rows": total(lambda o: o.degraded_rows.total()),
            "spans": total(lambda o: len(o.tracer.finished())),
        },
    }
    bare = {
        "run_seconds": round(best_bare, 4),
        "sites": total_sites,
        "sites_per_second": round(total_sites / best_bare, 1)
        if best_bare
        else None,
    }
    return instrumented, bare


def _profile_campaign(spec: CampaignSpec, workers: int) -> dict:
    """One instrumented run's phase breakdown and worker utilization.

    Runs *outside* the timed region (after the bare readings are
    taken), so profiling never perturbs the headline numbers.  The
    breakdown is ``repro trace summarize`` over the run's lifecycle
    spans, which reports the same figures as ``repro measure
    --profile-out``.
    """
    result = run_campaign(
        dataclasses.replace(spec, instrument=True), workers=workers
    )
    profile = analyze_trace(list(result.profile_spans or ()))
    wall = profile.wall_seconds
    return {
        "wall_seconds": wall,
        # The empirical Amdahl split from the lifecycle spans: how
        # much of the campaign ran >= 2-wide, and the speedup ceiling
        # that serial fraction implies per worker count.
        "amdahl": profile.amdahl,
        "phases": profile.phases,
        "workers": {
            label: {
                "tasks": entry["tasks"],
                "busy_seconds": entry["busy"],
                "idle_seconds": entry["idle"],
                "spawn_seconds": entry["spawn"],
                "busy_pct": round(100.0 * entry["busy_frac"], 1)
                if wall
                else None,
            }
            for label, entry in sorted(profile.workers.items())
        },
    }


def bench_parallel(
    sites: int,
    countries: tuple[str, ...],
    repeat: int,
    workers_counts: tuple[int, ...],
    profile: bool = False,
) -> dict:
    """Time the campaign runner across worker counts, end to end.

    Each campaign reading includes everything ``repro measure
    --workers N`` pays — world build, worker spawn, dispatch — so the
    speedup column reflects what a user actually gets.  The ``"1"``
    entry (``run_campaign(workers=1)``) is the like-for-like serial
    baseline every ``speedup_vs_serial`` is computed against.

    The worker counts alternate within each of ``repeat`` rounds and
    each keeps its best reading, as :func:`bench_overhead` does for
    its two variants: a noisy window then lands on every side instead
    of deciding the ratio.  Every reading is kept in ``readings``.

    Returns the campaign entries by worker count.  With ``profile``,
    each worker count gets one extra *instrumented* run after the
    timing rounds, attaching per-phase seconds, a worker utilization
    breakdown, and the empirical Amdahl bound to the entry.
    """
    spec = CampaignSpec(
        config=WorldConfig(
            sites_per_country=sites, countries=countries
        ),
        fault_profile="chaos",
        fault_seed=0,
        retries=3,
        instrument=False,
    )
    readings: dict[int, list[float]] = {w: [] for w in workers_counts}
    sites: dict[int, int] = {}
    for _ in range(repeat):
        for workers in workers_counts:
            start = time.perf_counter()
            result = run_campaign(spec, workers=workers)
            readings[workers].append(time.perf_counter() - start)
            sites[workers] = len(result.dataset)
    out: dict = {}
    serial_seconds: float | None = None
    for workers in workers_counts:
        seconds = min(readings[workers])
        entry = {
            "run_seconds": round(seconds, 4),
            "readings": [round(s, 4) for s in readings[workers]],
            "sites": sites[workers],
            "sites_per_second": round(sites[workers] / seconds, 1)
            if seconds
            else None,
        }
        if workers <= 1:
            serial_seconds = seconds
        elif serial_seconds:
            entry["speedup_vs_serial"] = round(
                serial_seconds / seconds, 2
            )
        if profile:
            entry["profile"] = _profile_campaign(spec, workers)
        out[str(workers)] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark observability overhead and sharding"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: 60 sites x 2 countries, 1 repeat",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="the paper's real workload: 10K sites x all 150 "
        "countries (~1.5M site-measurements); expect a long run",
    )
    parser.add_argument(
        "--paper-scale-smoke",
        action="store_true",
        help="reduced CI-safe slice of --paper-scale: 300 sites x 20 "
        "countries, enough countries for chunked dispatch and zone "
        "batching to engage",
    )
    parser.add_argument("--sites", type=int, default=None)
    parser.add_argument("--repeat", type=int, default=None)
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="worker counts to benchmark the campaign runner at "
        "(default: 1 2 for --smoke, 1 2 4 otherwise)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach a per-phase breakdown and worker utilization "
        "table to each campaign worker count (one extra instrumented "
        "run per count, outside the timed region)",
    )
    parser.add_argument(
        "--max-overhead-pct",
        type=float,
        default=None,
        metavar="PCT",
        help="fail (exit 1) when observability overhead exceeds PCT "
        "percent — the CI perf-regression gate",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail (exit 1) when the largest worker count's "
        "speedup_vs_serial falls below X — the CI sharding gate",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="JSON",
        help="output path (default: BENCH_<date>.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.paper_scale:
        mode = "paper-scale"
        sites = args.sites or 10000
        countries: tuple[str, ...] = WorldConfig().countries
        repeat = args.repeat or 1
        workers_counts = tuple(args.workers or (1, 2, 4))
        # Overhead is a per-site property; measuring it at paper scale
        # would only multiply the run time, so the overhead section
        # keeps the standard config.
        overhead_sites, overhead_countries = 300, (
            "BR", "DE", "IR", "TH", "US",
        )
    elif args.paper_scale_smoke:
        mode = "paper-scale-smoke"
        sites = args.sites or 300
        countries = WorldConfig().countries[:20]
        repeat = args.repeat or 1
        workers_counts = tuple(args.workers or (1, 2))
        overhead_sites, overhead_countries = 60, ("TH", "US")
    elif args.smoke:
        mode = "smoke"
        sites = args.sites or 60
        countries = ("TH", "US")
        repeat = args.repeat or 1
        workers_counts = tuple(args.workers or (1, 2))
        overhead_sites, overhead_countries = sites, countries
    else:
        mode = "standard"
        sites = args.sites or 300
        countries = ("BR", "DE", "IR", "TH", "US")
        repeat = args.repeat or 3
        workers_counts = tuple(args.workers or (1, 2, 4))
        overhead_sites, overhead_countries = sites, countries

    out_path = (
        Path(args.out)
        if args.out
        else ROOT / f"BENCH_{date.today().isoformat()}.json"
    )

    print(
        f"benchmarking [{mode}]: {sites} sites x {len(countries)} "
        f"countries, repeat={repeat}, workers={list(workers_counts)}, "
        f"cpus={_cpu_info()}"
    )
    # Scheduler noise only ever *adds* time, so the ratio-of-minima
    # overhead estimate is biased upward: when a gate is set, a
    # breaching reading is re-measured (up to three attempts) and the
    # lowest reading wins.  An over-threshold result then means every
    # attempt breached — a real regression, not one noisy window.
    attempts = 3 if args.max_overhead_pct is not None else 1
    instrumented, bare, overhead_pct = {}, {}, None
    for attempt in range(attempts):
        inst, bar = bench_overhead(
            overhead_sites, overhead_countries, repeat
        )
        pct = (
            round(
                100.0
                * (inst["run_seconds"] - bar["run_seconds"])
                / bar["run_seconds"],
                1,
            )
            if bar["run_seconds"]
            else None
        )
        if overhead_pct is None or (
            pct is not None and pct < overhead_pct
        ):
            instrumented, bare, overhead_pct = inst, bar, pct
        if (
            args.max_overhead_pct is None
            or overhead_pct is None
            or overhead_pct <= args.max_overhead_pct
        ):
            break
        if attempt < attempts - 1:
            print(
                f"overhead reading {pct}% over gate; re-measuring "
                f"(attempt {attempt + 2}/{attempts})"
            )
    report = {
        "date": date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": _cpu_info(),
        "smoke": args.smoke,
        "mode": mode,
        "config": {
            "sites_per_country": sites,
            "countries": list(countries),
            "repeat": repeat,
            "workers": list(workers_counts),
            "overhead_sites_per_country": overhead_sites,
            "overhead_countries": list(overhead_countries),
        },
        "results": {
            "pipeline_instrumented": instrumented,
            "pipeline_uninstrumented": bare,
        },
    }
    # A gated run takes each side's best of at least five alternating
    # rounds, so one noisy window cannot decide the speedup gate.
    campaign_repeat = (
        max(repeat, 5) if args.min_speedup is not None else repeat
    )
    campaigns = bench_parallel(
        sites,
        countries,
        campaign_repeat,
        workers_counts,
        profile=args.profile,
    )
    report["results"]["parallel_campaign"] = campaigns
    if overhead_pct is not None:
        report["results"]["observability_overhead_pct"] = overhead_pct
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"pipeline: {instrumented['sites_per_second']} sites/s "
        f"instrumented, {bare['sites_per_second']} sites/s bare "
        f"(overhead {overhead_pct}%)"
    )
    for workers, entry in campaigns.items():
        speedup = entry.get("speedup_vs_serial")
        suffix = f" ({speedup}x vs serial)" if speedup else ""
        amdahl = (entry.get("profile") or {}).get("amdahl")
        if speedup and amdahl:
            bound = amdahl["speedup_bounds"].get(workers)
            if bound is not None:
                suffix += f" [Amdahl bound {bound}x]"
        print(
            f"campaign --workers {workers}: "
            f"{entry['run_seconds']}s{suffix}"
        )
    if args.profile:
        print()
        print(
            f"{'workers':<8} {'worker':<8} {'tasks':>5} "
            f"{'busy s':>8} {'busy %':>7} {'idle s':>8} {'spawn s':>8}"
        )
        for workers, entry in report["results"][
            "parallel_campaign"
        ].items():
            prof = entry.get("profile")
            if not prof:
                continue
            for label, row in prof["workers"].items():
                print(
                    f"{workers:<8} {label:<8} {row['tasks']:>5} "
                    f"{row['busy_seconds']:>8.3f} "
                    f"{row['busy_pct']:>6.1f}% "
                    f"{row['idle_seconds']:>8.3f} "
                    f"{row['spawn_seconds']:>8.3f}"
                )
            top = sorted(
                prof["phases"].items(), key=lambda kv: -kv[1]
            )[:4]
            breakdown = ", ".join(
                f"{name} {seconds:.3f}s" for name, seconds in top
            )
            print(f"{'':8} phases: {breakdown}")
    print(f"wrote {out_path}")
    if (
        args.max_overhead_pct is not None
        and overhead_pct is not None
        and overhead_pct > args.max_overhead_pct
    ):
        print(
            f"FAIL: observability overhead {overhead_pct}% exceeds "
            f"--max-overhead-pct {args.max_overhead_pct}%"
        )
        return 1
    if args.min_speedup is not None:
        top = str(max(workers_counts))
        speedup = campaigns.get(top, {}).get("speedup_vs_serial")
        if speedup is None or speedup < args.min_speedup:
            print(
                f"FAIL: speedup_vs_serial at --workers {top} is "
                f"{speedup} (< --min-speedup {args.min_speedup}) on "
                f"{_cpu_info()}"
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
