"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 12 --trace 0

Workloads (perfbench/README.md records why each exists and which
layers it stresses or bypasses):

* ``campaign`` — a fresh chaos-profile campaign of all 150 countries
  into an empty store, CSV export, then the paper's per-layer tables;
* ``observed`` — the same path instrumented, writing the metrics JSON
  and stitched trace as ``repro measure --metrics-out --trace-out``;
* ``watch`` — a longitudinal series: epoch 0, then resumed incremental
  epochs under a tight store quota;
* ``serve`` — ``repro serve`` over a fixture series, driven by a cold
  pass, an open loop at a fixed rate and a closed loop.

Every timed run is a fresh process started after an untimed warm-up
run of the same workload, and workloads never overlap.  Times are
scaled to a reference host speed (``hostspeed.py``, and for
``serve`` a reference server, ``refserver.py``).  With
``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` several untraced runs and one traced run are made and the
result holds the per-layer metrics and the tracing overhead.  The line
before it (``perfbench-detail {...}``) records sample counts, raw
(unscaled) figures, output digests, per-process figures, the failed
operations and the host (nproc, affinity, Python, platform, load
average).  A crash, hang or wrong output of the program counts as a
failed operation; only a harness problem (no sources, no
``BENCHMARK.json``, a failing reference server) exits non-zero without
a result.  Work files live
under ``.perfbench-work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import load  # noqa: E402
from child import tree_bytes  # noqa: E402

CHAOS = {"fault_profile": "chaos", "retries": 3}

#: Workload sizes.  ``per_process_s`` estimates one process's timed
#: work on a 2-vCPU host; a run makes ``round(seconds / per_process_s)``
#: timed processes (at least two, so set-up has several samples).
#: ``warmup`` overrides the sizes for the untimed warm-up run.
SCALES = {
    "full": {
        "campaign": {"sites": 100, "country_step": 1, **CHAOS},
        "campaign_per_process_s": 9.0,
        "observed": {"sites": 100, "country_step": 3, **CHAOS},
        "observed_per_process_s": 5.0,
        "watch": {
            "sites": 100, "country_step": 7, "churn": 2, "epochs": 6,
            "quota_factor": 1.12, **CHAOS,
        },
        "watch_per_process_s": 7.0,
        "fixture": {
            "sites": 100, "country_step": 7, "churn": 2, "epochs": 4, **CHAOS,
        },
        "warmup": {"countries": ["BR", "TH", "US"], "churn": 1, "epochs": 2},
    },
    "smoke": {
        "campaign": {"sites": 50, "countries": ["TH", "US"], **CHAOS},
        "campaign_per_process_s": 1.0,
        "observed": {"sites": 50, "countries": ["TH", "US"], **CHAOS},
        "observed_per_process_s": 1.0,
        "watch": {
            "sites": 50, "countries": ["TH", "US"], "churn": 1, "epochs": 2,
            "quota_factor": 1.1, **CHAOS,
        },
        "watch_per_process_s": 1.0,
        "fixture": {
            "sites": 50, "countries": ["TH", "US"], "churn": 1, "epochs": 2,
            **CHAOS,
        },
        "warmup": {"countries": ["TH", "US"], "churn": 1, "epochs": 2},
    },
}

#: The serve workload's fixed offered rate (requests per second),
#: about a fifth of the closed-loop throughput on one CPU (~580 req/s
#: raw) when the benchmark was defined.  At 250 req/s queueing
#: amplified host noise past the bound (p50 spread 0.27 over ten
#: seeds), and the reference requests need the idle gaps.  Keep it
#: constant so later runs compare.
SERVE_RATE = 120.0
#: Zipf exponent of the serve key draw.
SERVE_SKEW = 0.8
#: Server sessions per run.  Each gets a fresh fixture copy and runs
#: every phase, so every metric's samples spread over the run.
SERVE_SESSIONS = 3
#: Open- and closed-loop time per run, as multiples of ``--seconds``,
#: split evenly over the sessions.
SERVE_OPEN_FACTOR = 0.75
SERVE_CLOSED_FACTOR = 1.0
#: Closed-loop windows per session; each sits between two open-loop
#: windows, whose reference requests scale it.
SERVE_WINDOWS = 6
#: An open-loop request is scaled by the reference requests of this
#: many gaps before it and as many after it.
SERVE_REACH = 10
#: spof thresholds queried per campaign and layer (widen the key space
#: past the materializer's 128-slot memory tier).
SPOF_THRESHOLDS = ("0.15", "0.2", "0.25", "0.3", "0.35", "0.4")
LAYERS = ("hosting", "dns", "ca", "tld")
#: A run whose generator sent its median request this late (ms) after
#: schedule, while a connection was idle, measured the generator.
GENERATOR_LATE_LIMIT_MS = 5.0
#: Set-up samples per run: the timed processes or server sessions,
#: topped up with processes or servers that only set up.
SETUP_SAMPLES = 3
#: Untraced runs a traced invocation makes, to set the overhead against
#: their median and their spread.
UNTRACED_RUNS = 3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class ProgramFailure(RuntimeError):
    """The program crashed, hung or answered wrongly: a failed operation."""


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, attempted: int, ok: int, problem: str) -> None:
        self.attempted += attempted
        if ok < attempted:
            self.failed += attempted - ok
            if len(self.problems) < 20:
                self.problems.append(f"{problem} ({attempted - ok} of {attempted})")

    def check(self, ok: bool, problem: str) -> None:
        self.record(1, int(bool(ok)), problem)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: list[float]) -> dict:
    """Sample count, median, and the highest percentile with ten samples
    beyond it."""
    n = len(values)
    q = 1.0 - 10.0 / n if n > 10 else None
    return {
        "n": n,
        "p50": percentile(values, 0.5),
        "tail_q": q,
        "tail_value": percentile(values, q) if q is not None else None,
    }


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["TMPDIR"] = str(work)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(role: str, params: dict, work: Path, tally: Tally) -> dict | None:
    """One fresh interpreter running ``child.py``; its report, or None
    after counting the process as a failed operation."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / "child.json"
    params = {**params, "work": str(work)}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), role, json.dumps(params), str(out)],
            cwd=ROOT,
            env=child_env(work),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        tally.check(False, f"{role} process timed out after {CHILD_TIMEOUT_S} s")
        return None
    if proc.returncode != 0 or not out.is_file():
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        tally.check(False, f"{role} process exited {proc.returncode}: {last[0]}")
        return None
    tally.check(True, "")
    report = json.loads(out.read_text(encoding="utf-8"))
    # Set-up runs from spawn to the end of set-up, less the host-speed
    # slices the process timed before its imports.
    report["setup_s"] = report["setup_end"] - spawned - report["setup_slices_s"]
    report["samples_ms"] = [(b - a) * 1e3 for a, b in report.get("unit_windows", [])]
    return report


def fresh(work: Path, name: str) -> Path:
    path = work / name
    if path.exists():
        shutil.rmtree(path)
    return path


def process_count(seconds: float, per_process_s: float) -> int:
    return max(2, round(seconds / per_process_s))


def digests_agree(reports: list[dict], tally: Tally) -> None:
    tally.check(
        len({json.dumps(r["digests"], sort_keys=True) for r in reports}) <= 1,
        "output digests differ between runs of one seed",
    )


def overhead(traced: float, untraced: list[float]) -> dict:
    """Tracing overhead of a traced cost against the untraced median.

    It counts as resolved only when it is larger than the untraced
    runs' own range; below that it is noise."""
    base = statistics.median(untraced)
    if base <= 0:
        return {"pct": 0.0, "untraced_range_pct": 0.0, "resolved": False}
    pct = (traced / base - 1.0) * 100.0
    noise = (max(untraced) - min(untraced)) / base * 100.0
    return {"pct": pct, "untraced_range_pct": noise, "resolved": abs(pct) > noise}


# ----------------------------------------------------------------------
# batch workloads: campaign, observed, watch
# ----------------------------------------------------------------------


def batch_figures(reports: list[dict], setups: list[dict], scaled: bool) -> dict:
    """End-to-end figures of the timed processes (``setup_s`` also over
    the set-up-only ones); ``scaled`` applies each process's host-speed
    factors to its times."""

    def k(report: dict) -> float:
        return report["speed"] if scaled else 1.0

    def k_setup(report: dict) -> float:
        return report["speed_setup"] if scaled else 1.0

    samples = [t * k(r) for r in reports for t in r["samples_ms"]]
    return {
        "setup_s": statistics.median(
            r["setup_s"] * k_setup(r) for r in reports + setups
        ),
        "throughput": sum(r["sites"] for r in reports)
        / sum(r["timed_s"] * k(r) for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "store_bytes_per_site": statistics.median(
            r["store_bytes"] / r["store_rows"] for r in reports
        ),
        "latency_p50_ms": percentile(samples, 0.5),
    }


def check_batch(reports: list[dict], tally: Tally) -> None:
    """One operation per unit (country or epoch) and per output check."""
    for report in reports:
        tally.record(report["units"], report["units_ok"], f"{report['role']} units")
        for name, ok in report["checks"].items():
            tally.check(ok, name)


def batch_workload(args, scale: dict, work: Path) -> dict:
    name = args.workload
    role = "watch" if name == "watch" else "campaign"
    params = {**scale[name], "seed": args.seed, "instrument": name == "observed"}
    tally = Tally()
    warmup = {**params, **scale["warmup"], "sites": min(params["sites"], 100)}
    run_child(role, warmup, fresh(work, "warmup"), tally)
    if args.trace:
        return traced_batch(role, params, work, tally)
    count = process_count(args.seconds, scale[f"{name}_per_process_s"])
    reports = [
        report
        for i in range(count)
        if (report := run_child(role, params, fresh(work, f"run{i}"), tally))
    ]
    setup_only = {**params, "setup_only": True}
    setups = [
        report
        for i in range(max(0, SETUP_SAMPLES - count))
        if (report := run_child(role, setup_only, fresh(work, f"setup{i}"), tally))
    ]
    if not reports:
        return result({}, tally, {})
    check_batch(reports, tally)
    digests_agree(reports, tally)
    samples = [t for r in reports for t in r["samples_ms"]]
    detail = {
        "processes": count,
        "raw": batch_figures(reports, setups, scaled=False),
        "setup_samples_s": [r["setup_s"] for r in reports + setups],
        "unit_latency": tail(samples),
        "digests": reports[0]["digests"],
        "per_process": [
            {
                "setup_s": r["setup_s"],
                "timed_s": r["timed_s"],
                "speed_setup": r["speed_setup"],
                "speed": r["speed"],
                "peak_rss_mb": r["peak_rss_mb"],
            }
            for r in reports
        ],
    }
    if role == "campaign":
        detail["first_result_ms"] = tail(
            [(r["checkpoints"][0] - r["start"]) * 1e3 for r in reports if r["checkpoints"]]
        )
    else:
        detail["epoch0_ms"] = tail([r["epoch0_s"] * 1e3 for r in reports])
        detail["retired"] = reports[0]["retired"]
        detail["shard_hits"] = reports[0]["shard_hits"]
    return result(batch_figures(reports, setups, scaled=True), tally, detail)


def traced_batch(role: str, params: dict, work: Path, tally: Tally) -> dict:
    """Untraced processes around one traced process; per-layer metrics
    from the traced one, overhead against the untraced median."""
    plain = [run_child(role, params, fresh(work, "plain0"), tally)]
    traced = run_child(role, {**params, "trace": True}, fresh(work, "traced"), tally)
    plain += [
        run_child(role, params, fresh(work, f"plain{i}"), tally)
        for i in range(1, UNTRACED_RUNS)
    ]
    plain = [r for r in plain if r is not None]
    if traced is None or not plain:
        return result({}, tally, {})
    check_batch([traced], tally)
    digests_agree(plain + [traced], tally)
    layers = batch_layers(traced)
    cost = overhead(
        traced["timed_s"] * traced["speed"],
        [r["timed_s"] * r["speed"] for r in plain],
    )
    layers["trace.overhead_pct"] = cost["pct"]
    detail = {
        "overhead": cost,
        "untraced_timed_s": [r["timed_s"] for r in plain],
        "traced_timed_s": traced["timed_s"],
        "spans": traced["span_count"],
        "trace": traced["trace"],
        "digests": traced["digests"],
    }
    return result(layers, tally, detail)


def batch_layers(report: dict) -> dict:
    trace = report["trace"]

    def self_s(name: str) -> float:
        return trace.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return trace.get(name, {}).get("calls", 0)

    layers = {
        "startup.import_s": report["imported"] - report["started"],
        "worldgen.build_s": self_s("worldgen.build"),
        "worldgen.build_calls": calls("worldgen.build"),
        "worldgen.evolve_s": self_s("worldgen.evolve"),
        "worldgen.evolve_calls": calls("worldgen.evolve"),
        "worldgen.slice_digest_s": self_s("worldgen.slice_digest"),
        "worldgen.slice_digest_calls": calls("worldgen.slice_digest"),
        "pipeline.measure_s": self_s("pipeline.measure"),
        "pipeline.countries": calls("pipeline.measure"),
        "pipeline.orchestration_s": self_s("pipeline.orchestration"),
        "pipeline.export_s": self_s("pipeline.export"),
        "net.resolve_s": self_s("net.resolve"),
        "net.resolve_calls": calls("net.resolve"),
        "net.zone_cache_hit_ratio": report["zone_cache_hit_ratio"],
        "net.tls_s": self_s("net.tls"),
        "net.label_s": self_s("net.label"),
        "store.put_s": self_s("store.put") + self_s("store.put_shard"),
        "store.put_calls": calls("store.put"),
        "store.bytes_written": report["store_bytes"],
        "store.manifest_save_s": self_s("store.manifest_save"),
        "store.manifest_save_calls": calls("store.manifest_save"),
        "store.get_s": self_s("store.get") + self_s("store.get_shard"),
        "store.get_calls": calls("store.get"),
        "store.gc_s": self_s("store.gc"),
        "store.manifest_load_s": self_s("store.manifest_load"),
        "store.manifest_load_calls": calls("store.manifest_load"),
        "analysis.scores_s": self_s("analysis.scores"),
        "analysis.insularity_s": self_s("analysis.insularity"),
        "analysis.classification_s": self_s("analysis.classification"),
        "analysis.dataset_load_s": self_s("analysis.dataset_load"),
        "obs.spans": report.get("spans", 0),
        "obs.finalize_s": self_s("obs.finalize"),
        "obs.merge_s": self_s("obs.merge"),
        "obs.stitch_s": self_s("obs.stitch"),
        "obs.trace_write_s": self_s("obs.trace_write"),
        "obs.trace_bytes": report.get("trace_bytes", 0),
    }
    counts = report["counts"]
    layers.update(
        {
            "pipeline.rows": counts["rows"],
            "pipeline.rows_failed": counts["rows_failed"],
            "pipeline.rows_degraded": counts["rows_degraded"],
            "faults.retries": counts["attempts"] - counts["rows"],
        }
    )
    if "injected_faults" in report:
        layers["faults.injected"] = report["injected_faults"]
    if "shard_hits" in report:
        hits = report["shard_hits"]
        layers["store.shard_reuse_ratio"] = sum(hits) / (
            report["countries"] * len(hits)
        )
    return layers


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------


def url_universe(fixture: dict) -> dict:
    """Every URL the serve workload requests, grouped by kind.

    ``first_touch`` holds one URL per derived payload (the cold pass
    builds each exactly once): each campaign summary, then every
    what-if.  The other kinds list the URLs of one endpoint each.
    """
    universe: dict[str, list[str]] = {
        "campaign": [], "layers": [], "country": [], "schism": [], "spof": [],
    }
    for campaign in fixture["campaigns"]:
        universe["campaign"].append(f"/campaigns/{campaign}")
        universe["layers"].append(f"/campaigns/{campaign}/layers")
        for cc in fixture["countries"]:
            universe["country"].append(f"/campaigns/{campaign}/countries/{cc}")
            universe["schism"].append(
                f"/whatif/{campaign}?knob=schism&country={cc}"
            )
        universe["spof"] += [
            f"/whatif/{campaign}?knob=spof&layer={layer}&threshold={threshold}"
            for layer in LAYERS
            for threshold in SPOF_THRESHOLDS
        ]
    universe["first_touch"] = (
        universe["campaign"] + universe["schism"] + universe["spof"]
    )
    return universe


class Server:
    """A ``repro serve`` process on an ephemeral port."""

    def __init__(self, store: Path, work: Path, traced: bool) -> None:
        self.out = work / "server.json"
        if traced:
            command = [
                sys.executable, str(HERE / "serve_launcher.py"), str(store),
                str(self.out),
            ]
        else:
            command = [
                sys.executable, "-m", "repro", "serve", "--store", str(store),
                "--port", "0",
            ]
        env = child_env(work)
        env["PYTHONUNBUFFERED"] = "1"
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            if not ready:
                raise ProgramFailure("server did not start within 60 s")
            line = self.proc.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", line)
            if match is None:
                raise ProgramFailure(f"server did not announce a port: {line!r}")
            self.port = int(match.group(1))
            probe = load.Connection(self.port)
            reply = probe.get("/")
            probe.close()
            self.ready = time.monotonic()
            if reply.status != 200:
                raise ProgramFailure(f"server answered {reply.status} to GET /")
            self.probe_busy_s = reply.done - reply.sent
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        if match is None:
            raise ProgramFailure("the server process has exited")
        return int(match.group(1)) / 1024.0

    def stop(self) -> int:
        # SIGTERM, not SIGINT: a shell that starts the benchmark in the
        # background hands its children SIGINT ignored.
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()
        return self.proc.returncode


class ReferenceServer:
    """The benchmark's reference server (``refserver.py``)."""

    def __init__(self, work: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "refserver.py"), str(work)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.strip().isdigit():
            self.stop()
            raise BenchError("the reference server did not start")
        self.port = int(line)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()


def prometheus_totals(text: str) -> dict:
    """Sum each sample family of a Prometheus text body by name and
    label set ``name{labels}`` -> value."""
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def serve_counts(metrics_text: str) -> dict:
    totals = prometheus_totals(metrics_text)
    outcomes = {"build": 0.0, "disk": 0.0, "memory": 0.0}
    requests = not_modified = 0.0
    for key, value in totals.items():
        if key.startswith("repro_serve_materialize_total{"):
            outcome = re.search(r'outcome="(\w+)"', key).group(1)
            outcomes[outcome] = outcomes.get(outcome, 0.0) + value
        elif key.startswith("repro_serve_requests_total{"):
            requests += value
        elif key == "repro_serve_not_modified_total":
            not_modified += value
    return {"outcomes": outcomes, "requests": requests, "not_modified": not_modified}


def start_server(
    store: Path, work: Path, traced: bool, reference: load.GapReference
) -> tuple:
    """A server on ``store`` with its set-up time and the host-speed
    factor of reference blocks before the spawn and after the first
    reply."""
    before = reference.block()
    server = Server(store, work, traced)
    try:
        after = reference.block()
    except BaseException:
        server.stop()
        raise
    speed = load.REFERENCE_REQUEST_S / ((before + after) / 2.0)
    return server, server.ready - server.spawned, speed


def serve_setup(
    store: Path, work: Path, reference: load.GapReference, tally: Tally
) -> dict | None:
    """One more set-up sample: start a server, stop it."""
    try:
        server, setup_s, speed = start_server(store, work, False, reference)
        server.stop()
    except ProgramFailure as exc:
        tally.check(False, str(exc))
        return None
    tally.check(True, "")
    return {"setup_s": setup_s, "speed_setup": speed}


def serve_session(
    args,
    store: Path,
    work: Path,
    universe: dict,
    traced: bool,
    reference: load.GapReference,
    tally: Tally,
) -> dict | None:
    """Start a server on ``store``, run the cold pass and the loops,
    stop it.

    After the cold pass, ``SERVE_WINDOWS`` closed-loop windows alternate
    with open-loop windows, one open-loop window first and one last.
    The generator times requests to the reference server in the open
    loop's idle gaps: each open-loop request is scaled by those of the
    gaps around it, each closed-loop window by those of the open-loop
    windows on either side.  Every request is an operation; a server
    that does not start, dies or garbles ``/metrics`` fails the session
    (None)."""
    per_open = max(
        int(
            SERVE_RATE * args.seconds * SERVE_OPEN_FACTOR
            / SERVE_SESSIONS / (SERVE_WINDOWS + 1)
        ),
        1,
    )
    closed_s = args.seconds * SERVE_CLOSED_FACTOR / SERVE_SESSIONS / SERVE_WINDOWS
    oracle = load.Oracle()
    try:
        server, setup_s, speed_setup = start_server(store, work, traced, reference)
        try:
            cold_order = list(universe["first_touch"])
            rest = universe["layers"] + universe["country"]
            cold, cold_ok = load.cold_pass(server.port, cold_order + rest, oracle)
            mix = load.request_mix(
                args.seed, universe, per_open * (SERVE_WINDOWS + 1), SERVE_SKEW
            )
            closed_mix = load.request_mix(args.seed + 1, universe, 5000, SERVE_SKEW)
            single = load.Connection(server.port)
            clients = [
                load.Connection(server.port)
                for _ in range(min(os.cpu_count() or 1, 2))
            ]
            opened, closed = [], []
            first_gap = len(reference.gaps)
            # The generator's own collector stays off while it times:
            # its pauses would land in the requests it is timing.
            gc.collect()
            gc.disable()
            try:
                for window in range(SERVE_WINDOWS + 1):
                    mark = len(reference.gaps)
                    part = mix[window * per_open : (window + 1) * per_open]
                    opened.append(
                        load.open_loop(single, part, SERVE_RATE, oracle, reference.fill)
                    )
                    opened[-1]["speed"] = reference.speed(mark, mark + len(part))
                    opened[-1]["speeds"] = reference.local_speeds(
                        mark, mark + len(part), SERVE_REACH
                    )
                    if window < SERVE_WINDOWS:
                        first = closed[-1]["next"] if closed else 0
                        closed.append(
                            load.closed_loop(
                                clients, closed_mix, first, closed_s, oracle
                            )
                        )
            finally:
                gc.enable()
                for conn in [single, *clients]:
                    conn.close()
            scrape = load.Connection(server.port)
            metrics_reply = scrape.get("/metrics")
            scrape.close()
            rss = server.peak_rss_mb()
        finally:
            code = server.stop()
        if metrics_reply.status != 200:
            raise ProgramFailure(f"GET /metrics answered {metrics_reply.status}")
        if traced and code != 0:
            raise ProgramFailure(f"traced server exited {code}")
    except (ProgramFailure, TimeoutError) as exc:
        tally.check(False, str(exc))
        return None
    tally.check(True, "")
    tally.record(len(cold), cold_ok, "cold-pass replies")
    for phase, windows in (("open-loop", opened), ("closed-loop", closed)):
        tally.record(
            sum(w["sent"] for w in windows),
            sum(w["ok"] for w in windows),
            f"{phase} replies",
        )
    tally.problems += oracle.failures[: max(0, 20 - len(tally.problems))]
    session = {
        "setup_s": setup_s,
        "speed_setup": speed_setup,
        "cold_ms": [t * 1e3 for t in cold[: len(cold_order)]],
        "latencies_ms": [t * 1e3 for w in opened for t in w["latencies"]],
        "latency_speeds": [k for w in opened for k in w["speeds"]],
        "open_speed": [w["speed"] for w in opened],
        "generator_late_ms": [t * 1e3 for w in opened for t in w["generator_late"]]
        or [0.0],
        "rates": [w["rate"] for w in closed],
        "closed_speed": [
            (opened[i]["speed"] + opened[i + 1]["speed"]) / 2.0
            for i in range(len(closed))
        ],
        "reference_requests": sum(len(gap) for gap in reference.gaps[first_gap:]),
        "counts": serve_counts(metrics_reply.body.decode("utf-8")),
        "peak_rss_mb": rss,
        "store_bytes": tree_bytes(store),
        "client_busy_s": sum(c.busy_s for c in [single, *clients])
        + sum(cold)
        + server.probe_busy_s
        + (metrics_reply.done - metrics_reply.sent),
    }
    if traced:
        session["server"] = json.loads(server.out.read_text(encoding="utf-8"))
    return session


def serve_figures(
    sessions: list[dict], setups: list[dict], fixture: dict, scaled: bool
) -> dict:
    """End-to-end figures of the server sessions (``setup_s`` also over
    the set-up-only servers); ``scaled`` applies each window's
    host-speed factor to its times."""

    def k(speed: float) -> float:
        return speed if scaled else 1.0

    return {
        "setup_s": statistics.median(
            s["setup_s"] * k(s["speed_setup"]) for s in sessions + setups
        ),
        "throughput": statistics.median(
            rate / k(speed)
            for s in sessions
            for rate, speed in zip(s["rates"], s["closed_speed"])
        ),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
        "store_bytes_per_site": statistics.median(
            (s["store_bytes"] - fixture["store_bytes"]) / fixture["rows"]
            for s in sessions
        ),
        "latency_p50_ms": percentile(open_latencies(sessions, scaled), 0.5),
    }


def open_latencies(sessions: list[dict], scaled: bool) -> list[float]:
    return [
        t * (speed if scaled else 1.0)
        for s in sessions
        for t, speed in zip(s["latencies_ms"], s["latency_speeds"])
    ]


def serve_workload(args, scale: dict, work: Path) -> dict:
    tally = Tally()
    fixture = run_child(
        "fixture", {**scale["fixture"], "seed": args.seed}, work / "fixture", tally
    )
    if fixture is None:
        return result({}, tally, {})
    for name, ok in fixture["checks"].items():
        tally.check(ok, f"fixture {name}")
    pristine = work / "fixture" / "store"
    universe = url_universe(fixture)
    # From here on the generator, the servers and the reference server
    # (which inherit it) share one CPU.  The reference requests then
    # time the CPU the server runs on, stolen time included, and a
    # request wakes the server by a switch on that CPU rather than by
    # waking another virtual CPU, which a shared host may itself have
    # descheduled.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    process = ReferenceServer(work)
    try:
        reference = load.GapReference(process.port)
        try:
            outcome = serve_runs(
                args, work, fixture, universe, pristine, reference, tally
            )
        finally:
            reference.close()
        if reference.bad:
            raise BenchError(f"{reference.bad} bad replies from the reference server")
    finally:
        process.stop()
    return outcome


def serve_runs(
    args,
    work: Path,
    fixture: dict,
    universe: dict,
    pristine: Path,
    reference: load.GapReference,
    tally: Tally,
) -> dict:
    """The warm-up, then the timed sessions (or, with ``--trace 1``,
    the untraced and traced sessions)."""
    derived_keys = len(universe["first_touch"])

    def session(name: str, traced: bool = False) -> dict | None:
        target = fresh(work, name)
        shutil.copytree(pristine, target / "store")
        return serve_session(
            args, target / "store", target, universe, traced, reference, tally
        )

    # Warm-up: one untimed server touching one URL of each kind.
    warm = fresh(work, "warmup")
    shutil.copytree(pristine, warm / "store")
    try:
        server = Server(warm / "store", warm, traced=False)
        try:
            conn = load.Connection(server.port)
            for kind in ("campaign", "layers", "country", "schism", "spof"):
                conn.get(universe[kind][0])
            conn.close()
            reference.block()
        finally:
            server.stop()
    except ProgramFailure as exc:
        tally.check(False, f"warm-up: {exc}")

    if args.trace:
        plain = [session("plain0")]
        traced = session("traced", traced=True)
        plain += [session(f"plain{i}") for i in range(1, UNTRACED_RUNS)]
        plain = [s for s in plain if s is not None]
        if traced is None or not plain:
            return result({}, tally, {})
        layers = serve_layers(traced, fixture)
        # Cost per reply (the inverse closed-loop rate), so that a
        # positive overhead means the traced server was slower.
        cost = overhead(reply_cost(traced), [reply_cost(s) for s in plain])
        layers["trace.overhead_pct"] = cost["pct"]
        detail = {
            "overhead": cost,
            "untraced_closed_rps": [statistics.median(s["rates"]) for s in plain],
            "traced_closed_rps": statistics.median(traced["rates"]),
            "trace": traced["server"]["trace"],
            "materialize": traced["counts"],
        }
        return result(layers, tally, detail)

    sessions = [s for i in range(SERVE_SESSIONS) if (s := session(f"s{i}"))]
    setups = []
    for i in range(max(0, SETUP_SAMPLES - SERVE_SESSIONS)):
        target = fresh(work, f"setup{i}")
        shutil.copytree(pristine, target / "store")
        sample = serve_setup(target / "store", target, reference, tally)
        if sample is not None:
            setups.append(sample)
    if not sessions:
        return result({}, tally, {})
    for s in sessions:
        builds = s["counts"]["outcomes"]["build"]
        tally.check(
            builds == derived_keys,
            f"{builds:.0f} builds for {derived_keys} derived payloads",
        )
    late = [t for s in sessions for t in s["generator_late_ms"]]
    late_p50 = percentile(late, 0.5)
    tally.check(
        late_p50 <= GENERATOR_LATE_LIMIT_MS,
        f"generator ran {late_p50:.2f} ms late at the median",
    )
    detail = {
        "offered_rate": SERVE_RATE,
        "sessions": SERVE_SESSIONS,
        "windows": SERVE_WINDOWS,
        "raw": serve_figures(sessions, setups, fixture, scaled=False),
        "speed": [
            {
                "setup": s["speed_setup"],
                "open": s["open_speed"],
                "reference_requests": s["reference_requests"],
            }
            for s in sessions
        ],
        "open_latency": tail(open_latencies(sessions, scaled=False)),
        "cold_latency": tail([t for s in sessions for t in s["cold_ms"]]),
        "generator_late_ms": {
            "p50": late_p50, "p99": percentile(late, 0.99), "n": len(late),
        },
        "closed_windows": tail([r for s in sessions for r in s["rates"]]),
        "setup_samples_s": [s["setup_s"] for s in sessions + setups],
        "materialize": [s["counts"] for s in sessions],
        "derived_payloads": derived_keys,
    }
    return result(serve_figures(sessions, setups, fixture, scaled=True), tally, detail)


def reply_cost(session: dict) -> float:
    """Scaled seconds per closed-loop reply: the median over windows
    (0 when no window had a correct reply)."""
    costs = [
        speed / rate
        for rate, speed in zip(session["rates"], session["closed_speed"])
        if rate > 0
    ]
    return statistics.median(costs) if costs else 0.0


def serve_layers(traced: dict, fixture: dict) -> dict:
    server = traced["server"]
    trace = server["trace"]

    def get(name: str, field: str = "self_s"):
        return trace.get(name, {}).get(field, 0)

    outcomes = traced["counts"]["outcomes"]
    lookups = sum(outcomes.values()) or 1.0
    requests = traced["counts"]["requests"] or 1.0
    handled = get("serve.handle", "calls") or 1
    pauses = server["gc_pauses"] or [0.0]
    return {
        "startup.import_s": server["imported"] - server["started"],
        "store.get_s": get("store.get") + get("store.get_shard"),
        "store.get_calls": get("store.get", "calls"),
        "store.manifest_load_s": get("store.manifest_load"),
        "store.manifest_load_calls": get("store.manifest_load", "calls"),
        "store.bytes_written": traced["store_bytes"] - fixture["store_bytes"],
        "store.put_s": get("store.put"),
        "store.put_calls": get("store.put", "calls"),
        "analysis.scores_s": get("analysis.scores"),
        "analysis.insularity_s": get("analysis.insularity"),
        "analysis.dataset_load_s": get("analysis.dataset_load"),
        "serve.handle_s": get("serve.handle"),
        "serve.front_end_ms": (
            traced["client_busy_s"] - get("serve.handle", "total_s")
        )
        / handled
        * 1e3,
        "serve.builds": outcomes["build"],
        "serve.build_s": get("serve.build", "total_s"),
        "serve.memory_hit_ratio": outcomes["memory"] / lookups,
        "serve.disk_hit_ratio": outcomes["disk"] / lookups,
        "serve.not_modified_ratio": traced["counts"]["not_modified"] / requests,
        "serve.gc_pause_s": sum(pauses),
        "serve.gc_pause_max_ms": max(pauses) * 1e3,
        "serve.generator_late_ms": percentile(traced["generator_late_ms"], 0.99),
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def result(metrics: dict, tally: Tally, detail: dict) -> dict:
    """A workload's outcome.  Without figures (every timed process
    failed) the metrics read 0 and the run is incorrect."""
    if not metrics:
        tally.check(False, "no run of the program completed")
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "detail": {**detail, "problems": tally.problems},
    }


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
        "store_fsync": False,
    }


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"missing {spec_path}")
    return json.loads(spec_path.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("campaign", "observed", "watch", "serve")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="full",
        help="input sizes; 'smoke' is the minimum-size check",
    )
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program sources under {SRC}")
        scale = SCALES[args.scale]
        work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        host_before = host_record()
        try:
            if args.workload == "serve":
                outcome = serve_workload(args, scale, work)
            else:
                outcome = batch_workload(args, scale, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                (ROOT / ".perfbench-work").rmdir()
            except OSError:
                pass
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        value = outcome["metrics"].get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "host": {"before": host_before, "after_loadavg": os.getloadavg()},
        **outcome["detail"],
    }
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
