"""Record parent/change perfbench pairs in a ``BENCH_*.json``, or check one.

Usage (from the root of a checkout)::

    python benchmarks/bench_record.py --parent REV --label NAME \\
        --runs watch:21-30 campaign:21-23 observed:21-23 serve:21-23
    python benchmarks/bench_record.py --check BENCH_<date>_<label>.json

The parent side is the committed tree of ``REV`` (``git archive``,
unpacked into a temporary directory); the change side is this
checkout's working tree, named in the record by the git object ids of
the code the benchmark runs (``src`` and the ``BENCHMARK.json``
``paths``), committed or not.  For every workload and seed both sides
run ``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds``
back to back, and the side that runs first alternates from pair to
pair.  The record keeps every run and, per workload and end-to-end
metric, each side's median and quartiles, the pairs the change won, the
failed operations, and whether each seed's output digests (batch
workloads) match.

``--check`` recomputes the summaries from the stored pairs and exits 1
when a change median is worse than the parent's by more than the
metric's ``BENCHMARK.json`` bound, when the parent's quartiles spread
wider than that bound and not every change run reads better (the runs
cannot tell), when the change failed more operations than the parent,
or when this checkout's measured code is not the code the record
measured.  Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: The claim rule wants at least this many pairs.
CLAIM_PAIRS = 10


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_runs(items: list[str], spec: dict) -> list[tuple[str, list[int]]]:
    """``watch:21-30`` / ``serve:5,7`` -> (workload, seeds) pairs."""
    workloads = {entry["name"] for entry in spec["workloads"]}
    plan = []
    for item in items:
        workload, _, seeds = item.partition(":")
        if workload not in workloads or not seeds:
            raise ValueError(f"bad run {item!r}: want WORKLOAD:SEEDS")
        chosen: list[int] = []
        for part in seeds.split(","):
            low, _, high = part.partition("-")
            chosen.extend(range(int(low), int(high or low) + 1))
        plan.append((workload, chosen))
    return plan


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run of a checkout."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench {workload} seed {seed} in {root} exited "
            f"{done.returncode}: {done.stderr.strip()[-400:]}"
        )
    outcome = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("perfbench-detail "):
            detail = json.loads(line.partition(" ")[2])
    return {
        "metrics": {k: v["value"] for k, v in outcome["metrics"].items()},
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "digests": detail.get("digests"),
    }


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric: medians, quartiles and wins of the pairs.

    ``gain`` applies the claim rule: at least ten pairs, the change
    wins at least nine tenths of them (ties count for neither side),
    fails no more operations than the parent, and the medians differ by
    more than the parent's quartile distance.  ``unresolved`` marks a
    metric whose parent quartile distance is wider than its bound, unless
    every change run reads better than every parent run: its runs spread
    too widely to tell a regression from noise.
    """
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    claimable = len(pairs) >= CLAIM_PAIRS and failed["change"] <= failed["parent"]
    metrics = {}
    for entry in spec["end_to_end"]:
        name, higher = entry["name"], entry["better"] == "higher"
        parent = [p["parent"]["metrics"].get(name, 0.0) for p in pairs]
        change = [p["change"]["metrics"].get(name, 0.0) for p in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
        ps, cs = _spread(parent), _spread(change)
        ahead = (cs["median"] - ps["median"]) * (1 if higher else -1)
        spread = ps["q3"] - ps["q1"]
        if higher:
            apart = min(change) > max(parent)
        else:
            apart = max(change) < min(parent)
        metrics[name] = {
            "unit": entry["unit"],
            "better": entry["better"],
            "bound": entry["bound"],
            "parent": {**ps, "values": parent},
            "change": {**cs, "values": change},
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "gain": claimable and wins >= 0.9 * len(pairs) and ahead > spread,
            "unresolved": (
                spread > entry["bound"] * abs(ps["median"]) and not apart
            ),
        }
    return {
        "metrics": metrics,
        "failed": failed,
        "attempted": {
            side: sum(p[side]["attempted"] for p in pairs) for side in SIDES
        },
        "digests_match": {
            str(p["seed"]): (
                None
                if p["parent"]["digests"] is None
                else p["parent"]["digests"] == p["change"]["digests"]
            )
            for p in pairs
        },
        "pairs": pairs,
    }


def check(record: dict, spec: dict, root: Path = ROOT) -> list[str]:
    """Every problem the record shows, as readable lines.

    A change median past its bound, or more failed operations than the
    parent, is a REGRESSION; a parent spread wider than the bound is
    UNRESOLVED; a measured path whose code in ``root`` is not the code
    the record measured is STALE.
    """
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    problems = []
    for workload, summary in sorted(record["workloads"].items()):
        for name, figures in sorted(summary["metrics"].items()):
            entry = bounds[name]
            parent = figures["parent"]
            change = figures["change"]["median"]
            if entry["better"] == "higher":
                worse = change < parent["median"] * (1.0 - entry["bound"])
            else:
                worse = change > parent["median"] * (1.0 + entry["bound"])
            if worse:
                problems.append(
                    f"REGRESSION {workload} {name}: change median "
                    f"{change:.4g} vs parent {parent['median']:.4g} is past "
                    f"the {entry['bound']} bound"
                )
            if figures["unresolved"]:
                problems.append(
                    f"UNRESOLVED {workload} {name}: parent quartiles "
                    f"[{parent['q1']:.4g}, {parent['q3']:.4g}] spread wider "
                    f"than the {entry['bound']} bound"
                )
        failed = summary["failed"]
        if failed["change"] > failed["parent"]:
            problems.append(
                f"REGRESSION {workload}: {failed['change']} failed operations "
                f"against the parent's {failed['parent']}"
            )
    recorded = record.get("change", {}).get("tree", {})
    if recorded:
        here = tree_ids(root, sorted(recorded))
        problems.extend(
            f"STALE {path}: recorded {recorded[path][:12]}, "
            f"this checkout {here[path][:12]}"
            for path in sorted(recorded)
            if here[path] != recorded[path]
        )
    return problems


def render(record: dict) -> str:
    lines = []
    for workload, summary in sorted(record["workloads"].items()):
        known = [v for v in summary["digests_match"].values() if v is not None]
        lines.append(
            f"{workload}: failed {summary['failed']['parent']} -> "
            f"{summary['failed']['change']}; "
            + (
                f"digests match {sum(known)}/{len(known)}"
                if known
                else "no output digests recorded"
            )
        )
        for name, m in summary["metrics"].items():
            p, c = m["parent"], m["change"]
            lines.append(
                f"  {name:<22} {p['median']:>10.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                f" -> {c['median']:>10.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {m['unit']}"
                f"  wins {m['wins']}/{m['pairs']}{'  gain' if m['gain'] else ''}"
                f"{'  unresolved' if m['unresolved'] else ''}"
            )
    return "\n".join(lines)


def git(*args: str, root: Path = ROOT, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, env=env, capture_output=True, text=True,
        check=True,
    ).stdout.strip()


def tree_ids(root: Path, paths: list[str]) -> dict[str, str]:
    """Git object ids of ``paths`` as they stand in ``root``'s working tree.

    A scratch index takes every file under the paths that git would add
    (untracked ones too, ignored ones not), so the ids name the code
    exactly whether or not it is committed, and equal ``REV:path`` of a
    commit that holds the same files.  The checkout's own index is left
    alone.
    """
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "--all", "--", *paths, root=root, env=env)
        tree = git("write-tree", root=root, env=env)
    return {path: git("rev-parse", f"{tree}:{path}", root=root) for path in paths}


def export_rev(rev: str, target: Path) -> None:
    """Unpack the committed tree of ``rev`` into ``target``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def record_pairs(args: argparse.Namespace, spec: dict) -> dict:
    plan = parse_runs(args.runs, spec)
    parent_rev = git("rev-parse", args.parent)
    paths = ["src", *spec["paths"]]
    measured = tree_ids(ROOT, paths)
    workloads = {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_root = Path(tmp)
        export_rev(parent_rev, parent_root)
        order = 0
        for workload, seeds in plan:
            pairs = []
            for seed in seeds:
                first = "parent" if order % 2 == 0 else "change"
                order += 1
                roots = {"parent": parent_root, "change": ROOT}
                pair = {"seed": seed, "first": first}
                for side in (first, "change" if first == "parent" else "parent"):
                    pair[side] = run_side(
                        roots[side], workload, seed, spec["run_seconds"]
                    )
                print(
                    f"{workload} seed {seed} ({first} first): "
                    + ", ".join(
                        f"{k} {pair['parent']['metrics'][k]:.4g}->"
                        f"{pair['change']['metrics'][k]:.4g}"
                        for k in ("throughput", "setup_s", "peak_rss_mb")
                    ),
                    file=sys.stderr,
                )
                pairs.append(pair)
            workloads[workload] = summarize(pairs, spec)
    if tree_ids(ROOT, paths) != measured:
        raise RuntimeError("the measured code changed while the pairs ran")
    return {
        "date": datetime.date.today().isoformat(),
        "label": args.label,
        "parent": parent_rev,
        "change": {"head": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain")),
                   "tree": measured},
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()},
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", type=Path)
    parser.add_argument("--parent", metavar="REV")
    parser.add_argument("--label", help="record name: BENCH_<date>_<label>.json")
    parser.add_argument("--runs", nargs="+", default=[], metavar="WORKLOAD:SEEDS")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.check is not None:
        record = json.loads(args.check.read_text())
        record["workloads"] = {
            workload: summarize(summary["pairs"], spec)
            for workload, summary in record["workloads"].items()
        }
    elif args.parent and args.label and args.runs:
        record = record_pairs(args, spec)
        out = ROOT / f"BENCH_{record['date']}_{args.label}.json"
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out.name}")
    else:
        parser.error("give --check FILE, or --parent, --label and --runs")
    print(render(record))
    problems = check(record, spec)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
