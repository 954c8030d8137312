"""The benchmark record tool's summary and check, on synthetic records.

No perfbench run happens here: the pairs are made up, so the tests pin
the arithmetic (medians, quartiles, wins, the claim rule) and the
regression check against the ``BENCHMARK.json`` bounds.  The ids that
name the measured code are taken in a throwaway git repository.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tool():
    path = ROOT / "benchmarks" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(throughput: float, failed: int = 0, digests=None) -> dict:
    return {
        "metrics": {
            "latency_p50_ms": 10.0,
            "throughput": throughput,
            "peak_rss_mb": 100.0,
            "store_bytes_per_site": 500.0,
            "setup_s": 1.0,
        },
        "attempted": 12,
        "failed": failed,
        "digests": digests,
    }


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def pairs(change: list[float], failed: int = 0, digests=None) -> list[dict]:
    return [
        {
            "seed": 21 + i,
            "first": "parent" if i % 2 == 0 else "change",
            "parent": side(p, digests=digests),
            "change": side(c, failed=failed, digests=digests),
        }
        for i, (p, c) in enumerate(zip(PARENT, change))
    ]


def record(workloads: dict) -> dict:
    return {"label": "synthetic", "workloads": workloads}


class TestSummary:
    def test_medians_quartiles_wins_and_gain(self, tool) -> None:
        summary = tool.summarize(
            pairs([p + 50.0 for p in PARENT]), tool.load_spec()
        )
        figures = summary["metrics"]["throughput"]
        assert figures["parent"]["median"] == 100.0
        assert (figures["parent"]["q1"], figures["parent"]["q3"]) == (
            99.25,
            101.0,
        )
        assert figures["change"]["median"] == 150.0
        assert (figures["wins"], figures["losses"], figures["pairs"]) == (
            10,
            0,
            10,
        )
        assert figures["gain"]
        # Every other metric tied in every pair: no wins, no gain.
        setup = summary["metrics"]["setup_s"]
        assert (setup["wins"], setup["losses"], setup["gain"]) == (0, 0, False)

    def test_gain_needs_nine_tenths_and_more_than_the_spread(
        self, tool
    ) -> None:
        spec = tool.load_spec()
        # Eight wins of ten: not a claimable gain.
        eight = [p + 50.0 for p in PARENT[:8]] + PARENT[8:]
        assert not tool.summarize(pairs(eight), spec)["metrics"][
            "throughput"
        ]["gain"]
        # Ten wins by a hair: the medians sit inside the parent's spread.
        hair = [p + 0.01 for p in PARENT]
        figures = tool.summarize(pairs(hair), spec)["metrics"]["throughput"]
        assert figures["wins"] == 10 and not figures["gain"]

    def test_gain_needs_ten_pairs(self, tool) -> None:
        figures = tool.summarize(
            pairs([p + 50.0 for p in PARENT])[:3], tool.load_spec()
        )["metrics"]["throughput"]
        assert (figures["wins"], figures["pairs"]) == (3, 3)
        assert not figures["gain"]

    def test_more_failed_operations_cancel_a_gain(self, tool) -> None:
        summary = tool.summarize(
            pairs([p + 50.0 for p in PARENT], failed=1), tool.load_spec()
        )
        assert summary["metrics"]["throughput"]["wins"] == 10
        assert not summary["metrics"]["throughput"]["gain"]

    def test_spread_wider_than_the_bound_is_unresolved(self, tool) -> None:
        spec = tool.load_spec()
        assert not any(
            m["unresolved"]
            for m in tool.summarize(pairs(PARENT), spec)["metrics"].values()
        )
        # Quartiles 109 and 127 around a median of 118: past the 0.05
        # peak_rss_mb bound, well inside the 0.25 throughput bound.
        wide = pairs(PARENT)
        for i, pair in enumerate(wide):
            pair["parent"]["metrics"]["peak_rss_mb"] = 100.0 + 4.0 * i
        metrics = tool.summarize(wide, spec)["metrics"]
        assert metrics["peak_rss_mb"]["unresolved"]
        assert not metrics["throughput"]["unresolved"]
        # Every change run below every parent run reads better whatever
        # the parent's spread.
        for pair in wide:
            pair["change"]["metrics"]["peak_rss_mb"] = 99.0
        assert not tool.summarize(wide, spec)["metrics"]["peak_rss_mb"][
            "unresolved"
        ]

    def test_digests_and_failures(self, tool) -> None:
        spec = tool.load_spec()
        batch = tool.summarize(pairs(PARENT, digests={"csv": "ab"}), spec)
        assert set(batch["digests_match"].values()) == {True}
        changed = pairs(PARENT, digests={"csv": "ab"})
        changed[3]["change"]["digests"] = {"csv": "cd"}
        summary = tool.summarize(changed, spec)
        assert summary["digests_match"]["24"] is False
        assert tool.summarize(pairs(PARENT), spec)["digests_match"]["21"] is None
        failing = tool.summarize(pairs(PARENT, failed=1), spec)
        assert failing["failed"] == {"parent": 0, "change": 10}
        assert failing["attempted"] == {"parent": 120, "change": 120}

    def test_parse_runs(self, tool) -> None:
        spec = tool.load_spec()
        assert tool.parse_runs(["watch:21-23", "serve:5,7-8"], spec) == [
            ("watch", [21, 22, 23]),
            ("serve", [5, 7, 8]),
        ]
        with pytest.raises(ValueError):
            tool.parse_runs(["lunar:1"], spec)


class TestCheck:
    def write(self, tmp_path: Path, tool, change: list[float], **kw) -> Path:
        summary = tool.summarize(pairs(change, **kw), tool.load_spec())
        path = tmp_path / "BENCH_synthetic.json"
        path.write_text(json.dumps(record({"watch": summary})))
        return path

    def test_within_bounds_passes(self, tool, tmp_path, capsys) -> None:
        # A 20 % throughput loss is inside the 0.25 bound.
        path = self.write(tmp_path, tool, [p * 0.8 for p in PARENT])
        assert tool.main(["--check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "watch: failed 0 -> 0; no output digests recorded" in out
        assert "REGRESSION" not in out

    def test_digest_changes_are_reported_not_gated(
        self, tool, tmp_path, capsys
    ) -> None:
        changed = pairs(PARENT, digests={"csv": "ab"})
        changed[0]["change"]["digests"] = {"csv": "cd"}
        summary = tool.summarize(changed, tool.load_spec())
        path = tmp_path / "BENCH_synthetic.json"
        path.write_text(json.dumps(record({"watch": summary})))
        assert tool.main(["--check", str(path)]) == 0
        assert "digests match 9/10" in capsys.readouterr().out

    def test_past_a_bound_fails(self, tool, tmp_path, capsys) -> None:
        path = self.write(tmp_path, tool, [p * 0.7 for p in PARENT])
        assert tool.main(["--check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION watch throughput" in out

    def test_more_failed_operations_fails(
        self, tool, tmp_path, capsys
    ) -> None:
        path = self.write(tmp_path, tool, PARENT, failed=1)
        assert tool.main(["--check", str(path)]) == 1
        assert "10 failed operations against the parent's 0" in (
            capsys.readouterr().out
        )

    def test_unresolved_spread_fails(self, tool, tmp_path, capsys) -> None:
        wide = pairs(PARENT)
        for i, pair in enumerate(wide):
            pair["parent"]["metrics"]["peak_rss_mb"] = 100.0 + 4.0 * i
            pair["change"]["metrics"]["peak_rss_mb"] = 100.0 + 4.0 * i
        path = tmp_path / "BENCH_synthetic.json"
        summary = tool.summarize(wide, tool.load_spec())
        path.write_text(json.dumps(record({"watch": summary})))
        assert tool.main(["--check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "UNRESOLVED watch peak_rss_mb: parent quartiles [109, 127]" in out
        assert "REGRESSION" not in out

    def test_summaries_are_recomputed_from_the_pairs(
        self, tool, tmp_path, capsys
    ) -> None:
        # A record written under a looser rule claims a gain from three
        # pairs; the check reads the pairs, not the stored verdict.
        summary = tool.summarize(
            pairs([p + 50.0 for p in PARENT])[:3], tool.load_spec()
        )
        summary["metrics"]["throughput"]["gain"] = True
        path = tmp_path / "BENCH_synthetic.json"
        path.write_text(json.dumps(record({"watch": summary})))
        assert tool.main(["--check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wins 3/3\n" in out and "gain" not in out

    def test_needs_a_mode(self, tool) -> None:
        with pytest.raises(SystemExit):
            tool.main([])


class TestMeasuredCode:
    PATHS = ["perfbench", "src"]

    def repo(self, root: Path) -> Path:
        subprocess.run(["git", "init", "-q", str(root)], check=True)
        (root / ".gitignore").write_text("__pycache__/\n")
        for name in ("src/a.py", "perfbench/run.py"):
            (root / name).parent.mkdir()
            (root / name).write_text(f"# {name}\n")
        return root

    def test_tree_ids_name_the_working_tree(self, tool, tmp_path) -> None:
        root = self.repo(tmp_path)
        first = tool.tree_ids(root, self.PATHS)
        # Ignored files do not count, and the checkout's index stays empty.
        (root / "src" / "__pycache__").mkdir()
        (root / "src" / "__pycache__" / "a.pyc").write_bytes(b"\0")
        assert tool.tree_ids(root, self.PATHS) == first
        assert tool.git("ls-files", root=root) == ""
        # An untracked file changes the id of its own path only.
        (root / "src" / "b.py").write_text("B = 2\n")
        second = tool.tree_ids(root, self.PATHS)
        assert second["src"] != first["src"]
        assert second["perfbench"] == first["perfbench"]
        # Committed, the same files carry the same ids.
        tool.git("add", "--all", root=root)
        tool.git(
            "-c", "user.name=bench", "-c", "user.email=bench@example.org",
            "commit", "-q", "-m", "measured", root=root,
        )
        assert tool.git("rev-parse", "HEAD:src", root=root) == second["src"]

    def test_check_flags_code_edited_after_recording(
        self, tool, tmp_path
    ) -> None:
        root = self.repo(tmp_path)
        spec = tool.load_spec()
        measured = record({"watch": tool.summarize(pairs(PARENT), spec)})
        measured["change"] = {"tree": tool.tree_ids(root, self.PATHS)}
        assert tool.check(measured, spec, root) == []
        (root / "src" / "a.py").write_text("A = 2\n")
        problems = tool.check(measured, spec, root)
        assert len(problems) == 1
        assert problems[0].startswith("STALE src: recorded ")
