"""Tests for the command-line interface."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.cli import build_parser, main
from repro.obs import configure


@pytest.fixture(autouse=True)
def _restore_log_config():
    # main() calls repro.obs.configure() with the parsed -v/-q flags;
    # reset the module-level logger config after every test.
    yield
    configure()


class TestParser:
    def test_requires_command(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_score_args(self) -> None:
        args = build_parser().parse_args(["score", "60", "25", "15"])
        assert args.command == "score"
        assert args.counts == ["60", "25", "15"]

    def test_compare_layer_choices(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "email"])

    def test_measure_defaults(self) -> None:
        args = build_parser().parse_args(["measure"])
        assert args.fault_profile == "none"
        assert args.retries == 1
        assert args.fault_seed == 0

    def test_measure_rejects_unknown_profile(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["measure", "--fault-profile", "lunar-eclipse"]
            )


class TestScoreCommand:
    def test_numeric_counts(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["score", "60", "25", "15"]) == 0
        out = capsys.readouterr().out
        assert "Centralization Score:  0.4350" in out
        assert "highly concentrated" in out

    def test_named_counts(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["score", "cf=50", "aws=50"]) == 0
        out = capsys.readouterr().out
        assert "providers:             2" in out

    def test_decentralized(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["score"] + ["1"] * 20) == 0
        out = capsys.readouterr().out
        assert "0.0000" in out
        assert "competitive" in out

    def test_six_singletons_score_exactly_zero(
        self, capsys: pytest.CaptureFixture
    ) -> None:
        # Six shares of 1/6 square and sum to just below 1/6.
        assert main(["score"] + ["1"] * 6) == 0
        out = capsys.readouterr().out
        assert "Centralization Score:  0.0000 (competitive)" in out


class TestStudyCommands:
    def test_study_summary(self, capsys: pytest.CaptureFixture) -> None:
        code = main(
            ["study", "--sites", "200", "--countries", "TH", "US", "IR", "JP"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Layer: hosting" in out
        assert "most centralized" in out

    def test_country_profile(self, capsys: pytest.CaptureFixture) -> None:
        code = main(
            [
                "country",
                "th",
                "--sites",
                "200",
                "--countries",
                "TH",
                "US",
                "IR",
                "JP",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Thailand" in out

    def test_compare_table(self, capsys: pytest.CaptureFixture) -> None:
        code = main(
            [
                "compare",
                "ca",
                "--sites",
                "200",
                "--limit",
                "3",
                "--countries",
                "TH",
                "US",
                "IR",
                "JP",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "paper" in out
        assert len(out.strip().splitlines()) == 4

    def test_longitudinal_command(
        self, capsys: pytest.CaptureFixture
    ) -> None:
        code = main(
            [
                "longitudinal",
                "--sites",
                "200",
                "--countries",
                "TH",
                "US",
                "IR",
                "JP",
                "BR",
                "RU",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "score correlation" in out
        assert "largest increase" in out


class TestMeasureCommand:
    def test_measure_with_faults_and_retries(
        self, capsys: pytest.CaptureFixture, tmp_path
    ) -> None:
        out_csv = tmp_path / "release.csv"
        code = main(
            [
                "measure",
                "--sites",
                "60",
                "--countries",
                "US",
                "TH",
                "--fault-profile",
                "flaky-dns",
                "--retries",
                "3",
                "--export",
                str(out_csv),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured 120 sites" in out
        assert "profile=flaky-dns" in out
        assert "injected faults:" in out
        assert out_csv.exists()

    def test_measure_without_faults(
        self, capsys: pytest.CaptureFixture
    ) -> None:
        code = main(
            ["measure", "--sites", "60", "--countries", "US"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile=none" in out
        # Either a taxonomy table or the explicit all-clear line.
        assert "no failures recorded" in out or "top countries" in out


class TestObservabilityFlags:
    def test_verbosity_flags_parse(self) -> None:
        parser = build_parser()
        assert parser.parse_args(["measure"]).verbose == 0
        assert parser.parse_args(["-vv", "measure"]).verbose == 2
        assert parser.parse_args(["-q", "measure"]).quiet is True
        args = parser.parse_args(["measure"])
        assert args.trace_out is None
        assert args.metrics_out is None

    def test_measure_writes_trace_and_metrics(
        self, capsys: pytest.CaptureFixture, tmp_path
    ) -> None:
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "measure",
                "--sites", "60",
                "--countries", "US", "TH",
                "--fault-profile", "chaos",
                "--retries", "3",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote metrics to {metrics}" in out
        assert f"spans to {trace}" in out
        payload = json.loads(metrics.read_text())
        assert payload["_schema"] == "repro-metrics-v1"
        rows = payload["metrics"]["repro_rows_total"]["samples"]
        assert sum(s["value"] for s in rows) == 120
        lines = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        # First line is the schema header, then one object per span.
        assert lines[0] == {"_schema": "repro-trace-v1"}
        assert (
            sum(1 for s in lines if s.get("name") == "site") == 120
        )
        # An instrumented campaign also records lifecycle spans.
        assert any(s.get("name") == "campaign" for s in lines)

    @pytest.mark.parametrize(
        "flag", ["--export", "--metrics-out", "--trace-out", "--profile-out"]
    )
    def test_missing_output_directory_fails_before_measuring(
        self, tmp_path, monkeypatch, flag: str
    ) -> None:
        from repro.errors import PipelineError
        from repro.pipeline import CampaignSpec

        def unreachable(self):
            raise AssertionError("the world was built before the check")

        monkeypatch.setattr(CampaignSpec, "build_world", unreachable)
        target = tmp_path / "missing" / "out"
        with pytest.raises(PipelineError, match=flag):
            main(
                [
                    "measure",
                    "--sites", "50",
                    "--countries", "TH",
                    flag, str(target),
                ]
            )

    def test_sharded_trace_has_the_serial_pipeline_lines(
        self, capsys: pytest.CaptureFixture, tmp_path
    ) -> None:
        from repro.obs import PROFILE_SPAN_NAMES

        def pipeline_lines(workers: str) -> list[str]:
            trace = tmp_path / f"trace-{workers}.jsonl"
            assert main(
                [
                    "measure",
                    "--sites", "50",
                    "--countries", "US", "TH",
                    "--fault-profile", "chaos",
                    "--retries", "3",
                    "--workers", workers,
                    "--trace-out", str(trace),
                ]
            ) == 0
            # wall_ms is the last key of a span line.
            return [
                line.partition(', "wall_ms": ')[0]
                for line in trace.read_text().splitlines()[1:]
                if json.loads(line)["name"] not in PROFILE_SPAN_NAMES
            ]

        serial = pipeline_lines("1")
        assert serial
        assert pipeline_lines("2") == serial

    def test_report_campaign_end_to_end(
        self, capsys: pytest.CaptureFixture, tmp_path
    ) -> None:
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(
            [
                "measure",
                "--sites", "60",
                "--countries", "US", "TH",
                "--fault-profile", "chaos",
                "--retries", "3",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "report-campaign",
                "--metrics", str(metrics),
                "--trace", str(trace),
                "--top", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign report" in out
        assert "-- overview" in out
        assert "slowest stages (wall clock, from trace):" in out

    def test_report_campaign_bad_metrics_path(self, tmp_path) -> None:
        from repro.errors import PipelineError

        with pytest.raises(PipelineError):
            main(["report-campaign", "--metrics", str(tmp_path / "x.json")])

    def test_verbose_measure_logs_to_stderr(
        self, capsys: pytest.CaptureFixture, tmp_path
    ) -> None:
        metrics = tmp_path / "m.json"
        code = main(
            [
                "-v",
                "measure",
                "--sites", "60",
                "--countries", "US", "TH",
                "--fault-profile", "chaos",
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "row-failed" in err


class TestProfileOut:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the parent's zone-warm span is recorded under fork only",
    )
    def test_profile_matches_trace_summarize(
        self, capsys: pytest.CaptureFixture, tmp_path
    ) -> None:
        trace = tmp_path / "trace.jsonl"
        profile = tmp_path / "profile.json"
        assert main(
            [
                "measure",
                "--sites", "60",
                "--countries", "US", "TH",
                "--fault-profile", "chaos",
                "--retries", "3",
                "--workers", "2",
                "--trace-out", str(trace),
                "--profile-out", str(profile),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        metrics = json.loads(profile.read_text())["metrics"]
        fields = {
            "repro_worker_busy_seconds": "busy",
            "repro_worker_idle_seconds": "idle",
            "repro_worker_spawn_seconds": "spawn",
            "repro_worker_tasks_total": "tasks",
            "repro_world_build_seconds": "world_build",
        }
        assert {
            name for name in metrics if name.startswith("repro_worker_")
        } == set(fields) - {"repro_world_build_seconds"}
        assert set(summary["workers"]) == {"main", "w0", "w1"}
        for name, field in fields.items():
            for sample in metrics[name]["samples"]:
                worker = sample["labels"]["worker"]
                assert sample["value"] == summary["workers"][worker][
                    field
                ], (name, worker)
        phases = {
            sample["labels"]["phase"]: sample["value"]
            for sample in metrics["repro_phase_seconds"]["samples"]
        }
        assert phases == summary["phases"]
        assert "zone-warm" in phases and "dispatch-overhead" in phases
        wall = metrics["repro_campaign_wall_seconds"]["samples"][0]
        assert wall["value"] == summary["wall_seconds"]


class TestVersion:
    def test_version_flag_exits_zero(
        self, capsys: pytest.CaptureFixture
    ) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_version_subcommand(
        self, capsys: pytest.CaptureFixture
    ) -> None:
        from repro.cli import package_version

        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert out == f"repro {package_version()}\n"


class TestStartup:
    def test_entry_points_leave_scipy_stats_unloaded(self) -> None:
        """Only the correlation analyses pay for importing scipy.stats."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        probe = (
            "import sys\n"
            "import repro.cli, repro.pipeline, repro.store\n"
            "import repro.analysis, repro.serve\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


@pytest.fixture(scope="module")
def store_workflow(tmp_path_factory):
    """One full CLI store workflow: halt, resume, evolve --since.

    The halt and the resume run as ``python -m repro`` processes, so
    their exit statuses are the ones a shell sees.  A chunked sharded
    run rides along against the same serial reference.
    """
    import contextlib
    import io
    import os
    import re
    import subprocess
    import sys
    from pathlib import Path

    import repro

    root = tmp_path_factory.mktemp("cli-store")
    store = root / "store"

    def run(argv: list[str]) -> tuple[int, str]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        configure()
        return code, buffer.getvalue()

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )

    def run_process(argv: list[str]) -> tuple[int, str]:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        return done.returncode, done.stdout

    base = [
        "measure",
        "--sites", "60",
        "--countries", "US", "TH",
        "--fault-profile", "flaky-dns",
        "--retries", "2",
    ]
    full_csv = root / "full.csv"
    full_metrics = root / "full-metrics.json"
    run(base + ["--export", str(full_csv),
                "--metrics-out", str(full_metrics)])

    run(base + ["--workers", "2", "--chunk-size", "2",
                "--export", str(root / "chunked.csv"),
                "--metrics-out", str(root / "chunked-m.json")])

    stored = base + ["--store", str(store)]
    halted_code, halted_out = run_process(
        stored + ["--halt-after", "1",
                  "--metrics-out", str(root / "halted-m.json")]
    )
    resumed_csv = root / "resumed.csv"
    resumed_code, resumed_out = run_process(
        stored + ["--resume", "--export", str(resumed_csv),
                  "--metrics-out", str(root / "m.json")]
    )
    base_id = re.search(r"campaign (\w{16}) stored", resumed_out).group(1)
    since_code, since_out = run(
        stored
        + ["--evolve", "--churn-countries", "TH", "--since", base_id,
           "--metrics-out", str(root / "since-m.json")]
    )
    evolved_id = re.search(r"campaign (\w{16}) stored", since_out).group(1)
    return {
        "run": run,
        "root": root,
        "store": store,
        "full_csv": full_csv,
        "full_metrics": full_metrics,
        "resumed_csv": resumed_csv,
        "halted": (halted_code, halted_out),
        "resumed": (resumed_code, resumed_out),
        "since": (since_code, since_out),
        "base_id": base_id,
        "evolved_id": evolved_id,
    }


class TestCampaignStoreCli:
    def test_halt_exits_3_and_points_at_resume(
        self, store_workflow
    ) -> None:
        code, out = store_workflow["halted"]
        assert code == 3
        assert "finish it with --resume" in out

    def test_resume_completes_byte_identical(
        self, store_workflow
    ) -> None:
        code, out = store_workflow["resumed"]
        assert code == 0
        assert "shard hits 1, misses 1, resume skipped 1" in out
        assert (
            store_workflow["resumed_csv"].read_bytes()
            == store_workflow["full_csv"].read_bytes()
        )

    def test_resume_metrics_byte_identical(self, store_workflow) -> None:
        assert (
            (store_workflow["root"] / "m.json").read_bytes()
            == store_workflow["full_metrics"].read_bytes()
        )

    def test_chunked_sharded_run_matches_serial(
        self, store_workflow
    ) -> None:
        root = store_workflow["root"]
        assert (
            (root / "chunked.csv").read_bytes()
            == store_workflow["full_csv"].read_bytes()
        )
        assert (
            (root / "chunked-m.json").read_bytes()
            == store_workflow["full_metrics"].read_bytes()
        )

    def test_since_reuses_unchurned_shards(self, store_workflow) -> None:
        code, out = store_workflow["since"]
        assert code == 0
        assert "shard hits 1, misses 1, resume skipped 0" in out

    def test_campaigns_list(self, store_workflow) -> None:
        code, out = store_workflow["run"](
            ["campaigns", "--store", str(store_workflow["store"]), "list"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all("complete" in line for line in lines)
        assert all("2/2 shards" in line for line in lines)

    def test_campaigns_show_by_prefix(self, store_workflow) -> None:
        code, out = store_workflow["run"](
            [
                "campaigns",
                "--store", str(store_workflow["store"]),
                "show", store_workflow["base_id"][:8],
            ]
        )
        assert code == 0
        manifest = json.loads(out)
        assert manifest["campaign"].startswith(store_workflow["base_id"])
        assert manifest["complete"] is True

    def test_campaigns_diff(self, store_workflow) -> None:
        code, out = store_workflow["run"](
            [
                "campaigns",
                "--store", str(store_workflow["store"]),
                "diff",
                store_workflow["base_id"],
                store_workflow["evolved_id"],
            ]
        )
        assert code == 0
        assert "reused: US" in out
        assert "re-measured: TH" in out

    def test_campaigns_gc_keeps_referenced_shards(
        self, store_workflow
    ) -> None:
        code, out = store_workflow["run"](
            ["campaigns", "--store", str(store_workflow["store"]), "gc"]
        )
        assert code == 0
        assert "removed 0 objects (0 bytes), 0 index entries" in out

    def test_report_campaign_store_section(self, store_workflow) -> None:
        store = store_workflow["store"]
        artifacts = sorted(
            (store / "campaigns").glob(
                f"{store_workflow['base_id']}*.store.json"
            )
        )
        assert artifacts
        code, out = store_workflow["run"](
            [
                "report-campaign",
                "--metrics", str(store_workflow["full_metrics"]),
                "--store-metrics", str(artifacts[0]),
            ]
        )
        assert code == 0
        assert "-- campaign store" in out

    def test_unknown_campaign_prefix_rejected(
        self, store_workflow
    ) -> None:
        from repro.errors import PipelineError

        with pytest.raises(PipelineError, match="no campaign matching"):
            store_workflow["run"](
                [
                    "campaigns",
                    "--store", str(store_workflow["store"]),
                    "show", "feedface",
                ]
            )

    def test_resume_without_store_rejected(self) -> None:
        from repro.errors import PipelineError

        with pytest.raises(PipelineError, match="require --store"):
            main(
                [
                    "measure",
                    "--sites", "60",
                    "--countries", "US",
                    "--resume",
                ]
            )


class TestUnknownChurnCountry:
    """A churn country outside ``--countries`` fails before any epoch
    is measured: the store gets no manifest and no series ledger."""

    @staticmethod
    def assert_store_untouched(store) -> None:
        assert not list(store.glob("campaigns/*.json"))
        assert not list(store.glob("series/*.json"))

    def test_watch_rejects_it_up_front(self, tmp_path) -> None:
        from repro.errors import PipelineError

        store = tmp_path / "store"
        with pytest.raises(PipelineError, match="churn countries.*: XX"):
            main(
                [
                    "watch",
                    "--store", str(store),
                    "--countries", "TH", "US",
                    "--sites", "50",
                    "--churn-countries", "XX",
                    "--epochs", "3",
                ]
            )
        self.assert_store_untouched(store)

    def test_evolved_measure_rejects_it_up_front(self, tmp_path) -> None:
        from repro.errors import PipelineError

        store = tmp_path / "store"
        with pytest.raises(PipelineError, match="churn countries.*: XX"):
            main(
                [
                    "measure",
                    "--store", str(store),
                    "--countries", "TH", "US",
                    "--sites", "50",
                    "--evolve",
                    "--churn-countries", "XX",
                ]
            )
        self.assert_store_untouched(store)


class TestWorkerValidation:
    def test_workers_zero_rejected(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["measure", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_workers_negative_rejected(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["measure", "--workers", "-3"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_workers_non_numeric_rejected(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["measure", "--workers", "many"])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_more_workers_than_countries_warns(self, capsys) -> None:
        code = main(
            [
                "measure",
                "--sites", "60",
                "--countries", "US", "TH",
                "--workers", "5",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "exceeds the campaign's 2 countries" in captured.err
        assert "measured 120 sites" in captured.out

    def test_country_timeout_must_be_positive(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["measure", "--country-timeout", "0"])
        assert excinfo.value.code == 2
        assert "positive number" in capsys.readouterr().err

    def test_max_shard_retries_rejects_negative(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["measure", "--max-shard-retries", "-1"])
        assert excinfo.value.code == 2
        assert ">= 0" in capsys.readouterr().err


class TestSupervisionCli:
    def test_supervision_flags_parse(self) -> None:
        args = build_parser().parse_args(
            [
                "measure",
                "--country-timeout", "30",
                "--max-shard-retries", "1",
                "--quarantine",
                "--chaos", "worker-kill",
                "--chaos-seed", "7",
            ]
        )
        assert args.country_timeout == 30.0
        assert args.max_shard_retries == 1
        assert args.quarantine is True
        assert args.chaos == "worker-kill"
        assert args.chaos_seed == 7

    def test_unknown_chaos_profile_rejected(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["measure", "--chaos", "meteor-strike"]
            )

    def test_chaos_run_converges_and_reports_supervision(
        self, capsys
    ) -> None:
        code = main(
            [
                "measure",
                "--sites", "60",
                "--countries", "US", "TH",
                "--workers", "2",
                "--chaos", "worker-kill",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured 120 sites" in out
        assert "supervision: 1 shard retries, 0 timeouts, 0 quarantined" in out

    def test_quarantine_exits_4_and_resume_heals(
        self, capsys, tmp_path
    ) -> None:
        store = tmp_path / "store"
        base = [
            "measure",
            "--sites", "60",
            "--countries", "US", "TH",
            "--workers", "2",
            "--store", str(store),
        ]
        code = main(
            base
            + [
                "--chaos", "quarantine",
                "--quarantine",
                "--max-shard-retries", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 4
        assert "quarantined countries:" in out
        assert "--resume run re-measures" in out

        code = main(base + ["--resume"])
        out = capsys.readouterr().out
        assert code == 0
        assert "measured 120 sites" in out
        assert "quarantined" not in out

    def test_campaigns_list_flags_quarantined_campaign(
        self, capsys, tmp_path
    ) -> None:
        store = tmp_path / "store"
        main(
            [
                "measure",
                "--sites", "60",
                "--countries", "US", "TH",
                "--workers", "2",
                "--store", str(store),
                "--chaos", "quarantine",
                "--quarantine",
                "--max-shard-retries", "0",
            ]
        )
        capsys.readouterr()
        assert main(["campaigns", "--store", str(store), "list"]) == 0
        out = capsys.readouterr().out
        assert "partial" in out
        assert "1 quarantined" in out


class TestFsckCli:
    def test_clean_store_exits_zero(self, capsys, tmp_path) -> None:
        store = tmp_path / "store"
        main(
            [
                "measure",
                "--sites", "60",
                "--countries", "US",
                "--store", str(store),
            ]
        )
        capsys.readouterr()
        assert main(["campaigns", "--store", str(store), "fsck"]) == 0
        assert "store is clean" in capsys.readouterr().out

    def test_damage_exits_5_then_repair_then_resume(
        self, capsys, tmp_path
    ) -> None:
        from repro.faults.chaos import corrupt_store
        from repro.store import CampaignStore

        store_dir = tmp_path / "store"
        base = [
            "measure",
            "--sites", "60",
            "--countries", "US", "TH",
            "--store", str(store_dir),
        ]
        main(base)
        capsys.readouterr()
        corrupt_store(CampaignStore(store_dir), seed=0, count=1)

        code = main(["campaigns", "--store", str(store_dir), "fsck"])
        out = capsys.readouterr().out
        assert code == 5
        assert "--repair" in out

        code = main(
            ["campaigns", "--store", str(store_dir), "fsck", "--repair"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "store repaired" in out

        assert main(base + ["--resume"]) == 0
        assert "measured 120 sites" in capsys.readouterr().out
        assert main(["campaigns", "--store", str(store_dir), "fsck"]) == 0


class TestLazyListCli:
    def test_list_skips_corrupt_manifest_with_warning(
        self, capsys, tmp_path
    ) -> None:
        store_dir = tmp_path / "store"
        for country in ("US", "TH"):
            main(
                [
                    "measure",
                    "--sites", "60",
                    "--countries", country,
                    "--store", str(store_dir),
                ]
            )
        capsys.readouterr()
        victim = sorted(
            path
            for path in (store_dir / "campaigns").glob("*.json")
            if not path.name.endswith(".store.json")
        )[0]
        victim.write_text("{broken", encoding="utf-8")

        assert main(["campaigns", "--store", str(store_dir), "list"]) == 0
        captured = capsys.readouterr()
        assert "warning: skipping corrupt manifest" in captured.err
        assert "fsck" in captured.err
        # the healthy campaign is still listed
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1
        assert "complete" in lines[0]
        # ...and still resolves by prefix for show and diff
        healthy = lines[0].split()[0]
        show = ["campaigns", "--store", str(store_dir), "show", healthy]
        assert main(show) == 0
        assert json.loads(capsys.readouterr().out)["complete"] is True
        diff = ["campaigns", "--store", str(store_dir), "diff"]
        assert main(diff + [healthy, healthy]) == 0
        assert "1 reused, 0 re-measured" in capsys.readouterr().out


class TestSeriesTrendCli:
    def test_watch_then_trend_report(self, capsys, tmp_path) -> None:
        import re

        store = tmp_path / "store"
        assert (
            main(
                [
                    "watch",
                    "--store", str(store),
                    "--epochs", "2",
                    "--sites", "50",
                    "--countries", "TH", "US",
                    "--churn-countries", "TH",
                ]
            )
            == 0
        )
        series = re.search(
            r"series (\w{16})", capsys.readouterr().out
        ).group(1)

        assert (
            main(
                [
                    "campaigns",
                    "--store", str(store),
                    "series", series,
                    "--trend",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "consolidation trend" in out
        assert "epochs recorded: 2   measurable: 2" in out
        assert "mean centralization" in out


class TestWatchCli:
    """`repro watch` through ``main()``: hard kills exit 9, SIGTERM
    exits 6, and ``--resume-series`` converges to a clean run."""

    WATCH = [
        "watch",
        "--epochs", "4",
        "--sites", "60",
        "--countries", "US", "TH",
        "--churn-countries", "TH",
        "--fault-profile", "flaky-dns",
        "--fault-seed", "7",
        "--retries", "3",
    ]

    def test_battered_series_converges(self, capsys, tmp_path) -> None:
        def watch(name: str, *extra: str) -> int:
            return main(
                self.WATCH
                + ["--store", str(tmp_path / name / "store")]
                + ["--export-dir", str(tmp_path / name / "epochs")]
                + list(extra)
            )

        def artifacts(name: str) -> dict[str, bytes]:
            root = tmp_path / name
            paths = [
                *(root / "store" / "series").glob("*.json"),
                *(root / "epochs").glob("epoch-*.csv"),
            ]
            return {
                path.name: path.read_bytes()
                for path in paths
                if not path.name.endswith(".watch.json")
            }

        assert watch("clean") == 0
        # One kill profile per session: a hard kill re-fires whenever
        # its phase is re-attempted.  The seeds land the kills
        # mid-measure at epoch 0, mid-gc at epoch 1, boundary at 2.
        chaos = "--watch-chaos"
        seed = "--watch-chaos-seed"
        resume = "--resume-series"
        assert watch("battered", chaos, "kill-mid-measure", seed, "0") == 9
        assert watch("battered", resume, chaos, "kill-mid-gc", seed, "0") == 9
        assert watch("battered", resume, chaos, "kill-boundary", seed, "3") == 9
        assert watch("battered", resume) == 0
        assert watch("sigterm", chaos, "sigterm-boundary", seed, "0") == 6
        assert watch("sigterm", resume) == 0
        clean = artifacts("clean")
        assert len(clean) == 5  # the ledger and four epoch CSVs
        assert artifacts("battered") == clean
        assert artifacts("sigterm") == clean

        capsys.readouterr()
        store = str(tmp_path / "battered" / "store")
        assert main(["campaigns", "--store", store, "series"]) == 0
        assert "4 epochs  0 retired" in capsys.readouterr().out
        (ledger,) = (name for name in clean if not name.endswith(".csv"))
        series = ["campaigns", "--store", store, "series", ledger[:12]]
        assert main(series) == 0
        assert "epochs recorded: 4" in capsys.readouterr().out
        assert main(["campaigns", "--store", store, "gc", "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out


class TestServeCli:
    def test_parser_defaults(self) -> None:
        args = build_parser().parse_args(["serve", "--store", "s"])
        assert args.command == "serve"
        assert (args.host, args.port) == ("127.0.0.1", 8080)

    def test_store_is_required(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_prints_listen_line_and_exits_cleanly(
        self, capsys, tmp_path, monkeypatch
    ) -> None:
        store = tmp_path / "store"
        main(
            [
                "measure",
                "--sites", "60",
                "--countries", "US",
                "--store", str(store),
            ]
        )
        capsys.readouterr()

        from repro.serve.http import ReproServer

        def interrupted(self, poll_interval=0.5):
            raise KeyboardInterrupt

        monkeypatch.setattr(ReproServer, "serve_forever", interrupted)
        assert main(["serve", "--store", str(store), "--port", "0"]) == 0
        out = capsys.readouterr().out
        assert "repro serve:" in out
        assert "http://127.0.0.1:" in out

    def test_listen_line_arrives_through_a_pipe(self, tmp_path) -> None:
        """``repro serve`` under ``-X dev`` with stdout piped and
        ``PYTHONUNBUFFERED`` unset: the listen line arrives while the
        server runs, it serves a GET, a 304 and a HEAD, and SIGINT
        stops it with exit 0 and nothing on stderr."""
        import http.client
        import os
        import re
        import select
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro

        store = tmp_path / "store"
        assert main(["measure", "--sites", "50", "--countries", "US",
                     "--store", str(store)]) == 0
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        server = subprocess.Popen(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "repro", "serve", "--store", str(store), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            ready, _, _ = select.select([server.stdout], [], [], 15)
            assert ready, "no listen line within 15 s"
            line = server.stdout.readline().decode()
            port = int(re.search(r"http://127\.0\.0\.1:(\d+) ", line).group(1))
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", "/campaigns")
            first = conn.getresponse()
            assert first.status == 200 and first.read()
            etag = first.getheader("ETag")
            conn.request("GET", "/campaigns", headers={"If-None-Match": etag})
            revalidated = conn.getresponse()
            assert (revalidated.status, revalidated.read()) == (304, b"")
            conn.request("HEAD", "/campaigns")
            head = conn.getresponse()
            assert (head.status, head.read(), head.getheader("ETag")) == (
                200, b"", etag,
            )
            conn.close()
            server.send_signal(signal.SIGINT)
            out, err = server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0
        assert err == b""
        assert out == b""  # the listen line was the only output
