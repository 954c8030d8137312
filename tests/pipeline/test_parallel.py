"""Sharded campaign execution: serial and parallel runs are identical.

The acceptance property of :mod:`repro.pipeline.parallel`: for the
same :class:`CampaignSpec`, ``run_campaign(spec, workers=N)`` produces
byte-identical artifacts to ``workers=1`` — the exported CSV, the
merged metrics JSON, and the stitched span structure (everything but
wall-clock timings, which no run can reproduce).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import DependenceStudy
from repro.errors import PipelineError
from repro.obs.metrics import render_metrics_json
from repro.obs.spans import Span, stitch_spans
from repro.pipeline import (
    CampaignSpec,
    SupervisorPolicy,
    export_csv,
    measure_country_unit,
    rows_to_csv_text,
    run_campaign,
)
from repro.worldgen import ChurnConfig, World, WorldConfig

CONFIG = WorldConfig(
    sites_per_country=50, countries=("BR", "DE", "TH", "US")
)

SPEC = CampaignSpec(
    config=CONFIG,
    fault_profile="chaos",
    fault_seed=3,
    retries=3,
    instrument=True,
)


@pytest.fixture(scope="module")
def serial():
    return run_campaign(SPEC, workers=1)


@pytest.fixture(scope="module")
def sharded():
    return run_campaign(SPEC, workers=2)


class TestSerialParallelIdentity:
    def test_csv_bytes_identical(
        self, serial, sharded, tmp_path: Path
    ) -> None:
        a, b = tmp_path / "serial.csv", tmp_path / "sharded.csv"
        export_csv(serial.dataset, a)
        export_csv(sharded.dataset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_merged_metrics_json_identical(
        self, serial, sharded
    ) -> None:
        assert render_metrics_json(
            serial.metrics
        ) == render_metrics_json(sharded.metrics)

    def test_spans_identical_modulo_wall_clock(
        self, serial, sharded
    ) -> None:
        assert len(serial.spans) == len(sharded.spans)
        for left, right in zip(serial.spans, sharded.spans):
            left = left._replace(wall_ms=None)
            right = right._replace(wall_ms=None)
            assert left == right

    def test_aggregates_identical(self, serial, sharded) -> None:
        assert serial.injected_faults == sharded.injected_faults
        assert serial.open_circuits == sharded.open_circuits

    def test_more_workers_than_countries(self, serial) -> None:
        # Worker count clamps to the country count; output unchanged.
        wide = run_campaign(SPEC, workers=6)
        assert render_metrics_json(wide.metrics) == render_metrics_json(
            serial.metrics
        )

    def test_span_ids_are_dense_and_renumbered(self, sharded) -> None:
        ids = [span.span_id for span in sharded.spans]
        assert sorted(ids) == list(range(1, len(ids) + 1))
        by_id = {span.span_id: span for span in sharded.spans}
        for span in sharded.spans:
            parent = span.parent_id
            if parent is not None:
                assert by_id[parent].name == "site"


class TestSpawnContext:
    def test_spawn_workers_byte_identical_to_serial(
        self, serial, tmp_path: Path
    ) -> None:
        # Under spawn, workers inherit nothing: each process rebuilds
        # the World from the spec's recipe.  Output must still match
        # the serial run byte for byte — proving results depend only on
        # the spec, never on inherited parent state.
        spawned = run_campaign(SPEC, workers=2, mp_start_method="spawn")
        a, b = tmp_path / "serial.csv", tmp_path / "spawned.csv"
        export_csv(serial.dataset, a)
        export_csv(spawned.dataset, b)
        assert a.read_bytes() == b.read_bytes()
        assert render_metrics_json(
            spawned.metrics
        ) == render_metrics_json(serial.metrics)


class TestCountryUnitIsolation:
    def test_unit_result_independent_of_other_countries(self) -> None:
        # A country's unit result is a pure function of (config,
        # knobs, country): measuring it alone equals measuring it
        # after other countries ran through the same World.
        world = World(CONFIG)
        alone = measure_country_unit(world, SPEC, "TH")
        measure_country_unit(world, SPEC, "US")
        again = measure_country_unit(world, SPEC, "TH")
        assert alone.rows == again.rows
        assert alone.metrics == again.metrics
        assert len(alone.spans) == len(again.spans)
        for left, right in zip(alone.spans, again.spans):
            left = left._replace(wall_ms=None)
            right = right._replace(wall_ms=None)
            assert left == right

    def test_uninstrumented_units_have_no_telemetry(self) -> None:
        spec = CampaignSpec(config=CONFIG, instrument=False)
        result = run_campaign(spec, workers=1)
        assert result.metrics is None
        assert result.spans is None
        with pytest.raises(PipelineError):
            result.write_metrics("unused.json")
        with pytest.raises(PipelineError):
            result.write_trace("unused.jsonl")


class TestOneMeasurementPath:
    def test_study_dataset_is_the_campaign_dataset(self) -> None:
        # The study behind the paper benchmarks and `repro measure`
        # measure the same dataset for one config, down to `attempts`
        # (which a pipeline carrying caches and breakers from one
        # country into the next would change).
        study = DependenceStudy.build(CONFIG)
        campaign = run_campaign(CampaignSpec(CONFIG))
        assert rows_to_csv_text(study.dataset) == rows_to_csv_text(
            campaign.dataset
        )

    def test_prebuilt_world_measures_like_a_fresh_build(self) -> None:
        spec = CampaignSpec(
            config=CONFIG, fault_profile="chaos", fault_seed=3, retries=3
        )
        given = run_campaign(spec, world=spec.build_world())
        built = run_campaign(spec)
        assert rows_to_csv_text(given.dataset) == rows_to_csv_text(
            built.dataset
        )
        assert given.injected_faults == built.injected_faults > 0
        assert given.open_circuits == built.open_circuits


    def test_store_backed_measurement_reads_the_projected_plans(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        # The store session's slice digests plan every name the
        # campaign resolves; measurement then only reads those plans.
        from repro.net import ZoneCache
        from repro.pipeline import parallel
        from repro.store import CampaignStore

        caches: list[ZoneCache] = []
        init = ZoneCache.__init__

        def remember(self, *args, **kwargs) -> None:
            init(self, *args, **kwargs)
            caches.append(self)

        projected: list[dict] = []
        session_init = parallel._StoreSession.__init__

        def after_projection(self, *args, **kwargs) -> None:
            session_init(self, *args, **kwargs)
            projected.extend(cache.stats() for cache in caches)

        monkeypatch.setattr(ZoneCache, "__init__", remember)
        monkeypatch.setattr(
            parallel._StoreSession, "__init__", after_projection
        )
        run_campaign(SPEC, store=CampaignStore(tmp_path))
        assert len(caches) == 1 and len(projected) == 1
        measured = caches[0].stats()
        assert measured["misses"] == projected[0]["misses"]
        assert measured["hits"] > projected[0]["hits"]


class TestSpecCountries:
    def test_country_outside_the_config_is_rejected(self) -> None:
        with pytest.raises(PipelineError, match="not in the world config: FR"):
            CampaignSpec(config=CONFIG, countries=("US", "FR"))

    def test_repeated_country_is_rejected(self) -> None:
        with pytest.raises(PipelineError, match="repeated: US"):
            CampaignSpec(config=CONFIG, countries=("US", "TH", "US"))

    def test_churn_country_outside_the_config_is_rejected(self) -> None:
        # Every recipe of the chain is checked, not only the first.
        chain = (ChurnConfig(), ChurnConfig(churn_countries=("FR", "TH")))
        with pytest.raises(PipelineError, match="churn countries.*: FR"):
            CampaignSpec(config=CONFIG, churn=chain)


def _span(
    span_id: int, parent_id: int | None, name: str, start_logical: float = 0.0
) -> Span:
    return Span(
        attrs={},
        error=None,
        logical_seconds=0.0,
        name=name,
        parent_id=parent_id,
        span_id=span_id,
        start_logical=start_logical,
        status="ok",
        wall_ms=None,
    )


class TestStitchSpans:
    def test_offsets_and_parent_links(self) -> None:
        first = [_span(1, None, "site"), _span(2, 1, "resolve")]
        second = [_span(1, None, "site"), _span(2, 1, "tls")]
        stitched = stitch_spans([first, second])
        # The traces concatenate in the order given; the second one's
        # ids and parent links move up by the two spans before it.
        assert [s.span_id for s in stitched] == [1, 2, 3, 4]
        assert [s.name for s in stitched] == [
            "site",
            "resolve",
            "site",
            "tls",
        ]
        assert [s.parent_id for s in stitched] == [None, 1, None, 3]
        # Inputs are not mutated.
        assert second[0].span_id == 1

    def test_one_trace_passes_through_unchanged(self) -> None:
        # Out of start order on purpose: one trace is never reordered.
        trace = [_span(1, None, "site", 2.0), _span(2, 1, "tls", 0.5)]
        stitched = stitch_spans([trace])
        assert stitched == trace
        assert all(a is b for a, b in zip(stitched, trace))

    @pytest.mark.parametrize(
        "workers, policy",
        [(1, None), (2, SupervisorPolicy(chunk_size=2))],
        ids=["serial", "sharded-chunked"],
    )
    def test_campaign_trace_is_its_units_concatenated(
        self, workers, policy
    ) -> None:
        world = SPEC.build_world()
        units = [
            measure_country_unit(world, SPEC, cc)
            for cc in sorted(CONFIG.countries)
        ]
        expected = stitch_spans([unit.spans for unit in units])
        result = run_campaign(SPEC, workers=workers, policy=policy)

        def logical(spans, drop=("wall_ms",)):
            return [
                span._replace(**{k: None for k in drop}) for span in spans
            ]

        assert logical(result.spans) == logical(expected)
        # Each country's spans form one block, in its unit's order.
        ids = ("wall_ms", "span_id", "parent_id")
        offset = 0
        for unit in units:
            block = result.spans[offset : offset + len(unit.spans)]
            assert logical(block, ids) == logical(unit.spans, ids)
            offset += len(unit.spans)
        assert offset == len(result.spans)

    def test_order_is_invariant_under_shard_layout(self) -> None:
        spans = [_span(i + 1, None, "site", float(i)) for i in range(6)]
        one_big = stitch_spans([spans])
        resharded = stitch_spans(
            [
                [
                    s._replace(span_id=j + 1)
                    for j, s in enumerate(shard)
                ]
                for shard in (spans[:2], spans[2:5], spans[5:])
            ]
        )
        # Shard-local ids differ, but the stitched order and dense
        # renumbering come out the same however the campaign sharded.
        assert [s.start_logical for s in one_big] == [
            s.start_logical for s in resharded
        ]
        assert [s.span_id for s in one_big] == [
            s.span_id for s in resharded
        ]

    def test_roundtrips_through_json(self, tmp_path: Path) -> None:
        from repro.obs.spans import load_trace, write_spans_jsonl

        spans = [_span(1, None, "site")]
        path = tmp_path / "trace.jsonl"
        assert write_spans_jsonl(spans, path) == 1
        assert load_trace(path) == spans
