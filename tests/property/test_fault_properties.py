"""Property-style tests for the fault/retry substrate.

Hypothesis is not available in this environment, so properties are
checked over seeded loops: many (seed, key) combinations drawn
deterministically, asserting invariants that must hold for all of them.
"""

from __future__ import annotations

from repro.faults import (
    FaultPlan,
    RetryPolicy,
    SlowAnswer,
    TlsHandshakeFlap,
    TransientServFail,
)
from repro.faults.seeding import stable_fraction
from repro.pipeline import (
    CampaignSpec,
    MeasurementDataset,
    MeasurementPipeline,
    export_csv,
    run_campaign,
)
from repro.worldgen import World, WorldConfig

SEEDS = range(25)
KEYS = [f"op:{i}" for i in range(40)]


class TestStableFractionProperties:
    def test_always_in_unit_interval(self) -> None:
        for seed in SEEDS:
            for key in KEYS:
                assert 0.0 <= stable_fraction(seed, key) < 1.0

    def test_pure_function_of_inputs(self) -> None:
        for seed in SEEDS:
            for key in KEYS:
                assert stable_fraction(seed, key) == stable_fraction(
                    seed, key
                )

    def test_roughly_uniform(self) -> None:
        values = [
            stable_fraction(seed, key) for seed in SEEDS for key in KEYS
        ]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55
        assert 0.4 < sum(1 for v in values if v < 0.5) / len(values) < 0.6


class TestBackoffProperties:
    def test_schedule_shape_and_bounds(self) -> None:
        for seed in SEEDS:
            for attempts in (1, 2, 3, 5, 8):
                policy = RetryPolicy(
                    max_attempts=attempts,
                    base_delay=0.5,
                    max_delay=20.0,
                    seed=seed,
                )
                for key in KEYS[:10]:
                    schedule = policy.backoff_schedule(key)
                    assert len(schedule) == attempts - 1
                    for delay in schedule:
                        assert 0.5 <= delay <= 20.0

    def test_deterministic_per_seed(self) -> None:
        for seed in SEEDS:
            a = RetryPolicy(max_attempts=5, seed=seed)
            b = RetryPolicy(max_attempts=5, seed=seed)
            for key in KEYS[:10]:
                assert a.backoff_schedule(key) == b.backoff_schedule(key)

    def test_seeds_decorrelate_schedules(self) -> None:
        distinct = {
            RetryPolicy(max_attempts=4, seed=seed).backoff_schedule("k")
            for seed in SEEDS
        }
        assert len(distinct) == len(SEEDS)


class TestInjectorProperties:
    def test_rate_zero_never_fires_any_seed(self) -> None:
        for seed in SEEDS:
            for inj in (
                TransientServFail(0.0),
                SlowAnswer(0.0),
                TlsHandshakeFlap(0.0),
            ):
                for key in KEYS:
                    assert not inj.fires(seed, key, 1)

    def test_rate_one_always_fires_within_consecutive(self) -> None:
        for seed in SEEDS:
            inj = TransientServFail(1.0, consecutive=2)
            for key in KEYS:
                assert inj.fires(seed, key, 1)
                assert inj.fires(seed, key, 2)
                assert not inj.fires(seed, key, 3)

    def test_firing_frequency_tracks_rate(self) -> None:
        names = [f"host{i}.example" for i in range(1500)]
        for rate in (0.1, 0.3, 0.7):
            inj = TransientServFail(rate)
            for seed in (0, 1, 2):
                hits = sum(inj.fires(seed, n, 1) for n in names)
                assert abs(hits / len(names) - rate) < 0.05

    def test_decision_is_per_name_not_per_order(self) -> None:
        inj = TransientServFail(0.5)
        forward = [inj.fires(9, n, 1) for n in KEYS]
        backward = [inj.fires(9, n, 1) for n in reversed(KEYS)]
        assert forward == list(reversed(backward))


class TestPipelineNoFaultEquivalence:
    def test_zero_rate_plan_byte_identical_on_fresh_world(
        self, tmp_path
    ) -> None:
        config = WorldConfig(
            sites_per_country=60, countries=("US", "TH")
        )
        world = World(config)
        baseline = run_campaign(CampaignSpec(config), world=world).dataset
        faulted = MeasurementDataset()
        for cc in config.countries:
            faulted.extend(
                MeasurementPipeline(
                    world,
                    fault_plan=FaultPlan(
                        (TransientServFail(0.0), TlsHandshakeFlap(0.0)),
                        seed=99,
                    ),
                    retry_policy=RetryPolicy(max_attempts=4, seed=99),
                ).measure_country(cc)
            )
        base_csv = tmp_path / "a.csv"
        fault_csv = tmp_path / "b.csv"
        export_csv(baseline, base_csv)
        export_csv(faulted, fault_csv)
        assert base_csv.read_bytes() == fault_csv.read_bytes()
