"""Tests for the longitudinal churn model (Section 5.4)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import jaccard_index
from repro.worldgen import ChurnConfig, World, WorldConfig, evolve
from repro.worldgen.churn import derive_overrides

COUNTRIES = ("TH", "US", "RU", "BR", "TM", "BY", "CZ", "NG")


@pytest.fixture(scope="module")
def old_world() -> World:
    return World(WorldConfig(sites_per_country=300, countries=COUNTRIES))


@pytest.fixture(scope="module")
def new_world(old_world: World) -> World:
    return evolve(old_world)


class TestDeriveOverrides:
    def test_br_gets_published_2025_score(self, old_world: World) -> None:
        overrides = derive_overrides(old_world, ChurnConfig())
        assert overrides.score_targets[("BR", "hosting")] == 0.2354
        assert overrides.score_targets[("RU", "hosting")] == 0.0499

    def test_cf_deltas(self, old_world: World) -> None:
        overrides = derive_overrides(old_world, ChurnConfig())
        c = old_world.config.sites_per_country
        cf_old_tm = old_world.targets["TM"]["hosting"].get("Cloudflare", 0) / c
        assert overrides.cf_hosting["TM"] == pytest.approx(
            cf_old_tm + 0.113, abs=1e-6
        )
        cf_old_ru = old_world.targets["RU"]["hosting"].get("Cloudflare", 0) / c
        assert overrides.cf_hosting["RU"] == pytest.approx(
            cf_old_ru - 0.020, abs=1e-6
        )

    def test_default_delta_positive(self, old_world: World) -> None:
        overrides = derive_overrides(old_world, ChurnConfig())
        c = old_world.config.sites_per_country
        cf_old = old_world.targets["NG"]["hosting"].get("Cloudflare", 0) / c
        assert overrides.cf_hosting["NG"] > cf_old


class TestEvolve:
    def test_snapshot_label(self, new_world: World) -> None:
        assert new_world.config.snapshot == "2025-05"

    def test_same_countries_and_size(self, new_world: World) -> None:
        assert set(new_world.toplists) == set(COUNTRIES)
        for toplist in new_world.toplists.values():
            assert len(toplist) == 300

    def test_global_pool_carried_over(
        self, old_world: World, new_world: World
    ) -> None:
        assert new_world.global_pool_domains == (
            old_world.global_pool_domains
        )
        domain = old_world.global_pool_domains[0]
        assert (
            new_world.sites[domain].hosting
            == old_world.sites[domain].hosting
        )

    def test_toplist_jaccard_in_paper_range(
        self, old_world: World, new_world: World
    ) -> None:
        values = [
            jaccard_index(
                old_world.toplists[cc].domains,
                new_world.toplists[cc].domains,
            )
            for cc in COUNTRIES
        ]
        mean = sum(values) / len(values)
        assert 0.25 < mean < 0.50  # paper average: 0.37

    def test_kept_sites_retain_providers(
        self, old_world: World, new_world: World
    ) -> None:
        for cc in COUNTRIES:
            shared = set(old_world.toplists[cc].domains) & set(
                new_world.toplists[cc].domains
            )
            locals_kept = [
                d for d in shared if not old_world.sites[d].is_global
            ]
            assert locals_kept, cc
            for domain in locals_kept[:20]:
                assert (
                    new_world.sites[domain].hosting
                    == old_world.sites[domain].hosting
                )

    def test_kept_records_are_copies(
        self, old_world: World, new_world: World
    ) -> None:
        # Carried records are shared with the old world, not copied:
        # an unchurned country's local records and the pool records of
        # a restricted step, and a churned country's kept records.
        restricted = evolve(old_world, ChurnConfig(churn_countries=("BR",)))
        local = [
            d
            for d in old_world.toplists["US"].domains
            if not old_world.sites[d].is_global
        ]
        assert local
        for domain in local + old_world.global_pool_domains:
            assert restricted.sites[domain] is old_world.sites[domain]
        kept = [
            d
            for d in set(old_world.toplists["US"].domains)
            & set(new_world.toplists["US"].domains)
            if not old_world.sites[d].is_global
        ]
        assert kept
        for domain in kept:
            assert new_world.sites[domain] is old_world.sites[domain]

    def test_af_churn_leaves_old_languages_alone(self) -> None:
        # The Section 5.3.3 pass re-assigns languages to kept Afghan
        # records; the old world holds the same record objects.
        old = World(
            WorldConfig(sites_per_country=100, countries=("AF", "IR", "US"))
        )
        before = {d: r.language for d, r in old.sites.items()}
        new = evolve(old, ChurnConfig(churn_countries=("AF",)))
        assert {d: r.language for d, r in old.sites.items()} == before
        relabeled = [
            d
            for d in old.toplists["AF"].domains
            if not old.sites[d].is_global
            and d in new.sites
            and new.sites[d].language != before[d]
        ]
        assert relabeled

    def test_new_world_remeasurable(self, new_world: World) -> None:
        from repro.pipeline import CampaignSpec, run_campaign

        spec = CampaignSpec(new_world.config, countries=("BR",))
        dataset = run_campaign(spec, world=new_world).dataset
        assert dataset.failure_rate("BR") == 0.0

    def test_br_score_rises_ru_falls(
        self, old_world: World, new_world: World
    ) -> None:
        from repro.core import ProviderDistribution, centralization_score

        def score(world: World, cc: str) -> float:
            return centralization_score(
                ProviderDistribution(world.ground_truth_counts(cc, "hosting"))
            )

        assert score(new_world, "BR") > score(old_world, "BR") + 0.05
        assert score(new_world, "RU") < score(old_world, "RU")

    def test_invalid_keep_fraction(self, old_world: World) -> None:
        with pytest.raises(ValueError):
            evolve(old_world, ChurnConfig(keep_fraction=1.5))

    def test_evolution_deterministic(self, old_world: World) -> None:
        a = evolve(old_world)
        b = evolve(old_world)
        assert a.toplists["BR"].domains == b.toplists["BR"].domains


class TestTwoStageBuild:
    """Only the measured world of a churn chain builds its substrate."""

    CONFIG = WorldConfig(
        sites_per_country=50, countries=("BR", "RU", "TH", "US")
    )
    #: The unrestricted middle step drifts targets, so the carried
    #: records of later steps name tail providers no draw created.
    CHAIN = (
        ChurnConfig(churn_countries=("TH",)),
        ChurnConfig(),
        ChurnConfig(churn_countries=("TH",)),
    )

    def test_substrate_builds_on_first_read(self) -> None:
        world = World(self.CONFIG)
        assert World._SUBSTRATE.isdisjoint(vars(world))
        assert world.namespace.zone_for(world.toplists["TH"].domains[0])
        assert World._SUBSTRATE <= set(vars(world))
        with pytest.raises(AttributeError):
            world.not_an_attribute

    def test_forced_intermediates_measure_like_the_lazy_chain(self) -> None:
        from repro.pipeline import CampaignSpec, rows_to_csv_text, run_campaign
        from repro.worldgen.slices import world_slice_digest

        eager = World(self.CONFIG).materialize()
        unrevived = 0
        for churn in self.CHAIN:
            eager = evolve(eager, churn)
            unrevived += sum(
                eager.market.get(record.hosting) is None
                for record in eager.sites.values()
            )
            eager.materialize()
        assert unrevived

        spec = CampaignSpec(config=self.CONFIG, churn=self.CHAIN)
        lazy = spec.build_world()
        for cc in self.CONFIG.countries:
            assert world_slice_digest(
                eager, cc, spec.vantage_continent
            ) == world_slice_digest(lazy, cc, spec.vantage_continent)
        assert rows_to_csv_text(
            run_campaign(spec, world=eager).dataset
        ) == rows_to_csv_text(run_campaign(spec, world=lazy).dataset)

    def test_a_chain_materializes_one_substrate(self, monkeypatch) -> None:
        from repro.pipeline import CampaignSpec

        built: list[str] = []
        materialize = World._materialize_infrastructure

        def counting(world: World) -> None:
            built.append(world.config.snapshot)
            materialize(world)

        monkeypatch.setattr(World, "_materialize_infrastructure", counting)
        churn = ChurnConfig(churn_countries=("TH",))
        world = CampaignSpec(
            config=self.CONFIG, churn=(churn, churn, churn)
        ).build_world()
        assert built == [world.config.snapshot]
        assert world.namespace is world.namespace
        assert len(built) == 1


class TestCalibrationReuse:
    """A churn chain reuses solved calibrations without changing a bit."""

    CHAIN_COUNTRIES = ("AF", "BR", "RU", "TH", "US")

    @classmethod
    def _chain(cls, seed: int, steps) -> list[World]:
        world = World(
            WorldConfig(
                seed=seed, sites_per_country=50, countries=cls.CHAIN_COUNTRIES
            )
        )
        worlds = [world]
        for churned in steps:
            churn = ChurnConfig(
                churn_countries=None if churned is None else tuple(churned)
            )
            worlds.append(evolve(worlds[-1], churn))
        return worlds

    @settings(deadline=None, max_examples=10)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        steps=st.lists(
            st.none()
            | st.lists(
                st.sampled_from(CHAIN_COUNTRIES),
                min_size=1,
                max_size=2,
                unique=True,
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @example(
        seed=0,
        steps=[c.churn_countries for c in TestTwoStageBuild.CHAIN],
    )
    @example(seed=3, steps=[("AF",), None, ("AF", "TH")])
    def test_carried_chain_equals_uncarried_chain(self, seed, steps) -> None:
        from repro.datasets.countries import COUNTRIES as ATLAS
        from repro.pipeline import STANFORD_VANTAGE_CONTINENT
        from repro.worldgen import churn as churn_module
        from repro.worldgen.slices import world_slice_digest
        from repro.worldgen.world import EvolutionPlan

        carried = self._chain(seed, steps)

        def uncarried_plan(**fields) -> EvolutionPlan:
            return EvolutionPlan(**{**fields, "calibrations": {}})

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(churn_module, "EvolutionPlan", uncarried_plan)
            fresh = self._chain(seed, steps)

        for a, b in zip(carried, fresh):
            assert a.targets == b.targets
            assert a.calibration_report == b.calibration_report
            assert a.sites == b.sites
            assert a.toplists == b.toplists
            assert a.global_pool_domains == b.global_pool_domains
        a, b = carried[-1], fresh[-1]
        for cc in self.CHAIN_COUNTRIES:
            for vantage in (
                (STANFORD_VANTAGE_CONTINENT, None),
                (ATLAS[cc].continent, cc),
            ):
                assert world_slice_digest(a, cc, *vantage) == (
                    world_slice_digest(b, cc, *vantage)
                )

    def test_restricted_step_solves_only_churned_countries(
        self, monkeypatch
    ) -> None:
        import repro.worldgen.world as world_module

        solved: list[float] = []
        calibrate = world_module.calibrate_shares

        def counting(shares, target_score, total_sites):
            solved.append(target_score)
            return calibrate(shares, target_score, total_sites)

        monkeypatch.setattr(world_module, "calibrate_shares", counting)
        config = TestTwoStageBuild.CONFIG
        world = World(config)
        assert len(solved) == 4 * len(config.countries)
        for churn in (
            ChurnConfig(churn_countries=("TH",)),
            ChurnConfig(churn_countries=("TH", "BR")),
        ):
            solved.clear()
            new = evolve(world, churn)
            changed = {
                key
                for key, calibration in new.calibrations.items()
                if calibration is not world.calibrations[key]
            }
            assert {cc for cc, _ in changed} <= set(churn.churn_countries)
            assert len(solved) == len(changed) <= len(churn.churn_countries)
            world = new
