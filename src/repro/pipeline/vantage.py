"""Vantage-point validation (Section 3.4).

The paper validates that measuring from Stanford does not skew results:
it re-resolves each country's toplist through RIPE Atlas probes located
*in* that country and checks that the recomputed hosting centralization
scores correlate strongly (rho = 0.96) with the Stanford-based ones.

Here each country's probe measurement is a country unit whose spec
carries the country's own vantage (its continent and the country
itself), so geo-routed (CDN) answers — and the occasional multi-CDN
site — differ from the North American view, producing realistic,
slightly-divergent scores.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.centralization import centralization_score
from ..core.correlation import CorrelationResult, pearson
from ..datasets.countries import COUNTRIES
from ..net.dns import ZoneCache
from ..worldgen.world import World
from .parallel import CampaignSpec, measure_country_unit, run_campaign
from .records import MeasurementDataset

__all__ = ["VantageComparison", "ripe_style_dataset", "validate_vantage"]


@dataclass(frozen=True, slots=True)
class VantageComparison:
    """Per-country hosting scores from two vantage strategies."""

    countries: tuple[str, ...]
    stanford_scores: tuple[float, ...]
    probe_scores: tuple[float, ...]
    correlation: CorrelationResult


def ripe_style_dataset(
    world: World, countries: list[str] | None = None
) -> MeasurementDataset:
    """Measure each country through a probe on its own continent.

    Countries without a local RIPE presence in the paper fell back to
    random probes; here every country has a continent-local vantage,
    which is the stronger (more divergent) test.
    """
    targets = countries if countries is not None else sorted(world.toplists)
    zone_cache = ZoneCache(world.namespace)
    combined = MeasurementDataset(vantage_continent=None)
    for cc in targets:
        spec = CampaignSpec(
            world.config,
            vantage_continent=COUNTRIES[cc].continent,
            vantage_country=cc,
        )
        combined.extend(
            measure_country_unit(world, spec, cc, zone_cache).rows
        )
    return combined


def validate_vantage(
    world: World,
    stanford: MeasurementDataset | None = None,
    countries: list[str] | None = None,
) -> VantageComparison:
    """Reproduce the Section 3.4 vantage-point experiment."""
    targets = countries if countries is not None else sorted(world.toplists)
    if stanford is None:
        spec = CampaignSpec(world.config, countries=tuple(targets))
        stanford = run_campaign(spec, world=world).dataset
    probes = ripe_style_dataset(world, targets)
    stanford_scores = tuple(
        centralization_score(stanford.distribution(cc, "hosting"))
        for cc in targets
    )
    probe_scores = tuple(
        centralization_score(probes.distribution(cc, "hosting"))
        for cc in targets
    )
    return VantageComparison(
        countries=tuple(targets),
        stanford_scores=stanford_scores,
        probe_scores=probe_scores,
        correlation=pearson(stanford_scores, probe_scores),
    )
