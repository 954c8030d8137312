"""Study orchestration: world → pipeline → per-layer analyses.

:class:`DependenceStudy` bundles one complete reproduction run — a
calibrated world, its Stanford-vantage measurement, and lazily built
:class:`~repro.analysis.layers.LayerAnalysis` objects for each
infrastructure layer.  It measures through ``run_campaign``, the same
country units as ``repro measure``.  ``DependenceStudy.run`` memoizes
by configuration so the many benchmark files share a single build.
"""

from __future__ import annotations

from functools import cached_property

from ..core.centralization import centralization_score
from ..core.distributions import ProviderDistribution
from ..datasets.paper_scores import LAYERS, PAPER_SCORES
from ..errors import UnknownLayerError
from ..pipeline.parallel import CampaignSpec, run_campaign
from ..pipeline.records import MeasurementDataset
from ..worldgen.config import WorldConfig
from ..worldgen.world import World
from .layers import LayerAnalysis

__all__ = ["DependenceStudy"]

_CACHE: dict[WorldConfig, "DependenceStudy"] = {}


class DependenceStudy:
    """One full measurement study over a synthetic world."""

    def __init__(self, world: World, dataset: MeasurementDataset) -> None:
        self.world = world
        self.dataset = dataset
        self._layers: dict[str, LayerAnalysis] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def measure(cls, world: World) -> "DependenceStudy":
        """Measure every country of a built world, one unit each."""
        result = run_campaign(CampaignSpec(world.config), world=world)
        return cls(world, result.dataset)

    @classmethod
    def build(cls, config: WorldConfig | None = None) -> "DependenceStudy":
        """Build a world and measure it (uncached)."""
        return cls.measure(World(config))

    @classmethod
    def run(cls, config: WorldConfig | None = None) -> "DependenceStudy":
        """Build-and-measure with process-wide memoization."""
        config = config or WorldConfig()
        study = _CACHE.get(config)
        if study is None:
            study = cls.build(config)
            _CACHE[config] = study
        return study

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def countries(self) -> list[str]:
        """Country codes covered, sorted."""
        return self.dataset.countries

    def layer(self, name: str) -> LayerAnalysis:
        """The LayerAnalysis for one layer (built lazily)."""
        if name not in LAYERS:
            raise UnknownLayerError(
                f"unknown layer {name!r}; expected one of {LAYERS}"
            )
        analysis = self._layers.get(name)
        if analysis is None:
            analysis = LayerAnalysis(self.dataset, name)
            self._layers[name] = analysis
        return analysis

    @property
    def hosting(self) -> LayerAnalysis:
        """Hosting-layer analysis."""
        return self.layer("hosting")

    @property
    def dns(self) -> LayerAnalysis:
        """DNS-layer analysis."""
        return self.layer("dns")

    @property
    def ca(self) -> LayerAnalysis:
        """CA-layer analysis."""
        return self.layer("ca")

    @property
    def tld(self) -> LayerAnalysis:
        """TLD-layer analysis."""
        return self.layer("tld")

    # ------------------------------------------------------------------
    # Cross-layer conveniences
    # ------------------------------------------------------------------

    def paper_comparison(self, layer: str) -> list[tuple[str, float, float]]:
        """(country, measured S, published S) rows for one layer."""
        analysis = self.layer(layer)
        published = PAPER_SCORES[layer]
        return [
            (cc, analysis.scores[cc], published[cc])
            for cc in self.countries
        ]

    @cached_property
    def global_top_distribution(self) -> dict[str, ProviderDistribution]:
        """Per-layer distributions of the Global Top-C list (Figure 12's
        vertical marker)."""
        c = self.world.config.sites_per_country
        domains = self.world.global_pool_domains[:c]
        out: dict[str, ProviderDistribution] = {}
        for layer in LAYERS:
            out[layer] = ProviderDistribution.from_assignments(
                getattr(self.world.sites[d], layer) for d in domains
            )
        return out

    def global_top_score(self, layer: str) -> float:
        """Centralization Score of the Global Top-C list."""
        return centralization_score(self.global_top_distribution[layer])

    def score_histogram(
        self, layer: str, bin_width: float = 0.025, max_score: float = 0.65
    ) -> tuple[list[float], list[int]]:
        """Histogram of per-country S for one layer (Figure 12)."""
        edges = []
        value = 0.0
        while value < max_score:
            edges.append(round(value, 6))
            value += bin_width
        counts = [0] * len(edges)
        for score in self.layer(layer).scores.values():
            index = min(int(score / bin_width), len(edges) - 1)
            counts[index] += 1
        return edges, counts
