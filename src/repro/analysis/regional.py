"""Regional aggregation: subregion/continent views of dependence.

Implements the geography-level computations behind Figures 5 and 8–10:
mean centralization and insularity per UN subregion and continent, and
the continent-to-continent dependence matrices (provider headquarters,
IP geolocation, nameserver geolocation with anycast as its own
category), plus the §5.3.3 Persian-language case study.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..datasets.countries import COUNTRIES, CONTINENTS
from ..errors import UnknownLayerError
from ..pipeline.measure import MeasurementPipeline
from ..pipeline.records import MeasurementDataset
from ..worldgen.world import World
from .layers import LayerAnalysis

__all__ = [
    "subregion_means",
    "continent_means",
    "DependenceMatrix",
    "provider_hq_matrix",
    "ip_geolocation_matrix",
    "ns_geolocation_matrix",
    "PersianCaseStudy",
    "persian_case_study",
]


def _grouped_mean(
    per_country: dict[str, float], key: str
) -> dict[str, float]:
    groups: dict[str, list[float]] = {}
    for cc, value in per_country.items():
        group = getattr(COUNTRIES[cc], key)
        groups.setdefault(group, []).append(value)
    return {
        group: sum(values) / len(values)
        for group, values in sorted(groups.items())
    }


def subregion_means(per_country: dict[str, float]) -> dict[str, float]:
    """Mean of a per-country statistic by UN subregion (Figures 9/10)."""
    return _grouped_mean(per_country, "subregion")


def continent_means(per_country: dict[str, float]) -> dict[str, float]:
    """Mean of a per-country statistic by continent."""
    return _grouped_mean(per_country, "continent")


@dataclass(frozen=True, slots=True)
class DependenceMatrix:
    """Rows: the continent where websites are popular; columns: the
    continent their infrastructure depends on (plus special columns
    like ``"anycast"`` and ``"??"`` for unattributable sites)."""

    rows: tuple[str, ...]
    columns: tuple[str, ...]
    shares: dict[str, dict[str, float]]

    def share(self, user_continent: str, infra_continent: str) -> float:
        """Dependence share for one (row, column) cell."""
        return self.shares.get(user_continent, {}).get(infra_continent, 0.0)

    def row(self, user_continent: str) -> dict[str, float]:
        """One row of the matrix as a dict."""
        return dict(self.shares.get(user_continent, {}))

    def dominant(self, user_continent: str) -> str:
        """Column with the largest share in a row."""
        row = self.shares[user_continent]
        return max(row, key=lambda col: (row[col], col))


def _continent_of_country(country: str | None) -> str | None:
    if country is None:
        return None
    entry = COUNTRIES.get(country)
    if entry is not None:
        return entry.continent
    # Providers HQ'd outside the dataset (e.g. China) still map by hand.
    return {"CN": "AS"}.get(country)


def _matrix_from_counts(
    counts: dict[str, Counter[str]],
) -> DependenceMatrix:
    shares: dict[str, dict[str, float]] = {}
    columns: set[str] = set()
    for row, counter in counts.items():
        total = sum(counter.values())
        shares[row] = (
            {col: n / total for col, n in counter.items()} if total else {}
        )
        columns.update(shares[row])
    rows = tuple(c for c in CONTINENTS if c in shares) + tuple(
        sorted(set(shares) - set(CONTINENTS))
    )
    ordered_cols = tuple(c for c in CONTINENTS if c in columns) + tuple(
        sorted(columns - set(CONTINENTS))
    )
    return DependenceMatrix(rows=rows, columns=ordered_cols, shares=shares)


def provider_hq_matrix(
    dataset: MeasurementDataset, layer: str = "hosting"
) -> DependenceMatrix:
    """Figure 8a: dependence by provider-headquarters continent."""
    if layer not in ("hosting", "dns"):
        raise UnknownLayerError(
            f"provider HQ matrix applies to hosting/dns, not {layer!r}"
        )
    field = "hosting_org_country" if layer == "hosting" else "dns_org_country"
    counts: dict[str, Counter[str]] = {}
    for cc in dataset.countries:
        row = COUNTRIES[cc].continent
        counter = counts.setdefault(row, Counter())
        for record in dataset.records(cc):
            target = _continent_of_country(getattr(record, field))
            counter[target or "??"] += 1
    return _matrix_from_counts(counts)


def ip_geolocation_matrix(dataset: MeasurementDataset) -> DependenceMatrix:
    """Figure 8b: dependence by serving-IP geolocation continent.

    Anycast addresses are reported in their own column since their
    geolocation is not meaningful.
    """
    counts: dict[str, Counter[str]] = {}
    for cc in dataset.countries:
        row = COUNTRIES[cc].continent
        counter = counts.setdefault(row, Counter())
        for record in dataset.records(cc):
            if record.ip is None:
                counter["??"] += 1
            elif record.ip_anycast:
                counter["anycast"] += 1
            else:
                counter[record.ip_continent or "??"] += 1
    return _matrix_from_counts(counts)


def ns_geolocation_matrix(dataset: MeasurementDataset) -> DependenceMatrix:
    """Figure 8c: dependence by nameserver geolocation continent."""
    counts: dict[str, Counter[str]] = {}
    for cc in dataset.countries:
        row = COUNTRIES[cc].continent
        counter = counts.setdefault(row, Counter())
        for record in dataset.records(cc):
            if record.dns_org is None:
                counter["??"] += 1
            elif record.ns_anycast:
                counter["anycast"] += 1
            else:
                counter[record.ns_continent or "??"] += 1
    return _matrix_from_counts(counts)


def anycast_share(dataset: MeasurementDataset, where: str) -> float:
    """Fraction of sites whose serving (``where='ip'``) or nameserver
    (``where='ns'``) address is anycast."""
    if where not in ("ip", "ns"):
        raise ValueError(f"where must be 'ip' or 'ns', got {where!r}")
    total = 0
    flagged = 0
    for cc in dataset.countries:
        for record in dataset.records(cc):
            if record.ip is None:
                continue
            total += 1
            if where == "ip" and record.ip_anycast:
                flagged += 1
            if where == "ns" and record.ns_anycast:
                flagged += 1
    return flagged / total if total else 0.0


def layer_insularity_cdf(
    analysis: LayerAnalysis, points: int = 101
) -> tuple[list[float], list[float]]:
    """CDF of per-country insularity for one layer (Figure 11)."""
    values = sorted(analysis.insularity.values())
    if not values:
        return [], []
    xs: list[float] = []
    ys: list[float] = []
    n = len(values)
    for i in range(points):
        x = i / (points - 1)
        xs.append(x)
        ys.append(sum(1 for v in values if v <= x) / n)
    return xs, ys


@dataclass(frozen=True, slots=True)
class PersianCaseStudy:
    """Section 5.3.3: Persian-language sites in Afghanistan's toplist."""

    #: Share of AF sites whose fetched page is detected as Persian.
    persian_share: float
    #: Share of those Persian sites hosted by an Iran-registered org.
    iran_hosted_share: float


def persian_case_study(world: World) -> PersianCaseStudy:
    """Measure AF with the LangDetect step and attribute its Persian sites.

    One fresh single-country pipeline fetches every AF page and detects
    its language (the paper's LangDetect step); the Iran share comes
    from the measured ``hosting_org_country``, never from the world's
    ground truth.
    """
    rows = MeasurementPipeline(world, detect_language=True).measure_country(
        "AF"
    )
    persian = [row for row in rows if row.language == "fa"]
    in_iran = sum(1 for row in persian if row.hosting_org_country == "IR")
    return PersianCaseStudy(
        persian_share=len(persian) / len(rows),
        iran_hosted_share=in_iran / len(persian) if persian else 0.0,
    )
