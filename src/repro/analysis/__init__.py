"""Analysis: the paper's Sections 5–7 computations over measured data.

:class:`DependenceStudy` orchestrates world → pipeline → per-layer
analyses; :mod:`~repro.analysis.layers` computes scores, insularity,
and provider classes per layer; :mod:`~repro.analysis.regional`
aggregates by subregion/continent and builds the Figure 8 dependence
matrices; :mod:`~repro.analysis.longitudinal` compares snapshots.
"""

from .campaign import load_metrics, render_campaign_report
from .traceprof import (
    TraceProfile,
    amdahl_decomposition,
    analyze_trace,
    chrome_trace,
    critical_path,
    render_critical_path,
    render_trace_summary,
    worker_timelines,
)
from .crosslayer import (
    BundlingReport,
    ca_attribution,
    hosting_dns_bundling,
    layer_score_coupling,
)
from .layers import CountryBreakdown, LayerAnalysis
from .pairwise import (
    DistanceMatrix,
    cluster_countries,
    country_distance_matrix,
)
from .longitudinal import SnapshotComparison
from .regional import (
    DependenceMatrix,
    PersianCaseStudy,
    anycast_share,
    continent_means,
    ip_geolocation_matrix,
    layer_insularity_cdf,
    ns_geolocation_matrix,
    persian_case_study,
    provider_hq_matrix,
    subregion_means,
)
from .report import comparison_table, country_report, layer_summary
from .series import (
    render_series_detail,
    render_series_list,
    render_series_trend,
    series_trend,
)
from .storediff import (
    campaign_dataset,
    campaign_diff,
    dataset_from_manifest,
    render_campaign_diff,
)
from .study import DependenceStudy
from .whatif import (
    OutageImpact,
    SchismImpact,
    country_schism,
    provider_outage,
    single_points_of_failure,
)

__all__ = [
    "load_metrics",
    "render_campaign_report",
    "TraceProfile",
    "analyze_trace",
    "critical_path",
    "amdahl_decomposition",
    "worker_timelines",
    "chrome_trace",
    "render_trace_summary",
    "render_critical_path",
    "campaign_dataset",
    "campaign_diff",
    "dataset_from_manifest",
    "render_campaign_diff",
    "render_series_detail",
    "render_series_list",
    "render_series_trend",
    "series_trend",
    "BundlingReport",
    "hosting_dns_bundling",
    "ca_attribution",
    "layer_score_coupling",
    "OutageImpact",
    "SchismImpact",
    "provider_outage",
    "country_schism",
    "single_points_of_failure",
    "DistanceMatrix",
    "country_distance_matrix",
    "cluster_countries",
    "DependenceStudy",
    "LayerAnalysis",
    "CountryBreakdown",
    "SnapshotComparison",
    "subregion_means",
    "continent_means",
    "DependenceMatrix",
    "provider_hq_matrix",
    "ip_geolocation_matrix",
    "ns_geolocation_matrix",
    "PersianCaseStudy",
    "persian_case_study",
    "anycast_share",
    "layer_insularity_cdf",
    "country_report",
    "layer_summary",
    "comparison_table",
]
