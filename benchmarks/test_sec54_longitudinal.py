"""Section 5.4 — longitudinal change (May 2023 → May 2025).

Evolves the measured world through the churn model, re-measures, and
checks every published longitudinal statistic: score correlation 0.98,
Brazil's jump to 0.2354 on Cloudflare adoption (36% → 46%), Russia's
decline to 0.0499 with increased local hosting, Cloudflare's +3.8-point
average gain (decreasing only in RU/BY/UZ/MM, +11.3 in Turkmenistan),
Jaccard toplist churn ≈ 0.37, and 56/150 countries reducing U.S.
reliance.
"""

from __future__ import annotations

import pytest

from repro.analysis import DependenceStudy, SnapshotComparison
from repro.worldgen import evolve


def _evolve_and_compare(study: DependenceStudy) -> SnapshotComparison:
    new_study = DependenceStudy.measure(evolve(study.world))
    return SnapshotComparison(study, new_study)


def test_sec54_longitudinal(benchmark, study, write_report) -> None:
    cmp = benchmark.pedantic(
        _evolve_and_compare, args=(study,), rounds=1, iterations=1
    )

    br_old, br_new = cmp.score_change("BR")
    ru_old, ru_new = cmp.score_change("RU")
    lines = [
        "Section 5.4 — longitudinal change",
        f"score correlation: {cmp.score_correlation} (paper: 0.98)",
        f"BR: {br_old:.4f} -> {br_new:.4f} (paper: 0.1446 -> 0.2354)",
        f"RU: {ru_old:.4f} -> {ru_new:.4f} (paper: 0.0554 -> 0.0499)",
        f"mean Cloudflare delta: {cmp.mean_cloudflare_delta_points:+.1f} pts"
        " (paper: +3.8)",
        f"TM Cloudflare delta: {cmp.cloudflare_delta_points('TM'):+.1f} pts"
        " (paper: +11.3)",
        f"Cloudflare decreasing: {sorted(cmp.cloudflare_decreasing)}"
        " (paper: BY, MM, RU, UZ)",
        f"mean Jaccard: {cmp.mean_jaccard:.3f} (paper: 0.37); "
        f"RU: {cmp.toplist_jaccard('RU'):.3f} (paper: 0.4)",
        f"countries less U.S.-reliant: "
        f"{len(cmp.countries_less_us_reliant)}/150 (paper: 56/150)",
    ]
    write_report("sec54_longitudinal", "\n".join(lines) + "\n")

    # Stability of the ranking.
    assert cmp.score_correlation.rho > 0.95

    # Brazil: the largest increase, landing near the published score.
    assert cmp.largest_increase[0] == "BR"
    assert br_new == pytest.approx(0.2354, abs=0.02)
    br_cf_old = cmp.cloudflare_share(cmp.old, "BR")
    br_cf_new = cmp.cloudflare_share(cmp.new, "BR")
    assert br_cf_old == pytest.approx(0.36, abs=0.03)
    assert br_cf_new == pytest.approx(0.46, abs=0.04)

    # Russia: decline with increased local share.
    assert ru_new < ru_old
    assert ru_new == pytest.approx(0.0499, abs=0.01)
    assert (
        cmp.new.hosting.insularity["RU"]
        > cmp.old.hosting.insularity["RU"]
    )

    # Cloudflare adoption.
    assert 2.0 < cmp.mean_cloudflare_delta_points < 6.0
    assert cmp.cloudflare_delta_points("TM") > 7.0
    decreasing = set(cmp.cloudflare_decreasing)
    assert "RU" in decreasing
    assert decreasing <= {"RU", "BY", "UZ", "MM"}

    # Churn and U.S. reliance.
    assert cmp.mean_jaccard == pytest.approx(0.37, abs=0.08)
    n_less = len(cmp.countries_less_us_reliant)
    assert 20 < n_less < 110  # paper: 56; a sizable minority
