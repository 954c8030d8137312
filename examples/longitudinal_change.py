#!/usr/bin/env python
"""Longitudinal change (Section 5.4): May 2023 vs May 2025.

Builds the 2023 world, evolves it through the churn model, re-measures,
and reports the paper's longitudinal findings: score stability, the
Brazil jump, the Russia decline, Cloudflare adoption deltas, and
toplist churn.

Run:  python examples/longitudinal_change.py
"""

from __future__ import annotations

from repro.analysis import DependenceStudy, SnapshotComparison
from repro.worldgen import WorldConfig, evolve

COUNTRIES = (
    "TH", "ID", "US", "JP", "RU", "BY", "UZ", "MM", "TM", "BR",
    "CZ", "SK", "FR", "DE", "NG", "KE", "IN", "AU", "MX", "TR",
)


def main() -> None:
    config = WorldConfig(sites_per_country=1500, countries=COUNTRIES)
    print("building the May-2023 snapshot...")
    old_study = DependenceStudy.run(config)
    print("evolving to May-2025 and re-measuring...")
    new_study = DependenceStudy.measure(evolve(old_study.world))
    cmp = SnapshotComparison(old_study, new_study)

    print(f"\nscore correlation 2023 vs 2025: {cmp.score_correlation}")
    print("(paper: rho = 0.98)\n")

    cc, delta = cmp.largest_increase
    old_s, new_s = cmp.score_change(cc)
    print(
        f"largest increase: {cc} {old_s:.4f} -> {new_s:.4f} "
        f"(paper: BR 0.1446 -> 0.2354)"
    )
    cc, delta = cmp.largest_decrease
    old_s, new_s = cmp.score_change(cc)
    print(
        f"largest decrease: {cc} {old_s:.4f} -> {new_s:.4f} "
        f"(paper: RU 0.0554 -> 0.0499)\n"
    )

    print(
        f"mean Cloudflare delta: {cmp.mean_cloudflare_delta_points:+.1f} pts "
        f"(paper: +3.8 pts)"
    )
    print(
        f"Cloudflare decreasing in: {', '.join(cmp.cloudflare_decreasing)} "
        f"(paper: RU, BY, UZ, MM)"
    )
    print(
        f"Turkmenistan Cloudflare delta: "
        f"{cmp.cloudflare_delta_points('TM'):+.1f} pts (paper: +11.3)\n"
    )

    print(
        f"mean toplist Jaccard: {cmp.mean_jaccard:.2f} (paper: 0.37); "
        f"Russia: {cmp.toplist_jaccard('RU'):.2f} (paper: 0.4)"
    )
    print(
        f"countries with decreased U.S. reliance: "
        f"{len(cmp.countries_less_us_reliant)}/{len(cmp.countries)} "
        f"(paper: 56/150)"
    )

    print("\nRussia detail:")
    print(
        f"  local hosting: "
        f"{100 * old_study.hosting.insularity['RU']:.0f}% -> "
        f"{100 * new_study.hosting.insularity['RU']:.0f}% "
        f"(paper: 50% -> 56%)"
    )
    print(
        f"  U.S. reliance: "
        f"{100 * cmp.us_reliance(old_study, 'RU'):.0f}% -> "
        f"{100 * cmp.us_reliance(new_study, 'RU'):.0f}% "
        f"(paper: 30% -> 29%)"
    )


if __name__ == "__main__":
    main()
