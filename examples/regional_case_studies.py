#!/usr/bin/env python
"""Regional case studies (Section 5.3.3): who depends on whom.

Reproduces the cross-border dependence patterns the paper surfaces:
CIS countries on Russia, francophone countries on France, Slovakia on
Czechia, Afghanistan on Iran (with the Persian-language analysis), and
the dominant single regional providers in Bulgaria and Lithuania.

Run:  python examples/regional_case_studies.py
"""

from __future__ import annotations

from repro.analysis import DependenceStudy, persian_case_study
from repro.datasets import paper_anchors
from repro.worldgen import WorldConfig


def main() -> None:
    # The cross-border shares are calibrated against the full
    # 150-country study; a reduced country set skews the shared-site
    # pool toward the remaining origins, so this example keeps all
    # countries and scales the per-country toplist length instead.
    study = DependenceStudy.run(WorldConfig(sites_per_country=1000))
    hosting = study.hosting

    print("=== Russia and the CIS ===")
    for cc, expected in paper_anchors.CASE_STUDIES["russia_dependence"].items():
        measured = hosting.dependence_on(cc, "RU")
        print(
            f"  {cc}: {100 * measured:5.1f}% of sites on Russian hosts "
            f"(paper: {100 * expected:.0f}%)"
        )

    print("\n=== France, DOM regions, and former colonies ===")
    for cc, expected in paper_anchors.CASE_STUDIES["france_dependence"].items():
        measured = hosting.dependence_on(cc, "FR")
        print(
            f"  {cc}: {100 * measured:5.1f}% on French hosts "
            f"(paper: {100 * expected:.0f}%)"
        )

    print("\n=== Czechia / Slovakia ===")
    sk_cz = hosting.dependence_on("SK", "CZ")
    cz_sk = hosting.dependence_on("CZ", "SK")
    print(f"  SK -> CZ: {100 * sk_cz:.1f}% (paper: 25.7%)")
    print(f"  CZ -> SK: {100 * cz_sk:.1f}% (Czechia stays insular)")

    print("\n=== Germany / Austria ===")
    print(
        f"  AT -> DE: {100 * hosting.dependence_on('AT', 'DE'):.1f}% "
        f"(Hetzner + regional spillover)"
    )

    print("\n=== Iran / Afghanistan (with language analysis) ===")
    af_ir = hosting.dependence_on("AF", "IR")
    print(f"  AF -> IR: {100 * af_ir:.1f}% (paper: >20%)")
    persian = persian_case_study(study.world)
    print(
        f"  Persian sites in AF toplist: "
        f"{100 * persian.persian_share:.1f}% (paper: 31.4%); "
        f"of those hosted in Iran: "
        f"{100 * persian.iran_hosted_share:.1f}% (paper: 60.8%)"
    )

    print("\n=== Dominant single regional providers ===")
    for cc, provider in (("BG", "SuperHosting.BG"), ("LT", "UAB Interneto vizija")):
        share = hosting.distribution(cc).share_of(provider)
        rank = [name for name, _ in hosting.distribution(cc).ranked()].index(
            provider
        ) + 1
        print(
            f"  {provider} in {cc}: {100 * share:.1f}% of sites "
            f"(rank #{rank}; paper: 22%, always second to Cloudflare)"
        )

    print("\n=== Insularity extremes (Section 5.3.1) ===")
    for cc in ("IR", "CZ", "RU", "TM", "SK"):
        print(
            f"  {cc}: insularity {100 * hosting.insularity[cc]:5.1f}%"
        )


if __name__ == "__main__":
    main()
