"""Section 5.3.3 — regional case studies.

Every named cross-border dependence: the CIS on Russia (with the
post-Soviet countries that moved away), the French DOM regions and
former colonies on France, Slovakia on Czechia, Austria on Germany
(plus Hetzner's ~2% global share), and Afghanistan on Iran with the
Persian-language breakdown.
"""

from __future__ import annotations

import pytest

from repro.analysis import DependenceStudy, persian_case_study
from repro.datasets import paper_anchors


def _dependences(study: DependenceStudy) -> dict[str, dict[str, float]]:
    cases = paper_anchors.CASE_STUDIES
    out: dict[str, dict[str, float]] = {"RU": {}, "FR": {}, "CZ": {}, "IR": {}}
    for cc in cases["russia_dependence"]:
        out["RU"][cc] = study.hosting.dependence_on(cc, "RU")
    for cc in cases["france_dependence"]:
        out["FR"][cc] = study.hosting.dependence_on(cc, "FR")
    out["CZ"]["SK"] = study.hosting.dependence_on("SK", "CZ")
    out["IR"]["AF"] = study.hosting.dependence_on("AF", "IR")
    return out


def test_sec533_case_studies(benchmark, study, write_report) -> None:
    measured = benchmark.pedantic(
        _dependences, args=(study,), rounds=1, iterations=1
    )
    cases = paper_anchors.CASE_STUDIES

    lines = ["Section 5.3.3 — regional case studies (measured vs paper)"]
    for cc, expected in cases["russia_dependence"].items():
        lines.append(
            f"  {cc} -> RU: {100 * measured['RU'][cc]:5.1f}% "
            f"(paper {100 * expected:4.0f}%)"
        )
    for cc, expected in cases["france_dependence"].items():
        lines.append(
            f"  {cc} -> FR: {100 * measured['FR'][cc]:5.1f}% "
            f"(paper {100 * expected:4.0f}%)"
        )
    lines.append(
        f"  SK -> CZ: {100 * measured['CZ']['SK']:5.1f}% (paper 25.7%)"
    )
    lines.append(
        f"  AF -> IR: {100 * measured['IR']['AF']:5.1f}% (paper >20%)"
    )
    # The Persian-language analysis, from detected page languages and
    # measured hosting organizations.
    persian = persian_case_study(study.world)
    lines.append(
        f"  AF Persian: {100 * persian.persian_share:5.1f}% (paper 31.4%), "
        f"hosted in IR: {100 * persian.iran_hosted_share:5.1f}% "
        f"(paper 60.8%)"
    )
    write_report("sec533_case_studies", "\n".join(lines) + "\n")

    # CIS reliance on Russia within a few points of the paper.
    for cc, expected in cases["russia_dependence"].items():
        assert measured["RU"][cc] == pytest.approx(expected, abs=0.06), cc
    # Ordering: TM most dependent; UA/LT/EE low.
    ru = measured["RU"]
    assert ru["TM"] == max(ru.values())
    for cc in ("UA", "LT", "EE"):
        assert ru[cc] < 0.10

    # France: DOM regions ~35%, former colonies ~20%.
    for cc, expected in cases["france_dependence"].items():
        assert measured["FR"][cc] == pytest.approx(expected, abs=0.07), cc

    # Slovakia -> Czechia and Afghanistan -> Iran.
    assert measured["CZ"]["SK"] == pytest.approx(0.257, abs=0.06)
    assert measured["IR"]["AF"] == pytest.approx(0.20, abs=0.06)

    # Germany: Hetzner ~2% of all sites globally; Austria uses German
    # providers.
    merged = study.dataset.merged_distribution("hosting")
    assert merged.share_of("Hetzner") == pytest.approx(0.02, abs=0.012)
    assert study.hosting.dependence_on("AT", "DE") > 0.02

    # The Persian-language analysis.
    assert persian.persian_share == pytest.approx(0.314, abs=0.05)
    assert persian.iran_hosted_share == pytest.approx(0.608, abs=0.12)
