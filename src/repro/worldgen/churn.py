"""Longitudinal churn: evolving the May-2023 world into May-2025.

Section 5.4 re-measures the same vantage two years later and reports:

* hosting scores highly correlated with 2023 (rho = 0.98);
* Cloudflare usage up on average +3.8 points, up to +11.3 (Turkmenistan),
  *down* in Russia, Belarus, Uzbekistan, Myanmar;
* Brazil's score jumping 0.1446 → 0.2354 on Cloudflare adoption;
* Russia's score dropping 0.0554 → 0.0499 with increased local hosting;
* toplist churn with Jaccard ≈ 0.37 on average (Russia 0.4).

:func:`evolve` reproduces this: it keeps a fraction of each country's
local sites (providers intact), re-draws the shared-pool selection,
shifts each country's Cloudflare share, derives the new score targets
from those shifts, and rebuilds the world around the carryover.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..datasets.paper_scores import PAPER_SCORES
from ..datasets.providers import CLOUDFLARE
from .profiles import ProfileOverrides
from .world import EvolutionPlan, World

__all__ = ["ChurnConfig", "evolve", "derive_overrides"]


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of the 2023→2025 evolution."""

    #: Fraction of each country's local sites that survive.  Tuned so
    #: that the resulting toplist Jaccard lands near the paper's 0.37
    #: average given the shared-pool re-draw.
    keep_fraction: float = 0.58
    #: Average Cloudflare gain in share points (Section 5.4: +3.8 pts).
    cf_delta_default: float = 0.038
    #: Country-specific Cloudflare share deltas.
    cf_delta_special: dict[str, float] = field(
        default_factory=lambda: {
            "TM": 0.113,
            "BR": 0.100,
            "RU": -0.020,
            "BY": -0.010,
            "UZ": -0.010,
            "MM": -0.005,
        }
    )
    #: Published 2025 scores where the paper names them.
    score_special: dict[str, float] = field(
        default_factory=lambda: {"BR": 0.2354, "RU": 0.0499}
    )
    #: Insularity shifts (Russia: 50% → 56% local hosting).
    insularity_special: dict[str, float] = field(
        default_factory=lambda: {"RU": 0.56}
    )
    new_snapshot: str = "2025-05"
    seed_shift: int = 0x2025
    #: When set, only these countries churn (toplist re-draws, local
    #: site turnover, Cloudflare/score drift); every other country's
    #: toplist and site records carry into the new snapshot
    #: byte-identically.  ``None`` (the default) churns everything —
    #: the paper's full longitudinal study.  Restricting churn is what
    #: makes incremental re-measurement (``repro measure --since``)
    #: able to reuse the unchurned countries' stored shards.
    churn_countries: tuple[str, ...] | None = None


def derive_overrides(
    old_world: World, churn: ChurnConfig
) -> ProfileOverrides:
    """New score targets and Cloudflare pins from the old snapshot.

    The 2025 hosting score target moves with the Cloudflare share:
    ``S_new ≈ S_old + (cf_new^2 - cf_old^2)`` — the XL-GP term dominates
    score changes (Section 5.2's rho=0.90 coupling) — except where the
    paper publishes the 2025 score directly.  When the churn config
    restricts churn to a country subset, only those countries get
    overrides.  Every other country's targets come from its templates
    without an override: the old snapshot's targets when that snapshot
    had none for it either (epoch 0, or an unchurned country of a
    restricted step), but re-derived from the unshifted templates after
    an unrestricted step.  Its toplist and records carry over
    byte-identically either way.
    """
    c = old_world.config.sites_per_country
    churned = (
        set(churn.churn_countries)
        if churn.churn_countries is not None
        else set(old_world.config.countries)
    )
    score_targets: dict[tuple[str, str], float] = {}
    cf_hosting: dict[str, float] = {}
    for cc in old_world.config.countries:
        if cc == "JP" or cc not in churned:
            # Japan's Amazon-led market is not modeled through the
            # Cloudflare-delta mechanism; unchurned countries get no
            # drift.  Neither gets an override.
            continue
        old_counts = old_world.targets[cc]["hosting"]
        cf_old = old_counts.get(CLOUDFLARE, 0) / c
        delta = churn.cf_delta_special.get(cc, churn.cf_delta_default)
        cf_new = float(np.clip(cf_old + delta, 0.02, 0.88))
        cf_hosting[cc] = cf_new
        s_old = PAPER_SCORES["hosting"][cc]
        s_new = churn.score_special.get(
            cc, s_old + cf_new**2 - cf_old**2
        )
        score_targets[(cc, "hosting")] = float(np.clip(s_new, 0.001, 0.95))
    return ProfileOverrides(
        score_targets=score_targets,
        cf_hosting=cf_hosting,
        insularity={
            cc: value
            for cc, value in churn.insularity_special.items()
            if cc in churned
        },
    )


def evolve(old_world: World, churn: ChurnConfig | None = None) -> World:
    """Build the follow-up snapshot of an existing world."""
    churn = churn or ChurnConfig()
    if not 0.0 <= churn.keep_fraction <= 1.0:
        raise ValueError(
            f"keep_fraction must be in [0, 1], got {churn.keep_fraction}"
        )
    if churn.churn_countries is not None:
        unknown = [
            cc
            for cc in churn.churn_countries
            if cc not in old_world.config.countries
        ]
        if unknown:
            raise ValueError(
                f"churn_countries not in the old world: {unknown}"
            )
    churned = (
        set(churn.churn_countries)
        if churn.churn_countries is not None
        else set(old_world.config.countries)
    )
    overrides = derive_overrides(old_world, churn)

    pool_records = {
        domain: old_world.sites[domain]
        for domain in old_world.global_pool_domains
    }
    kept_local: dict[str, tuple] = {}
    kept_toplists: dict[str, tuple[str, ...]] = {}
    for cc in old_world.config.countries:
        local = [
            old_world.sites[d]
            for d in old_world.toplists[cc].domains
            if not old_world.sites[d].is_global
        ]
        if cc not in churned:
            # Carried byte-identically: all local records (in rank
            # order) plus the full toplist, no randomness consumed.
            kept_local[cc] = tuple(local)
            kept_toplists[cc] = tuple(old_world.toplists[cc].domains)
            continue
        rng = np.random.default_rng(
            (old_world.config.seed, churn.seed_shift, hashable_cc(cc))
        )
        n_keep = int(churn.keep_fraction * len(local))
        if n_keep:
            picks = rng.choice(len(local), size=n_keep, replace=False)
            kept_local[cc] = tuple(local[int(i)] for i in np.sort(picks))
        else:
            kept_local[cc] = ()

    plan = EvolutionPlan(
        overrides=overrides,
        pool_records=pool_records,
        pool_order=tuple(old_world.global_pool_domains),
        kept_local=kept_local,
        kept_toplists=kept_toplists,
        calibrations=old_world.calibrations,
    )
    new_config = replace(
        old_world.config,
        snapshot=churn.new_snapshot,
        seed=old_world.config.seed + churn.seed_shift,
        # Keep the template heuristics' jitter identical across
        # snapshots so that only the modeled drift moves provider
        # shares (the new seed still re-draws toplist membership).
        template_seed=old_world.config.effective_template_seed,
    )
    return World(new_config, plan=plan)


def hashable_cc(cc: str) -> int:
    """Stable per-country integer (str hash is process-randomized)."""
    import zlib

    return zlib.crc32(cc.encode())
