"""The Centralization Score ``S`` and baseline concentration measures.

``S`` formalizes centralization as the Earth Mover's Distance between an
observed provider distribution and a fully decentralized reference
distribution (Section 3.2):

.. math:: S = \\sum_i \\left(\\frac{a_i}{C}\\right)^2 - \\frac{1}{C}

which is the Herfindahl–Hirschman Index minus ``1/C``.  The module also
implements the descriptive measures from prior work (top-N share, raw
HHI) used as comparison baselines by the benchmarks, and the U.S. DOJ
concentration bands the paper suggests for interpretation.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence

import numpy as np

from ..errors import EmptyDistributionError, InvalidDistributionError
from .distributions import ProviderDistribution

__all__ = [
    "centralization_score",
    "hhi",
    "score_upper_bound",
    "ConcentrationBand",
    "interpret_score",
    "top_n_share",
    "normalized_hhi",
    "effective_providers",
    "gini",
    "lorenz_curve",
]


def _counts(
    distribution: ProviderDistribution | Sequence[float] | np.ndarray,
) -> np.ndarray:
    if isinstance(distribution, ProviderDistribution):
        return distribution.counts()
    counts = np.asarray(distribution, dtype=float)
    if counts.ndim != 1 or counts.size == 0:
        raise EmptyDistributionError("distribution must be nonempty and 1-D")
    if not np.all(np.isfinite(counts)) or np.any(counts < 0):
        raise InvalidDistributionError("counts must be nonnegative and finite")
    if counts.sum() <= 0:
        raise EmptyDistributionError("distribution has zero total mass")
    return counts


def centralization_score(
    distribution: ProviderDistribution | Sequence[float] | np.ndarray,
) -> float:
    """The paper's Centralization Score ``S``.

    ``S`` ranges from 0 (fully decentralized: every website has its own
    provider) to ``1 - 1/C`` (one provider serves everything).  Larger
    values mean more work would be needed to "flatten" the observed
    distribution into the decentralized reference, i.e. more
    centralization.

    Examples
    --------
    >>> centralization_score([1, 1, 1, 1])  # fully decentralized
    0.0
    >>> round(centralization_score([4]), 4)  # a single provider
    0.75
    """
    counts = _counts(distribution)
    return float(_hhi(counts) - 1.0 / counts.sum())


def hhi(
    distribution: ProviderDistribution | Sequence[float] | np.ndarray,
) -> float:
    """The Herfindahl–Hirschman Index ``sum (a_i / C)^2``.

    Equals ``centralization_score + 1/C``; exposed separately because
    antitrust practice and two prior DNS studies report raw HHI.
    """
    return _hhi(_counts(distribution))


def _hhi(counts: np.ndarray) -> float:
    """``sum (a_i / C)^2``, exactly ``1/n`` when the ``n`` nonzero
    counts are all equal.

    The dot product of ``n`` shares of ``1/n`` rounds off ``1/n`` for
    most ``n``, which would score a fully decentralized distribution
    a few 1e-17 off 0, sometimes below it.  The exact case depends on
    shape, not scale, so ``hhi(k * x) == hhi(x)`` still holds.  Every
    other integer distribution scores at least ``2/C^2``, far above
    rounding.
    """
    nonzero = counts[counts > 0]
    if nonzero.min() == nonzero.max():
        return 1.0 / nonzero.size
    shares = counts / counts.sum()
    return float(np.dot(shares, shares))


def score_upper_bound(total: float) -> float:
    """Maximum attainable ``S`` for a slice of ``total`` websites.

    Reached when a single provider serves every website; approaches 1 as
    ``C`` grows (Section 3.2).
    """
    if total <= 0:
        raise EmptyDistributionError("total must be positive")
    return 1.0 - 1.0 / float(total)


class ConcentrationBand(enum.Enum):
    """U.S. DOJ Horizontal Merger Guidelines interpretation bands.

    The paper deliberately does not define its own cutoff for
    "centralized" but points to these antitrust bands as context for how
    other fields interpret concentration values (Section 3.2).
    """

    COMPETITIVE = "competitive"
    MODERATELY_CONCENTRATED = "moderately concentrated"
    HIGHLY_CONCENTRATED = "highly concentrated"


#: DOJ band boundaries on the HHI scale used by the paper (0.10 / 0.18).
_BAND_EDGES = (0.10, 0.18)


def interpret_score(value: float) -> ConcentrationBand:
    """Map an ``S`` (or HHI) value onto the DOJ concentration bands.

    ``< 0.10`` competitive, ``0.10–0.18`` moderately concentrated,
    ``> 0.18`` highly concentrated.
    """
    if not math.isfinite(value) or value < 0:
        raise InvalidDistributionError(
            f"score must be a nonnegative finite number, got {value!r}"
        )
    if value < _BAND_EDGES[0]:
        return ConcentrationBand.COMPETITIVE
    if value <= _BAND_EDGES[1]:
        return ConcentrationBand.MODERATELY_CONCENTRATED
    return ConcentrationBand.HIGHLY_CONCENTRATED


def top_n_share(
    distribution: ProviderDistribution | Sequence[float] | np.ndarray,
    n: int,
) -> float:
    """The prior-work "top-N providers' market share" heuristic.

    Captures a single point of the distribution; Figure 1 shows why it
    can be misleading (Azerbaijan vs. Hong Kong).  Kept as a baseline.
    """
    if isinstance(distribution, ProviderDistribution):
        return distribution.top_n_share(n)
    counts = _counts(distribution)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    ordered = np.sort(counts)[::-1]
    return float(ordered[:n].sum() / counts.sum())


def normalized_hhi(
    distribution: ProviderDistribution | Sequence[float] | np.ndarray,
) -> float:
    """HHI rescaled to [0, 1] by the number of *providers* ``n``.

    ``(HHI - 1/n) / (1 - 1/n)``.  This is the classical economics
    normalization; note it differs from ``S`` (which normalizes against
    the number of *websites* ``C``) and therefore does **not** satisfy
    the paper's requirement (3) of being independent of provider count.
    Included so benchmarks can contrast the two normalizations.
    """
    counts = _counts(distribution)
    n = counts.size
    if n == 1:
        return 1.0
    h = hhi(counts)
    return float((h - 1.0 / n) / (1.0 - 1.0 / n))


def effective_providers(
    distribution: ProviderDistribution | Sequence[float] | np.ndarray,
) -> float:
    """Inverse-HHI "numbers equivalent": how many equal-size providers
    would produce the same concentration.

    A readable companion statistic for reports: Thailand's hosting layer
    behaves like ~3 equal providers while Iran's behaves like ~24.
    """
    return 1.0 / hhi(distribution)


def gini(
    distribution: ProviderDistribution | Sequence[float] | np.ndarray,
) -> float:
    """Gini coefficient of the provider size distribution.

    An inequality baseline for the design-space comparison: unlike
    ``S``, the Gini is invariant to how much of the market the top
    providers hold *in absolute terms* — a market of two equal giants
    and a market of 10,000 equal boutiques both score 0 — so it fails
    the paper's requirement (1) of capturing provider count.  Included
    so studies can report it alongside ``S``.
    """
    counts = np.sort(_counts(distribution))
    n = counts.size
    if n == 1:
        return 0.0
    ranks = np.arange(1, n + 1)
    total = counts.sum()
    return float((2.0 * np.sum(ranks * counts)) / (n * total) - (n + 1) / n)


def lorenz_curve(
    distribution: ProviderDistribution | Sequence[float] | np.ndarray,
    points: int = 101,
) -> tuple[np.ndarray, np.ndarray]:
    """Lorenz curve of market share vs provider fraction.

    Returns ``(x, y)`` arrays where ``y[i]`` is the share of websites
    served by the smallest ``x[i]`` fraction of providers — the curve
    whose deviation from the diagonal the Gini summarizes.
    """
    if points < 2:
        raise InvalidDistributionError(
            f"lorenz curve needs at least 2 points, got {points}"
        )
    counts = np.sort(_counts(distribution))
    cumulative = np.concatenate([[0.0], np.cumsum(counts)])
    cumulative /= cumulative[-1]
    x = np.linspace(0.0, 1.0, points)
    positions = x * counts.size
    y = np.interp(positions, np.arange(counts.size + 1), cumulative)
    return x, y
