"""Correlation and set-similarity statistics used throughout the paper.

Pearson's ``rho`` (with p-values) compares rank-ordered sequences of
scores — e.g. centralization vs. XL-GP share (Section 5.2), Stanford vs.
RIPE vantage points (Section 3.4), or 2023 vs. 2025 snapshots
(Section 5.4).  Interpretation follows Akoglu's user's guide, the
guideline the paper cites: <0.30 poor, 0.30–0.60 fair, 0.60–0.80
moderate, >0.80 strong.  The Jaccard index measures toplist churn.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidDistributionError

__all__ = [
    "CorrelationStrength",
    "CorrelationResult",
    "pearson",
    "spearman",
    "interpret_correlation",
    "jaccard_index",
]


class CorrelationStrength(enum.Enum):
    """Akoglu (2018) interpretation bands for correlation coefficients."""

    POOR = "poor"
    FAIR = "fair"
    MODERATE = "moderate"
    STRONG = "strong"


def interpret_correlation(rho: float) -> CorrelationStrength:
    """Label a correlation coefficient per the paper's guidelines.

    The bands apply to the magnitude: a coefficient of -0.72 is a
    moderate (negative) correlation.
    """
    magnitude = abs(rho)
    if not math.isfinite(magnitude) or magnitude > 1 + 1e-9:
        raise InvalidDistributionError(
            f"correlation coefficient must be in [-1, 1], got {rho!r}"
        )
    if magnitude < 0.30:
        return CorrelationStrength.POOR
    if magnitude < 0.60:
        return CorrelationStrength.FAIR
    if magnitude < 0.80:
        return CorrelationStrength.MODERATE
    return CorrelationStrength.STRONG


@dataclass(frozen=True, slots=True)
class CorrelationResult:
    """A correlation coefficient with its p-value and strength band."""

    rho: float
    p_value: float
    strength: CorrelationStrength
    n: int

    @property
    def significant(self) -> bool:
        """True when p < 0.05, the paper's significance level."""
        return self.p_value < 0.05

    def __str__(self) -> str:
        p_text = "p<<0.05" if self.p_value < 1e-6 else f"p={self.p_value:.3g}"
        return f"rho={self.rho:.2f} ({p_text}, {self.strength.value}, n={self.n})"


def _paired_arrays(
    x: Sequence[float], y: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1 or xa.size != ya.size:
        raise InvalidDistributionError(
            "correlation inputs must be 1-D sequences of equal length"
        )
    if xa.size < 3:
        raise InvalidDistributionError(
            f"need at least 3 paired observations, got {xa.size}"
        )
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise InvalidDistributionError("correlation inputs must be finite")
    return xa, ya


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Pearson's correlation coefficient with two-sided p-value."""
    xa, ya = _paired_arrays(x, y)
    if np.ptp(xa) == 0 or np.ptp(ya) == 0:
        raise InvalidDistributionError(
            "correlation undefined for a constant sequence"
        )
    # Imported here: scipy.stats costs most of a second and a few dozen
    # MB, and only the correlation analyses need it.
    from scipy import stats

    result = stats.pearsonr(xa, ya)
    rho = float(result.statistic)
    return CorrelationResult(
        rho=rho,
        p_value=float(result.pvalue),
        strength=interpret_correlation(rho),
        n=xa.size,
    )


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman's rank correlation with two-sided p-value."""
    xa, ya = _paired_arrays(x, y)
    if np.ptp(xa) == 0 or np.ptp(ya) == 0:
        raise InvalidDistributionError(
            "correlation undefined for a constant sequence"
        )
    from scipy import stats

    rho, p_value = stats.spearmanr(xa, ya)
    rho = float(rho)
    return CorrelationResult(
        rho=rho,
        p_value=float(p_value),
        strength=interpret_correlation(rho),
        n=xa.size,
    )


def jaccard_index(left: Iterable[str], right: Iterable[str]) -> float:
    """Jaccard similarity ``|A ∩ B| / |A ∪ B|`` between two sets.

    Used in Section 5.4 to quantify toplist churn between the May 2023
    and May 2025 snapshots (average across countries: ≈0.37).  Two empty
    sets are defined as identical (1.0).
    """
    a, b = set(left), set(right)
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)
