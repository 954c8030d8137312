"""Calibration solvers: hitting a target Centralization Score exactly.

The world generator builds a *template* share vector per (country,
layer) from anchored heuristics, then calibrates it to the published
score with a monotone one-parameter family: raising shares to a power
``theta`` and renormalizing.  ``theta > 1`` concentrates the
distribution (S grows); ``theta < 1`` flattens it (S shrinks); the map
``theta -> S`` is strictly increasing whenever the shares are not all
equal, so a plain bisection suffices.

A second helper synthesizes long-tail share mass with a prescribed
contribution to the sum of squares, using the geometric family's
closed-form inverse (the same family behind Figure 3).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..errors import CalibrationError, InvalidDistributionError

__all__ = [
    "power_transform",
    "score_of_shares",
    "solve_theta",
    "calibrate_shares",
    "geometric_tail",
    "CalibrationOutcome",
]


def score_of_shares(shares: np.ndarray, total_sites: int) -> float:
    """Centralization Score of a normalized share vector at scale C."""
    return float(shares @ shares - 1.0 / total_sites)


def power_transform(shares: np.ndarray, theta: float) -> np.ndarray:
    """``normalize(shares ** theta)`` computed in log space for stability."""
    if theta <= 0:
        raise InvalidDistributionError(f"theta must be positive, got {theta}")
    logs = theta * np.log(shares)
    logs -= logs.max()
    v = np.exp(logs)
    return v / v.sum()


def _validate_shares(shares: Sequence[float] | np.ndarray) -> np.ndarray:
    v = np.asarray(shares, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidDistributionError("shares must be a nonempty 1-D array")
    if np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise InvalidDistributionError(
            "template shares must be strictly positive and finite"
        )
    return v / v.sum()


def solve_theta(
    shares: Sequence[float] | np.ndarray,
    target_score: float,
    total_sites: int,
    *,
    lo: float = 0.05,
    hi: float = 12.0,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Bisection for the power that calibrates shares to a target S.

    Returns the clamped bound when the target lies outside the
    attainable range (the caller decides whether the residual error is
    acceptable); raises :class:`CalibrationError` only for degenerate
    templates (all shares equal, so ``theta`` has no effect).
    """
    v = _validate_shares(shares)
    if not 0.0 <= target_score < 1.0:
        raise InvalidDistributionError(
            f"target score must be in [0, 1), got {target_score}"
        )
    if np.allclose(v, v[0]):
        raise CalibrationError(
            "template is uniform; the power family cannot move its score"
        )

    def s_of(theta: float) -> float:
        return score_of_shares(power_transform(v, theta), total_sites)

    s_lo, s_hi = s_of(lo), s_of(hi)
    if target_score <= s_lo:
        return lo
    if target_score >= s_hi:
        return hi
    a, b = lo, hi
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        if s_of(mid) < target_score:
            a = mid
        else:
            b = mid
        if b - a < tol:
            break
    return 0.5 * (a + b)


class CalibrationOutcome:
    """Calibrated shares plus diagnostics."""

    __slots__ = ("shares", "theta", "achieved_score", "target_score")

    def __init__(
        self,
        shares: np.ndarray,
        theta: float,
        achieved_score: float,
        target_score: float,
    ) -> None:
        self.shares = shares
        self.theta = theta
        self.achieved_score = achieved_score
        self.target_score = target_score

    @property
    def error(self) -> float:
        """Absolute difference between achieved and target score."""
        return abs(self.achieved_score - self.target_score)

    def __repr__(self) -> str:
        return (
            f"CalibrationOutcome(theta={self.theta:.4f}, "
            f"S={self.achieved_score:.4f} -> target {self.target_score:.4f})"
        )


def calibrate_shares(
    shares: Sequence[float] | np.ndarray,
    target_score: float,
    total_sites: int,
) -> CalibrationOutcome:
    """Calibrate a template share vector to a target score."""
    v = _validate_shares(shares)
    theta = solve_theta(v, target_score, total_sites)
    calibrated = power_transform(v, theta)
    return CalibrationOutcome(
        shares=calibrated,
        theta=theta,
        achieved_score=score_of_shares(calibrated, total_sites),
        target_score=target_score,
    )


def geometric_tail(
    mass: float,
    squared_sum: float,
    unit: float,
) -> list[float]:
    """Share tail with total ``mass`` and ``sum(share^2) ≈ squared_sum``.

    ``unit`` is the share of a single website (``1/C``): the tail never
    contains entries smaller than one site, except that a tail lighter
    than one site (small worlds) is its own single entry.  Within the
    tail, shares follow the geometric family whose parameter is solved
    from the normalized concentration ``h = squared_sum / mass^2`` via
    ``p = 2h / (1 + h)``; residual mass becomes single-site entries.

    The attainable concentration is clamped to ``[mass * unit, mass^2]``
    (all-singletons ... single-provider).
    """
    if mass <= 0:
        return []
    if unit <= 0:
        raise InvalidDistributionError(f"unit {unit} must be positive")
    if unit > mass:
        return [mass]
    floor = mass * unit  # every site its own provider
    squared_sum = min(max(squared_sum, floor), mass * mass)
    h = squared_sum / (mass * mass)
    p = 2.0 * h / (1.0 + h)

    shares: list[float] = []
    current = p * mass
    # Truncate once entries fall below one site's share.
    while current >= unit and len(shares) * unit < mass:
        shares.append(current)
        current *= 1.0 - p
        if current <= 0.0:
            break
    allocated = sum(shares)
    remaining = mass - allocated
    n_singletons = max(0, int(math.floor(remaining / unit + 1e-9)))
    shares.extend([unit] * n_singletons)
    leftover = mass - sum(shares)
    if leftover > 1e-12 and shares:
        # Fold rounding residue into the largest entry.
        shares[0] += leftover
    return shares
