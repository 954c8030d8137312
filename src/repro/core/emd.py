"""Earth Mover's Distance (Wasserstein distance) machinery.

This module implements the statistical core of the paper in three forms:

1. :func:`emd` — the fully general discrete EMD of Appendix A: given two
   piles of mass and an arbitrary ground-distance matrix, solve the
   transportation linear program exactly (scipy's HiGHS solver) and
   return the minimum work and the optimal flow.
2. :func:`emd_to_decentralized` — the paper's instantiation: the
   reference distribution is the fully decentralized one (every website
   on its own provider) with the vertical-difference ground distance
   ``d_ij = (a_i - 1) / C``.  Because the distance does not depend on
   ``j``, the optimal flow is trivial and the EMD has the closed form

   .. math:: S = \\sum_i (a_i / C)^2 - 1/C

   derived in Appendix A.  The generic LP and this closed form agree;
   a property-based test in ``tests/core/test_emd.py`` checks that.
3. :func:`pairwise_emd` — the "future work" customization from
   Section 3.2: compare two observed country distributions directly
   (shape-to-shape) rather than against the decentralized reference.

The transportation LP is exponentially sized in ``C`` for the paper's
reference distribution (10,000 buckets), so :func:`emd_to_decentralized`
defaults to the closed form and only runs the LP when explicitly asked
(for validation at small sizes).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ..errors import EmptyDistributionError, InvalidDistributionError
from .centralization import centralization_score
from .distributions import ProviderDistribution

__all__ = [
    "EmdResult",
    "emd",
    "emd_to_decentralized",
    "decentralized_reference",
    "paper_ground_distance_matrix",
    "pairwise_emd",
    "rank_share_distance_matrix",
]


@dataclass(frozen=True, slots=True)
class EmdResult:
    """Outcome of an exact EMD computation.

    Attributes
    ----------
    work:
        Total transport work ``sum_ij f_ij * d_ij`` of the optimal flow.
    normalized:
        Work divided by total flow — the EMD value on the ``[0, 1]``
        scale when all ground distances are in ``[0, 1]``.
    flow:
        The optimal flow matrix ``f_ij`` (rows: source piles, columns:
        destination piles).
    """

    work: float
    normalized: float
    flow: np.ndarray


def _validate_masses(masses: np.ndarray, name: str) -> np.ndarray:
    masses = np.asarray(masses, dtype=float)
    if masses.ndim != 1 or masses.size == 0:
        raise EmptyDistributionError(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(masses)) or np.any(masses < 0):
        raise InvalidDistributionError(
            f"{name} must contain nonnegative finite masses"
        )
    if masses.sum() <= 0:
        raise EmptyDistributionError(f"{name} has zero total mass")
    return masses


def emd(
    source: Sequence[float] | np.ndarray,
    target: Sequence[float] | np.ndarray,
    distance: np.ndarray,
) -> EmdResult:
    """Solve the discrete transportation problem exactly.

    Parameters
    ----------
    source, target:
        Nonnegative masses; their totals must match (up to a relative
        tolerance of 1e-9), matching Appendix A's simplifying assumption
        ``sum a_i == sum r_j``.
    distance:
        Ground distance matrix of shape ``(len(source), len(target))``.

    Returns
    -------
    EmdResult
        Minimum work, normalized EMD, and the optimal flow.
    """
    a = _validate_masses(np.asarray(source), "source")
    r = _validate_masses(np.asarray(target), "target")
    d = np.asarray(distance, dtype=float)
    if d.shape != (a.size, r.size):
        raise InvalidDistributionError(
            f"distance matrix shape {d.shape} does not match "
            f"({a.size}, {r.size})"
        )
    if not np.isclose(a.sum(), r.sum(), rtol=1e-9):
        raise InvalidDistributionError(
            f"total source mass {a.sum()} != total target mass {r.sum()}"
        )

    n, m = a.size, r.size
    # Row constraints: sum_j f_ij == a_i; column constraints: sum_i f_ij == r_j.
    # One constraint is redundant (totals match) but HiGHS copes fine.
    row_idx = np.repeat(np.arange(n), m)
    col_idx = np.tile(np.arange(m), n)
    n_vars = n * m

    a_eq = np.zeros((n + m, n_vars))
    a_eq[row_idx, np.arange(n_vars)] = 1.0
    a_eq[n + col_idx, np.arange(n_vars)] = 1.0
    b_eq = np.concatenate([a, r])

    result = linprog(
        c=d.ravel(),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if not result.success:  # pragma: no cover - defensive
        raise InvalidDistributionError(
            f"transportation LP failed: {result.message}"
        )
    flow = result.x.reshape(n, m)
    work = float(result.fun)
    return EmdResult(work=work, normalized=work / float(a.sum()), flow=flow)


def decentralized_reference(total: float) -> np.ndarray:
    """The fully decentralized reference distribution ``R``.

    ``C`` buckets each holding exactly one website.  ``total`` must be a
    whole number of websites (the reference is defined per-website).
    """
    count = int(round(total))
    if count <= 0:
        raise EmptyDistributionError("reference needs at least one website")
    if abs(total - count) > 1e-9:
        raise InvalidDistributionError(
            f"decentralized reference requires an integer site count, "
            f"got {total}"
        )
    return np.ones(count, dtype=float)


def paper_ground_distance_matrix(
    counts: Sequence[float] | np.ndarray, total: float | None = None
) -> np.ndarray:
    """The paper's ground distance ``d_ij = (a_i - 1) / C``.

    The distance a website must "travel" from provider ``i`` toward any
    unit bucket of the decentralized reference: the vertical height
    difference between ``a_i`` and 1, normalized by the total number of
    sites.  Independent of ``j`` by construction.
    """
    a = _validate_masses(np.asarray(counts), "counts")
    c = float(a.sum()) if total is None else float(total)
    column = (a - 1.0) / c
    return np.repeat(column[:, None], int(round(c)), axis=1)


def emd_to_decentralized(
    distribution: ProviderDistribution | Sequence[float] | np.ndarray,
    *,
    method: str = "closed-form",
) -> float:
    """EMD from an observed distribution to the decentralized reference.

    This is the paper's Centralization Score ``S`` (Section 3.2).

    Parameters
    ----------
    distribution:
        A :class:`ProviderDistribution` or raw count sequence.
    method:
        ``"closed-form"`` (default) evaluates ``sum (a_i/C)^2 - 1/C``
        directly, as :func:`~repro.core.centralization_score` does.
        ``"lp"`` materializes the full reference and solves the
        transportation LP — exponentially bigger, intended only for
        validating the closed form at small ``C``.
    """
    if method == "closed-form":
        return centralization_score(distribution)
    if method != "lp":
        raise ValueError(
            f"unknown method {method!r}; use 'closed-form' or 'lp'"
        )
    if isinstance(distribution, ProviderDistribution):
        counts = distribution.counts()
    else:
        counts = _validate_masses(np.asarray(distribution), "distribution")
    c = counts.sum()
    reference = decentralized_reference(c)
    distance = paper_ground_distance_matrix(counts, c)
    return emd(counts, reference, distance).normalized


def rank_share_distance_matrix(n: int, m: int) -> np.ndarray:
    """A simple rank-difference ground distance for pairwise comparisons.

    ``d_ij = |i/n - j/m|``: how far apart two provider *ranks* are on a
    normalized rank axis.  A reasonable default for the Section 3.2
    extension of comparing two countries' shapes directly.
    """
    if n <= 0 or m <= 0:
        raise ValueError("distance matrix dimensions must be positive")
    i = np.arange(n, dtype=float)[:, None] / n
    j = np.arange(m, dtype=float)[None, :] / m
    return np.abs(i - j)


def pairwise_emd(
    left: ProviderDistribution,
    right: ProviderDistribution,
    distance: np.ndarray | None = None,
    ground_distance: Callable[[int, int, int, int], float] | None = None,
) -> EmdResult:
    """Compare two observed country distributions directly.

    Shares (not raw counts) are transported so that countries with
    different toplist lengths remain comparable.  By default the
    rank-share ground distance is used; callers can pass either a full
    ``distance`` matrix or a ``ground_distance(i, n, j, m)`` callable.
    """
    a = left.shares()
    r = right.shares()
    if distance is None:
        if ground_distance is None:
            distance = rank_share_distance_matrix(a.size, r.size)
        else:
            distance = np.array(
                [
                    [ground_distance(i, a.size, j, r.size) for j in range(r.size)]
                    for i in range(a.size)
                ],
                dtype=float,
            )
    return emd(a, r, distance)
