"""Tests for the EMD machinery, including the Appendix A equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ProviderDistribution,
    decentralized_reference,
    emd,
    emd_to_decentralized,
    pairwise_emd,
    paper_ground_distance_matrix,
    rank_share_distance_matrix,
)
from repro.errors import EmptyDistributionError, InvalidDistributionError


class TestGenericEmd:
    def test_identical_distributions_zero(self) -> None:
        a = np.array([3.0, 2.0, 1.0])
        d = np.abs(
            np.arange(3)[:, None] - np.arange(3)[None, :]
        ).astype(float)
        result = emd(a, a, d)
        assert result.work == pytest.approx(0.0, abs=1e-9)

    def test_simple_transport(self) -> None:
        # Move 1 unit a distance of 1.
        a = np.array([1.0, 0.0])
        r = np.array([0.0, 1.0])
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = emd(a, r, d)
        assert result.work == pytest.approx(1.0)
        assert result.normalized == pytest.approx(1.0)

    def test_flow_conservation(self) -> None:
        a = np.array([4.0, 2.0])
        r = np.array([1.0, 5.0])
        d = np.array([[0.0, 2.0], [3.0, 1.0]])
        result = emd(a, r, d)
        assert result.flow.sum(axis=1) == pytest.approx(a)
        assert result.flow.sum(axis=0) == pytest.approx(r)

    def test_picks_cheaper_route(self) -> None:
        a = np.array([1.0, 1.0])
        r = np.array([1.0, 1.0])
        d = np.array([[0.0, 10.0], [10.0, 0.0]])
        result = emd(a, r, d)
        assert result.work == pytest.approx(0.0, abs=1e-9)

    def test_mass_mismatch_rejected(self) -> None:
        with pytest.raises(InvalidDistributionError):
            emd([1.0, 2.0], [1.0], np.zeros((2, 1)))

    def test_bad_distance_shape_rejected(self) -> None:
        with pytest.raises(InvalidDistributionError):
            emd([1.0, 1.0], [2.0], np.zeros((3, 3)))

    def test_negative_mass_rejected(self) -> None:
        with pytest.raises(InvalidDistributionError):
            emd([-1.0, 2.0], [1.0], np.zeros((2, 1)))

    def test_empty_rejected(self) -> None:
        with pytest.raises(EmptyDistributionError):
            emd([], [1.0], np.zeros((0, 1)))


class TestPaperInstantiation:
    def test_closed_form_matches_lp_small(self) -> None:
        for counts in ([3, 2, 1], [5, 1], [2, 2, 2], [6], [1, 1, 1, 1]):
            closed = emd_to_decentralized(counts, method="closed-form")
            lp = emd_to_decentralized(counts, method="lp")
            assert closed == pytest.approx(lp, abs=1e-8), counts

    def test_closed_form_formula(self) -> None:
        # S = sum (a_i/C)^2 - 1/C for [6, 3, 1], C=10.
        expected = (0.6**2 + 0.3**2 + 0.1**2) - 0.1
        assert emd_to_decentralized([6, 3, 1]) == pytest.approx(expected)

    def test_decentralized_is_zero(self) -> None:
        # Exactly 0, as centralization_score: six shares of 1/6 square
        # and sum to just below 1/6.
        for c in (6, 50):
            assert emd_to_decentralized([1] * c) == 0.0

    def test_monopoly_reaches_upper_bound(self) -> None:
        c = 25
        assert emd_to_decentralized([c]) == pytest.approx(1 - 1 / c)

    def test_accepts_provider_distribution(self) -> None:
        dist = ProviderDistribution({"a": 6, "b": 3, "c": 1})
        assert emd_to_decentralized(dist) == pytest.approx(
            emd_to_decentralized([6, 3, 1])
        )

    def test_unknown_method(self) -> None:
        with pytest.raises(ValueError):
            emd_to_decentralized([1, 2], method="magic")

    def test_reference_distribution(self) -> None:
        ref = decentralized_reference(5)
        assert ref.tolist() == [1.0] * 5

    def test_reference_rejects_fractional(self) -> None:
        with pytest.raises(InvalidDistributionError):
            decentralized_reference(2.5)

    def test_reference_rejects_zero(self) -> None:
        with pytest.raises(EmptyDistributionError):
            decentralized_reference(0)

    def test_ground_distance_independent_of_j(self) -> None:
        d = paper_ground_distance_matrix([3, 2, 1])
        assert np.all(d == d[:, :1])
        assert d[0, 0] == pytest.approx((3 - 1) / 6)

    def test_figure2_example_ordering(self) -> None:
        """Figure 2: country B (more concentrated) scores higher."""
        country_a = [5, 3, 2]
        country_b = [6, 3, 1]
        assert emd_to_decentralized(country_b) > emd_to_decentralized(
            country_a
        )


class TestPairwiseEmd:
    def test_identical_zero(self) -> None:
        a = ProviderDistribution({"x": 5, "y": 3, "z": 2})
        result = pairwise_emd(a, a)
        assert result.normalized == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self) -> None:
        a = ProviderDistribution({"x": 8, "y": 2})
        b = ProviderDistribution({"p": 5, "q": 4, "r": 1})
        ab = pairwise_emd(a, b).normalized
        # The default rank distance matrix is not symmetric in shape,
        # but the transport cost is (transpose the matrix).
        d = rank_share_distance_matrix(2, 3)
        ba = pairwise_emd(b, a, distance=d.T).normalized
        assert ab == pytest.approx(ba, abs=1e-9)

    def test_custom_ground_distance_callable(self) -> None:
        a = ProviderDistribution({"x": 1, "y": 1})
        b = ProviderDistribution({"p": 2})
        result = pairwise_emd(
            a, b, ground_distance=lambda i, n, j, m: 1.0
        )
        assert result.normalized == pytest.approx(1.0)

    def test_rank_matrix_shape_and_bounds(self) -> None:
        d = rank_share_distance_matrix(4, 7)
        assert d.shape == (4, 7)
        assert d.min() >= 0.0
        assert d.max() <= 1.0

    def test_rank_matrix_rejects_empty(self) -> None:
        with pytest.raises(ValueError):
            rank_share_distance_matrix(0, 3)
