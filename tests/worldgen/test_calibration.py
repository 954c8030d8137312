"""Tests for the power-transform calibration solver and tail builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CalibrationError, InvalidDistributionError
from repro.worldgen import (
    calibrate_shares,
    geometric_tail,
    power_transform,
    score_of_shares,
    solve_theta,
)


class TestPowerTransform:
    def test_identity_at_one(self) -> None:
        shares = np.array([0.5, 0.3, 0.2])
        assert power_transform(shares, 1.0) == pytest.approx(shares)

    def test_concentrates_above_one(self) -> None:
        shares = np.array([0.5, 0.3, 0.2])
        out = power_transform(shares, 2.0)
        assert out[0] > shares[0]
        assert out.sum() == pytest.approx(1.0)

    def test_flattens_below_one(self) -> None:
        shares = np.array([0.5, 0.3, 0.2])
        out = power_transform(shares, 0.5)
        assert out[0] < shares[0]

    def test_preserves_order(self) -> None:
        shares = np.array([0.5, 0.3, 0.2])
        for theta in (0.2, 0.7, 1.5, 4.0):
            out = power_transform(shares, theta)
            assert np.all(np.diff(out) <= 1e-12)

    def test_rejects_nonpositive_theta(self) -> None:
        with pytest.raises(InvalidDistributionError):
            power_transform(np.array([0.5, 0.5]), 0.0)

    def test_score_monotone_in_theta(self) -> None:
        rng = np.random.default_rng(3)
        shares = rng.dirichlet(np.ones(50))
        thetas = np.linspace(0.1, 6.0, 25)
        scores = [
            score_of_shares(power_transform(shares, t), 1000)
            for t in thetas
        ]
        assert np.all(np.diff(scores) >= -1e-12)

    def test_numerical_stability_tiny_shares(self) -> None:
        shares = np.array([0.9] + [1e-12] * 10)
        shares = shares / shares.sum()
        out = power_transform(shares, 5.0)
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0)


class TestSolver:
    def test_hits_target_exactly(self) -> None:
        rng = np.random.default_rng(0)
        shares = rng.dirichlet(np.ones(200) * 0.5)
        for target in (0.02, 0.1, 0.25, 0.5):
            outcome = calibrate_shares(shares, target, 10_000)
            assert outcome.achieved_score == pytest.approx(
                target, abs=1e-6
            )
            assert outcome.error < 1e-6

    def test_clamps_at_bounds(self) -> None:
        # Nearly uniform template cannot reach a huge score within the
        # theta range; the solver returns the bound.
        shares = np.array([0.6, 0.4])
        theta = solve_theta(shares, 0.99, 1000)
        assert theta == pytest.approx(12.0)

    def test_uniform_template_rejected(self) -> None:
        with pytest.raises(CalibrationError):
            solve_theta(np.full(10, 0.1), 0.2, 1000)

    def test_rejects_zero_shares(self) -> None:
        with pytest.raises(InvalidDistributionError):
            solve_theta(np.array([0.5, 0.5, 0.0]), 0.2, 1000)

    def test_rejects_bad_target(self) -> None:
        with pytest.raises(InvalidDistributionError):
            solve_theta(np.array([0.6, 0.4]), 1.5, 1000)

    def test_theta_direction(self) -> None:
        shares = np.array([0.4, 0.3, 0.2, 0.1])
        current = score_of_shares(shares, 1000)
        up = solve_theta(shares, current + 0.1, 1000)
        down = solve_theta(shares, max(current - 0.05, 0.001), 1000)
        assert up > 1.0 > down

    def test_outcome_repr(self) -> None:
        outcome = calibrate_shares(np.array([0.7, 0.2, 0.1]), 0.3, 1000)
        assert "theta" in repr(outcome)


class TestGeometricTail:
    def test_mass_conserved(self) -> None:
        tail = geometric_tail(0.4, 0.01, 1e-4)
        assert sum(tail) == pytest.approx(0.4, abs=1e-9)

    def test_squared_sum_near_target(self) -> None:
        tail = geometric_tail(0.5, 0.02, 1e-4)
        got = sum(s * s for s in tail)
        assert got == pytest.approx(0.02, rel=0.2)

    def test_clamps_to_singleton_floor(self) -> None:
        # Ask for less concentration than all-singletons allows.
        unit = 0.01
        tail = geometric_tail(0.5, 1e-9, unit)
        got = sum(s * s for s in tail)
        assert got == pytest.approx(0.5 * unit, rel=0.4)

    def test_clamps_to_monopoly_ceiling(self) -> None:
        tail = geometric_tail(0.5, 10.0, 0.001)
        assert max(tail) <= 0.5 + 1e-9

    def test_zero_mass(self) -> None:
        assert geometric_tail(0.0, 0.1, 0.001) == []

    def test_rejects_bad_unit(self) -> None:
        with pytest.raises(InvalidDistributionError):
            geometric_tail(0.5, 0.01, 0.0)
        with pytest.raises(InvalidDistributionError):
            geometric_tail(0.5, 0.01, -0.1)

    def test_sub_site_mass_is_one_entry(self) -> None:
        # A tail lighter than one site (small worlds) is kept whole.
        assert geometric_tail(0.5, 0.01, 0.6) == [0.5]

    def test_no_entry_below_unit(self) -> None:
        unit = 1e-3
        tail = geometric_tail(0.3, 0.005, unit)
        assert min(tail) >= unit - 1e-12
