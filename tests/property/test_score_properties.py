"""Property-based tests for the Centralization Score invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    centralization_score,
    emd_to_decentralized,
    hhi,
    score_upper_bound,
    top_n_share,
)

counts_lists = st.lists(
    st.integers(min_value=1, max_value=500), min_size=1, max_size=60
)

small_counts = st.lists(
    st.integers(min_value=1, max_value=6), min_size=1, max_size=6
)


class TestScoreInvariants:
    @given(counts_lists)
    def test_bounds(self, counts: list[int]) -> None:
        s = centralization_score(counts)
        total = sum(counts)
        assert -1e-12 <= s <= score_upper_bound(total) + 1e-12

    @given(counts_lists)
    def test_hhi_identity(self, counts: list[int]) -> None:
        assert centralization_score(counts) == (
            hhi(counts) - 1.0 / sum(counts)
        )

    @given(counts_lists)
    def test_permutation_invariance(self, counts: list[int]) -> None:
        shuffled = list(reversed(counts))
        assert centralization_score(counts) == pytest.approx(
            centralization_score(shuffled), abs=1e-12
        )

    @given(counts_lists, st.integers(min_value=0, max_value=59))
    def test_merge_increases_score(
        self, counts: list[int], index: int
    ) -> None:
        """Consolidating any two providers never decreases S (the
        transfer principle behind requirement (1))."""
        if len(counts) < 2:
            return
        i = index % (len(counts) - 1)
        merged = counts[:i] + [counts[i] + counts[i + 1]] + counts[i + 2 :]
        assert centralization_score(merged) >= centralization_score(
            counts
        ) - 1e-12

    @given(counts_lists)
    def test_splitting_monopoly_decreases(self, counts: list[int]) -> None:
        total = sum(counts)
        monopoly = centralization_score([total])
        assert centralization_score(counts) <= monopoly + 1e-12

    @given(counts_lists)
    def test_adding_singleton_tail_decreases(
        self, counts: list[int]
    ) -> None:
        """Adding one single-site provider cannot raise centralization."""
        extended = counts + [1]
        assert centralization_score(extended) <= centralization_score(
            counts
        ) + 1e-12

    @given(counts_lists)
    # Sizes whose shares' dot product rounds off 1/C (below it for 6).
    @example([1] * 5)
    @example([1] * 6)
    @example([1] * 10)
    def test_zero_iff_all_singletons(self, counts: list[int]) -> None:
        s = centralization_score(counts)
        if all(c == 1 for c in counts):
            assert s == 0.0
        else:
            assert s > 0.0

    @given(counts_lists, st.integers(min_value=1, max_value=10))
    def test_top_n_share_monotone_in_n(
        self, counts: list[int], n: int
    ) -> None:
        assert top_n_share(counts, n) <= top_n_share(counts, n + 1) + 1e-12

    @settings(deadline=None, max_examples=30)
    @given(small_counts)
    def test_closed_form_equals_lp(self, counts: list[int]) -> None:
        """Appendix A, executably: the closed form equals the exact
        transportation LP for every small distribution."""
        closed = emd_to_decentralized(counts, method="closed-form")
        lp = emd_to_decentralized(counts, method="lp")
        assert abs(closed - lp) < 1e-7

    @given(counts_lists)
    # Equal counts take HHI's exact 1/n case at every scale.
    @example([1] * 5)
    @example([1] * 6)
    def test_scale_invariance_of_shape(self, counts: list[int]) -> None:
        """Multiplying all counts by a constant leaves HHI unchanged
        (requirement (3): comparisons depend on shape, not scale)."""
        scaled = [c * 7 for c in counts]
        assert hhi(counts) == np.float64(hhi(scaled))
