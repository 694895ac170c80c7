"""Tests for spatial/temporal distributions and the Section 2 predicates."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.distributions import (
    canonical_temporal_distribution,
    conflict_count,
    ctp_period,
    first_conflict,
    is_conflict_free,
    is_t_matched,
    spatial_distribution,
    temporal_distribution,
    vector_is_t_matched,
)
from repro.core.vector import VectorAccess
from repro.errors import VectorSpecError


class TestSpatialDistribution:
    def test_counts_sum_to_length(self, matched_mapping):
        vector = VectorAccess(3, 12, 128)
        distribution = spatial_distribution(matched_mapping, vector)
        assert sum(distribution) == 128
        assert len(distribution) == 8

    def test_stride_one_perfectly_even(self, matched_mapping):
        vector = VectorAccess(0, 1, 128)
        assert spatial_distribution(matched_mapping, vector) == [16] * 8

    def test_out_of_window_family_clusters(self, matched_mapping):
        # Family x = s + 2 visits only ceil(2**(t-2)) = 2 modules.
        vector = VectorAccess(0, 1 << 6, 128)
        distribution = spatial_distribution(matched_mapping, vector)
        assert sum(1 for count in distribution if count > 0) == 2


class TestTMatched:
    def test_even_distribution_matched(self):
        assert is_t_matched([16] * 8, 8)

    def test_clustered_distribution_not_matched(self):
        assert not is_t_matched([64, 64, 0, 0, 0, 0, 0, 0], 8)

    def test_boundary_exact(self):
        # Exactly L/T per module in T modules is still T-matched.
        assert is_t_matched([16, 16, 16, 16, 16, 16, 16, 16], 8)
        assert not is_t_matched([17, 15, 16, 16, 16, 16, 16, 16], 8)

    def test_invalid_ratio(self):
        with pytest.raises(VectorSpecError):
            is_t_matched([1, 1], 0)

    def test_lemma3_families(self, matched_mapping):
        """Families 0..s give T-matched vectors; beyond s they do not
        (Lemma 3 + Theorem 1 for L = 2**lambda, lambda - t >= s)."""
        for family in range(5):
            vector = VectorAccess(13, 3 * (1 << family), 128)
            assert vector_is_t_matched(matched_mapping, vector, 8)
        for family in (5, 6, 8):
            vector = VectorAccess(13, 3 * (1 << family), 128)
            assert not vector_is_t_matched(matched_mapping, vector, 8)


class TestConflictFree:
    def test_all_distinct_window(self):
        assert is_conflict_free([0, 1, 2, 3, 0, 1, 2, 3], 4)

    def test_repeat_within_window(self):
        assert not is_conflict_free([0, 1, 0, 3], 4)

    def test_exactly_t_apart_is_free(self):
        assert is_conflict_free([0, 1, 2, 0, 1, 2], 3)

    def test_t_minus_one_apart_conflicts(self):
        assert not is_conflict_free([0, 1, 0], 3)

    def test_t_one_never_conflicts(self):
        assert is_conflict_free([5, 5, 5, 5], 1)

    def test_invalid_ratio(self):
        with pytest.raises(VectorSpecError):
            is_conflict_free([0], 0)

    def test_tuple_and_range_input_agree_with_list_input(self):
        # The batch engine passes module_sequence output straight in,
        # so any int sequence must give the list verdict.
        for modules in ([0, 1, 2, 3, 0, 1, 2, 3], [0, 1, 0, 2], [5], []):
            for service in (2, 4, 8):
                want = is_conflict_free(list(modules), service)
                assert is_conflict_free(tuple(modules), service) == want
        for service in (2, 4, 8):
            for length in (1, 4, 8, 16):
                modules = range(0, 3 * length, 3)
                want = is_conflict_free(list(modules), service)
                assert is_conflict_free(modules, service) == want

    @given(
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=64),
        st.integers(min_value=1, max_value=8),
    )
    def test_matches_bruteforce(self, modules, ratio):
        brute = all(
            modules[i] != modules[j]
            for i in range(len(modules))
            for j in range(max(0, i - ratio + 1), i)
        )
        assert is_conflict_free(modules, ratio) == brute

    @given(
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=64),
        st.integers(min_value=1, max_value=8),
    )
    def test_first_conflict_consistency(self, modules, ratio):
        position = first_conflict(modules, ratio)
        if position is None:
            assert is_conflict_free(modules, ratio)
            assert conflict_count(modules, ratio) == 0
        else:
            assert not is_conflict_free(modules, ratio)
            assert is_conflict_free(modules[:position], ratio)
            assert conflict_count(modules, ratio) >= 1


class TestCanonicalDistribution:
    def test_paper_example(self, figure3_mapping):
        vector = VectorAccess(16, 12, 64)
        ctp = canonical_temporal_distribution(figure3_mapping, vector)
        assert ctp[:16] == [2, 7, 5, 2, 0, 5, 3, 0, 6, 3, 1, 6, 4, 1, 7, 4]
        # The period repeats 4 times over the vector.
        assert ctp == ctp[:16] * 4

    def test_temporal_distribution_with_order(self, figure3_mapping):
        vector = VectorAccess(16, 12, 16)
        order = list(range(0, 16, 2)) + list(range(1, 16, 2))
        modules = temporal_distribution(figure3_mapping, vector, order)
        assert modules[:8] == [2, 5, 0, 3, 6, 1, 4, 7]
        assert modules[8:] == [7, 2, 5, 0, 3, 6, 1, 4]


class TestCtpPeriod:
    def test_period_analysis(self, matched_mapping):
        vector = VectorAccess(16, 12, 128)
        analysis = ctp_period(matched_mapping, vector)
        assert analysis.family == 2
        assert analysis.period == 32
        assert len(analysis.modules) == 32
        assert analysis.is_t_matched(8)
        assert analysis.modules_visited() == 8

    def test_beyond_window_not_matched(self, matched_mapping):
        vector = VectorAccess(0, 1 << 6, 128)
        analysis = ctp_period(matched_mapping, vector)
        assert not analysis.is_t_matched(8)
        assert analysis.modules_visited() == 2

    def test_truncated_for_short_vectors(self, matched_mapping):
        vector = VectorAccess(0, 1, 16)
        analysis = ctp_period(matched_mapping, vector)
        assert analysis.period == 128
        assert len(analysis.modules) == 16
