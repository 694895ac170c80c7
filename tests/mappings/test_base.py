"""Tests for the mapping base utilities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mappings.base import (
    bit_field,
    empirical_period,
    is_power_of_two,
)
from repro.mappings.interleaved import LowOrderInterleaved
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.matrix import XorMatrixMapping
from repro.scenarios import registry
from repro.scenarios.spec import ComponentSpec


class TestIsPowerOfTwo:
    def test_accepts_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_rejects_non_powers(self):
        for value in (0, -1, -8, 3, 5, 6, 7, 12, 100):
            assert not is_power_of_two(value)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_matches_bit_count(self, value):
        assert is_power_of_two(value) == (bin(value).count("1") == 1)


class TestBitField:
    def test_basic_extraction(self):
        assert bit_field(0b110100, 2, 3) == 0b101

    def test_zero_width(self):
        assert bit_field(0xFFFF, 4, 0) == 0

    def test_negative_low_rejected(self):
        with pytest.raises(ValueError):
            bit_field(1, -1, 2)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=28),
        st.integers(min_value=0, max_value=8),
    )
    def test_agrees_with_shift_mask(self, value, low, width):
        assert bit_field(value, low, width) == (value >> low) & ((1 << width) - 1)


class TestMappingBasics:
    def test_module_count(self):
        assert LowOrderInterleaved(3).module_count == 8

    def test_reduce_wraps(self):
        mapping = LowOrderInterleaved(3, address_bits=8)
        assert mapping.reduce(256) == 0
        assert mapping.reduce(257) == 1
        assert mapping.reduce(-1) == 255

    def test_bad_module_bits(self):
        with pytest.raises(ConfigurationError):
            LowOrderInterleaved(-1)

    def test_address_bits_must_cover_modules(self):
        with pytest.raises(ConfigurationError):
            LowOrderInterleaved(8, address_bits=4)

    def test_module_sequence_matches_pointwise(self):
        mapping = MatchedXorMapping(3, 4)
        sequence = mapping.module_sequence(100, 12, 20)
        assert sequence == [
            mapping.module_of(mapping.reduce(100 + 12 * i)) for i in range(20)
        ]


class TestEmpiricalPeriod:
    def test_matches_analytic_for_xor(self):
        mapping = MatchedXorMapping(3, 4, address_bits=16)
        for family in range(6):
            stride = 1 << family
            assert empirical_period(mapping, stride) == mapping.period(family)

    def test_low_order_interleaving(self):
        mapping = LowOrderInterleaved(3, address_bits=16)
        assert empirical_period(mapping, 1) == 8
        assert empirical_period(mapping, 2) == 4
        assert empirical_period(mapping, 8) == 1

    def test_odd_sigma_same_period(self):
        mapping = MatchedXorMapping(3, 4, address_bits=16)
        assert empirical_period(mapping, 3 * 4) == mapping.period(2)

    def test_default_period_uses_empirical(self):
        # The ABC's default period() measures; spot-check consistency.
        mapping = LowOrderInterleaved(2, address_bits=12)
        assert mapping.period(0) == 4


def every_mapping_kind(address_bits):
    """One mapping per registered kind, plus explicit XOR matrices.

    Each registered kind is built from its example parameters;
    ``dynamic`` is a per-stride selector, so it contributes the mapping
    it picks for a few stride families.
    """
    mappings = {}
    for kind in registry.kinds(registry.MAPPING):
        params = registry.example_params(registry.MAPPING, kind)
        if kind == "pseudo-random":
            params["window_bits"] = address_bits
        built = registry.build(
            registry.MAPPING,
            ComponentSpec.of(kind, **params),
            address_bits=address_bits,
        )
        if kind == "dynamic":
            for stride in (1, 6, 40):
                mappings[f"dynamic-stride{stride}"] = (
                    built.mapping_for_stride(stride)
                )
        else:
            mappings[kind] = built
    mappings["xor-matrix-section"] = XorMatrixMapping.from_section(
        3, 4, 9, address_bits
    )
    mappings["xor-matrix-dense"] = XorMatrixMapping(
        [0b101101, 0b1100110, 0b10011001011], address_bits
    )
    return mappings


SMALL_SPACE = every_mapping_kind(12)
FULL_SPACE = every_mapping_kind(32)


class TestInjectivity:
    """``map`` is a bijection of the address space onto ``module x
    displacement`` for every mapping kind: no two addresses share a
    cell, so data stored through a mapping can never be corrupted."""

    @pytest.mark.parametrize("name", sorted(SMALL_SPACE))
    def test_whole_small_space_injective(self, name):
        mapping = SMALL_SPACE[name]
        cells = {mapping.map(address) for address in range(mapping.address_space)}
        assert len(cells) == mapping.address_space
        assert {module for module, _ in cells} == set(range(mapping.module_count))

    @pytest.mark.parametrize("name", sorted(FULL_SPACE))
    @settings(max_examples=40, deadline=None)
    @given(
        first=st.integers(min_value=0, max_value=2**32 - 1),
        second=st.integers(min_value=0, max_value=2**32 - 1),
        wraps=st.integers(min_value=-3, max_value=3),
    )
    def test_distinct_addresses_distinct_cells(self, name, first, second, wraps):
        mapping = FULL_SPACE[name]
        if first != second:
            assert mapping.map(first) != mapping.map(second)
        assert mapping.map(first + wraps * mapping.address_space) == mapping.map(
            first
        )
