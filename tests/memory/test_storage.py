"""Tests for the backing store.

That every mapping is a bijection onto ``(module, displacement)`` is
checked at the mapping level (``tests/mappings/test_base.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping
from repro.mappings.skewed import SkewedMapping
from repro.memory.storage import MemoryStore


class TestReadWrite:
    def test_roundtrip(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        store.write(1234, 9.5)
        assert store.read(1234) == 9.5

    def test_uninitialised_read_raises(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        with pytest.raises(
            SimulationError, match=r"42 \(module 0, displacement 5\)"
        ):
            store.read(42)

    def test_overwrite(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        store.write(7, 1.0)
        store.write(7, 2.0)
        assert store.read(7) == 2.0

    def test_wraps_address_space(self):
        mapping = MatchedXorMapping(3, 4, address_bits=12)
        store = MemoryStore(mapping)
        store.write(5, 1.5)
        assert store.read(5 + 4096) == 1.5


class TestVectorHelpers:
    def test_vector_roundtrip(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        values = [float(i) * 1.5 for i in range(64)]
        store.write_vector(100, 12, values)
        assert store.read_vector(100, 12, 64) == values

    def test_negative_stride(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        store.write_vector(1000, -3, [1.0, 2.0, 3.0])
        assert store.read(994) == 3.0


class TestDenseRoundTrip:
    """Every word of a dense range, or of a random address set, reads
    back what was written to it, whatever the mapping."""

    @pytest.mark.parametrize(
        "mapping",
        [
            MatchedXorMapping(3, 4, address_bits=14),
            SectionXorMapping(2, 3, 7, address_bits=14),
            SkewedMapping(3, 4, address_bits=14),
        ],
        ids=["matched-xor", "section-xor", "skewed"],
    )
    def test_dense_range_no_collisions(self, mapping):
        store = MemoryStore(mapping)
        for address in range(2048):
            store.write(address, float(address))
        for address in range(2048):
            assert store.read(address) == float(address)

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=2**14 - 1), max_size=64))
    def test_random_addresses(self, addresses):
        store = MemoryStore(SectionXorMapping(2, 3, 7, address_bits=14))
        reference = {}
        for i, address in enumerate(addresses):
            store.write(address, float(i))
            reference[address] = float(i)
        for address, value in reference.items():
            assert store.read(address) == value


class TestOccupancy:
    def test_balanced_occupancy_for_unit_stride(self):
        store = MemoryStore(MatchedXorMapping(3, 4))
        store.write_vector(0, 1, [0.0] * 128)
        assert store.occupancy() == [16] * 8

    def test_occupancy_counts_cells_per_module(self):
        mapping = MatchedXorMapping(3, 4)
        store = MemoryStore(mapping)
        for address in (0, 8, 16, 17, 1 << 40):
            store.write(address, 1.0)
        expected = [0] * 8
        for address in {0, 8, 16, 17}:  # 1 << 40 wraps onto address 0
            expected[mapping.module_of(address)] += 1
        assert store.occupancy() == expected
