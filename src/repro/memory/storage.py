"""Backing store: the actual data behind the simulated memory.

The latency results of the paper depend only on module numbers, but the
decoupled-processor examples move real data.  The store keys each word
by its reduced address, so a read or write is one mask and one dict
operation; the ``(module, displacement)`` cell is computed only to name
it in the error for an uninitialised read and for :meth:`occupancy`.
That every mapping is a genuine bijection onto ``module x
displacement`` is checked at the mapping level, by the injectivity
property in ``tests/mappings/test_base.py``.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.mappings.base import AddressMapping


class MemoryStore:
    """Word-addressable data store over a mapping's address space."""

    def __init__(self, mapping: AddressMapping):
        self.mapping = mapping
        self._mask = mapping.address_mask
        self._cells: dict[int, float] = {}

    def write(self, address: int, value: float) -> None:
        """Store ``value`` at ``address`` (reduced into the address space)."""
        self._cells[address & self._mask] = value

    def read(self, address: int) -> float:
        """Load the value at ``address``.

        Raises
        ------
        SimulationError
            If the cell was never written — surfacing use-before-define
            bugs in example programs instead of silently returning zeros.
        """
        try:
            return self._cells[address & self._mask]
        except KeyError:
            module, displacement = self.mapping.map(address & self._mask)
            raise SimulationError(
                f"read of uninitialised address {address} "
                f"(module {module}, displacement {displacement})"
            ) from None

    def write_vector(self, base: int, stride: int, values) -> None:
        """Bulk store: ``values[i]`` at ``base + i * stride``."""
        cells, mask = self._cells, self._mask
        for i, value in enumerate(values):
            cells[(base + i * stride) & mask] = value

    def read_vector(self, base: int, stride: int, length: int) -> list[float]:
        """Bulk load of a constant-stride vector."""
        return [self.read(base + i * stride) for i in range(length)]

    def occupancy(self) -> list[int]:
        """Number of written cells per module (storage balance check)."""
        counts = [0] * self.mapping.module_count
        for address in self._cells:
            counts[self.mapping.module_of(address)] += 1
        return counts
