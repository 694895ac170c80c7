"""The matched-memory XOR linear transformation of Eq. (1).

For a matched memory (``M = T = 2**t``) the paper uses the mapping

    ``b_i = a_i XOR a_{s+i}``        (s >= t,  0 <= i <= t-1)

i.e. the module number is the XOR of the low ``t`` address bits with the
``t``-bit field starting at bit ``s``.  Requesting the elements of a
vector of stride family ``x = s`` in order visits all modules cyclically,
so that family is conflict-free for any length and any base address
(Harper 1991); the paper's out-of-order scheme extends this to the whole
window ``s-N <= x <= s``.

Figure 3 of the paper shows this mapping for ``m = t = 3``, ``s = 3``; the
layout is regenerated verbatim by experiment E01.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.mappings.base import DEFAULT_ADDRESS_BITS, AddressMapping, bit_field


class MatchedXorMapping(AddressMapping):
    """XOR mapping ``b = a[t-1..0] XOR a[s+t-1..s]`` (Eq. 1 of the paper).

    Parameters
    ----------
    module_bits:
        ``m = t`` — the memory is matched, so the module count equals the
        memory/processor cycle ratio.
    s:
        Position of the high XOR field; must satisfy ``s >= t``.  The
        single family that is conflict-free under *ordered* access is
        ``x = s``; Section 3.3 recommends ``s = lambda - t`` so the
        out-of-order window reaches down to the odd strides.
    """

    def __init__(
        self, module_bits: int, s: int, address_bits: int = DEFAULT_ADDRESS_BITS
    ):
        super().__init__(module_bits, address_bits)
        if s < module_bits:
            raise ConfigurationError(
                f"Eq. (1) requires s >= t (s={s}, t={module_bits}); with s < t "
                "the two XOR fields overlap and the scheme degenerates"
            )
        if s + module_bits > address_bits:
            raise ConfigurationError(
                f"XOR field [{s}, {s + module_bits}) exceeds the "
                f"{address_bits}-bit address space"
            )
        self.s = s
        self._module_mask = self.module_count - 1

    @property
    def t(self) -> int:
        """Alias: for a matched memory the module bits equal ``t``."""
        return self.module_bits

    def cache_token(self) -> tuple:
        return ("matched-xor", self.module_bits, self.s, self.address_bits)

    def module_of(self, address: int) -> int:
        # a[t-1..0] XOR a[s+t-1..s] in one step.  Both fields lie inside
        # the address space (s + t <= address_bits), so reducing first
        # would not change them.
        return (address ^ (address >> self.s)) & self._module_mask

    def displacement_of(self, address: int) -> int:
        """Displacement = the address without its low ``t`` bits.

        ``(module, displacement)`` is a bijection: the high field
        ``a[s+t-1..s]`` is contained in the displacement, so the low bits
        are recovered as ``module XOR a[s+t-1..s]``.
        """
        return self.reduce(address) >> self.module_bits

    def address_of(self, module: int, displacement: int) -> int:
        """Inverse mapping, used by tests to verify bijectivity."""
        high = bit_field(displacement, self.s - self.module_bits, self.module_bits)
        low = (module ^ high) & (self.module_count - 1)
        return self.reduce((displacement << self.module_bits) | low)

    def period(self, family: int) -> int:
        """``Px = max(2**(s+t-x), 1)`` (Section 3)."""
        exponent = self.s + self.module_bits - family
        return 1 << exponent if exponent > 0 else 1

    def describe(self) -> str:
        return f"MatchedXorMapping(t={self.module_bits}, s={self.s})"
