"""Abstract interface for memory-module address mappings.

The memory of the paper's machine is organised as ``M = 2**m`` modules.  An
*address mapping* transforms a one-dimensional address ``A`` into the
two-dimensional space ``(module, displacement)``.  Conflicts depend only on
the module-number component ``F`` (Section 2 of the paper), so that
component is the centre of this interface; the displacement component is
provided so the mapping is a real bijection and memory contents can be
stored and retrieved in simulations.

All mappings operate on an address space of ``2**address_bits`` words and
treat addresses modulo that size, which mirrors the fixed-width address
registers of the hardware in Figures 5 and 6.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ConfigurationError

#: Default width of the machine address registers, in bits.
DEFAULT_ADDRESS_BITS = 32


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive integral power of two."""
    return value > 0 and (value & (value - 1)) == 0


def bit_field(value: int, low: int, width: int) -> int:
    """Extract ``width`` bits of ``value`` starting at bit ``low``.

    ``bit_field(0b110100, 2, 3)`` is ``0b101``.
    """
    if low < 0 or width < 0:
        raise ValueError("bit_field requires non-negative low and width")
    return (value >> low) & ((1 << width) - 1)


class AddressMapping(ABC):
    """Module-number component ``F`` of an address mapping.

    Parameters
    ----------
    module_bits:
        ``m`` such that the memory has ``M = 2**m`` modules.
    address_bits:
        Width of the address space; addresses are reduced modulo
        ``2**address_bits`` before mapping.
    """

    def __init__(self, module_bits: int, address_bits: int = DEFAULT_ADDRESS_BITS):
        if module_bits < 0:
            raise ConfigurationError(f"module_bits must be >= 0, got {module_bits}")
        if address_bits < module_bits or address_bits <= 0:
            raise ConfigurationError(
                f"address_bits ({address_bits}) must be positive and at least "
                f"module_bits ({module_bits})"
            )
        self.module_bits = module_bits
        self.address_bits = address_bits
        #: ``2**address_bits - 1``: :meth:`reduce` is one AND with it.
        self.address_mask = (1 << address_bits) - 1

    @property
    def module_count(self) -> int:
        """Number of memory modules ``M = 2**m``."""
        return 1 << self.module_bits

    @property
    def address_space(self) -> int:
        """Size of the address space, ``2**address_bits``."""
        return 1 << self.address_bits

    def reduce(self, address: int) -> int:
        """Wrap ``address`` into the machine's address space."""
        return address & self.address_mask

    @abstractmethod
    def module_of(self, address: int) -> int:
        """Return the module number ``b = F(A)`` for ``address``."""

    @abstractmethod
    def displacement_of(self, address: int) -> int:
        """Return the displacement (row inside the module) for ``address``.

        Together with :meth:`module_of` this must form a bijection of the
        address space onto ``module x displacement``.
        """

    def map(self, address: int) -> tuple[int, int]:
        """Return the pair ``(module, displacement)`` for ``address``."""
        return self.module_of(address), self.displacement_of(address)

    def period(self, family: int) -> int:
        """Period ``Px`` of the canonical temporal distribution.

        ``family`` is the exponent ``x`` of a stride ``sigma * 2**x`` with
        ``sigma`` odd.  The base implementation measures the period
        empirically via :func:`empirical_period`; analytic subclasses
        override it with the paper's closed forms.
        """
        return empirical_period(self, stride=1 << family, start=0)

    def module_sequence(self, start: int, stride: int, length: int) -> list[int]:
        """Module numbers of ``length`` elements from ``start`` by ``stride``.

        This is the canonical temporal distribution of the vector
        ``(start, stride, length)`` under this mapping.
        """
        start = self.reduce(start)
        return [
            self.module_of(self.reduce(start + i * stride)) for i in range(length)
        ]

    def cache_token(self) -> tuple | None:
        """Hashable identity of this mapping's address function, or None.

        Two mappings of the same concrete type whose tokens compare
        equal must map every address identically — that is the contract
        the :mod:`repro.core.planner` plan cache keys on (it always
        pairs the token with ``type(self)``, so a subclass that changes
        ``module_of`` without overriding the token still gets its own
        cache entries).  The base implementation returns ``None``:
        mappings without a declared identity are never cached.
        """
        return None

    def describe(self) -> str:
        """One-line human-readable description of the mapping."""
        return f"{type(self).__name__}(m={self.module_bits})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def empirical_period(
    mapping: AddressMapping, stride: int, start: int = 0, limit: int | None = None
) -> int:
    """Measure the period of the module sequence ``F(start + i*stride)``.

    The period is the smallest ``p > 0`` such that the module of element
    ``i + p`` equals the module of element ``i`` for every ``i``.  For the
    XOR-based mappings in this package the sequence is strictly periodic
    and the period divides ``2**address_bits / gcd(stride, 2**address_bits)``,
    so the search below always terminates.

    Parameters
    ----------
    limit:
        Upper bound for the search; defaults to the address-space size
        divided by the power-of-two part of the stride, which is an exact
        bound for linear mappings.
    """
    from math import gcd

    space = mapping.address_space
    if limit is None:
        limit = space // gcd(stride % space or space, space)
        limit = max(limit, 1)
    # A candidate period must make the whole orbit repeat; for the affine
    # sequence A + i*S the module sequence repeats with period p iff
    # F(A + (i+p)S) == F(A + iS) for all i in one candidate span.
    candidates = [p for p in _divisors_pow2(limit)]
    sample = mapping.module_sequence(start, stride, min(4 * limit, 4096))
    for p in candidates:
        if p >= len(sample):
            break
        if all(sample[i] == sample[i % p] for i in range(len(sample))):
            return p
    return limit


def _divisors_pow2(limit: int) -> list[int]:
    """Powers of two up to and including ``limit`` (itself a power of two)."""
    out = []
    p = 1
    while p <= limit:
        out.append(p)
        p <<= 1
    return out
