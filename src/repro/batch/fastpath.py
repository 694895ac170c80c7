"""Closed-form planner shortcuts for the batch engine.

The per-point planner spends nearly all its time materialising request
orders (``conflict_free_order``'s slot loop) and module sequences
(``module_of`` per element).  For the paper's own mappings neither is
necessary to *decide* a design point:

* **Feasibility is arithmetic.**  ``AccessPlanner._conflict_free``
  succeeds for the Eq. (1)/(2) XOR mappings exactly when the stride
  family lies at or below the decomposition exponent and the length is
  a positive multiple of the chunk ``2**(w+t-x)`` (Lemma 1's
  ``L = k * Px`` precondition).  Within each Lemma-2/4 subsequence the
  alignment key steps by the odd ``sigma`` through its full ``2**t``
  value range, so the key sets always match the first subsequence and
  ``conflict_free_order`` cannot raise once ``build_subsequences``
  accepts the decomposition — and each subsequence emits exactly ``T``
  requests, so same-key (hence same-module) requests sit exactly ``T``
  slots apart and the produced plan is always conflict-free.
  :func:`cf_order_feasible` encodes that equivalence and returns
  ``None`` whenever the geometry falls outside the proven cases (the
  caller then runs the real planner).

* **Histograms are order-free.**  Any plan's module histogram equals
  the histogram over the vector's address set (a request order is a
  permutation), so busy-cycle accounting never needs the order.  For a
  truly matched memory a conflict-free access is exactly uniform —
  ``L / T`` requests per module — with no per-element work at all.

``tests/batch/test_fastpath.py`` pins every shortcut against the real
planner across a broad geometry sweep.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.distributions import is_conflict_free
from repro.core.vector import VectorAccess
from repro.mappings.base import AddressMapping
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping

__all__ = [
    "canonical_modules",
    "cf_order_feasible",
    "modules_conflict_free",
]


def cf_order_feasible(
    mapping: AddressMapping, t: int, access: VectorAccess
) -> bool | None:
    """Whether the Section 3.2/4.2 reordering exists for ``access``.

    ``True``/``False`` mirror ``AccessPlanner._conflict_free`` exactly
    (success always yields a conflict-free plan, failure raises
    :class:`~repro.errors.OrderingError` so mode ``auto`` falls back to
    the canonical order).  ``None`` means the geometry is outside the
    proven closed-form cases — a subclassed mapping, an unmatched
    Eq. (1) layout (``m != t``), a skew or field scheme below its
    exponent — and the caller must consult the real planner.
    """
    if not isinstance(mapping, AddressMapping):
        return None
    x = access.family
    if type(mapping) is MatchedXorMapping:
        if x > mapping.s:
            return False
        if mapping.module_bits != t:
            return None
        w = mapping.s
    elif type(mapping) is SectionXorMapping:
        w = mapping.s if x <= mapping.s else mapping.y
        if x > w:
            return False
        if mapping.t != t:
            return None
    elif isinstance(mapping, SectionXorMapping):
        return None
    elif getattr(mapping, "s", None) is None:
        # _reorder_parameters refuses mappings without window structure.
        return False
    elif x > mapping.s:
        # The Lemma-2 decomposition is refused above the exponent for
        # every matched-style mapping, structured or not.
        return False
    else:
        return None
    chunk = 1 << (w + t - x)
    return access.length % chunk == 0


def canonical_modules(
    mapping: AddressMapping, access: VectorAccess
) -> Sequence[int]:
    """Canonical temporal distribution of ``access`` under ``mapping``:
    ``mapping.module_sequence(base, stride, length)``."""
    return mapping.module_sequence(access.base, access.stride, access.length)


def modules_conflict_free(modules: Sequence[int], service_ratio: int) -> bool:
    """Section 2 conflict-freedom of a module sequence.

    Same verdict as :func:`repro.core.distributions.is_conflict_free`:
    every ``T`` consecutive requests hit ``T`` distinct modules.
    """
    if service_ratio <= 1:
        return True
    return is_conflict_free(modules, service_ratio)
