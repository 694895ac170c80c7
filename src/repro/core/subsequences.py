"""Subsequence construction — Lemmas 2 and 4 of the paper.

For a stride family ``x`` at or below the mapping parameter ``w`` (``w`` is
``s`` for the matched scheme of Lemma 2 and ``y`` for the section scheme of
Lemma 4), the ``P = 2**(w+t-x)`` elements of one period group into
``2**(w-x)`` *subsequences* of ``2**t`` elements each: subsequence ``j``
(0-based here; the paper is 1-based) contains the period's elements

    ``j + k1 * 2**(w-x)``        for ``0 <= k1 <= 2**t - 1``.

Consecutive elements of a subsequence are ``2**(w-x)`` element positions
apart, i.e. their addresses differ by ``sigma * 2**w`` — which is why the
hardware of Figure 5 only needs the two increments ``sigma * 2**x`` and
``sigma * 2**w``.  The lemmas guarantee that the elements of one
subsequence land in ``2**t`` distinct modules (Lemma 2) or distinct
sections (Lemma 4), making each subsequence conflict-free on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.vector import VectorAccess
from repro.errors import OrderingError


@dataclass(frozen=True)
class SubsequencePlan:
    """The chunk/subsequence decomposition of a vector access.

    Attributes
    ----------
    vector:
        The access being decomposed.
    family:
        Stride family ``x``.
    w:
        The mapping exponent the decomposition is built against (``s`` or
        ``y``).
    t:
        ``T = 2**t`` is the memory/processor cycle ratio; each
        subsequence has ``2**t`` elements.
    chunk_elements:
        ``2**(w+t-x)`` — elements per chunk (one mapping period for the
        matched case; the inner period for the section low window).
    subsequences_per_chunk:
        ``2**(w-x)``.
    chunks:
        ``length / chunk_elements``.
    """

    vector: VectorAccess
    family: int
    w: int
    t: int
    chunk_elements: int
    subsequences_per_chunk: int
    chunks: int

    @property
    def elements_per_subsequence(self) -> int:
        """Always ``2**t`` (Lemmas 2 and 4)."""
        return 1 << self.t

    @property
    def intra_step_elements(self) -> int:
        """Element-index step inside a subsequence, ``2**(w-x)``."""
        return self.subsequences_per_chunk

    @property
    def intra_step_address(self) -> int:
        """Address step inside a subsequence, ``sigma * 2**w``."""
        return self.vector.stride * self.intra_step_elements

    def subsequence_indices(self, chunk: int, subsequence: int) -> list[int]:
        """Global 0-based element indices of one subsequence."""
        if not 0 <= chunk < self.chunks:
            raise OrderingError(f"chunk {chunk} out of range (chunks={self.chunks})")
        if not 0 <= subsequence < self.subsequences_per_chunk:
            raise OrderingError(
                f"subsequence {subsequence} out of range "
                f"(per chunk: {self.subsequences_per_chunk})"
            )
        start = chunk * self.chunk_elements + subsequence
        step = self.intra_step_elements
        return [start + k * step for k in range(self.elements_per_subsequence)]

    def iter_subsequences(self):
        """Yield ``(chunk, subsequence, element_indices)`` in natural order.

        The natural order is the Figure 4 loop nest: all subsequences of
        chunk 0, then chunk 1, and so on.
        """
        for chunk in range(self.chunks):
            for subsequence in range(self.subsequences_per_chunk):
                yield chunk, subsequence, self.subsequence_indices(
                    chunk, subsequence
                )

    def all_indices_natural(self) -> list[int]:
        """Element indices in the Section 3.1 issue order."""
        out: list[int] = []
        for _, _, indices in self.iter_subsequences():
            out.extend(indices)
        return out


def chunk_elements(vector: VectorAccess, w: int, t: int) -> int:
    """Lemma 1's chunk ``P = 2**(w+t-x)`` for ``vector`` against ``w``.

    Raises
    ------
    OrderingError
        If the stride family exceeds ``w`` (the lemmas do not apply).
    """
    x = vector.family
    if x > w:
        raise OrderingError(
            f"stride family x={x} exceeds the mapping exponent w={w}; "
            "Lemma 2/4 subsequences are undefined"
        )
    return 1 << (w + t - x)


def build_subsequences(
    vector: VectorAccess, w: int, t: int
) -> SubsequencePlan:
    """Decompose ``vector`` against exponent ``w`` (Lemma 2 with ``w = s``,
    Lemma 4 with ``w = y``).

    Raises
    ------
    OrderingError
        If the stride family exceeds ``w`` (the lemmas do not apply) or the
        vector length is not a positive multiple of the chunk size
        ``2**(w+t-x)`` (Lemma 1's ``L = k * Px`` precondition fails —
        callers fall back to ordered access or the short-vector split).
    """
    chunk = chunk_elements(vector, w, t)
    if vector.length % chunk != 0 or vector.length < chunk:
        raise OrderingError(
            f"vector length {vector.length} is not a positive multiple of "
            f"the chunk size 2**(w+t-x) = {chunk}; the reordered access "
            "requires L = k * Px (Lemma 1)"
        )
    return SubsequencePlan(
        vector=vector,
        family=vector.family,
        w=w,
        t=t,
        chunk_elements=chunk,
        subsequences_per_chunk=1 << (w - vector.family),
        chunks=vector.length // chunk,
    )
