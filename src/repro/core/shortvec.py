"""Short-vector handling — Section 5-C of the paper.

The reordered access needs the vector length to be a multiple of the chunk
``2**(w+t-x)``.  Vectors shorter than the register (or of awkward length)
are split at compile time: a prefix of length ``V = k * 2**(w+t-x)`` (the
largest such multiple) is accessed out of order and conflict-free, and the
remaining tail is accessed in order.  When no complete chunk fits the
whole vector falls back to ordered access — exactly the paper's "access
the vector in order" alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.distributions import is_conflict_free
from repro.core.planner import AccessPlan, AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import OrderingError


@dataclass(frozen=True)
class CompositePlan:
    """A vector accessed as an out-of-order prefix plus an ordered tail.

    Presents the same interface surface as :class:`AccessPlan` for the
    simulator: a request stream with global element indices, a temporal
    distribution and a conflict-freedom verdict.
    """

    vector: VectorAccess
    prefix: AccessPlan | None
    tail: AccessPlan | None
    service_ratio: int

    @property
    def scheme(self) -> str:
        if self.prefix is None:
            return "ordered"
        if self.tail is None:
            return self.prefix.scheme
        return f"composite({self.prefix.scheme}+{self.tail.scheme})"

    @property
    def prefix_length(self) -> int:
        """Elements in the out-of-order part (``V`` in the paper)."""
        return self.prefix.vector.length if self.prefix is not None else 0

    @property
    def modules(self) -> tuple[int, ...]:
        parts: list[int] = []
        if self.prefix is not None:
            parts.extend(self.prefix.modules)
        if self.tail is not None:
            parts.extend(self.tail.modules)
        return tuple(parts)

    @property
    def conflict_free(self) -> bool:
        """Verdict over the *whole* composite stream (prefix then tail).

        Note the paper only guarantees the prefix; the junction and tail
        may conflict, which the simulator quantifies in experiment E10.
        """
        return is_conflict_free(self.modules, self.service_ratio)

    @property
    def minimum_latency(self) -> int:
        return self.service_ratio + self.vector.length + 1

    def request_stream(self) -> list[tuple[int, int]]:
        """Global ``(element_index, address)`` pairs in issue order."""
        stream: list[tuple[int, int]] = []
        if self.prefix is not None:
            stream.extend(self.prefix.request_stream())
        if self.tail is not None:
            offset = self.prefix_length
            stream.extend(
                (offset + index, address)
                for index, address in self.tail.request_stream()
            )
        return stream


def plan_short_vector(planner: AccessPlanner, vector: VectorAccess) -> CompositePlan:
    """Section 5-C split: out-of-order prefix ``V = k * 2**(w+t-x)``,
    ordered tail.

    Mirrors what the paper's compiler would emit: the largest prefix whose
    length satisfies the Lemma-1 precondition is accessed with the
    conflict-free reordering; the remainder (fewer elements than one
    chunk) is accessed in order.
    """
    try:
        _w, _key_of, chunk = planner.decomposition(vector)
    except OrderingError:
        ordered = planner.plan(vector, mode="ordered")
        return CompositePlan(vector, None, ordered, planner.service_ratio)

    prefix_length = (vector.length // chunk) * chunk
    if prefix_length == 0:
        ordered = planner.plan(vector, mode="ordered")
        return CompositePlan(vector, None, ordered, planner.service_ratio)

    prefix_vector = vector.slice(0, prefix_length)
    prefix = planner.plan(prefix_vector, mode="conflict_free")
    if prefix_length == vector.length:
        return CompositePlan(vector, prefix, None, planner.service_ratio)

    tail_vector = vector.slice(prefix_length, vector.length - prefix_length)
    tail = planner.plan(tail_vector, mode="ordered")
    return CompositePlan(vector, prefix, tail, planner.service_ratio)
