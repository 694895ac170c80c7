"""The access planner: chooses and materialises a request order.

This is the library's central entry point.  Given a mapping, the memory's
service ratio ``T = 2**t`` and a :class:`~repro.core.vector.VectorAccess`,
the planner produces an :class:`AccessPlan` — the exact issue order of the
vector's elements together with its temporal distribution and a
conflict-freedom verdict.  The plan's request stream feeds both the
cycle-accurate simulator (:mod:`repro.memory`) and the register-level
hardware models (:mod:`repro.hardware`), which are tested to reproduce it
cycle for cycle.

Scheme selection (mode ``"auto"``) follows the paper:

* matched-style mappings (anything exposing the ``s`` exponent — Eq. (1),
  field interleaving, skewing): Lemma-2 subsequences aligned on the first
  subsequence's *module* order (Section 3.2);
* the section mapping of Eq. (2): low-window families use Lemma-2
  subsequences aligned on *supermodule* order, high-window families use
  Lemma-4 subsequences aligned on *section* order (Section 4.2);
* anything else (family outside the windows, length not a chunk multiple,
  mapping without structure): ordered access.

:meth:`AccessPlanner.decomposition` is the one statement of Lemma 1's
rule: it picks the exponent ``w``, the alignment key and the chunk
``2**(w+t-x)``, or raises :class:`~repro.errors.OrderingError`.  The
planner's own reordering modes, the short-vector split, the Figure 6
engine and the batch engine all call it.  On
:attr:`AccessPlanner.closed_form` geometries its chunk arithmetic alone
decides whether the reordering exists, so the batch engine answers
those accesses without building a request order.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Literal

from repro.core.distributions import (
    is_conflict_free,
    spatial_distribution,
    is_t_matched,
)
from repro.core.orderings import (
    RequestOrder,
    canonical_order,
    conflict_free_order,
    subsequence_order,
)
from repro.core.subsequences import build_subsequences, chunk_elements
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError, OrderingError
from repro.mappings.base import AddressMapping
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping

PlanMode = Literal["auto", "ordered", "subsequence", "conflict_free"]

#: Set to ``0``/``off``/``false``/``no`` to disable the process-wide
#: plan cache (every ``plan()`` call then recomputes from scratch).
PLAN_CACHE_ENV = "REPRO_PLAN_CACHE"

_DISABLED_VALUES = frozenset({"0", "off", "false", "no"})


def plan_cache_enabled() -> bool:
    """Whether :meth:`AccessPlanner.plan` consults the shared cache."""
    value = os.environ.get(PLAN_CACHE_ENV, "1").strip().lower()
    return value not in _DISABLED_VALUES


class PlanCache:
    """A thread-safe LRU of finished :class:`AccessPlan` objects.

    Keyed on the exact plan inputs — ``(type(mapping),
    mapping.cache_token(), t, mode, vector)`` — so a hit is
    bit-identical to recomputation by construction: plans are frozen,
    planning is a pure function of the key, and mappings without a
    declared :meth:`~repro.mappings.base.AddressMapping.cache_token`
    are never cached.  The win comes from repetition the per-point
    paths cannot see: a strip that stores the vector it just loaded, a
    chained program re-run on the non-chaining machine, and grid
    points that share workload geometry across ``q``/ports/streams
    axes all re-plan identical vectors.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError(
                f"plan cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._plans: OrderedDict[tuple, AccessPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple) -> "AccessPlan | None":
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def store(self, key: tuple, plan: "AccessPlan") -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "plan_cache_hits": self.hits,
                "plan_cache_misses": self.misses,
                "plan_cache_entries": len(self._plans),
                "plan_cache_capacity": self.capacity,
            }


#: The process-wide cache every :class:`AccessPlanner` shares.
_PLAN_CACHE = PlanCache()


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss/occupancy counters of the shared plan cache."""
    return _PLAN_CACHE.stats()


def clear_plan_cache() -> None:
    """Empty the shared plan cache (tests, benchmarks)."""
    _PLAN_CACHE.clear()


@dataclass(frozen=True)
class AccessPlan:
    """A fully materialised vector access.

    Attributes
    ----------
    vector:
        The access being planned.
    order:
        The issue order (a permutation of element indices).
    modules:
        Temporal distribution: module of each request in issue order.
    service_ratio:
        ``T = 2**t``.
    conflict_free:
        Verdict of the Section 2 definition on ``modules``.
    """

    vector: VectorAccess
    order: RequestOrder
    modules: tuple[int, ...]
    service_ratio: int
    conflict_free: bool

    @property
    def scheme(self) -> str:
        """Name of the ordering used (``canonical`` / ``subsequence`` /
        ``conflict_free``)."""
        return self.order.name

    @property
    def minimum_latency(self) -> int:
        """The conflict-free latency ``T + L + 1`` (Section 2)."""
        return self.service_ratio + self.vector.length + 1

    def request_stream(self) -> list[tuple[int, int]]:
        """``(element_index, address)`` pairs in issue order.

        The element index travels with the request so the vector register
        file can be written in element order even though requests are
        issued out of order (Section 5-D: the register must be random
        access).
        """
        return [
            (index, self.vector.address_of(index)) for index in self.order.indices
        ]


class AccessPlanner:
    """Builds :class:`AccessPlan` objects for one memory configuration.

    Parameters
    ----------
    mapping:
        The module-number mapping of the memory.
    t:
        ``T = 2**t`` — the module service time in processor cycles.  For a
        matched memory ``t == mapping.module_bits``; an unmatched memory
        has more module bits than ``t``.
    """

    def __init__(self, mapping: AddressMapping, t: int):
        if t < 0:
            raise ConfigurationError(f"t must be >= 0, got {t}")
        if mapping.module_bits < t:
            raise ConfigurationError(
                f"memory with {mapping.module_count} modules cannot hide a "
                f"service time of 2**{t} cycles (m={mapping.module_bits} < t={t})"
            )
        self.mapping = mapping
        self.t = t

    @property
    def service_ratio(self) -> int:
        """``T = 2**t``."""
        return 1 << self.t

    def plan(self, vector: VectorAccess, mode: PlanMode = "auto") -> AccessPlan:
        """Materialise an access plan for ``vector``.

        ``mode``:

        * ``"auto"`` — conflict-free reordering when the stride family and
          length allow it, otherwise ordered access (never raises for a
          valid vector);
        * ``"ordered"`` — canonical order;
        * ``"subsequence"`` — the Section 3.1 order (raises
          :class:`~repro.errors.OrderingError` outside its window);
        * ``"conflict_free"`` — the Section 3.2/4.2 order (same).

        Successful plans are memoized in the process-wide
        :class:`PlanCache` (disable with ``REPRO_PLAN_CACHE=0``); the
        key is exact — mapping identity, ``t``, mode and the full
        vector — so a cached plan is indistinguishable from a fresh
        one.  Forced modes that raise are never cached.
        """
        key = self._plan_cache_key(vector, mode)
        if key is not None:
            cached = _PLAN_CACHE.lookup(key)
            if cached is not None:
                return cached
        plan = self._plan_uncached(vector, mode)
        if key is not None:
            _PLAN_CACHE.store(key, plan)
        return plan

    def _plan_cache_key(
        self, vector: VectorAccess, mode: PlanMode
    ) -> tuple | None:
        if not plan_cache_enabled():
            return None
        token = self.mapping.cache_token()
        if token is None:
            return None
        return (type(self.mapping), token, self.t, mode, vector)

    def _plan_uncached(
        self, vector: VectorAccess, mode: PlanMode
    ) -> AccessPlan:
        if mode == "ordered":
            return self._finish(vector, canonical_order(vector))
        if mode == "subsequence":
            w, _key_of, _chunk = self.decomposition(vector)
            plan = build_subsequences(vector, w, self.t)
            return self._finish(vector, subsequence_order(plan))
        if mode == "conflict_free":
            return self._conflict_free(vector)
        if mode == "auto":
            try:
                return self._conflict_free(vector)
            except OrderingError:
                return self._finish(vector, canonical_order(vector))
        raise ConfigurationError(f"unknown plan mode {mode!r}")

    def _conflict_free(self, vector: VectorAccess) -> AccessPlan:
        w, key_of, _chunk = self.decomposition(vector)
        plan = build_subsequences(vector, w, self.t)
        return self._finish(vector, conflict_free_order(plan, key_of))

    def decomposition(
        self, vector: VectorAccess
    ) -> tuple[int, Callable[[int], int], int]:
        """Lemma 1's decomposition of ``vector`` under this mapping.

        Returns ``(w, key_of, chunk)``: the decomposition exponent ``w``
        (``s`` for Lemma 2, ``y`` for Lemma 4), the map from an element
        address to the value aligned across subsequences, and the chunk
        ``P = 2**(w+t-x)``.  The reordered access exists exactly when
        this returns and the length is a positive multiple of ``chunk``.

        Raises
        ------
        OrderingError
            If the mapping exposes no stride-window structure or the
            stride family lies above ``w``.
        """
        mapping = self.mapping
        x = vector.family
        if isinstance(mapping, SectionXorMapping):
            if x <= mapping.s:
                # Align on the within-section module field b[t-1..0]
                # (Section 4.2 stores exactly these bits).  Inside one
                # subsequence it equals the supermodule number XOR a
                # constant, but across subsequences with x < t the low
                # address bits change, and only the b-field alignment
                # keeps same-module requests exactly T slots apart.
                w, key_of = mapping.s, mapping.module_within_section
            else:
                w, key_of = mapping.y, mapping.section_of
        else:
            s = getattr(mapping, "s", None)
            if s is None:
                raise OrderingError(
                    f"mapping {mapping.describe()} exposes no stride-window "
                    "structure; only ordered access is available"
                )
            if x > s:
                raise OrderingError(
                    f"stride family x={x} lies above the mapping exponent "
                    f"s={s}; the Lemma-2 decomposition does not apply"
                )
            w, key_of = s, mapping.module_of
        return w, key_of, chunk_elements(vector, w, self.t)

    @property
    def closed_form(self) -> bool:
        """Whether :meth:`decomposition` alone decides conflict-freedom.

        True for the exact Eq. (1) mapping on a matched memory
        (``m == t``) and the exact Eq. (2) mapping at its own ``t``.
        For these, a vector whose :meth:`decomposition` succeeds and
        whose length is a multiple of ``chunk`` always plans
        conflict-free: within each Lemma-2/4 subsequence the alignment
        key steps by the odd ``sigma`` through its full ``2**t`` value
        range, so every subsequence's key set matches the first one and
        ``conflict_free_order`` cannot raise once
        ``build_subsequences`` accepts the decomposition — and each
        subsequence emits exactly ``T`` requests, so same-key (hence
        same-module) requests sit exactly ``T`` slots apart.  Any other
        geometry (a subclassed mapping, an unmatched Eq. (1) layout, a
        skew or field scheme) needs the built plan's verdict.
        """
        mapping = self.mapping
        if type(mapping) is MatchedXorMapping:
            return mapping.module_bits == self.t
        if type(mapping) is SectionXorMapping:
            return mapping.t == self.t
        return False

    def _finish(self, vector: VectorAccess, order: RequestOrder) -> AccessPlan:
        modules = tuple(
            self.mapping.module_of(self.mapping.reduce(address))
            for address in order.addresses()
        )
        return AccessPlan(
            vector=vector,
            order=order,
            modules=modules,
            service_ratio=self.service_ratio,
            conflict_free=is_conflict_free(modules, self.service_ratio),
        )

    def vector_t_matched(self, vector: VectorAccess) -> bool:
        """Section 2: is the vector's spatial distribution T-matched?

        A necessary condition for any conflict-free temporal distribution
        (used by the theorem-verification tests)."""
        return is_t_matched(
            spatial_distribution(self.mapping, vector), self.service_ratio
        )
