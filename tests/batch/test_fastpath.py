"""The closed-form planner shortcuts, pinned against the real planner.

:func:`cf_order_feasible` claims to mirror ``AccessPlanner._conflict_free``
exactly wherever it answers ``True``/``False``; the geometry sweep here
holds it to that across every proven mapping kind, stride family
(including negative and odd strides), length (including non-chunk
lengths and length 1) and base.  ``canonical_modules`` and
``modules_conflict_free`` are pinned value-for-value against the
``module_sequence``/``is_conflict_free`` references.
"""

from __future__ import annotations

import pytest

from repro.batch.fastpath import (
    canonical_modules,
    cf_order_feasible,
    modules_conflict_free,
)
from repro.core.distributions import is_conflict_free
from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import OrderingError
from repro.mappings.interleaved import FieldInterleaved, LowOrderInterleaved
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping
from repro.mappings.skewed import SkewedMapping

#: (mapping, planner t) pairs spanning every branch of the shortcut:
#: truly matched XOR (both s == t and s > t), unmatched Eq. (1)
#: (module bits above t — undecided), section XOR (matched and
#: t-mismatched), and the mappings outside the closed forms.
CASES = [
    (MatchedXorMapping(3, 4), 3),
    (MatchedXorMapping(3, 3), 3),
    (MatchedXorMapping(2, 5), 2),
    (MatchedXorMapping(4, 6), 3),
    (SectionXorMapping(3, 4, 9), 3),
    (SectionXorMapping(2, 3, 7), 2),
    (SectionXorMapping(3, 4, 8), 2),
    (LowOrderInterleaved(3), 3),
    (FieldInterleaved(3, 4), 3),
    (SkewedMapping(3, 4, distance=3), 3),
]

STRIDES = [1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 96, -3, -8]
LENGTHS = [1, 4, 8, 16, 24, 64, 128]
BASES = [0, 5, 64]


def sweep():
    for mapping, t in CASES:
        planner = AccessPlanner(mapping, t)
        for stride in STRIDES:
            for length in LENGTHS:
                for base in BASES:
                    yield planner, mapping, t, VectorAccess(
                        base, stride, length
                    )


class TestCfOrderFeasible:
    def test_matches_the_planner_across_the_geometry_sweep(self):
        verdicts = {True: 0, False: 0, None: 0}
        for planner, mapping, t, access in sweep():
            verdict = cf_order_feasible(mapping, t, access)
            verdicts[verdict] += 1
            if verdict is None:
                continue
            where = (mapping.describe(), t, access)
            try:
                plan = planner.plan(access, mode="conflict_free")
            except OrderingError:
                assert verdict is False, where
            else:
                assert verdict is True, where
                # Success is not merely "an order exists": the produced
                # plan is always conflict-free, which is what lets the
                # analytic tier skip measurement entirely.
                assert plan.conflict_free, where
        # The sweep must actually exercise all three answers.
        assert verdicts[True] > 0
        assert verdicts[False] > 0
        assert verdicts[None] > 0

    def test_unmatched_eq1_memory_is_undecided(self):
        # m != t: the alignment key sets can differ across subsequences,
        # so the closed form stays silent and the planner decides.
        mapping = MatchedXorMapping(4, 6)
        access = VectorAccess(0, 2, 64)
        assert cf_order_feasible(mapping, 3, access) is None

    def test_section_planner_t_mismatch_is_undecided(self):
        mapping = SectionXorMapping(3, 4, 8)
        access = VectorAccess(0, 2, 64)
        assert cf_order_feasible(mapping, 2, access) is None

    def test_mapping_without_window_structure_is_refused(self):
        mapping = LowOrderInterleaved(3)
        access = VectorAccess(0, 1, 64)
        assert cf_order_feasible(mapping, 3, access) is False
        with pytest.raises(OrderingError):
            AccessPlanner(mapping, 3).plan(access, mode="conflict_free")

    def test_subclassed_mapping_is_undecided(self):
        # A subclass may override module_of; the closed form only
        # vouches for the exact paper mappings.
        class Tweaked(MatchedXorMapping):
            def module_of(self, address: int) -> int:
                return super().module_of(address ^ 1)

        access = VectorAccess(0, 1, 64)
        assert cf_order_feasible(Tweaked(3, 4), 3, access) is None

    def test_non_mapping_object_is_undecided(self):
        assert cf_order_feasible(object(), 3, VectorAccess(0, 1, 8)) is None


class TestCanonicalModules:
    def test_matches_module_sequence(self):
        for mapping, _t in CASES:
            for stride in (1, 3, 8, 12, -3):
                for base in (0, 7):
                    access = VectorAccess(base, stride, 65)
                    got = list(canonical_modules(mapping, access))
                    want = mapping.module_sequence(base, stride, 65)
                    assert got == want, (mapping.describe(), access)

    def test_huge_base_takes_the_exact_path(self):
        # Addresses past 64 bits reduce exactly (arbitrary precision).
        mapping = MatchedXorMapping(3, 4)
        access = VectorAccess((1 << 62) + 5, 3, 33)
        got = list(canonical_modules(mapping, access))
        assert got == mapping.module_sequence(access.base, 3, 33)


class TestModulesConflictFree:
    def test_matches_reference_over_canonical_sequences(self):
        checked = 0
        for mapping, t in CASES:
            service = 1 << t
            for stride in (1, 3, 8, 12, 96):
                access = VectorAccess(0, stride, 64)
                modules = canonical_modules(mapping, access)
                assert modules_conflict_free(
                    modules, service
                ) == is_conflict_free(list(modules), service)
                checked += 1
        assert checked > 0

    def test_service_ratio_one_is_always_conflict_free(self):
        assert modules_conflict_free([0, 0, 0], 1) is True

    def test_tuple_and_range_input_agree_with_list_input(self):
        # The argument is any int sequence, not just a list.
        for modules in ([0, 1, 2, 3, 0, 1, 2, 3], [0, 1, 0, 2], [5], []):
            for service in (2, 4, 8):
                want = is_conflict_free(list(modules), service)
                assert modules_conflict_free(tuple(modules), service) == want
        for service in (2, 4, 8):
            for length in (1, 4, 8, 16):
                modules = range(0, 3 * length, 3)
                want = is_conflict_free(list(modules), service)
                assert modules_conflict_free(modules, service) == want
