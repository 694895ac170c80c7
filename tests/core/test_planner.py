"""Tests for the access planner."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError, OrderingError
from repro.mappings.interleaved import FieldInterleaved, LowOrderInterleaved
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.matrix import PseudoRandomMapping
from repro.mappings.section import SectionXorMapping
from repro.mappings.skewed import SkewedMapping
from repro.memory.config import MemoryConfig
from repro.memory.kernel import AggregateRun, MemoryKernel, module_histogram


class TestConstruction:
    def test_t_must_fit_modules(self):
        with pytest.raises(ConfigurationError):
            AccessPlanner(MatchedXorMapping(3, 4), 4)

    def test_negative_t_rejected(self):
        with pytest.raises(ConfigurationError):
            AccessPlanner(MatchedXorMapping(3, 4), -1)

    def test_service_ratio(self, matched_planner):
        assert matched_planner.service_ratio == 8


class TestModeSelection:
    def test_auto_uses_conflict_free_inside_window(self, matched_planner):
        plan = matched_planner.plan(VectorAccess(0, 12, 128))
        assert plan.scheme == "conflict_free"
        assert plan.conflict_free

    def test_auto_falls_back_outside_window(self, matched_planner):
        plan = matched_planner.plan(VectorAccess(0, 1 << 6, 128))
        assert plan.scheme == "canonical"
        assert not plan.conflict_free

    def test_auto_falls_back_on_bad_length(self, matched_planner):
        plan = matched_planner.plan(VectorAccess(0, 12, 100))
        assert plan.scheme == "canonical"

    def test_explicit_conflict_free_raises_outside_window(
        self, matched_planner
    ):
        with pytest.raises(OrderingError):
            matched_planner.plan(
                VectorAccess(0, 1 << 6, 128), mode="conflict_free"
            )

    def test_explicit_ordered(self, matched_planner):
        plan = matched_planner.plan(VectorAccess(0, 12, 128), mode="ordered")
        assert plan.scheme == "canonical"

    def test_subsequence_mode(self, matched_planner):
        plan = matched_planner.plan(
            VectorAccess(16, 12, 128), mode="subsequence"
        )
        assert plan.scheme == "subsequence"

    def test_unknown_mode_rejected(self, matched_planner):
        with pytest.raises(ConfigurationError):
            matched_planner.plan(VectorAccess(0, 1, 128), mode="bogus")

    def test_unstructured_mapping_only_ordered(self):
        planner = AccessPlanner(PseudoRandomMapping(3, seed=1), 3)
        plan = planner.plan(VectorAccess(0, 12, 128))
        assert plan.scheme == "canonical"
        with pytest.raises(OrderingError):
            planner.plan(VectorAccess(0, 12, 128), mode="conflict_free")


class TestSectionMappingSelection:
    def test_low_window_uses_inner_chunks(self, section_planner):
        plan = section_planner.plan(VectorAccess(0, 12, 128))
        assert plan.scheme == "conflict_free"
        assert plan.conflict_free

    def test_high_window_uses_sections(self, section_planner):
        plan = section_planner.plan(VectorAccess(0, 3 << 7, 128))
        assert plan.scheme == "conflict_free"
        assert plan.conflict_free

    def test_above_window_falls_back(self, section_planner):
        plan = section_planner.plan(VectorAccess(0, 1 << 11, 128))
        assert plan.scheme == "canonical"
        assert not plan.conflict_free


class TestPlanContents:
    def test_request_stream_carries_element_indices(self, matched_planner):
        vector = VectorAccess(16, 12, 128)
        plan = matched_planner.plan(vector)
        stream = plan.request_stream()
        assert len(stream) == 128
        assert sorted(index for index, _ in stream) == list(range(128))
        for index, address in stream:
            assert address == vector.address_of(index)

    def test_minimum_latency(self, matched_planner):
        plan = matched_planner.plan(VectorAccess(0, 1, 128))
        assert plan.minimum_latency == 8 + 128 + 1

    def test_modules_agree_with_mapping(
        self, matched_planner, matched_mapping
    ):
        vector = VectorAccess(7, 20, 128)
        plan = matched_planner.plan(vector)
        for (index, address), module in zip(
            plan.request_stream(), plan.modules
        ):
            assert module == matched_mapping.module_of(
                matched_mapping.reduce(address)
            )


class TestLowOrderMapping:
    def test_odd_stride_conflict_free_via_reorder(self):
        """LowOrderInterleaved exposes s=0; x=0 is its whole window."""
        planner = AccessPlanner(LowOrderInterleaved(3), 3)
        plan = planner.plan(VectorAccess(5, 7, 64))
        assert plan.conflict_free

    def test_even_stride_not_coverable(self):
        planner = AccessPlanner(LowOrderInterleaved(3), 3)
        plan = planner.plan(VectorAccess(5, 14, 64))
        assert plan.scheme == "canonical"
        assert not plan.conflict_free


class TestTheorem1ByBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(
        x=st.integers(min_value=0, max_value=6),
        sigma=st.integers(min_value=-15, max_value=15).filter(
            lambda v: v % 2 != 0
        ),
        base=st.integers(min_value=0, max_value=2**24),
    )
    def test_window_verdict_matches_theorem(self, x, sigma, base):
        planner = AccessPlanner(MatchedXorMapping(3, 4), 3)
        plan = planner.plan(VectorAccess(base, sigma * (1 << x), 128))
        assert plan.conflict_free == (x <= 4)

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.integers(min_value=0, max_value=11),
        sigma=st.integers(min_value=-15, max_value=15).filter(
            lambda v: v % 2 != 0
        ),
        base=st.integers(min_value=0, max_value=2**24),
    )
    def test_theorem3_verdict(self, x, sigma, base):
        planner = AccessPlanner(SectionXorMapping(3, 4, 9), 3)
        plan = planner.plan(VectorAccess(base, sigma * (1 << x), 128))
        assert plan.conflict_free == (x <= 9)


class TestTMatchedHelper:
    def test_matches_theorem_boundaries(self, matched_planner):
        assert matched_planner.vector_t_matched(VectorAccess(3, 12, 128))
        assert not matched_planner.vector_t_matched(
            VectorAccess(3, 1 << 6, 128)
        )


#: (mapping, planner t) pairs spanning every branch of the Lemma-1 rule:
#: truly matched XOR (both s == t and s > t), unmatched Eq. (1)
#: (module bits above t — not closed-form), section XOR (matched and
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


CASE_IDS = [f"{mapping.describe()}-t{t}" for mapping, t in CASES]


def sweep(cases=CASES):
    for mapping, t in cases:
        planner = AccessPlanner(mapping, t)
        for stride in STRIDES:
            for length in LENGTHS:
                for base in BASES:
                    yield planner, VectorAccess(base, stride, length)


def reorder_feasible(planner: AccessPlanner, access: VectorAccess):
    """The Lemma-1 verdict: ``False`` when the decomposition refuses,
    the chunk arithmetic on closed-form planners, else ``None``."""
    try:
        _w, _key_of, chunk = planner.decomposition(access)
    except OrderingError:
        return False
    if not planner.closed_form:
        return None
    return access.length % chunk == 0


class TestDecomposition:
    @pytest.mark.parametrize("mapping, t", CASES, ids=CASE_IDS)
    def test_matches_the_planner_across_the_geometry_sweep(self, mapping, t):
        for planner, access in sweep([(mapping, t)]):
            verdict = reorder_feasible(planner, access)
            if verdict is None:
                continue
            where = (planner.mapping.describe(), planner.t, access)
            try:
                plan = planner.plan(access, mode="conflict_free")
            except OrderingError:
                assert verdict is False, where
            else:
                assert verdict is True, where
                # Success is not merely "an order exists": the produced
                # plan is always conflict-free, which is what lets the
                # batch engine's analytic tier skip measurement.
                assert plan.conflict_free, where

    def test_sweep_exercises_every_verdict(self):
        verdicts = {True: 0, False: 0, None: 0}
        for planner, access in sweep():
            verdicts[reorder_feasible(planner, access)] += 1
        assert verdicts[True] > 0
        assert verdicts[False] > 0
        assert verdicts[None] > 0

    def test_unmatched_eq1_memory_is_not_closed_form(self):
        # m != t: the alignment key sets can differ across subsequences,
        # so the chunk arithmetic stays silent and the plan decides.
        planner = AccessPlanner(MatchedXorMapping(4, 6), 3)
        assert planner.decomposition(VectorAccess(0, 2, 64))[2] == 1 << 8
        assert planner.closed_form is False

    def test_section_planner_t_mismatch_is_not_closed_form(self):
        planner = AccessPlanner(SectionXorMapping(3, 4, 8), 2)
        planner.decomposition(VectorAccess(0, 2, 64))
        assert planner.closed_form is False

    def test_mapping_without_window_structure_is_refused(self):
        planner = AccessPlanner(LowOrderInterleaved(3), 3)
        access = VectorAccess(0, 1, 64)
        with pytest.raises(OrderingError, match="no stride-window"):
            planner.decomposition(access)
        with pytest.raises(OrderingError):
            planner.plan(access, mode="conflict_free")

    def test_family_above_the_exponent_is_refused(self):
        with pytest.raises(OrderingError, match="lies above"):
            AccessPlanner(MatchedXorMapping(3, 4), 3).decomposition(
                VectorAccess(0, 1 << 5, 64)
            )
        with pytest.raises(OrderingError, match="exceeds"):
            AccessPlanner(SectionXorMapping(3, 4, 9), 3).decomposition(
                VectorAccess(0, 1 << 10, 64)
            )

    def test_subclassed_mapping_is_not_closed_form(self):
        # A subclass may override module_of; the chunk arithmetic only
        # vouches for the exact paper mappings.
        class Tweaked(MatchedXorMapping):
            def module_of(self, address: int) -> int:
                return super().module_of(address ^ 1)

        assert AccessPlanner(Tweaked(3, 4), 3).closed_form is False


class TestCanonicalModuleSequence:
    @pytest.mark.parametrize("mapping, t", CASES, ids=CASE_IDS)
    def test_matches_the_ordered_plan(self, mapping, t):
        # The batch engine takes the canonical order's modules from
        # module_sequence without building the plan.
        planner = AccessPlanner(mapping, t)
        for stride in (1, 3, 8, 12, -3):
            for base in (0, 7):
                access = VectorAccess(base, stride, 65)
                want = planner.plan(access, mode="ordered").modules
                got = mapping.module_sequence(base, stride, 65)
                assert tuple(got) == want, (mapping.describe(), access)

    def test_huge_base_takes_the_exact_path(self):
        # Addresses past 64 bits reduce exactly (arbitrary precision).
        mapping = MatchedXorMapping(3, 4)
        access = VectorAccess((1 << 62) + 5, 3, 33)
        want = AccessPlanner(mapping, 3).plan(access, mode="ordered").modules
        assert tuple(mapping.module_sequence(access.base, 3, 33)) == want


@st.composite
def closed_form_points(draw):
    """A closed-form planner, a feasible access and buffer depths."""
    t = draw(st.integers(min_value=1, max_value=3))
    s = draw(st.integers(min_value=t, max_value=t + 2))
    if draw(st.booleans()):
        mapping = MatchedXorMapping(t, s)
        w = s
    else:
        mapping = SectionXorMapping(t, s, s + t + draw(st.integers(0, 1)))
        w = mapping.y if draw(st.booleans()) else s
    # Keep the chunk 2**(w+t-x) at or below 512 elements.
    x = draw(st.integers(min_value=max(0, w + t - 9), max_value=w))
    sigma = draw(st.integers(min_value=-7, max_value=7).filter(lambda v: v % 2))
    chunks = draw(st.integers(min_value=1, max_value=3))
    base = draw(st.integers(min_value=0, max_value=2**20))
    access = VectorAccess(base, sigma << x, chunks << (w + t - x))
    config = MemoryConfig(
        mapping,
        t,
        draw(st.integers(min_value=1, max_value=3)),
        draw(st.integers(min_value=1, max_value=3)),
    )
    return config, access


class TestConflictFreeMeansMinimumLatency:
    @settings(max_examples=60, deadline=None)
    @given(point=closed_form_points())
    def test_closed_form_run_equals_the_kernel(self, point):
        # Section 2: conflict-free => T+L+1, checked at the kernel.
        config, access = point
        planner = AccessPlanner(config.mapping, config.t)
        assert planner.closed_form
        _w, _key_of, chunk = planner.decomposition(access)
        assert access.length % chunk == 0
        plan = planner.plan(access, mode="conflict_free")
        assert plan.conflict_free
        closed = AggregateRun.closed_form(
            module_histogram(plan.modules, config.module_count),
            config.service_ratio,
        )
        assert closed == MemoryKernel(config).run_aggregate(plan.modules)
        assert closed.latency == plan.minimum_latency
