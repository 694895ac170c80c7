"""The process-wide plan cache and the facade's machine templates.

A cache hit must be indistinguishable from recomputation across the
same geometry sweep that pins the planner's Lemma-1 rule
(tests/core/test_planner.py): every proven mapping kind, stride
family, length and base.  Disabling either cache via its environment
knob must change nothing but speed, the LRU must evict oldest-first,
and mappings without a declared ``cache_token`` must never be cached.
"""

from __future__ import annotations

import pytest

from repro.core.planner import (
    PLAN_CACHE_ENV,
    AccessPlanner,
    PlanCache,
    clear_plan_cache,
    plan_cache_enabled,
    plan_cache_stats,
)
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError
from repro.mappings.base import AddressMapping
from repro.mappings.interleaved import FieldInterleaved, LowOrderInterleaved
from repro.mappings.linear import MatchedXorMapping
from repro.mappings.section import SectionXorMapping
from repro.mappings.skewed import SkewedMapping

#: The Lemma-1 geometry sweep (tests/core/test_planner.py), reused
#: as the cache-correctness population: every proven mapping kind,
#: stride family (negative and odd included), non-chunk lengths,
#: length 1, and nonzero bases.
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
        for stride in STRIDES:
            for length in LENGTHS:
                for base in BASES:
                    yield mapping, t, VectorAccess(base, stride, length)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestPlanCacheCorrectness:
    def test_warm_plans_equal_cold_plans_across_the_sweep(self):
        cold = [
            AccessPlanner(mapping, t).plan(access)
            for mapping, t, access in sweep()
        ]
        before = plan_cache_stats()
        warm = [
            AccessPlanner(mapping, t).plan(access)
            for mapping, t, access in sweep()
        ]
        after = plan_cache_stats()
        assert cold == warm
        # Every sweep point carries a cache token, so the second pass
        # is all hits — and hits return the identical frozen object.
        assert after["plan_cache_hits"] - before["plan_cache_hits"] == len(
            cold
        )
        for left, right in zip(cold, warm):
            assert left is right

    def test_disabled_cache_produces_equal_plans(self, monkeypatch):
        cached = [
            AccessPlanner(mapping, t).plan(access)
            for mapping, t, access in sweep()
        ]
        monkeypatch.setenv(PLAN_CACHE_ENV, "0")
        assert not plan_cache_enabled()
        before = plan_cache_stats()
        uncached = [
            AccessPlanner(mapping, t).plan(access)
            for mapping, t, access in sweep()
        ]
        assert plan_cache_stats() == before  # never consulted
        assert cached == uncached

    def test_tokenless_mappings_are_never_cached(self):
        class AnonymousMapping(AddressMapping):
            def __init__(self):
                super().__init__(module_bits=3, address_bits=32)

            def module_of(self, address: int) -> int:
                return address % 8

            def displacement_of(self, address: int) -> int:
                return address // 8

            def describe(self) -> str:
                return "anonymous"

        mapping = AnonymousMapping()
        assert mapping.cache_token() is None
        planner = AccessPlanner(mapping, 3)
        before = plan_cache_stats()
        first = planner.plan(VectorAccess(0, 3, 64))
        second = planner.plan(VectorAccess(0, 3, 64))
        assert first == second
        assert plan_cache_stats() == before

    def test_same_token_different_type_do_not_collide(self):
        # A subclass overriding module_of but not cache_token must get
        # its own entries: the key pairs the token with type(mapping).
        class ShiftedXor(MatchedXorMapping):
            def module_of(self, address: int) -> int:
                return (super().module_of(address) + 1) % self.module_count

        base = MatchedXorMapping(3, 4)
        shifted = ShiftedXor(3, 4)
        assert base.cache_token() == shifted.cache_token()
        access = VectorAccess(0, 3, 64)
        plan_base = AccessPlanner(base, 3).plan(access, mode="ordered")
        plan_shifted = AccessPlanner(shifted, 3).plan(
            access, mode="ordered"
        )
        assert plan_base.modules != plan_shifted.modules


class TestPlanCacheMechanics:
    def test_lru_evicts_oldest_first(self):
        cache = PlanCache(capacity=2)
        cache.store(("a",), "plan-a")
        cache.store(("b",), "plan-b")
        assert cache.lookup(("a",)) == "plan-a"  # refreshes a
        cache.store(("c",), "plan-c")  # evicts b, the LRU entry
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) == "plan-a"
        assert cache.lookup(("c",)) == "plan-c"
        stats = cache.stats()
        assert stats["plan_cache_entries"] == 2
        assert stats["plan_cache_hits"] == 3
        assert stats["plan_cache_misses"] == 1

    def test_capacity_below_one_is_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            PlanCache(capacity=0)

    def test_clear_resets_counters_and_entries(self):
        cache = PlanCache(capacity=4)
        cache.store(("a",), "plan-a")
        cache.lookup(("a",))
        cache.lookup(("missing",))
        cache.clear()
        assert cache.stats() == {
            "plan_cache_hits": 0,
            "plan_cache_misses": 0,
            "plan_cache_entries": 0,
            "plan_cache_capacity": 4,
        }

    def test_stats_surface_through_obs(self):
        from repro.obs import cache_stats

        merged = cache_stats()
        assert "plan_cache_hits" in merged
        assert "machine_cache_hits" in merged


class TestMachineTemplates:
    def spec(self, name="mc", q=2):
        from repro.scenarios import ScenarioSpec

        return ScenarioSpec.from_dict(
            {
                "name": name,
                "mapping": {
                    "kind": "matched-xor",
                    "params": {"t": 3, "s": 4},
                },
                "memory": {"t": 3, "q": q},
                "workload": {
                    "kind": "strided",
                    "params": {"base": 0, "stride": 3, "length": 64},
                },
            }
        )

    @pytest.fixture(autouse=True)
    def fresh_machine_cache(self):
        from repro.scenarios.facade import clear_machine_cache

        clear_machine_cache()
        yield
        clear_machine_cache()

    def test_identical_sections_share_one_config_object(self):
        from repro.scenarios.facade import build_config, machine_cache_stats

        first = build_config(self.spec(name="one"))
        second = build_config(self.spec(name="two"))
        assert first is second
        stats = machine_cache_stats()
        assert stats["machine_cache_hits"] == 1
        assert stats["machine_cache_misses"] == 1

    def test_different_memory_sections_do_not_share(self):
        from repro.scenarios.facade import build_config

        assert build_config(self.spec(q=2)) is not build_config(
            self.spec(q=4)
        )

    def test_disabled_cache_builds_equal_fresh_configs(self, monkeypatch):
        from repro.scenarios.facade import (
            MACHINE_CACHE_ENV,
            build_config,
            machine_cache_stats,
        )

        cached = build_config(self.spec())
        monkeypatch.setenv(MACHINE_CACHE_ENV, "0")
        before = machine_cache_stats()
        fresh = build_config(self.spec())
        assert machine_cache_stats() == before
        assert fresh is not cached
        # Mapping objects compare by identity, so compare the config
        # field-wise with the mappings reduced to their declared tokens.
        assert fresh.mapping.cache_token() == cached.mapping.cache_token()
        assert (
            fresh.t,
            fresh.input_capacity,
            fresh.output_capacity,
            fresh.ports,
        ) == (
            cached.t,
            cached.input_capacity,
            cached.output_capacity,
            cached.ports,
        )

    def test_dynamic_mappings_are_never_cached(self):
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.facade import build_config, machine_cache_stats

        spec = ScenarioSpec.from_dict(
            {
                "name": "dyn",
                "mapping": {"kind": "dynamic", "params": {"m": 3}},
                "memory": {"t": 3},
                "workload": {
                    "kind": "strided",
                    "params": {"base": 0, "stride": 3, "length": 64},
                },
            }
        )
        before = machine_cache_stats()
        first = build_config(spec)
        second = build_config(spec)
        assert machine_cache_stats() == before
        assert first is not second

    def test_simulation_results_match_with_cache_disabled(self, monkeypatch):
        from repro.scenarios import simulate
        from repro.scenarios.facade import MACHINE_CACHE_ENV

        cached = simulate(self.spec()).to_dict()
        monkeypatch.setenv(MACHINE_CACHE_ENV, "0")
        monkeypatch.setenv(PLAN_CACHE_ENV, "0")
        assert simulate(self.spec()).to_dict() == cached
