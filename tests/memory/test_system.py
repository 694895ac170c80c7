"""Tests for the cycle-accurate memory system — the timing contract."""

from __future__ import annotations

import pytest

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import SimulationError
from repro.memory.config import MemoryConfig
from repro.memory.system import MemorySystem


class TestLatencyContract:
    def test_single_request(self, matched_system):
        result = matched_system.run_stream([(0, 0)])
        # Issue at 1, at module at 2, busy 2..9, delivered at 10 = T+1+1.
        assert result.latency == 8 + 1 + 1
        assert result.conflict_free

    def test_conflict_free_vector_is_t_plus_l_plus_1(
        self, matched_planner, matched_system
    ):
        plan = matched_planner.plan(VectorAccess(16, 12, 128))
        result = matched_system.run_plan(plan)
        assert result.latency == 8 + 128 + 1
        assert result.conflict_free
        assert result.issue_stall_cycles == 0
        assert result.wait_count == 0

    def test_static_and_dynamic_verdicts_agree(
        self, matched_planner, matched_system
    ):
        """The simulator and the Section 2 predicate must agree."""
        for family in range(7):
            for base in (0, 5, 1000):
                plan = matched_planner.plan(
                    VectorAccess(base, 3 * (1 << family), 128)
                )
                result = matched_system.run_plan(plan)
                assert result.conflict_free == plan.conflict_free, (
                    family,
                    base,
                )

    def test_worst_case_single_module(self):
        """All requests to one module: throughput 1 per T cycles."""
        config = MemoryConfig.matched(t=3, s=4, input_capacity=4)
        system = MemorySystem(config)
        # Stride 2**(s+t) = 128: every element in the same module.
        plan = AccessPlanner(config.mapping, 3).plan(
            VectorAccess(0, 128, 32), mode="ordered"
        )
        result = system.run_plan(plan)
        # Steady state: one element per 8 cycles.
        assert result.latency >= 32 * 8
        assert not result.conflict_free
        assert result.module_busy_cycles[config.mapping.module_of(0)] == 256

    def test_empty_stream_rejected(self, matched_system):
        with pytest.raises(SimulationError):
            matched_system.run_stream([])


class TestDeliveryOrder:
    def test_conflict_free_delivers_in_issue_order(
        self, matched_planner, matched_system
    ):
        plan = matched_planner.plan(VectorAccess(16, 12, 64))
        result = matched_system.run_plan(plan)
        assert result.delivery_order() == [
            index for index, _ in plan.request_stream()
        ]

    def test_deliveries_one_per_cycle(self, matched_planner, matched_system):
        plan = matched_planner.plan(VectorAccess(16, 12, 64))
        result = matched_system.run_plan(plan)
        deliveries = sorted(r.delivery_cycle for r in result.requests)
        assert deliveries == list(range(10, 10 + 64))


class TestBuffering:
    def test_more_buffers_reduce_latency_of_conflicting_stream(self):
        vector = VectorAccess(16, 12, 128)
        latencies = {}
        for q in (1, 2, 4):
            config = MemoryConfig.matched(t=3, s=4, input_capacity=q)
            planner = AccessPlanner(config.mapping, 3)
            plan = planner.plan(vector, mode="ordered")
            latencies[q] = MemorySystem(config).run_plan(plan).latency
        assert latencies[1] >= latencies[2] >= latencies[4]

    def test_subsequence_order_bounded_excess(self):
        """Section 3.1/[15]: q=2, q'=1 gives latency <= 2T + L."""
        config = MemoryConfig.matched(
            t=3, s=4, input_capacity=2, output_capacity=1
        )
        planner = AccessPlanner(config.mapping, 3)
        system = MemorySystem(config)
        for family in range(5):
            for base in (0, 3, 500):
                plan = planner.plan(
                    VectorAccess(base, 5 * (1 << family), 128),
                    mode="subsequence",
                )
                result = system.run_plan(plan)
                assert result.latency <= 2 * 8 + 128, (family, base)


class TestStores:
    def test_store_stream_same_timing(self, matched_planner, matched_system):
        plan = matched_planner.plan(VectorAccess(16, 12, 128))
        result = matched_system.run_stream(
            plan.request_stream(), stores=range(128)
        )
        assert result.latency == 137
        assert all(request.is_store for request in result.requests)


class TestGuard:
    def test_livelock_guard_generous(self, matched_system):
        # A legitimate fully-serialised stream must not trip the guard.
        stream = [(i, i * 128) for i in range(16)]
        result = matched_system.run_stream(stream)
        assert result.latency > 16 * 8 // 2  # ran to completion


class TestResultRecords:
    def test_per_request_latency(self, matched_planner, matched_system):
        plan = matched_planner.plan(VectorAccess(0, 1, 128))
        result = matched_system.run_plan(plan)
        for request in result.requests:
            assert request.latency == 8 + 2  # T busy + bus both ways

    def test_cycles_per_element(self, matched_planner, matched_system):
        plan = matched_planner.plan(VectorAccess(0, 1, 128))
        result = matched_system.run_plan(plan)
        assert result.cycles_per_element == pytest.approx(137 / 128)

    def test_excess_latency(self, matched_planner, matched_system):
        plan = matched_planner.plan(VectorAccess(0, 1, 128))
        result = matched_system.run_plan(plan)
        assert result.excess_latency(8) == 0
