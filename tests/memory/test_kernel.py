"""Equivalence and property tests for the unified memory kernel.

The kernel replaced three hand-written per-cycle loops (single-stream,
multi-stream, multi-port).  The strongest guarantee we can give is
cycle-for-cycle equivalence against a *reference implementation* — a
direct transcription of the legacy loops driving the unchanged
:class:`~repro.memory.module.MemoryModule` state machine — over the
seed workloads and over generated geometries, buffer depths, port
counts, policies and conflicting streams: every request's
issue/arrival/start/finish/delivery cycle, every stall counter and
every busy counter must match exactly.

On top of that, property tests pin the degenerate geometry to the
paper: ``ports = 1, streams = 1`` with a conflict-free access is
exactly the ``T + L + 1`` latency formula.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError, SimulationError
from repro.memory.config import MemoryConfig
from repro.memory.kernel import KernelStream, MemoryKernel
from repro.memory.module import InFlightRequest, MemoryModule
from repro.memory.multiport import MultiPortMemorySystem
from repro.memory.multistream import MultiStreamMemorySystem
from repro.memory.system import MemorySystem


# -- the reference implementation (transcribed legacy loops) -------------


def reference_run(config, streams, ports=1, policy="round_robin", starts=None):
    """The legacy per-cycle loop, generalised exactly as the three
    historical simulators composed it.

    ``ports = 1`` with one stream is the old ``MemorySystem`` loop,
    ``ports = 1`` with several streams the old ``MultiStreamMemorySystem``
    loop, and ``ports > 1`` the old ``MultiPortMemorySystem`` loop.
    ``starts`` gives each stream's ``start_cycle`` (default 1): a stream
    is invisible to its port before it.  Returns per-stream request
    records plus the counters the legacy result types exposed.
    """
    mapping = config.mapping
    pending = [
        [
            InFlightRequest(
                element_index=element,
                address=mapping.reduce(address),
                module=mapping.module_of(mapping.reduce(address)),
                is_store=position in stores,
            )
            for position, (element, address) in enumerate(stream)
        ]
        for stream, stores in streams
    ]
    modules = [
        MemoryModule(
            index,
            config.service_ratio,
            config.input_capacity,
            config.output_capacity,
        )
        for index in range(config.module_count)
    ]
    stream_count = len(pending)
    starts = starts or [1] * stream_count
    cursors = [0] * stream_count
    stalls = [0] * stream_count
    first_issue = [0] * stream_count
    last_delivery = [0] * stream_count
    owner_of: dict[int, int] = {}
    rotation = [0] * ports
    delivered = 0
    total = sum(len(stream) for stream in pending)
    bus_busy = 0
    bus_held = False
    cycle = 0
    guard = (total + 2) * (config.service_ratio + 2) + 64 + max(starts) - 1

    while delivered < total:
        cycle += 1
        assert cycle <= guard, "reference run exceeded the cycle guard"

        for port in range(ports):
            members = [
                index
                for index in range(stream_count)
                if index % ports == port
                and cursors[index] < len(pending[index])
                and starts[index] <= cycle
            ]
            if policy == "round_robin":
                members.sort(
                    key=lambda i: (i - rotation[port]) % stream_count
                )
            for stream_index in members:
                request = pending[stream_index][cursors[stream_index]]
                target = modules[request.module]
                if target.can_accept():
                    request.issue_cycle = cycle
                    request.arrival_cycle = cycle + 1
                    target.accept(request)
                    owner_of[id(request)] = stream_index
                    if first_issue[stream_index] == 0:
                        first_issue[stream_index] = cycle
                    cursors[stream_index] += 1
                    rotation[port] = stream_index + 1
                    bus_busy += 1
                    break
                stalls[stream_index] += 1
                if policy == "priority":
                    break

        ready = [
            module
            for module in modules
            if module.peek_deliverable(cycle) is not None
        ]
        grants = 0
        for _port in range(ports):
            # Oldest-first grant: ready cycle, then module index.
            heads = [
                (module.output_queue[0][0], module.index)
                for module in modules
                if module.peek_deliverable(cycle) is not None
            ]
            if not heads:
                break
            request = modules[min(heads)[1]].pop_deliverable()
            request.delivery_cycle = cycle
            stream_index = owner_of.pop(id(request))
            last_delivery[stream_index] = max(
                last_delivery[stream_index], cycle
            )
            delivered += 1
            grants += 1
        if len(ready) > grants:
            bus_held = True

        for module in modules:
            module.try_start(cycle)
            module.tick_stats()
        for module in modules:
            module.try_finish(cycle)

    return {
        "requests": pending,
        "total_cycles": cycle,
        "stalls": stalls,
        "first_issue": first_issue,
        "last_delivery": last_delivery,
        "bus_busy": bus_busy,
        "bus_held": bus_held,
        "module_busy": [module.busy_cycles for module in modules],
    }


def timing_tuples(requests):
    return [
        (
            r.element_index,
            r.address,
            r.module,
            r.issue_cycle,
            r.arrival_cycle,
            r.start_cycle,
            r.delivery_cycle,
        )
        for r in requests
    ]


MATCHED = MemoryConfig.matched(t=3, s=4)
MATCHED_Q2 = MemoryConfig.matched(t=3, s=4, input_capacity=2)
MATCHED_DEEP = MemoryConfig.matched(t=3, s=4, input_capacity=2, output_capacity=2)
UNMATCHED = MemoryConfig.unmatched(t=3, s=4, y=9, input_capacity=2)
SLOW = MemoryConfig.matched(t=4, s=5)

#: The seed workloads: (config, mode, vectors) triples covering the
#: conflict-free scheme, ordered (conflicting) access and short vectors.
SEED_CASES = [
    (MATCHED, "auto", [VectorAccess(16, 12, 128)]),
    (MATCHED, "conflict_free", [VectorAccess(16, 12, 128)]),
    (MATCHED, "ordered", [VectorAccess(0, 1 << 6, 128)]),
    (MATCHED, "ordered", [VectorAccess(0, 8, 64)]),
    (MATCHED_Q2, "auto", [VectorAccess(0, 12, 128), VectorAccess(1, 12, 128)]),
    (MATCHED_Q2, "auto", [VectorAccess(0, 1, 64), VectorAccess(3, 1, 64), VectorAccess(7, 5, 48)]),
    (MATCHED_DEEP, "ordered", [VectorAccess(0, 16, 96), VectorAccess(2, 16, 96)]),
    (UNMATCHED, "auto", [VectorAccess(0, 16, 64), VectorAccess(1 << 9, 16, 64)]),
    (UNMATCHED, "ordered", [VectorAccess(0, 12, 64), VectorAccess(512, 12, 64), VectorAccess(1024, 3, 64)]),
    (SLOW, "ordered", [VectorAccess(5, 32, 64)]),
]


def plan_streams(config, mode, vectors):
    planner = AccessPlanner(config.mapping, config.t)
    return [
        tuple(planner.plan(vector, mode=mode).request_stream())
        for vector in vectors
    ]


class TestSingleStreamEquivalence:
    @pytest.mark.parametrize("case", SEED_CASES, ids=str)
    def test_matches_reference(self, case):
        config, mode, vectors = case
        for stream in plan_streams(config, mode, vectors):
            reference = reference_run(config, [(stream, frozenset())])
            result = MemorySystem(config).run_stream(stream)
            assert result.latency == reference["total_cycles"]
            assert result.issue_stall_cycles == reference["stalls"][0]
            assert result.conflict_free == (
                all(not r.waited for r in reference["requests"][0])
                and not reference["bus_held"]
                and reference["stalls"][0] == 0
            )
            assert tuple(result.module_busy_cycles) == tuple(
                reference["module_busy"]
            )
            assert timing_tuples(result.requests) == timing_tuples(
                reference["requests"][0]
            )

    def test_store_positions_travel(self):
        stream = plan_streams(MATCHED, "auto", [VectorAccess(16, 12, 32)])[0]
        result = MemorySystem(MATCHED).run_stream(stream, stores=range(16))
        assert sum(1 for r in result.requests if r.is_store) == 16


class TestMultiStreamEquivalence:
    @pytest.mark.parametrize("case", SEED_CASES, ids=str)
    @pytest.mark.parametrize("policy", ["round_robin", "priority"])
    def test_matches_reference(self, case, policy):
        config, mode, vectors = case
        streams = plan_streams(config, mode, vectors)
        reference = reference_run(
            config, [(s, frozenset()) for s in streams], policy=policy
        )
        result = MultiStreamMemorySystem(config, policy=policy).run_streams(
            streams
        )
        assert result.total_cycles == reference["total_cycles"]
        assert result.bus_busy_cycles == reference["bus_busy"]
        for index, stream_result in enumerate(result.streams):
            assert stream_result.issue_stall_cycles == reference["stalls"][index]
            assert stream_result.first_issue_cycle == reference["first_issue"][index]
            assert stream_result.last_delivery_cycle == reference["last_delivery"][index]
            assert stream_result.wait_count == sum(
                1 for r in reference["requests"][index] if r.waited
            )


class TestMultiPortEquivalence:
    @pytest.mark.parametrize("case", SEED_CASES, ids=str)
    @pytest.mark.parametrize("ports", [1, 2, 3])
    def test_matches_reference(self, case, ports):
        config, mode, vectors = case
        if ports > config.module_count:
            pytest.skip("ports exceed modules")
        streams = plan_streams(config, mode, vectors)
        reference = reference_run(
            config, [(s, frozenset()) for s in streams], ports=ports
        )
        result = MultiPortMemorySystem(config, ports).run_streams(streams)
        assert result.total_cycles == reference["total_cycles"]
        assert result.bus_busy_cycles == reference["bus_busy"]
        for index, stream_result in enumerate(result.streams):
            assert stream_result.issue_stall_cycles == reference["stalls"][index]
            assert stream_result.first_issue_cycle == reference["first_issue"][index]
            assert stream_result.last_delivery_cycle == reference["last_delivery"][index]


def draw_config(draw):
    """A random geometry; ``t = 0`` gives ``T = 1``, where a module
    starts and finishes a request in the same cycle."""
    t = draw(st.integers(min_value=0, max_value=4))
    input_capacity = draw(st.integers(min_value=1, max_value=3))
    output_capacity = draw(st.integers(min_value=1, max_value=3))
    if t >= 1 and draw(st.booleans()):
        return MemoryConfig.unmatched(
            t, t, 2 * t, input_capacity, output_capacity
        )
    return MemoryConfig.matched(t, t + 1, input_capacity, output_capacity)


def draw_stream(draw, address):
    """``(requests, stores)`` of 1-24 addresses drawn from ``address``."""
    addresses = draw(st.lists(address, min_size=1, max_size=24))
    stores = draw(
        st.frozensets(st.integers(min_value=0, max_value=len(addresses) - 1))
    )
    return tuple(enumerate(addresses)), stores


def draw_address(draw):
    """An address strategy: a small pool of addresses piles requests
    onto a few modules; the wide range spreads them."""
    pool = draw(
        st.lists(
            st.integers(min_value=-16, max_value=255), min_size=1, max_size=4
        )
    )
    return st.one_of(
        st.sampled_from(pool), st.integers(min_value=-16, max_value=255)
    )


@st.composite
def kernel_cases(draw):
    """A random geometry plus 1-3 streams of arbitrary addresses that
    collide in modules and queues, each stream starting at cycle 1 or
    at a staggered cycle."""
    config = draw_config(draw)
    ports = draw(
        st.integers(min_value=1, max_value=min(3, config.module_count))
    )
    policy = draw(st.sampled_from(["round_robin", "priority"]))
    address = draw_address(draw)
    count = draw(st.integers(min_value=1, max_value=3))
    streams = [draw_stream(draw, address) for _ in range(count)]
    starts = [
        draw(st.one_of(st.just(1), st.integers(min_value=2, max_value=40)))
        for _ in range(count)
    ]
    return config, ports, policy, streams, starts


@st.composite
def single_stream_cases(draw):
    """One stream on a random geometry with 1-3 result ports."""
    config = draw_config(draw)
    ports = draw(
        st.integers(min_value=1, max_value=min(3, config.module_count))
    )
    return config, ports, draw_stream(draw, draw_address(draw))


def blocking_case(ports, policy, *address_lists):
    """Unmatched ``T = 2``, ``q = 3``, ``q' = 1``: deep input queues
    on a hot module, then result-bus contention, leave a finished
    result blocked on ``q'`` while requests wait behind it.  Random
    cases reach that state about once in two thousand."""
    config = MemoryConfig.unmatched(1, 1, 2, 3, 1)
    streams = [
        (tuple(enumerate(addresses)), frozenset())
        for addresses in address_lists
    ]
    return config, ports, policy, streams, [1] * len(streams)


#: One stream that leaves a finished result blocked on ``q'`` while
#: requests wait behind it (under :func:`blocking_case`'s geometry).
BLOCKING_ADDRESSES = [
    139, 244, 244, 244, 244, 227, 47, 244, 119, -10, 10, 37, 152, 118, 228,
    228, 181, 244, 177, 244, 244, 244, 242,
]


def single_blocking_case(ports, start_cycle):
    """:data:`BLOCKING_ADDRESSES` as a single-stream case starting at
    ``start_cycle``, every third request a store."""
    config, _ports, policy, ((requests, _stores),), _starts = blocking_case(
        ports, "round_robin", BLOCKING_ADDRESSES
    )
    stores = frozenset(range(0, len(requests), 3))
    return config, ports, policy, [(requests, stores)], [start_cycle]


class TestDifferentialAgainstReference:
    """The kernel equals the reference loop request by request over
    generated geometries, buffer depths, port counts and policies."""

    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases())
    @example(case=blocking_case(1, "round_robin", BLOCKING_ADDRESSES))
    @example(
        case=blocking_case(
            1,
            "round_robin",
            [228, 17, 113, 126, 149, 126, 204, 113, 113, 113, 126, 29],
            [113, 113, 126, 126, 252, 126, 129, 126, 126, 103, 113],
        )
    )
    @example(case=single_blocking_case(ports=1, start_cycle=1))
    @example(case=single_blocking_case(ports=3, start_cycle=9))
    @example(
        # ``T = 1``: a module starts and finishes in the same cycle.
        case=(
            MemoryConfig.matched(0, 1, 1, 1),
            1,
            "round_robin",
            [
                (
                    tuple(enumerate([0, 0, 1, 0, 1, 1, 0, 3, 2, 0])),
                    frozenset({1, 4}),
                )
            ],
            [5],
        )
    )
    def test_matches_reference(self, case):
        config, ports, policy, streams, starts = case
        reference = reference_run(
            config, streams, ports=ports, policy=policy, starts=starts
        )
        run = MemoryKernel(config, ports=ports, policy=policy).run(
            [
                KernelStream.of(
                    f"s{index}", stream, stores=stores, start_cycle=begin
                )
                for index, ((stream, stores), begin) in enumerate(
                    zip(streams, starts)
                )
            ]
        )
        assert run.total_cycles == reference["total_cycles"]
        assert run.bus_busy_cycles == reference["bus_busy"]
        assert run.bus_held_result == reference["bus_held"]
        assert list(run.module_busy_cycles) == reference["module_busy"]
        for index, stream in enumerate(run.streams):
            expected = reference["requests"][index]
            assert timing_tuples(stream.requests) == timing_tuples(expected)
            assert [r.is_store for r in stream.requests] == [
                r.is_store for r in expected
            ]
            assert stream.issue_stall_cycles == reference["stalls"][index]
            assert stream.first_issue_cycle == reference["first_issue"][index]
            assert (
                stream.last_delivery_cycle
                == reference["last_delivery"][index]
            )
            assert stream.wait_count == sum(1 for r in expected if r.waited)


class TestAggregateRun:
    """``run_aggregate`` reports exactly ``run()``'s aggregates."""

    @settings(max_examples=150, deadline=None)
    @given(case=single_stream_cases())
    def test_equals_run_aggregates(self, case):
        config, ports, (requests, stores) = case
        kernel = MemoryKernel(config, ports=ports)
        run = kernel.run([KernelStream.of("s0", requests, stores)])
        (stream,) = run.streams
        modules = [request.module for request in stream.requests]
        aggregate = kernel.run_aggregate(modules)
        assert aggregate.latency == run.total_cycles
        assert aggregate.issue_stall_cycles == stream.issue_stall_cycles
        assert aggregate.wait_count == stream.wait_count
        assert aggregate.bus_held_result == run.bus_held_result
        assert aggregate.element_count == stream.element_count
        assert aggregate.module_busy_cycles == run.module_busy_cycles
        assert aggregate.conflict_free == (
            stream.conflict_free and not run.bus_held_result
        )

    def test_empty_sequence_rejected(self):
        with pytest.raises(SimulationError):
            MemoryKernel(MATCHED).run_aggregate([])

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_module_out_of_range_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="module numbers"):
            MemoryKernel(MATCHED).run_aggregate([0, bad])


class TestDegenerateGeometry:
    """``ports = 1, streams = 1`` is exactly the paper's machine."""

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(min_value=0, max_value=4),
        stride=st.integers(min_value=1, max_value=64),
        length=st.integers(min_value=4, max_value=128),
        base=st.integers(min_value=0, max_value=1024),
    )
    def test_conflict_free_hits_minimum_latency(self, t, stride, length, base):
        config = MemoryConfig.matched(t=t, s=5)
        planner = AccessPlanner(config.mapping, t)
        plan = planner.plan(VectorAccess(base, stride, length), mode="auto")
        run = MemoryKernel(config).run([plan.request_stream()])
        stream = run.streams[0]
        conflict_free = stream.conflict_free and not run.bus_held_result
        if conflict_free:
            assert run.total_cycles == config.service_ratio + length + 1
        else:
            assert run.total_cycles > config.service_ratio + length + 1

    @settings(max_examples=30, deadline=None)
    @given(
        stride=st.integers(min_value=1, max_value=48),
        length=st.integers(min_value=4, max_value=96),
    )
    def test_kernel_view_equals_memory_system(self, stride, length):
        plan = AccessPlanner(MATCHED.mapping, 3).plan(
            VectorAccess(0, stride, length), mode="auto"
        )
        via_view = MemorySystem(MATCHED).run_plan(plan)
        run = MemoryKernel(MATCHED).run([plan.request_stream()])
        assert via_view.latency == run.total_cycles
        assert via_view.issue_stall_cycles == run.streams[0].issue_stall_cycles


class TestKernelValidation:
    def test_ports_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="'ports'"):
            MemoryKernel(MATCHED, ports=0)

    def test_ports_bounded_by_modules(self):
        with pytest.raises(ConfigurationError, match="'ports'"):
            MemoryKernel(MATCHED, ports=9)

    def test_config_ports_validated(self):
        with pytest.raises(ConfigurationError, match="'ports'"):
            MemoryConfig.matched(t=3, s=4, ports=0)
        with pytest.raises(ConfigurationError, match="'ports'"):
            MemoryConfig.matched(t=3, s=4, ports=16)

    def test_colliding_stream_names(self):
        kernel = MemoryKernel(MATCHED)
        streams = [
            KernelStream.of("same", [(0, 0)]),
            KernelStream.of("same", [(0, 8)]),
        ]
        with pytest.raises(ConfigurationError, match="colliding stream names"):
            kernel.run(streams)

    def test_stream_port_out_of_range(self):
        kernel = MemoryKernel(MATCHED, ports=2)
        with pytest.raises(ConfigurationError, match="'port'"):
            kernel.run([KernelStream.of("a", [(0, 0)], port=5)])

    def test_unknown_policy(self):
        with pytest.raises(SimulationError):
            MemoryKernel(MATCHED, policy="bogus")

    def test_empty_streams_rejected(self):
        kernel = MemoryKernel(MATCHED)
        with pytest.raises(SimulationError):
            kernel.run([])
        with pytest.raises(SimulationError):
            kernel.run([[]])


class TestKernelRunRecord:
    def test_port_occupancy_reported(self):
        vectors = [VectorAccess(0, 16, 32), VectorAccess(1 << 9, 16, 32)]
        run = MemoryKernel(UNMATCHED, ports=2).run(
            plan_streams(UNMATCHED, "auto", vectors)
        )
        assert run.ports == 2
        assert [stream.port for stream in run.streams] == [0, 1]
        assert sum(run.port_issue_cycles) == run.bus_busy_cycles == 64
        assert run.aggregate_elements == 64
        # Stream i issues on port i % ports, wrapping past the port count.
        wide = MemoryKernel(UNMATCHED, ports=2).run(
            plan_streams(
                UNMATCHED, "auto", [*vectors, VectorAccess(1 << 10, 16, 32)]
            )
        )
        assert [stream.port for stream in wide.streams] == [
            index % 2 for index in range(3)
        ]

    def test_busy_attribution_sums_to_total(self):
        streams = plan_streams(
            MATCHED_Q2, "auto", [VectorAccess(0, 12, 64), VectorAccess(1, 12, 64)]
        )
        run = MemoryKernel(MATCHED_Q2).run(streams)
        per_stream = [
            tuple(
                MATCHED_Q2.service_ratio * count
                for count in stream.module_request_counts
            )
            for stream in run.streams
        ]
        combined = tuple(sum(parts) for parts in zip(*per_stream))
        assert combined == run.module_busy_cycles


class TestPerStreamHoldAttribution:
    """A held result only taints the stream whose delivery slipped."""

    @staticmethod
    def one_request_stream(name, index, module, delivery):
        from repro.memory.kernel import StreamRun

        return StreamRun(
            name=name,
            index=index,
            port=0,
            first_issue_cycle=1,
            last_delivery_cycle=delivery,
            issue_stall_cycles=0,
            requests=(
                InFlightRequest(
                    element_index=0,
                    address=module,
                    module=module,
                    issue_cycle=1,
                    arrival_cycle=2,
                    start_cycle=2,
                    finish_cycle=9,
                    delivery_cycle=delivery,
                ),
            ),
            module_request_counts=tuple(
                1 if m == module else 0 for m in range(8)
            ),
        )

    def test_clean_stream_stays_conflict_free(self):
        from repro.memory.kernel import KernelRun
        from repro.memory.system import access_result_from_run

        clean = self.one_request_stream("clean", 0, 0, delivery=10)
        held = self.one_request_stream("held", 1, 1, delivery=11)
        run = KernelRun(
            streams=(clean, held),
            total_cycles=11,
            ports=1,
            bus_busy_cycles=2,
            bus_held_result=True,
            module_busy_cycles=(8, 8, 0, 0, 0, 0, 0, 0),
        )
        assert not clean.result_held
        assert held.result_held
        assert access_result_from_run(run, 0, 8).conflict_free
        assert not access_result_from_run(run, 1, 8).conflict_free

    def test_single_stream_keeps_global_flag(self):
        from repro.memory.kernel import KernelRun
        from repro.memory.system import access_result_from_run

        clean = self.one_request_stream("only", 0, 0, delivery=10)
        run = KernelRun(
            streams=(clean,),
            total_cycles=10,
            ports=1,
            bus_busy_cycles=1,
            bus_held_result=True,
            module_busy_cycles=(8, 0, 0, 0, 0, 0, 0, 0),
        )
        assert not access_result_from_run(run, 0, 8).conflict_free
