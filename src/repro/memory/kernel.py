"""The one memory kernel: M modules × k ports × n streams, cycle-level.

Every cycle-accurate memory simulation in the library runs through
:class:`MemoryKernel`.  It generalises the Figure 2 machine along the
two axes the paper's Section 6 defers to future work:

* ``ports`` — ``k >= 1`` address/result bus pairs.  Each port carries at
  most one request and one result per cycle, so ``k`` requests can enter
  and ``k`` results can return per cycle (module bandwidth permitting);
* ``streams`` — ``n >= 1`` named request sequences, each bound to one
  port.  Streams sharing a port take turns under an issue policy
  (``round_robin`` or ``priority``); streams on different ports issue
  concurrently.

The historical simulators are thin views over this kernel:
:class:`~repro.memory.system.MemorySystem` is ``k = 1, n = 1``,
:class:`~repro.memory.multistream.MultiStreamMemorySystem` is ``k = 1,
n >= 1`` and :class:`~repro.memory.multiport.MultiPortMemorySystem` is
``k >= 1, n >= 1`` — all with bit-identical metrics to the per-cycle
loops they replaced (the equivalence suite in ``tests/memory/
test_kernel.py`` drives both against a reference implementation).

Timing contract (unchanged from the package docstring, per port):

* one request per port per cycle; a stream whose head request targets a
  module with a full input queue stalls (and, under ``round_robin``,
  yields the port to the next stream);
* address bus delay 1 cycle: a request issued at ``c`` arrives at
  ``c + 1``;
* a module starts the head request when idle; service takes ``T``
  cycles and needs the output queue to drain (``q'`` back-pressure);
* one result per port per cycle, arbitrated oldest-first, delivered the
  cycle it is granted; a result finishing service at the end of cycle
  ``f`` is first deliverable at ``f + 1``.

Hence ``ports = 1, streams = 1`` degenerates exactly to the paper's
conflict-free minimum latency ``T + L + 1``.

Performance: the kernel is event-driven, so the host cost of a cycle
scales with the events in it, not with the number of active modules.
Per-module state lives in flat preallocated lists, and a cycle touches
only the modules named by four event structures: a FIFO of service
completions (service time is the constant ``T``, so modules finish in
the order they started), the set of idle modules with queued requests,
the set of modules blocked on ``q'``, and a ``(ready, module)`` heap
over the non-empty output queues that makes the oldest-first grant a
heap pop.  A port bound to a single stream issues without candidate
selection, and per-stream wait counts are read off the issue and start
cycles after the loop.  When a cycle passes with no issue, no grant, no
service start and no completion, the loop jumps straight to the next
scheduled event (service completion, result-ready edge or staggered
stream start), accounting the skipped stall cycles arithmetically.

The paper's own case, one stream, has its own address phase and event
skip inside the same loop: no candidate selection, rotation or per-port
bookkeeping, and an idle cycle is skipped before it runs rather than
after.  The input's stream count selects them; the result and module
phases are common.
:meth:`MemoryKernel.run_aggregate` runs a module sequence alone and
returns only the aggregates (:class:`AggregateRun`), skipping address
reduction and per-request records: it is the batch engine's middle
tier.  ``benchmarks/bench_simulator_perf.py`` and ``perfbench/run.py
--workload {program,strided}-sweep`` track the resulting throughput.
"""

from __future__ import annotations

from collections import deque
from dataclasses import InitVar, dataclass, field
from heapq import heappop, heappush
from operator import sub
from typing import Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.memory.config import MemoryConfig
from repro.memory.module import InFlightRequest
from repro.obs.tracer import resolve_tracer

#: Issue policies for streams sharing one port.
ISSUE_POLICIES = ("round_robin", "priority")


@dataclass(frozen=True)
class KernelStream:
    """One named request stream bound to a port.

    ``requests`` are ``(element_index, address)`` pairs in issue order
    (addresses are reduced through the mapping by the kernel).
    ``stores`` lists stream positions that are store operations.
    ``port`` binds the stream to an address/result bus pair; ``None``
    means automatic round-robin binding (stream ``i`` -> port
    ``i % ports``).  ``start_cycle`` staggers injection: the stream is
    invisible to its port until that kernel-relative cycle (default 1,
    i.e. eligible from the first cycle) — cycles spent waiting for the
    start are deliberate delay, not issue stalls.
    """

    name: str
    requests: tuple[tuple[int, int], ...]
    stores: frozenset[int] = frozenset()
    port: int | None = None
    start_cycle: int = 1

    @classmethod
    def of(
        cls,
        name: str,
        requests: Sequence[tuple[int, int]],
        stores: Sequence[int] = (),
        port: int | None = None,
        start_cycle: int = 1,
    ) -> "KernelStream":
        return cls(name, tuple(requests), frozenset(stores), port, start_cycle)


@dataclass(frozen=True)
class StreamRun:
    """Per-stream outcome of one kernel run.

    Cycle fields are kernel-relative (the run starts at cycle 1).
    ``module_request_counts`` attributes each module's load to this
    stream, so per-stream busy accounting (``service_ratio *
    count``) stays exact even when streams share modules.  ``waits``
    is the kernel's count of requests that queued behind a busy
    module, read off the issue and start cycles after the loop; when
    omitted it is counted from ``requests``.
    """

    name: str
    index: int
    port: int
    first_issue_cycle: int
    last_delivery_cycle: int
    issue_stall_cycles: int
    requests: tuple[InFlightRequest, ...]
    module_request_counts: tuple[int, ...]
    start_cycle: int = 1
    waits: InitVar[int | None] = None

    def __post_init__(self, waits: int | None) -> None:
        if waits is None:
            waits = sum(1 for request in self.requests if request.waited)
        object.__setattr__(self, "_wait_count", waits)

    @property
    def element_count(self) -> int:
        return len(self.requests)

    @property
    def latency(self) -> int:
        """Cycles from this stream's first issue to its last delivery."""
        return self.last_delivery_cycle - self.first_issue_cycle + 1

    @property
    def wait_count(self) -> int:
        """Requests that queued behind a busy module."""
        return self._wait_count

    @property
    def conflict_free(self) -> bool:
        return self.wait_count == 0 and self.issue_stall_cycles == 0

    @property
    def result_held(self) -> bool:
        """Some result of *this stream* was delivered later than the
        first cycle it was deliverable (``finish + 1``) — held back by
        result-bus contention or ``q'`` back-pressure.  The per-stream
        counterpart of :attr:`KernelRun.bus_held_result`."""
        return any(
            request.delivery_cycle > request.finish_cycle + 1
            for request in self.requests
        )


@dataclass(frozen=True)
class KernelRun:
    """Aggregate outcome of one kernel run."""

    streams: tuple[StreamRun, ...]
    total_cycles: int
    ports: int
    bus_busy_cycles: int
    bus_held_result: bool
    module_busy_cycles: tuple[int, ...]
    port_issue_cycles: tuple[int, ...] = field(default_factory=tuple)

    @property
    def aggregate_elements(self) -> int:
        return sum(stream.element_count for stream in self.streams)

    @property
    def bus_utilisation(self) -> float:
        return self.bus_busy_cycles / (self.total_cycles * self.ports)


@dataclass(frozen=True)
class AggregateRun:
    """Aggregate outcome of one single-stream run, without per-request
    records: what :meth:`MemoryKernel.run_aggregate` returns.

    Attribute-compatible with :class:`repro.memory.system.AccessResult`
    for everything the scenario aggregation reads (latency, stalls,
    waits, busy cycles, conflict-freedom, element count).
    """

    latency: int
    issue_stall_cycles: int
    wait_count: int
    bus_held_result: bool
    element_count: int
    module_busy_cycles: tuple[int, ...]

    @classmethod
    def closed_form(
        cls, histogram: Sequence[int], service_ratio: int
    ) -> "AggregateRun":
        """The run of a conflict-free access, without simulating it.

        Section 2: an access whose every ``T`` consecutive requests hit
        distinct modules completes in exactly ``T + L + 1`` cycles with
        no stall, wait or held result.  ``histogram`` is the requests
        per module (order-invariant); each request keeps its module
        busy for ``T`` cycles.
        """
        length = sum(histogram)
        return cls(
            latency=service_ratio + length + 1,
            issue_stall_cycles=0,
            wait_count=0,
            bus_held_result=False,
            element_count=length,
            module_busy_cycles=tuple(
                service_ratio * count for count in histogram
            ),
        )

    @property
    def conflict_free(self) -> bool:
        """The single-stream verdict: no request waited, no issue
        stalled, and no result was held back on the result bus."""
        return (
            self.wait_count == 0
            and self.issue_stall_cycles == 0
            and not self.bus_held_result
        )


def module_histogram(modules: Sequence[int], module_count: int) -> list[int]:
    """Requests per module."""
    counts = [0] * module_count
    for module in modules:
        counts[module] += 1
    return counts


def wait_count(issue: Sequence[int], start: Sequence[int]) -> int:
    """Requests that did not start service the cycle they arrived
    (the cycle after their issue)."""
    return len(issue) - list(map(sub, start, issue)).count(1)


class MemoryKernel:
    """Cycle-level simulator of M modules fed by k ports and n streams.

    Parameters
    ----------
    config:
        Memory geometry (mapping, ``T``, buffer depths, default port
        count).
    ports:
        Address/result bus pairs; defaults to ``config.ports``.
    policy:
        How streams sharing one port take turns: ``"round_robin"``
        (rotate past the last issuer) or ``"priority"`` (lowest stream
        index first, head-of-line blocking).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  Events are derived
        *after* the cycle loop from the per-request timing records the
        kernel materialises anyway, so the hot loop is identical with
        tracing on or off and a ``None``/null tracer costs nothing.
    """

    def __init__(
        self,
        config: MemoryConfig,
        *,
        ports: int | None = None,
        policy: str = "round_robin",
        tracer=None,
    ):
        resolved_ports = config.ports if ports is None else ports
        if not isinstance(resolved_ports, int) or isinstance(
            resolved_ports, bool
        ):
            raise ConfigurationError(
                f"kernel field 'ports' must be an integer, got "
                f"{resolved_ports!r}"
            )
        if resolved_ports < 1:
            raise ConfigurationError(
                f"kernel field 'ports' must be >= 1, got {resolved_ports}"
            )
        if resolved_ports > config.module_count:
            raise ConfigurationError(
                f"kernel field 'ports' ({resolved_ports}) cannot exceed the "
                f"module count M={config.module_count}: each port needs at "
                "least one module to talk to"
            )
        if policy not in ISSUE_POLICIES:
            raise SimulationError(f"unknown issue policy {policy!r}")
        self.config = config
        self.ports = resolved_ports
        self.policy = policy
        self.tracer = resolve_tracer(tracer)

    # -- public API -----------------------------------------------------

    def run(
        self, streams: Sequence[KernelStream | Sequence[tuple[int, int]]]
    ) -> KernelRun:
        """Simulate all streams to completion."""
        kernel_streams = self._normalise(streams)
        return self._simulate(kernel_streams)

    def run_aggregate(self, modules: Sequence[int]) -> AggregateRun:
        """Simulate one stream given as the module of each request.

        The same cycles as :meth:`run` on a single stream whose
        requests map to ``modules`` in issue order, but with no address
        reduction, no :class:`InFlightRequest` records and no trace
        events: only the aggregates come back.
        """
        module_count = self.config.module_count
        total = len(modules)
        if not total:
            raise SimulationError("need at least one non-empty stream")
        if min(modules) < 0 or max(modules) >= module_count:
            raise ConfigurationError(
                f"module numbers must be in [0, {module_count}), got "
                f"{min(modules)}..{max(modules)}"
            )
        issue = [0] * total
        start = [0] * total
        cycle, stalls, bus_held, _ = self._cycle_loop(
            modules, [0, total], [0], [1], issue, start, [0] * total
        )
        service_time = self.config.service_ratio
        return AggregateRun(
            latency=cycle,
            issue_stall_cycles=stalls[0],
            wait_count=wait_count(issue, start),
            bus_held_result=bus_held,
            element_count=total,
            module_busy_cycles=tuple(
                service_time * count
                for count in module_histogram(modules, module_count)
            ),
        )

    # -- stream validation ---------------------------------------------

    def _normalise(self, streams) -> list[KernelStream]:
        if not streams:
            raise SimulationError("need at least one non-empty stream")
        normalised: list[KernelStream] = []
        for index, stream in enumerate(streams):
            if isinstance(stream, KernelStream):
                normalised.append(stream)
            else:
                normalised.append(KernelStream.of(f"s{index}", stream))
        seen: set[str] = set()
        for stream in normalised:
            if not stream.requests:
                raise SimulationError("need at least one non-empty stream")
            if stream.name in seen:
                raise ConfigurationError(
                    f"kernel field 'streams' has colliding stream names: "
                    f"{stream.name!r} appears more than once (streams must "
                    "be uniquely named)"
                )
            seen.add(stream.name)
            if stream.port is not None and not (
                0 <= stream.port < self.ports
            ):
                raise ConfigurationError(
                    f"stream {stream.name!r} field 'port' must be in "
                    f"[0, {self.ports}), got {stream.port}"
                )
            if not isinstance(stream.start_cycle, int) or isinstance(
                stream.start_cycle, bool
            ):
                raise ConfigurationError(
                    f"stream {stream.name!r} field 'start_cycle' must be "
                    f"an integer, got {stream.start_cycle!r}"
                )
            if stream.start_cycle < 1:
                raise ConfigurationError(
                    f"stream {stream.name!r} field 'start_cycle' must be "
                    f">= 1, got {stream.start_cycle}"
                )
        return normalised

    # -- the cycle loops ------------------------------------------------

    def _simulate(self, kernel_streams: list[KernelStream]) -> KernelRun:
        config = self.config
        mapping = config.mapping
        service_time = config.service_ratio
        module_count = config.module_count
        ports = self.ports

        # Flat request state, indexed by request id (rid).  Stream ``s``
        # owns the contiguous rids ``bounds[s] .. bounds[s + 1] - 1``.
        mask = mapping.address_mask
        elem: list[int] = []
        addr: list[int] = []
        store_flag: list[bool] = []
        bounds = [0]
        for stream in kernel_streams:
            requests = stream.requests
            stores = stream.stores
            elem += [element for element, _ in requests]
            addr += [address & mask for _, address in requests]
            store_flag += [
                position in stores for position in range(len(requests))
            ]
            bounds.append(len(elem))
        mod = list(map(mapping.module_of, addr))
        total = len(elem)
        issue = [0] * total
        start = [0] * total
        delivery = [0] * total
        port_of = [
            stream.port if stream.port is not None else index % ports
            for index, stream in enumerate(kernel_streams)
        ]

        cycle, stalls, bus_held, port_issues = self._cycle_loop(
            mod,
            bounds,
            port_of,
            [stream.start_cycle for stream in kernel_streams],
            issue,
            start,
            delivery,
        )

        # Materialise the timing records and per-stream summaries.
        arrival = [issued + 1 for issued in issue]
        finish = [started + service_time - 1 for started in start]
        records = list(
            map(
                InFlightRequest,
                elem,
                addr,
                mod,
                store_flag,
                issue,
                arrival,
                start,
                finish,
                delivery,
            )
        )
        stream_runs: list[StreamRun] = []
        for s_index, stream in enumerate(kernel_streams):
            low, high = bounds[s_index], bounds[s_index + 1]
            stream_runs.append(
                StreamRun(
                    name=stream.name,
                    index=s_index,
                    port=port_of[s_index],
                    # Streams issue in order: the first request
                    # carries the stream's first issue cycle.
                    first_issue_cycle=issue[low],
                    last_delivery_cycle=max(delivery[low:high]),
                    issue_stall_cycles=stalls[s_index],
                    requests=tuple(records[low:high]),
                    module_request_counts=tuple(
                        module_histogram(mod[low:high], module_count)
                    ),
                    start_cycle=stream.start_cycle,
                    waits=wait_count(issue[low:high], start[low:high]),
                )
            )
        # Every request is serviced for exactly ``T`` cycles, so busy
        # accounting is arithmetic, not per-cycle ticking.
        busy = tuple(
            service_time * sum(column)
            for column in zip(
                *(run.module_request_counts for run in stream_runs)
            )
        )
        run = KernelRun(
            streams=tuple(stream_runs),
            total_cycles=cycle,
            ports=ports,
            bus_busy_cycles=sum(port_issues),
            bus_held_result=bus_held,
            module_busy_cycles=busy,
            port_issue_cycles=tuple(port_issues),
        )
        if self.tracer.enabled:
            self._emit_trace(run)
        return run

    def _cycle_loop(
        self,
        mod: Sequence[int],
        bounds: list[int],
        port_of: list[int],
        starts: list[int],
        issue: list[int],
        start: list[int],
        delivery: list[int],
    ) -> tuple[int, list[int], bool, list[int]]:
        """The cycle loop.

        Stream ``s`` owns the rids ``bounds[s] .. bounds[s + 1] - 1``,
        issues on port ``port_of[s]`` and becomes visible to its port at
        cycle ``starts[s]``.  Fills ``issue``, ``start`` and
        ``delivery`` (indexed by rid) and returns ``(total_cycles,
        stalls, bus_held, port_issues)``: stalls per stream, issues per
        port.

        One stream, the paper's own case, takes its own address phase
        and event skip: no candidate selection, rotation or per-port
        bookkeeping, and a cycle is skipped before it runs once it is
        known to do nothing.  Several streams run every cycle that
        moves something and skip after a cycle in which nothing moved.
        The result and module phases are common to both.
        """
        config = self.config
        service_time = config.service_ratio
        module_count = config.module_count
        input_capacity = config.input_capacity
        output_capacity = config.output_capacity
        ports = self.ports
        round_robin = self.policy == "round_robin"
        stream_count = len(starts)
        single = stream_count == 1
        total = len(mod)

        # Flat per-module state.  ``occupant`` is the request a module
        # is serving, or holding finished behind a full output queue.
        in_q: list[deque[int]] = [deque() for _ in range(module_count)]
        occupant = [-1] * module_count
        out_q: list[deque[tuple[int, int]]] = [
            deque() for _ in range(module_count)
        ]
        # The event structures: a cycle touches only the modules in
        # them.  Service takes the constant ``T``, so modules finish in
        # the order they started and a FIFO of (finish, module) is
        # sorted.  ``ready_heap`` holds one (ready, module) entry per
        # non-empty output queue, keyed by the queue's head.
        finishing: deque[tuple[int, int]] = deque()
        startable: set[int] = set()  # idle, with queued requests
        blocked: set[int] = set()  # finished, output queue full (q')
        ready_heap: list[tuple[int, int]] = []

        # Per-stream and per-port bookkeeping.
        port_members: list[list[int]] = [[] for _ in range(ports)]
        for index, port in enumerate(port_of):
            port_members[port].append(index)
        cursors = bounds[:-1]  # each stream's next rid to issue
        ends = bounds[1:]
        stalls = [0] * stream_count
        cursor = stall_count = 0  # the same, for one stream
        rotation = [0] * ports
        port_issues = [0] * ports

        delivered = 0
        bus_held = False
        guard = (total + 2) * (service_time + 2) + 64 + max(starts) - 1
        # Nothing happens before the first stream starts, and waiting
        # for a start is no stall.
        cycle = min(starts) - 1

        while delivered < total:
            cycle += 1
            if cycle > guard:
                raise SimulationError(
                    f"simulation exceeded {guard} cycles for {total} "
                    f"requests — livelock?"
                )
            progressed = False

            # 1. Address ports: one request per port per cycle.  One
            # stream issues its next request or stalls on a full input
            # queue; a port bound to a single stream skips candidate
            # selection.
            if single:
                if cursor < total:
                    m = mod[cursor]
                    queue = in_q[m]
                    if len(queue) < input_capacity:
                        issue[cursor] = cycle
                        queue.append(cursor)
                        if occupant[m] < 0:
                            startable.add(m)
                        cursor += 1
                    else:
                        stall_count += 1
            else:
                for port in range(ports):
                    members = port_members[port]
                    if len(members) == 1:
                        s = members[0]
                        if cursors[s] == ends[s] or starts[s] > cycle:
                            continue
                        candidates = members
                    else:
                        candidates = [
                            s
                            for s in members
                            if cursors[s] < ends[s] and starts[s] <= cycle
                        ]
                        if not candidates:
                            continue
                        if round_robin and len(candidates) > 1:
                            rot = rotation[port]
                            candidates.sort(
                                key=lambda s: (s - rot) % stream_count
                            )
                    for s in candidates:
                        rid = cursors[s]
                        m = mod[rid]
                        queue = in_q[m]
                        if len(queue) < input_capacity:
                            issue[rid] = cycle
                            queue.append(rid)
                            if occupant[m] < 0:
                                startable.add(m)
                            cursors[s] += 1
                            rotation[port] = s + 1
                            port_issues[port] += 1
                            progressed = True
                            break
                        stalls[s] += 1
                        if not round_robin:
                            break

            # 2. Result ports: up to ``ports`` deliveries per cycle,
            # oldest result first (ready cycle, then module index).
            if ready_heap and ready_heap[0][0] <= cycle:
                grants = 0
                while (
                    grants < ports
                    and ready_heap
                    and ready_heap[0][0] <= cycle
                ):
                    m = heappop(ready_heap)[1]
                    queue = out_q[m]
                    rid = queue.popleft()[1]
                    if queue:
                        heappush(ready_heap, (queue[0][0], m))
                    delivery[rid] = cycle
                    delivered += 1
                    grants += 1
                progressed = True
                # A result still ready was not delivered on its ready
                # cycle.  The first time that happens no module has two
                # results ready (a module queues at most one result per
                # cycle), so this is the rule "more modules had a result
                # ready than there were grants".
                if ready_heap and ready_heap[0][0] <= cycle:
                    bus_held = True

            # 3. Module service: start new work, then retire finishing
            # work.  Within one module a start precedes a finish, which
            # preserves the legacy phase order (with ``T = 1`` a module
            # starts and finishes in the same cycle); modules are
            # independent within the phase.  A request arrives at its
            # module the cycle after its issue.
            if startable:
                for m in tuple(startable):
                    queue = in_q[m]
                    rid = queue[0]
                    if issue[rid] < cycle:
                        queue.popleft()
                        start[rid] = cycle
                        occupant[m] = rid
                        startable.discard(m)
                        finishing.append((cycle + service_time - 1, m))
                        progressed = True
            if blocked:
                for m in tuple(blocked):
                    queue = out_q[m]
                    if len(queue) < output_capacity:
                        if not queue:
                            heappush(ready_heap, (cycle + 1, m))
                        queue.append((cycle + 1, occupant[m]))
                        occupant[m] = -1
                        blocked.discard(m)
                        if in_q[m]:
                            startable.add(m)
                        progressed = True
            while finishing and finishing[0][0] == cycle:
                m = finishing.popleft()[1]
                queue = out_q[m]
                if len(queue) < output_capacity:
                    if not queue:
                        heappush(ready_heap, (cycle + 1, m))
                    queue.append((cycle + 1, occupant[m]))
                    occupant[m] = -1
                    if in_q[m]:
                        startable.add(m)
                else:
                    blocked.add(m)
                progressed = True

            # 4. Event skip: jump over cycles in which nothing would
            # move to the one before the next scheduled event (service
            # completion, result-ready edge or staggered stream start),
            # counting the skipped cycles as issue stalls for the
            # streams that were trying to issue.
            if delivered == total:
                break
            if single:
                # The next cycle does nothing when no module can start
                # (a startable module's head has arrived by then), the
                # stream cannot issue (its module's input queue stays
                # full until a start) and no completion or result is
                # due; a blocked module waits for a grant.
                if startable:
                    continue
                if (
                    cursor < total
                    and len(in_q[mod[cursor]]) < input_capacity
                ):
                    continue
            elif progressed:
                continue
            # Without a startable module (a queued request starts the
            # cycle it arrives at an idle module) nothing is due at or
            # before this cycle.
            next_event = guard + 1
            if finishing:
                next_event = min(next_event, finishing[0][0])
            if ready_heap:
                next_event = min(next_event, ready_heap[0][0])
            if single:
                jump = next_event - cycle - 1
                if jump > 0:
                    if cursor < total:
                        stall_count += jump
                    cycle += jump
                continue
            for s in range(stream_count):
                if cursors[s] < ends[s] and cycle < starts[s] < next_event:
                    next_event = starts[s]
            jump = next_event - cycle - 1
            if jump > 0:
                for port in range(ports):
                    trying = [
                        s
                        for s in port_members[port]
                        if cursors[s] < ends[s] and starts[s] <= cycle
                    ]
                    if not trying:
                        continue
                    if round_robin:
                        for s in trying:
                            stalls[s] += jump
                    else:
                        stalls[trying[0]] += jump
                cycle += jump
        if single:
            stalls[0] = stall_count
            port_issues[port_of[0]] = total
        return cycle, stalls, bus_held, port_issues

    # -- trace emission -------------------------------------------------

    def _emit_trace(self, run: KernelRun) -> None:
        """Derive module/port/stream events from the finished run.

        Runs only when tracing is enabled; everything is read off the
        materialised :class:`InFlightRequest` records, so it adds zero
        work to the cycle loop.  Tracks follow the ``group/lane``
        convention of :mod:`repro.obs.tracer`: ``streams/<name>`` spans
        the stream's active window, ``memory/module <m>`` spans each
        request's service occupancy, ``ports/port <p>`` carries issue
        and delivery instants, and ``memory/in flight`` samples the
        number of outstanding requests.
        """
        tracer = self.tracer
        deltas: list[tuple[int, int]] = []
        for stream in run.streams:
            tracer.span(
                f"streams/{stream.name}",
                f"{stream.name} ({stream.element_count} elem)",
                stream.first_issue_cycle,
                stream.last_delivery_cycle,
                port=stream.port,
                start_cycle=stream.start_cycle,
                issue_stalls=stream.issue_stall_cycles,
                conflict_free=stream.conflict_free,
            )
            for request in stream.requests:
                tracer.span(
                    f"memory/module {request.module}",
                    f"{stream.name}[{request.element_index}]",
                    request.start_cycle,
                    request.finish_cycle,
                    address=request.address,
                    store=request.is_store,
                    waited=request.waited,
                )
                tracer.instant(
                    f"ports/port {stream.port}",
                    "issue",
                    request.issue_cycle,
                    stream=stream.name,
                    element=request.element_index,
                )
                tracer.instant(
                    f"ports/port {stream.port}",
                    "deliver",
                    request.delivery_cycle,
                    stream=stream.name,
                    element=request.element_index,
                )
                deltas.append((request.issue_cycle, 1))
                deltas.append((request.delivery_cycle, -1))
        deltas.sort()
        level = 0
        previous: int | None = None
        for at_cycle, delta in deltas:
            if previous is not None and at_cycle != previous:
                tracer.counter(
                    "memory/in flight", "in_flight", previous, level
                )
            level += delta
            previous = at_cycle
        if previous is not None:
            tracer.counter("memory/in flight", "in_flight", previous, level)

