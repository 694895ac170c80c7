"""Multiple concurrent vector streams through one memory (Section 6).

The paper's conclusions list "several vectors accessed simultaneously,
either in a single processor with several memory ports or in a
multiprocessor" as future work.  This module provides that substrate so
the interference can be measured today:

* each *stream* is an independent request sequence (typically an
  :class:`~repro.core.planner.AccessPlan`'s stream) with its own cursor;
* the shared address bus still carries one request per cycle; an issue
  policy (round-robin by default) picks which stream drives it;
* modules and the result bus behave exactly as in
  :class:`~repro.memory.system.MemorySystem`.

Two conflict-free plans interleaved this way are generally *not* jointly
conflict-free — each stream's carefully spaced module pattern is sheared
by the other's stalls — which quantifies why the paper calls the
multi-vector case a separate problem (experiment A2 in the ablation
benches).

:class:`MultiStreamMemorySystem` is the single-port multi-stream view
over the unified :class:`~repro.memory.kernel.MemoryKernel`; widening
the machine to several ports is the
:class:`~repro.memory.multiport.MultiPortMemorySystem` view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SimulationError
from repro.memory.config import MemoryConfig
from repro.memory.kernel import KernelRun, MemoryKernel


@dataclass(frozen=True)
class StreamResult:
    """Per-stream outcome of a multi-stream simulation."""

    stream_index: int
    first_issue_cycle: int
    last_delivery_cycle: int
    issue_stall_cycles: int
    wait_count: int
    element_count: int

    @property
    def latency(self) -> int:
        """Cycles from this stream's first issue to its last delivery."""
        return self.last_delivery_cycle - self.first_issue_cycle + 1

    @property
    def conflict_free(self) -> bool:
        return self.wait_count == 0 and self.issue_stall_cycles == 0


@dataclass(frozen=True)
class MultiStreamResult:
    """Aggregate outcome: all streams plus the shared-bus view."""

    streams: tuple[StreamResult, ...]
    total_cycles: int
    bus_busy_cycles: int

    @property
    def aggregate_elements(self) -> int:
        return sum(stream.element_count for stream in self.streams)

    @property
    def bus_utilisation(self) -> float:
        return self.bus_busy_cycles / self.total_cycles


def stream_results_from_run(run: KernelRun) -> MultiStreamResult:
    """A kernel run as the legacy :class:`MultiStreamResult` record."""
    return MultiStreamResult(
        streams=tuple(
            StreamResult(
                stream_index=stream.index,
                first_issue_cycle=stream.first_issue_cycle,
                last_delivery_cycle=stream.last_delivery_cycle,
                issue_stall_cycles=stream.issue_stall_cycles,
                wait_count=stream.wait_count,
                element_count=stream.element_count,
            )
            for stream in run.streams
        ),
        total_cycles=run.total_cycles,
        bus_busy_cycles=run.bus_busy_cycles,
    )


class MultiStreamMemorySystem:
    """The Figure 2 machine shared by several request streams.

    Parameters
    ----------
    config:
        Shared memory geometry.  This view always models the single
        shared address/result bus, whatever ``config.ports`` says; use
        :class:`~repro.memory.multiport.MultiPortMemorySystem` (or the
        kernel directly) for the widened machine.
    policy:
        ``"round_robin"`` — rotate the address bus across streams with
        pending requests; ``"priority"`` — stream 0 issues whenever it
        can, lower-numbered streams first (models a foreground vector
        port with background traffic).
    """

    def __init__(self, config: MemoryConfig, policy: str = "round_robin"):
        self.kernel = MemoryKernel(config, ports=1, policy=policy)
        self.config = config
        self.policy = policy

    def run_streams(
        self, streams: Sequence[Sequence[tuple[int, int]]]
    ) -> MultiStreamResult:
        """Simulate all streams to completion."""
        if not streams or any(not stream for stream in streams):
            raise SimulationError("need at least one non-empty stream")
        return stream_results_from_run(self.kernel.run(streams))
