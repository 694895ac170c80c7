"""Multi-port memories: several address/result buses (Section 6 outlook).

Where :mod:`repro.memory.multistream` shares *one* address bus between
streams, this module widens the machine: ``ports`` requests can issue
per cycle (one per port) and ``ports`` results can return per cycle.
This models the paper's "single processor with several memory ports"
future-work case.

With ``ports = k`` and the same ``T``-cycle modules, the memory can only
sustain ``k`` elements per cycle if ``M >= k * T`` modules exist and the
combined request pattern keeps every window of ``T`` cycles within
module capacity.  The interesting (and measured) effect: two
conflict-free streams on separate ports still collide in the *modules*
unless their address patterns are disjoint in module space — e.g. two
vectors of the same stride family whose base addresses differ in the low
bits collide constantly, while streams of family ``x = s`` offset by one
period interleave perfectly.

:class:`MultiPortMemorySystem` is the ``k >= 1`` view over the unified
:class:`~repro.memory.kernel.MemoryKernel`; the per-cycle machinery
lives there, shared with the single-stream and single-bus views.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SimulationError
from repro.memory.config import MemoryConfig
from repro.memory.kernel import MemoryKernel
from repro.memory.multistream import (
    MultiStreamResult,
    StreamResult,
    stream_results_from_run,
)

__all__ = [
    "MultiPortMemorySystem",
    "MultiStreamResult",
    "StreamResult",
]


class MultiPortMemorySystem:
    """The Figure 2 machine with ``ports`` address and result buses.

    Each port carries at most one request and one result per cycle.
    Streams are statically assigned to ports round-robin; streams on one
    port take turns (round-robin) like in the single-bus system.
    """

    def __init__(self, config: MemoryConfig, ports: int):
        # The kernel validates the port geometry (ports >= 1, ports <= M)
        # and raises ConfigurationError naming the offending field.
        self.kernel = MemoryKernel(config, ports=ports)
        self.config = config
        self.ports = ports

    def run_streams(
        self, streams: Sequence[Sequence[tuple[int, int]]]
    ) -> MultiStreamResult:
        """Simulate all streams; stream ``i`` issues on port ``i % ports``."""
        if not streams or any(not stream for stream in streams):
            raise SimulationError("need at least one non-empty stream")
        return stream_results_from_run(self.kernel.run(streams))
