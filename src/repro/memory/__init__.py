"""Cycle-accurate multi-module memory subsystem (the Figure 2 machine).

Module map
----------

* :mod:`repro.memory.kernel` — **the one memory kernel**:
  :class:`MemoryKernel` simulates M modules × ``k`` address/result
  ports × ``n`` named request streams in a single event-driven cycle
  loop (with its own address phase and event skip for one stream), and
  :meth:`MemoryKernel.run_aggregate` returns a single stream's
  aggregates (:class:`AggregateRun`) without per-request records.
  Every other simulator here is a view over it.
* :mod:`repro.memory.system` — :class:`MemorySystem`, the classic
  single-stream view (``k = 1, n = 1``) returning
  :class:`AccessResult`.
* :mod:`repro.memory.multistream` — :class:`MultiStreamMemorySystem`,
  several streams sharing one address bus (``k = 1, n >= 1``).
* :mod:`repro.memory.multiport` — :class:`MultiPortMemorySystem`, the
  widened machine (``k >= 1`` buses).
* :mod:`repro.memory.config` — :class:`MemoryConfig`: mapping, ``T``,
  buffer depths ``q``/``q'`` and the port count.
* :mod:`repro.memory.module` — the single-module state machine
  (documentation/reference model; the kernel keeps the same state in
  flat arrays) and the :class:`InFlightRequest` timing record.
* :mod:`repro.memory.storage` — the word-addressable backing store.
* :mod:`repro.memory.metrics`, :mod:`repro.memory.trace` — derived
  metrics and Gantt rendering.
"""

from repro.memory.config import MemoryConfig
from repro.memory.kernel import (
    AggregateRun,
    KernelRun,
    KernelStream,
    MemoryKernel,
    StreamRun,
)
from repro.memory.metrics import (
    PopulationSummary,
    access_efficiency,
    cycles_per_element,
    module_load_balance,
    streaming_efficiency,
    summarise_population,
)
from repro.memory.module import InFlightRequest, MemoryModule
from repro.memory.multiport import MultiPortMemorySystem
from repro.memory.multistream import (
    MultiStreamMemorySystem,
    MultiStreamResult,
    StreamResult,
)
from repro.memory.storage import MemoryStore
from repro.memory.system import AccessResult, MemorySystem
from repro.memory.trace import describe_result, render_timeline

__all__ = [
    "AccessResult",
    "AggregateRun",
    "InFlightRequest",
    "KernelRun",
    "KernelStream",
    "MemoryConfig",
    "MemoryKernel",
    "MemoryModule",
    "MemoryStore",
    "MemorySystem",
    "MultiPortMemorySystem",
    "MultiStreamMemorySystem",
    "MultiStreamResult",
    "StreamResult",
    "StreamRun",
    "PopulationSummary",
    "access_efficiency",
    "cycles_per_element",
    "describe_result",
    "module_load_balance",
    "render_timeline",
    "streaming_efficiency",
    "summarise_population",
]
