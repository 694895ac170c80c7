"""repro — reproduction of Valero et al., "Increasing the Number of
Strides for Conflict-Free Vector Access" (ISCA 1992).

The library implements the paper's out-of-order conflict-free vector
access scheme end to end: XOR/skewing/interleaved address mappings, the
Lemma-2/4 subsequence reorderings, Theorem-1/3 conflict-free windows, a
cycle-accurate multi-module memory simulator, register-level models of
the paper's address-generation hardware (Figures 4-6), a decoupled
access/execute vector machine with LOAD->EXECUTE chaining, and the
Section-5 analytic models.

Quickstart::

    from repro import MatchedDesign, VectorAccess, AccessPlanner
    from repro.memory import MemoryConfig, MemorySystem

    design = MatchedDesign.recommended(lambda_exponent=7, t=3)
    planner = AccessPlanner(design.mapping(), design.t)
    plan = planner.plan(VectorAccess(base=16, stride=12, length=128))
    result = MemorySystem(MemoryConfig.matched(3, design.s)).run_plan(plan)
    assert result.conflict_free and result.latency == 8 + 128 + 1

Or declaratively, through the scenario API (one serializable spec per
machine + workload design point)::

    from repro import ComponentSpec, MemorySpec, ScenarioSpec, simulate

    result = simulate(ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3),
        workload=ComponentSpec.of("strided", base=16, stride=12, length=128),
    ))
    assert result.conflict_free and result.latency == 8 + 128 + 1

Module map
----------

* :mod:`repro.core` — vectors, stride families, subsequence
  decompositions, orderings, the access planner, conflict-free windows;
* :mod:`repro.mappings` — every address-mapping scheme (interleaved,
  skewed, Eq. (1)/(2) XOR, GF(2) matrix, pseudo-random, dynamic);
* :mod:`repro.memory` — the unified cycle-accurate memory kernel
  (M modules x k ports x n streams) and its single-stream /
  multi-stream / multi-port views plus configuration;
* :mod:`repro.hardware` — register-level models of the Figures 4-6
  address-generation hardware;
* :mod:`repro.processor` — the decoupled access/execute vector machine
  with LOAD->EXECUTE chaining, its ISA, assembler, strip-mined kernel
  builders and the ``ProgramEngine`` whole-program execution API;
* :mod:`repro.workloads` — stride populations, kernel access patterns
  and gather/scatter index generators;
* :mod:`repro.analysis` — the Section 5 analytic models (fractions,
  efficiency, trade-offs) and design-space sweeps;
* :mod:`repro.scenarios` — declarative, JSON-serializable scenario
  specs (machine + workload *or* whole program) + the ``simulate()``
  facade over all of the above and design-point diffing;
* :mod:`repro.batch` — the batch design-point evaluation engine:
  a closed-form ``T + L + 1`` analytic tier for conflict-free planner
  points (decided by the planner's own Lemma-1 rule), a middle tier that runs conflict-prone points through the memory
  kernel's aggregate-only entry point, and a fallback tier shardable
  over a process pool (``--batch-workers``), selectable as
  ``--engine batch`` wherever grids run, with sampled re-validation
  against the per-point kernel.  The hot path is memoized underneath:
  the planner's process-wide LRU plan cache and the scenario facade's
  machine templates (``repro.obs.cache_stats()`` snapshots both;
  ``REPRO_PLAN_CACHE=0`` / ``REPRO_MACHINE_CACHE=0`` disable);
* :mod:`repro.check` — static conflict/hazard analysis of specs and
  vector programs (closed-form conflict verdicts, RAW/WAR/WAW and
  batchability reports, spec lint, grid dedupe) behind ``repro check``
  and the lab/serve submission gates;
* :mod:`repro.report` — experiment runners (E01..E16) and table/figure
  rendering;
* :mod:`repro.obs` — observability: zero-cost-when-disabled cycle-level
  tracing (``Tracer``, Chrome/Perfetto ``trace_event`` export) and the
  cross-run :class:`~repro.obs.history.HistoryDB` metric index behind
  ``repro lab history``;
* :mod:`repro.lab` — parallel experiment orchestration with
  content-addressed result caching, cross-run diffing and pluggable
  execution backends (in-process, process pool, or a filesystem-spool
  sharding protocol served by ``repro lab worker`` processes on any
  host; detached stores fold back via ``repro lab merge``);
* :mod:`repro.serve` — the persistent HTTP experiment service behind
  ``repro lab serve``: submit scenario specs/grids over HTTP, poll
  runs, fetch any cached result by config hash with strong ETags;
* :mod:`repro.cli` — the ``repro`` command line
  (``plan``/``window``/``experiments``/``survey``/``run``/
  ``scenario``/``check``/``lab``).
"""

from repro.core import (
    AccessPlan,
    AccessPlanner,
    CompositePlan,
    MatchedDesign,
    RequestOrder,
    StrideFamily,
    SubsequencePlan,
    UnmatchedDesign,
    VectorAccess,
    Window,
    build_subsequences,
    decompose_stride,
    family_of,
    is_conflict_free,
    matched_window,
    plan_short_vector,
    recommended_s,
    recommended_y,
    unmatched_windows,
)
from repro.errors import (
    ConfigurationError,
    HardwareModelError,
    OrderingError,
    ProgramError,
    RegisterFileError,
    ReproError,
    SimulationError,
    VectorSpecError,
)
from repro.mappings import (
    AddressMapping,
    FieldInterleaved,
    LowOrderInterleaved,
    MatchedXorMapping,
    PseudoRandomMapping,
    SectionXorMapping,
    SkewedMapping,
    XorMatrixMapping,
)
from repro.memory import AccessResult, MemoryConfig, MemorySystem
from repro.scenarios import (
    ComponentSpec,
    MemorySpec,
    ScenarioGrid,
    ScenarioResult,
    ScenarioSpec,
    build_machine,
    simulate,
)

__version__ = "1.8.0"

__all__ = [
    "AccessPlan",
    "AccessPlanner",
    "AccessResult",
    "AddressMapping",
    "ComponentSpec",
    "CompositePlan",
    "ConfigurationError",
    "FieldInterleaved",
    "HardwareModelError",
    "LowOrderInterleaved",
    "MatchedDesign",
    "MatchedXorMapping",
    "MemoryConfig",
    "MemorySpec",
    "MemorySystem",
    "OrderingError",
    "ProgramError",
    "PseudoRandomMapping",
    "RegisterFileError",
    "ReproError",
    "RequestOrder",
    "ScenarioGrid",
    "ScenarioResult",
    "ScenarioSpec",
    "SectionXorMapping",
    "SimulationError",
    "SkewedMapping",
    "StrideFamily",
    "SubsequencePlan",
    "UnmatchedDesign",
    "VectorAccess",
    "VectorSpecError",
    "Window",
    "XorMatrixMapping",
    "build_machine",
    "build_subsequences",
    "decompose_stride",
    "family_of",
    "is_conflict_free",
    "matched_window",
    "plan_short_vector",
    "recommended_s",
    "recommended_y",
    "simulate",
    "unmatched_windows",
    "__version__",
]
