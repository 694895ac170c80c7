"""Batch design-point evaluation: many scenarios in one pass.

Two tiers above the per-point simulator: an analytic tier that answers
conflict-free planner-drive points with the paper's closed-form
``T + L + 1`` run per access (no simulation; feasibility is the
planner's own Lemma-1 rule,
:meth:`~repro.core.planner.AccessPlanner.decomposition`), and a middle
tier that runs each remaining planner-drive access's module sequence
through the memory kernel's aggregate-only entry point
(:meth:`~repro.memory.kernel.MemoryKernel.run_aggregate`: the same
cycles, no address reduction or per-request records).  Points neither
tier can claim fall back to :func:`repro.scenarios.simulate`, so every
spec the per-point engine accepts evaluates identically here — same
fields, same artifacts, same cache keys.  The fallback tier shards over a
process pool when asked (``workers=`` / ``--batch-workers``); see
:mod:`repro.batch.fallback`.

Entry points: :func:`repro.scenarios.simulate_grid` (and ``repro
scenario run --engine batch``) for direct evaluation, and
:class:`BatchBackend` (``repro lab run|sweep --engine batch``) for
cached lab batches.  Every tier is pure standard library.
"""

from repro.batch.engine import (
    BatchBackend,
    BatchReport,
    BatchValidationError,
    evaluate_batch,
)
from repro.batch.fallback import resolve_fallback_workers, run_fallback_tier
from repro.batch.prepare import PreparedPoint, prepare_point

__all__ = [
    "BatchBackend",
    "BatchReport",
    "BatchValidationError",
    "PreparedPoint",
    "evaluate_batch",
    "prepare_point",
    "resolve_fallback_workers",
    "run_fallback_tier",
]
