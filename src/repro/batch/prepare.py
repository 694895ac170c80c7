"""Single-pass design-point classification for the batch evaluator.

:func:`prepare_point` decides once, per spec, which tier evaluates it:

* ``"analytic"`` — every access is conflict-free, so the full
  :class:`~repro.scenarios.ScenarioResult` is closed-form arithmetic
  (the prepared result rides along);
* ``"soa"`` — planner-drive points with at least one conflict-prone or
  indexed access carry their per-access module sequences into the
  kernel's aggregate-only entry point;
* ``"fallback"`` — programs and the figure6/decoupled drives, which
  need the per-point engines.

The classification leans on :mod:`repro.batch.fastpath`: for the
paper's XOR mappings, conflict-free feasibility is decided by the
Lemma-1 chunk arithmetic and conflict-prone points take the canonical
order — so the expensive ``conflict_free_order`` slot loop never runs
for them.  Geometries outside the proven closed forms consult the real
:class:`~repro.core.planner.AccessPlanner`, whose plans are authoritative
by construction.  Build and validation errors surface exactly as
:func:`repro.scenarios.simulate` raises them: the same factories and
constructors run in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.batch.fastpath import (
    canonical_modules,
    cf_order_feasible,
    modules_conflict_free,
)
from repro.core.gather import IndexedAccess, plan_indexed
from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.mappings.linear import MatchedXorMapping
from repro.memory.kernel import module_histogram
from repro.scenarios.components import PlannerDrive
from repro.scenarios.facade import (
    ScenarioResult,
    build_config,
    build_workload,
)
from repro.scenarios.registry import DRIVE, build
from repro.scenarios.spec import ScenarioSpec

__all__ = ["PreparedPoint", "prepare_point"]


@dataclass(frozen=True)
class PreparedPoint:
    """One classified design point.

    ``kind`` is ``"analytic"`` (``result`` holds the finished
    :class:`ScenarioResult`), ``"soa"`` (``config`` and ``planned`` —
    ``(scheme, issue-order modules)`` per access — feed the kernel) or
    ``"fallback"`` (everything ``None``; run :func:`simulate`).
    """

    kind: str
    result: ScenarioResult | None = None
    config: object = None
    planned: tuple[tuple[str, Sequence[int]], ...] = ()


@dataclass(frozen=True)
class _AccessVerdict:
    """Scheme, conflict-freedom and module data for one access.

    ``modules`` is the issue-order module sequence when known without
    building the full plan; a conflict-free fast-path verdict leaves it
    ``None`` (its histogram is order-invariant) and ``histogram``
    carries the per-module request counts instead.
    """

    scheme: str
    conflict_free: bool
    indexed: bool = False
    modules: Sequence[int] | None = None
    histogram: list[int] | None = None


def prepare_point(spec: ScenarioSpec) -> PreparedPoint:
    """Classify ``spec`` and prepare whatever its tier needs.

    Raises exactly what :func:`repro.scenarios.simulate` would raise
    for the same spec — unknown kinds, bad geometry, an
    :class:`~repro.errors.OrderingError` under a forced plan mode.
    """
    if spec.program is not None or spec.workload is None:
        return PreparedPoint("fallback")
    drive = build(DRIVE, spec.drive)
    if not isinstance(drive, PlannerDrive):
        return PreparedPoint("fallback")
    workload = build_workload(spec)
    config = build_config(spec, workload)
    planner = AccessPlanner(config.mapping, config.t)
    accesses = workload.accesses()
    verdicts = [
        _classify_access(planner, config, drive, access)
        for access in accesses
    ]
    if all(v.conflict_free for v in verdicts) and not any(
        v.indexed for v in verdicts
    ):
        return PreparedPoint(
            "analytic",
            result=_analytic_result(spec, config, verdicts),
        )
    planned = tuple(
        (v.scheme, _issue_modules(planner, drive, access, v))
        for access, v in zip(accesses, verdicts)
    )
    return PreparedPoint("soa", config=config, planned=planned)


def _classify_access(
    planner: AccessPlanner,
    config,
    drive: PlannerDrive,
    access,
) -> _AccessVerdict:
    """One access's scheme/verdict, via the cheapest sound route."""
    mapping = config.mapping
    service = config.service_ratio
    if isinstance(access, IndexedAccess):
        plan = plan_indexed(
            mapping, config.t, access, mode=drive.indexed_mode
        )
        return _AccessVerdict(
            plan.scheme, plan.conflict_free, indexed=True, modules=plan.modules
        )
    mode = drive.mode
    if mode in ("auto", "conflict_free"):
        feasible = cf_order_feasible(mapping, config.t, access)
        if feasible is True:
            return _AccessVerdict(
                "conflict_free",
                True,
                histogram=_cf_histogram(mapping, access, service),
            )
        if feasible is False:
            if mode == "conflict_free":
                # The forced mode raises; let the planner produce the
                # exact OrderingError simulate() would.
                planner.plan(access, mode=mode)
            return _canonical_verdict(mapping, access, service)
    elif mode == "ordered":
        return _canonical_verdict(mapping, access, service)
    plan = planner.plan(access, mode=mode)
    return _AccessVerdict(plan.scheme, plan.conflict_free, modules=plan.modules)


def _canonical_verdict(
    mapping, access: VectorAccess, service: int
) -> _AccessVerdict:
    modules = canonical_modules(mapping, access)
    return _AccessVerdict(
        "canonical",
        modules_conflict_free(modules, service),
        modules=modules,
    )


def _cf_histogram(mapping, access: VectorAccess, service: int) -> list[int]:
    """Per-module request counts of a conflict-free access.

    Order-invariant, so the canonical address set serves.  A truly
    matched memory (``M = T``) is exactly uniform: each block of ``T``
    consecutive conflict-free requests hits every module once.
    """
    if type(mapping) is MatchedXorMapping and mapping.module_count == service:
        return [access.length // service] * service
    return module_histogram(
        canonical_modules(mapping, access), mapping.module_count
    )


def _analytic_result(
    spec: ScenarioSpec,
    config,
    verdicts: list[_AccessVerdict],
) -> ScenarioResult:
    service = config.service_ratio
    module_count = config.module_count
    schemes: list[str] = []
    busy = [0] * module_count
    latency = 0
    elements = 0
    for verdict in verdicts:
        if verdict.scheme not in schemes:
            schemes.append(verdict.scheme)
        counts = verdict.histogram
        if counts is None:
            counts = module_histogram(verdict.modules, module_count)
        length = sum(counts)
        latency += service + length + 1
        elements += length
        for module, count in enumerate(counts):
            busy[module] += count * service
    return ScenarioResult(
        name=spec.name,
        drive=spec.drive.kind,
        schemes=tuple(schemes),
        access_count=len(verdicts),
        element_count=elements,
        latency=latency,
        minimum_latency=latency,
        conflict_free=True,
        issue_stalls=0,
        wait_count=0,
        service_ratio=service,
        module_count=module_count,
        module_busy_cycles=tuple(busy),
    )


def _issue_modules(
    planner: AccessPlanner,
    drive: PlannerDrive,
    access,
    verdict: _AccessVerdict,
) -> Sequence[int]:
    """The issue-order module sequence of one access of a
    conflict-prone point."""
    if verdict.modules is not None:
        return verdict.modules
    # A conflict-free access inside a mixed workload: the kernel needs
    # its true issue-order module sequence, so build the plan.
    return planner.plan(access, mode=drive.mode).modules
