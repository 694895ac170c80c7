"""Single-pass design-point classification for the batch evaluator.

:func:`prepare_point` decides once, per spec, which tier evaluates it:

* ``"analytic"`` — every access is conflict-free, so each becomes a
  closed-form :meth:`~repro.memory.kernel.AggregateRun.closed_form`
  run (``T + L + 1`` cycles, no stall) and the finished
  :class:`~repro.scenarios.ScenarioResult` rides along;
* ``"soa"`` — planner-drive points with at least one conflict-prone or
  indexed access carry their per-access module sequences into the
  kernel's aggregate-only entry point;
* ``"fallback"`` — programs and the figure6/decoupled drives, which
  need the per-point engines.

Conflict-free feasibility comes from the planner's own Lemma-1 rule,
:meth:`~repro.core.planner.AccessPlanner.decomposition`: when it
raises, mode ``auto`` takes the canonical order; when the planner is
:attr:`~repro.core.planner.AccessPlanner.closed_form`, a length that
is a multiple of the chunk plans conflict-free — so the expensive
``conflict_free_order`` slot loop never runs for either.  Other
geometries consult the real planner, whose plans are authoritative by
construction.  Both the analytic and the kernel tier end in the same
``_aggregate`` the per-point simulator uses.  Build and validation
errors surface exactly as :func:`repro.scenarios.simulate` raises
them: the same factories and constructors run in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.distributions import is_conflict_free
from repro.core.gather import IndexedAccess, plan_indexed
from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import OrderingError
from repro.memory.kernel import AggregateRun, module_histogram
from repro.scenarios.components import PlannerDrive
from repro.scenarios.facade import (
    ScenarioResult,
    _aggregate,
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
    building the full plan; a closed-form conflict-free verdict leaves
    it ``None`` (its histogram is order-invariant).
    """

    scheme: str
    conflict_free: bool
    indexed: bool = False
    modules: Sequence[int] | None = None


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
    if all(v.conflict_free and not v.indexed for v in verdicts):
        runs = [
            (
                v.scheme,
                AggregateRun.closed_form(
                    _histogram(config, access, v), config.service_ratio
                ),
            )
            for access, v in zip(accesses, verdicts)
        ]
        return PreparedPoint("analytic", result=_aggregate(spec, config, runs))
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
        feasible = _reorder_feasible(planner, access)
        if feasible:
            return _AccessVerdict("conflict_free", True)
        if feasible is False and mode == "auto":
            return _canonical_verdict(mapping, access, service)
        # Undecided, or a forced mode that raises: the planner decides
        # (and produces the exact OrderingError simulate() would).
    elif mode == "ordered":
        return _canonical_verdict(mapping, access, service)
    plan = planner.plan(access, mode=mode)
    return _AccessVerdict(plan.scheme, plan.conflict_free, modules=plan.modules)


def _reorder_feasible(
    planner: AccessPlanner, access: VectorAccess
) -> bool | None:
    """Whether the Section 3.2/4.2 reordering exists for ``access``.

    ``False`` when the planner's Lemma-1 decomposition refuses it,
    ``True``/``False`` by the chunk arithmetic when the planner is
    closed-form (success then always yields a conflict-free plan), and
    ``None`` when only the built plan can tell.
    """
    try:
        _w, _key_of, chunk = planner.decomposition(access)
    except OrderingError:
        return False
    if not planner.closed_form:
        return None
    return access.length % chunk == 0


def _canonical_verdict(
    mapping, access: VectorAccess, service: int
) -> _AccessVerdict:
    modules = mapping.module_sequence(access.base, access.stride, access.length)
    return _AccessVerdict(
        "canonical", is_conflict_free(modules, service), modules=modules
    )


def _histogram(
    config, access: VectorAccess, verdict: _AccessVerdict
) -> list[int]:
    """Per-module request counts of a conflict-free access.

    Order-invariant, so the canonical address set serves.  A closed-form
    verdict on a truly matched memory (``M = T``) is exactly uniform:
    each block of ``T`` consecutive conflict-free requests hits every
    module once.
    """
    module_count = config.module_count
    modules = verdict.modules
    if modules is None:
        service = config.service_ratio
        if module_count == service:
            return [access.length // service] * service
        mapping = config.mapping
        modules = mapping.module_sequence(
            access.base, access.stride, access.length
        )
    return module_histogram(modules, module_count)


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
