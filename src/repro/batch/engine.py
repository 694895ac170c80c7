"""The batch evaluator: partition, evaluate, validate, and the lab backend.

:func:`evaluate_batch` runs many scenario design points in one pass
through a three-way partition:

* **analytic** — planner-drive points whose every access plans
  conflict-free take one closed-form ``T + L + 1``
  :class:`~repro.memory.kernel.AggregateRun` per access
  (:mod:`repro.batch.prepare`): no simulation at all;
* **soa** — remaining planner-drive points (conflict-prone strides,
  indexed accesses) run each access's module sequence through the
  memory kernel's aggregate-only entry point
  (:meth:`~repro.memory.kernel.MemoryKernel.run_aggregate`), which
  skips address reduction and per-request records; the tier keeps its
  historical name in :attr:`BatchReport.soa_count` and the manifests'
  ``batch_soa`` counter;
* **fallback** — figure6/decoupled/program drives carry engine-specific
  extras and run through the ordinary per-point
  :func:`repro.scenarios.simulate`; ``workers=`` shards them over a
  process pool (:mod:`repro.batch.fallback`) with results reassembled
  in input order, byte-identical to the serial tier.

Every path produces the same :class:`~repro.scenarios.ScenarioResult`
fields the per-point simulator produces, so artifacts, cache keys and
reports are interchangeable between engines.  ``validate`` re-runs a
deterministic sample of points through the real kernel and raises
:class:`BatchValidationError` on any field-for-field mismatch.

:class:`BatchBackend` plugs the evaluator into the lab executor
(``repro lab run|sweep --engine batch``): scenario jobs are evaluated
as one batch, everything else delegates to the ordinary per-job path,
and failures keep the canonical ``TypeName: message`` rendering — the
same exceptions raised by the same code paths the serial backend runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.batch.fallback import resolve_fallback_workers, run_fallback_tier
from repro.batch.prepare import prepare_point
from repro.core.planner import plan_cache_stats
from repro.errors import SimulationError
from repro.memory.config import MemoryConfig
from repro.memory.kernel import AggregateRun, MemoryKernel
from repro.scenarios.facade import ScenarioResult, _aggregate, simulate
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "BatchBackend",
    "BatchReport",
    "BatchValidationError",
    "evaluate_batch",
]


class BatchValidationError(SimulationError):
    """A sampled batch result disagreed with the reference kernel."""


@dataclass(frozen=True)
class BatchReport:
    """Results in input order, plus how each point was evaluated.

    ``workers`` is the resolved fallback-tier pool width (1 = serial);
    ``plan_cache_hits``/``plan_cache_misses`` are the shared plan
    cache's deltas over this evaluation, counted in this process (a
    sharded fallback tier plans inside its workers, whose counters are
    per-process).
    """

    results: tuple[ScenarioResult, ...]
    analytic_count: int
    soa_count: int
    fallback_count: int
    validated_count: int
    workers: int = 1
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0


def simulate_runs(
    runs: Sequence[tuple[MemoryConfig, Sequence[int]]],
) -> list[AggregateRun]:
    """The middle tier: each ``(config, modules)`` run through the
    kernel's aggregate-only entry point; results in input order."""
    return [
        MemoryKernel(config).run_aggregate(modules)
        for config, modules in runs
    ]


def _validation_sample(count: int, size: int) -> list[int]:
    """``count`` indices spread evenly over ``range(size)``."""
    count = min(count, size)
    if count <= 0:
        return []
    step = max(1, size // count)
    return list(range(0, size, step))[:count]


def _describe_mismatch(spec: ScenarioSpec, got: dict, want: dict) -> str:
    fields = sorted(
        key
        for key in set(got) | set(want)
        if got.get(key) != want.get(key)
    )
    detail = "; ".join(
        f"{key}: batch={got.get(key)!r} kernel={want.get(key)!r}"
        for key in fields[:4]
    )
    return (
        f"batch result for {spec.describe()!r} diverges from the kernel "
        f"on {len(fields)} field(s): {detail}"
    )


def evaluate_batch(
    specs: Sequence[ScenarioSpec],
    *,
    validate: int = 0,
    on_error: str = "raise",
    workers: int | None = None,
) -> BatchReport:
    """Evaluate every spec; results come back in input order.

    ``validate`` re-simulates that many evenly-sampled points through
    the per-point kernel and raises :class:`BatchValidationError` on
    any field mismatch.  ``on_error="capture"`` records a point's
    exception in place of its result (for callers that isolate
    failures per job, like :class:`BatchBackend`) instead of raising.
    ``workers`` shards the fallback tier over that many worker
    processes (``None``/1 = serial, 0 = one per CPU); the analytic and
    soa tiers, validation, and result ordering are unaffected, so the
    report is identical for any worker count.
    """
    if on_error not in ("raise", "capture"):
        raise SimulationError(f"unknown on_error mode {on_error!r}")
    worker_count = resolve_fallback_workers(workers)
    cache_before = plan_cache_stats()
    specs = list(specs)
    prepared: list[tuple[str, object]] = []
    soa_runs: list[tuple[MemoryConfig, Sequence[int]]] = []
    for spec in specs:
        try:
            point = prepare_point(spec)
        except Exception as error:
            if on_error == "raise":
                raise
            prepared.append(("error", error))
            continue
        if point.kind == "analytic":
            prepared.append(("analytic", point.result))
        elif point.kind == "soa":
            start = len(soa_runs)
            soa_runs.extend(
                (point.config, modules) for _scheme, modules in point.planned
            )
            schemes = [scheme for scheme, _modules in point.planned]
            prepared.append(("soa", (point.config, schemes, start)))
        else:
            prepared.append(("fallback", None))

    soa_results = simulate_runs(soa_runs)

    fallback_indices = [
        index
        for index, (kind, _info) in enumerate(prepared)
        if kind == "fallback"
    ]
    fallback_results = iter(
        run_fallback_tier(
            [specs[index] for index in fallback_indices],
            workers=worker_count,
            on_error=on_error,
        )
    )

    results: list[object] = []
    counts = {"analytic": 0, "soa": 0, "fallback": 0}
    for spec, (kind, info) in zip(specs, prepared):
        if kind == "error":
            results.append(info)
            continue
        counts[kind] += 1
        if kind == "analytic":
            results.append(info)
        elif kind == "soa":
            config, schemes, start = info
            parts = list(
                zip(schemes, soa_results[start : start + len(schemes)])
            )
            results.append(_aggregate(spec, config, parts))
        else:
            results.append(next(fallback_results))

    validated = 0
    for index in _validation_sample(validate, len(specs)):
        got = results[index]
        if not isinstance(got, ScenarioResult):
            continue
        reference = simulate(specs[index])
        if got.to_dict() != reference.to_dict():
            raise BatchValidationError(
                _describe_mismatch(
                    specs[index], got.to_dict(), reference.to_dict()
                )
            )
        validated += 1

    cache_after = plan_cache_stats()
    return BatchReport(
        results=tuple(results),  # type: ignore[arg-type]
        analytic_count=counts["analytic"],
        soa_count=counts["soa"],
        fallback_count=counts["fallback"],
        validated_count=validated,
        workers=worker_count,
        plan_cache_hits=(
            cache_after["plan_cache_hits"] - cache_before["plan_cache_hits"]
        ),
        plan_cache_misses=(
            cache_after["plan_cache_misses"]
            - cache_before["plan_cache_misses"]
        ),
    )


class BatchBackend:
    """Lab executor backend that batches scenario jobs.

    Scenario jobs in the pending set are evaluated together through
    :func:`evaluate_batch`; non-scenario jobs (experiments, sweeps,
    ablations) and scenario jobs whose spec payload does not parse
    delegate to the ordinary per-job execution path.  Payloads are
    built by the same :func:`repro.lab.jobs.scenario_result_payload`
    the serial path uses, so artifacts — and therefore cache entries —
    are interchangeable between engines.
    """

    name = "batch"

    def __init__(
        self,
        *,
        validate: int = 0,
        workers: int | None = None,
    ):
        self.validate = validate
        self.workers = workers
        self._metrics: dict[str, int] = {}

    def backend_metrics(self) -> dict:
        """Partition counters for the run manifest's metrics block."""
        return dict(self._metrics)

    def run(
        self, pending, *, run_id: str
    ) -> Iterator[tuple[object, dict | object]]:
        from repro.lab.backends import describe_error
        from repro.lab.jobs import (
            execute_job,
            scenario_result_payload,
            scenario_spec_of,
        )

        batched = []
        delegated = []
        for job in pending:
            spec = scenario_spec_of(job)
            if spec is None:
                delegated.append(job)
            else:
                batched.append((job, spec))

        started = time.perf_counter()
        report = evaluate_batch(
            [spec for _job, spec in batched],
            validate=self.validate,
            on_error="capture",
            workers=self.workers,
        )
        elapsed = time.perf_counter() - started
        share = elapsed / len(batched) if batched else 0.0
        self._metrics = {
            "batch_jobs": len(batched),
            "batch_analytic": report.analytic_count,
            "batch_soa": report.soa_count,
            "batch_fallback": report.fallback_count,
            "batch_validated": report.validated_count,
            "batch_delegated": len(delegated),
            "batch_workers": report.workers,
            "plan_cache_hits": report.plan_cache_hits,
            "plan_cache_misses": report.plan_cache_misses,
        }

        for (job, spec), result in zip(batched, report.results):
            if isinstance(result, BaseException):
                yield job, describe_error(result)
                continue
            payload = scenario_result_payload(job, spec, result)
            payload["job_id"] = job.job_id
            payload["kind"] = job.kind
            payload["elapsed_seconds"] = share
            yield job, payload

        for job in delegated:
            try:
                payload = execute_job(job)
            except Exception as error:
                yield job, describe_error(error)
            else:
                yield job, payload
