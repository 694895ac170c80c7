"""The batch evaluator against the per-point kernel, field for field.

The equivalence sweep spans every mapping kind, conflict-free and
conflict-prone strides, forced and tolerant plan modes, indexed
workloads, multi-access kernels and the fallback drives — every spec
evaluates through :func:`evaluate_batch` and :func:`simulate` and the
two ``to_dict()`` payloads must be identical.  The rest pins the
engine mechanics: partition counts, the middle tier against the
kernel's full runs, the validation sampler,
error capture/raise parity, and the :class:`BatchBackend`'s
payload/caching interchangeability with the serial lab path.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.batch import (
    BatchBackend,
    BatchValidationError,
    evaluate_batch,
)
from repro.batch.engine import _validation_sample, simulate_runs
from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.errors import OrderingError, SimulationError
from repro.memory.config import MemoryConfig
from repro.memory.kernel import MemoryKernel
from repro.scenarios import ScenarioSpec, simulate, simulate_grid
from repro.scenarios.grid import ScenarioGrid


def spec_of(name, mapping, workload, *, memory=None, drive=None):
    data = {"name": name, "mapping": mapping, "workload": workload}
    if memory:
        data["memory"] = memory
    if drive:
        data["drive"] = drive
    return ScenarioSpec.from_dict(data)


def strided(base=0, stride=1, length=64):
    return {
        "kind": "strided",
        "params": {"base": base, "stride": stride, "length": length},
    }


MATCHED = {"kind": "matched-xor", "params": {"t": 3, "s": 4}}
SECTION = {"kind": "section-xor", "params": {"t": 2, "s": 3, "y": 7}}
INTERLEAVED = {"kind": "interleaved", "params": {"m": 3}}
SKEWED = {"kind": "skewed", "params": {"m": 3, "s": 4}}
PSEUDO = {"kind": "pseudo-random", "params": {"m": 3}}


def equivalence_specs():
    """A sweep hitting the analytic, soa and fallback tiers."""
    specs = []
    for label, mapping, t in [
        ("matched", MATCHED, 3),
        ("section", SECTION, 2),
        ("interleaved", INTERLEAVED, 3),
        ("skewed", SKEWED, 3),
        ("pseudo", PSEUDO, 3),
    ]:
        for stride in (1, 3, 8, 12):
            for mode in ("auto", "ordered"):
                for q in (1, 2):
                    specs.append(
                        spec_of(
                            f"{label}-s{stride}-{mode}-q{q}",
                            mapping,
                            strided(stride=stride, length=64),
                            memory={"t": t, "q": q},
                            drive={
                                "kind": "planner",
                                "params": {"mode": mode},
                            },
                        )
                    )
    # Forced subsequence mode (feasible geometry) goes through the real
    # planner inside the batch engine too.
    specs.append(
        spec_of(
            "forced-subsequence",
            MATCHED,
            strided(stride=2, length=128),
            memory={"t": 3},
            drive={"kind": "planner", "params": {"mode": "subsequence"}},
        )
    )
    # Indexed workloads: no closed form, always the soa tier.
    specs.append(
        spec_of(
            "gather",
            MATCHED,
            {
                "kind": "gather",
                "params": {"indices": [3, 1, 4, 1, 5, 9, 2, 6], "base": 0},
            },
            memory={"t": 3},
        )
    )
    specs.append(
        spec_of(
            "bitrev",
            MATCHED,
            {"kind": "bit-reversal", "params": {"bits": 6}},
            memory={"t": 3},
        )
    )
    # A multi-access kernel: column sweeps share one memory system.
    specs.append(
        spec_of(
            "columns",
            MATCHED,
            {"kind": "matrix-columns", "params": {"rows": 32, "cols": 4}},
            memory={"t": 3},
        )
    )
    # Fallback tier: the figure6 and decoupled drives.
    specs.append(
        spec_of(
            "figure6",
            MATCHED,
            strided(stride=8, length=64),
            memory={"t": 3, "q": 2},
            drive={"kind": "figure6", "params": {}},
        )
    )
    specs.append(
        ScenarioSpec.from_dict(
            {
                "name": "program",
                "mapping": MATCHED,
                "memory": {"t": 3, "q": 2},
                "program": {
                    "kind": "daxpy",
                    "params": {"alpha": 2.0, "n": 64},
                },
                "drive": {"kind": "decoupled", "params": {}},
            }
        )
    )
    return specs


class TestEquivalence:
    def test_every_spec_matches_the_kernel(self):
        specs = equivalence_specs()
        report = evaluate_batch(specs)
        assert len(report.results) == len(specs)
        for spec, result in zip(specs, report.results):
            assert result.to_dict() == simulate(spec).to_dict(), spec.name

    def test_all_three_tiers_are_exercised(self):
        report = evaluate_batch(equivalence_specs())
        assert report.analytic_count > 0
        assert report.soa_count > 0
        assert report.fallback_count > 0

    def test_analytic_results_claim_only_conflict_free_points(self):
        # The analytic tier's defining claim: whatever it answers is a
        # conflict-free point with zero stalls and exact T+L+1 latency.
        from repro.batch import prepare_point

        claimed = 0
        for spec in equivalence_specs():
            point = prepare_point(spec)
            if point.kind != "analytic":
                continue
            claimed += 1
            result = point.result
            assert result.conflict_free is True
            assert result.issue_stalls == 0
            assert result.wait_count == 0
            assert result.latency == result.minimum_latency
        assert claimed > 0

    def test_simulate_grid_engines_agree(self):
        grid = ScenarioGrid.of(
            ScenarioSpec.from_dict(
                {
                    "name": "grid",
                    "mapping": MATCHED,
                    "memory": {"t": 3},
                    "workload": strided(length=64),
                }
            ),
            workload__params__stride=[1, 3, 8, 12],
            memory__q=[1, 2],
        )
        batch = simulate_grid(grid, engine="batch", validate=3)
        kernel = simulate_grid(grid, engine="kernel")
        assert [r.to_dict() for r in batch] == [
            r.to_dict() for r in kernel
        ]

    def test_unknown_engine_is_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown evaluation"):
            simulate_grid([], engine="warp")


class TestMiddleTier:
    def test_simulate_runs_matches_kernel_runs_in_input_order(self):
        # Each (config, modules) run must report what the kernel's
        # full run() reports for the same plan, in input order.
        cases = []
        for t, s, stride in [(3, 4, 12), (2, 3, 1), (3, 4, 96)]:
            config = MemoryConfig.matched(t=t, s=s)
            plan = AccessPlanner(config.mapping, t).plan(
                VectorAccess(5, stride, 40), mode="auto"
            )
            run = MemoryKernel(config).run([plan.request_stream()])
            modules = [request.module for request in run.streams[0].requests]
            cases.append((config, modules, run))
        results = simulate_runs(
            [(config, modules) for config, modules, _run in cases]
        )
        assert len(results) == len(cases)
        for (_config, _modules, run), result in zip(cases, results):
            (stream,) = run.streams
            assert result.latency == run.total_cycles
            assert result.issue_stall_cycles == stream.issue_stall_cycles
            assert result.wait_count == stream.wait_count
            assert result.element_count == stream.element_count
        assert simulate_runs([]) == []


class TestErrorParity:
    def infeasible(self):
        # Family x=0 (odd stride) with L=8 < chunk 2**(4+3-0): the
        # forced conflict-free mode must raise.
        return spec_of(
            "infeasible",
            MATCHED,
            strided(stride=3, length=8),
            memory={"t": 3},
            drive={"kind": "planner", "params": {"mode": "conflict_free"}},
        )

    def test_forced_mode_raises_exactly_like_simulate(self):
        spec = self.infeasible()
        with pytest.raises(OrderingError) as kernel_error:
            simulate(spec)
        with pytest.raises(OrderingError) as batch_error:
            evaluate_batch([spec])
        assert str(batch_error.value) == str(kernel_error.value)

    def test_capture_mode_records_the_error_in_place(self):
        good = spec_of(
            "good", MATCHED, strided(stride=1, length=64), memory={"t": 3}
        )
        report = evaluate_batch(
            [good, self.infeasible(), good], on_error="capture"
        )
        assert report.results[0].to_dict() == simulate(good).to_dict()
        assert isinstance(report.results[1], OrderingError)
        assert report.results[2].to_dict() == report.results[0].to_dict()

    def test_unknown_on_error_mode_is_rejected(self):
        with pytest.raises(SimulationError, match="on_error"):
            evaluate_batch([], on_error="ignore")


class TestValidation:
    def test_sample_spreads_evenly(self):
        assert _validation_sample(3, 10) == [0, 3, 6]
        assert _validation_sample(99, 4) == [0, 1, 2, 3]
        assert _validation_sample(0, 10) == []
        assert _validation_sample(5, 0) == []

    def test_validated_count_is_reported(self):
        specs = equivalence_specs()[:10]
        report = evaluate_batch(specs, validate=4)
        assert report.validated_count == 4

    def test_injected_mismatch_raises_batch_validation_error(
        self, monkeypatch
    ):
        spec = spec_of(
            "point", MATCHED, strided(stride=1, length=64), memory={"t": 3}
        )
        reference = simulate(spec)

        def skewed_simulate(target, tracer=None):
            return dataclasses.replace(
                reference, latency=reference.latency + 1
            )

        monkeypatch.setattr(
            "repro.batch.engine.simulate", skewed_simulate
        )
        with pytest.raises(BatchValidationError, match="latency"):
            evaluate_batch([spec], validate=1)


class TestBatchBackend:
    def scenario_jobs(self):
        from repro.lab.jobs import scenario_job

        return [
            scenario_job(
                spec_of(
                    f"bb-{stride}",
                    MATCHED,
                    strided(stride=stride, length=64),
                    memory={"t": 3},
                )
            )
            for stride in (1, 3, 8, 12)
        ]

    def test_payloads_match_execute_job(self):
        from repro.lab.jobs import execute_job

        jobs = self.scenario_jobs()
        backend = BatchBackend()
        batched = {
            job.job_id: payload
            for job, payload in backend.run(jobs, run_id="parity")
        }
        assert set(backend.backend_metrics()) >= {
            "batch_jobs",
            "batch_analytic",
            "batch_soa",
        }
        for job in jobs:
            want = execute_job(job)
            got = dict(batched[job.job_id])
            # Wall-clock is the one legitimately engine-dependent field.
            got.pop("elapsed_seconds")
            want.pop("elapsed_seconds")
            assert got == want

    def test_non_scenario_jobs_are_delegated(self):
        from repro.lab.jobs import build_registry

        experiment = build_registry()["E01"]
        jobs = self.scenario_jobs()[:1] + [experiment]
        backend = BatchBackend()
        outcomes = dict(backend.run(jobs, run_id="mixed"))
        assert outcomes[experiment]["all_passed"] is True
        assert backend.backend_metrics()["batch_delegated"] == 1

    def test_job_errors_become_failures_not_crashes(self, tmp_path):
        from repro.lab import ArtifactStore, run_jobs, scenario_job

        bad = scenario_job(
            spec_of(
                "bad",
                MATCHED,
                strided(stride=3, length=8),
                memory={"t": 3},
                drive={
                    "kind": "planner",
                    "params": {"mode": "conflict_free"},
                },
            )
        )
        good = self.scenario_jobs()[0]
        store = ArtifactStore(tmp_path / "lab")
        report = run_jobs(
            [good, bad], store=store, backend=BatchBackend()
        )
        failed = {o.spec.job_id for o in report.failures}
        assert failed == {bad.job_id}

    def test_artifacts_interchange_with_the_serial_backend(self, tmp_path):
        from repro.lab import ArtifactStore, run_jobs

        jobs = self.scenario_jobs()
        store = ArtifactStore(tmp_path / "lab")
        first = run_jobs(jobs, store=store, backend=BatchBackend())
        assert first.executed == len(jobs)
        second = run_jobs(jobs, store=store, backend="serial")
        assert second.cache_hits == len(jobs)
        assert second.executed == 0
