"""Performance benchmarks of the library's own machinery.

Not a paper artifact — these measure the simulator, planner and hardware
engine throughput so performance regressions in the substrate are caught
by ``pytest benchmarks/ --benchmark-only`` alongside the reproduction
benches.  The CI perf-smoke job runs this file on a fixed design point
and uploads the ``--benchmark-json`` timings as a ``BENCH_*.json``
artifact, so the kernel's throughput trajectory is recorded per commit.
"""

from repro.core.planner import AccessPlanner
from repro.core.vector import VectorAccess
from repro.hardware.oos_engine import Figure6Engine
from repro.memory.config import MemoryConfig
from repro.memory.kernel import MemoryKernel
from repro.memory.system import MemorySystem
from repro.processor.decoupled import DecoupledVectorMachine
from repro.processor.stripmine import daxpy_program

CONFIG = MemoryConfig.matched(t=3, s=4)
PLANNER = AccessPlanner(CONFIG.mapping, 3)
SYSTEM = MemorySystem(CONFIG)
VECTOR = VectorAccess(16, 12, 128)
UNMATCHED = MemoryConfig.unmatched(t=3, s=4, y=9, input_capacity=2)
UNMATCHED_PLANNER = AccessPlanner(UNMATCHED.mapping, 3)


def test_plan_conflict_free(benchmark):
    plan = benchmark(PLANNER.plan, VECTOR, "conflict_free")
    assert plan.conflict_free


def test_simulate_conflict_free_access(benchmark):
    plan = PLANNER.plan(VECTOR, mode="conflict_free")
    result = benchmark(SYSTEM.run_plan, plan)
    assert result.latency == 137


def test_simulate_conflicting_access(benchmark):
    plan = PLANNER.plan(VectorAccess(0, 1 << 6, 128), mode="ordered")
    result = benchmark(SYSTEM.run_plan, plan)
    assert not result.conflict_free


def test_figure6_engine(benchmark):
    def build_and_run():
        return Figure6Engine(PLANNER, VECTOR).run()

    stream = benchmark(build_and_run)
    assert len(stream) == 128


def test_full_machine_daxpy(benchmark):
    program = daxpy_program(256, 128, 2.0, 0, 3, 10**6, 1)

    def run_machine():
        machine = DecoupledVectorMachine(CONFIG, register_length=128)
        machine.store.write_vector(0, 3, [1.0] * 256)
        machine.store.write_vector(10**6, 1, [2.0] * 256)
        return machine.run(program)

    result = benchmark(run_machine)
    assert result.total_cycles > 0


def test_kernel_two_streams_one_bus(benchmark):
    """The unified kernel on the classic shared-bus interference case."""
    config = MemoryConfig.matched(t=3, s=4, input_capacity=2)
    planner = AccessPlanner(config.mapping, 3)
    streams = [
        planner.plan(VectorAccess(0, 12, 128)).request_stream(),
        planner.plan(VectorAccess(1, 12, 128)).request_stream(),
    ]
    kernel = MemoryKernel(config)

    run = benchmark(kernel.run, streams)
    assert run.aggregate_elements == 256


def test_kernel_two_streams_traced(benchmark):
    """The same case with a live tracer: post-hoc event derivation only.

    Compare against ``test_kernel_two_streams_one_bus`` to see the
    tracing overhead; the disabled-tracing path must stay within noise
    of the seed (the cycle loop is byte-identical either way).
    """
    from repro.obs import Tracer

    config = MemoryConfig.matched(t=3, s=4, input_capacity=2)
    planner = AccessPlanner(config.mapping, 3)
    streams = [
        planner.plan(VectorAccess(0, 12, 128)).request_stream(),
        planner.plan(VectorAccess(1, 12, 128)).request_stream(),
    ]

    def run_traced():
        kernel = MemoryKernel(config, tracer=Tracer())
        return kernel.run(streams)

    run = benchmark(run_traced)
    assert run.aggregate_elements == 256


def test_kernel_two_ports(benchmark):
    """Two section-disjoint streams over two address/result ports."""
    streams = [
        UNMATCHED_PLANNER.plan(VectorAccess(0, 16, 64)).request_stream(),
        UNMATCHED_PLANNER.plan(
            VectorAccess(1 << 9, 16, 64)
        ).request_stream(),
    ]
    kernel = MemoryKernel(UNMATCHED, ports=2)

    run = benchmark(kernel.run, streams)
    assert run.total_cycles <= 64 + 8 + 1 + 8


def test_full_machine_daxpy_two_ports(benchmark):
    """The program path with concurrent in-flight memory instructions."""
    config = MemoryConfig.unmatched(
        t=3, s=4, y=9, input_capacity=2, ports=2
    )
    program = daxpy_program(256, 128, 2.0, 0, 3, 10**6, 1)

    def run_machine():
        machine = DecoupledVectorMachine(config, register_length=128)
        machine.store.write_vector(0, 3, [1.0] * 256)
        machine.store.write_vector(10**6, 1, [2.0] * 256)
        return machine.run(program)

    result = benchmark(run_machine)
    assert result.stream_concurrency_peak == 2


# -- batch design-point evaluation ----------------------------------------
#
# The batch engine's headline grid: 1000 conflict-free-heavy cells,
# measured against the per-point kernel.  The grid mixes strides whose accesses plan conflict-free under the matched XOR
# mapping (the analytic tier) with conflict-prone ones (the soa tier,
# which runs the kernel's aggregate-only entry point); the baseline
# bench runs the identical specs through simulate() so the BENCH_*.json
# artifact records both sides of the ratio per commit.


def _batch_grid():
    from repro.scenarios import (
        ComponentSpec,
        MemorySpec,
        ScenarioGrid,
        ScenarioSpec,
    )

    base = ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3),
        workload=ComponentSpec.of("strided", base=0, stride=1, length=64),
        name="batch-perf",
    )
    return ScenarioGrid.of(
        base,
        workload__params__stride=(1, 2, 3, 4, 5, 7, 8, 12, 16, 96),
        workload__params__length=(32, 64, 128, 256, 512),
        workload__params__base=(0, 8, 64, 128),
        memory__q=(1, 2, 4, 8, 16),
    )


_BATCH_SPECS = _batch_grid().expand()


def test_batch_grid_1000_cells(benchmark):
    """The headline number: one 1000-cell grid through evaluate_batch."""
    from repro.batch import evaluate_batch

    report = benchmark(evaluate_batch, _BATCH_SPECS)
    assert len(report.results) == 1000
    assert report.analytic_count > 0
    assert report.soa_count > 0
    assert report.fallback_count == 0


def test_kernel_grid_1000_cells_baseline(benchmark):
    """Per-point simulate() over the identical grid — the denominator."""
    from repro.scenarios import simulate

    def run_all():
        return [simulate(spec) for spec in _BATCH_SPECS]

    results = benchmark.pedantic(run_all, rounds=3, iterations=1)
    assert len(results) == 1000


def test_kernel_grid_soa_points(benchmark):
    """Per-point simulate() over the grid's soa-tier points only: the
    full kernel path (records included) on the points the batch
    engine's middle tier serves, so the two stay comparable per commit."""
    from repro.batch import prepare_point
    from repro.scenarios import simulate

    specs = [
        spec for spec in _BATCH_SPECS if prepare_point(spec).kind == "soa"
    ]

    def run_all():
        return [simulate(spec) for spec in specs]

    results = benchmark.pedantic(run_all, rounds=3, iterations=1)
    assert len(results) == len(specs) > 0


def test_batch_grid_analytic_only(benchmark):
    """A grid whose every point the closed form answers outright."""
    from repro.batch import evaluate_batch
    from repro.scenarios import (
        ComponentSpec,
        MemorySpec,
        ScenarioGrid,
        ScenarioSpec,
    )

    base = ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3),
        workload=ComponentSpec.of("strided", base=0, stride=1, length=128),
        name="analytic-perf",
    )
    specs = ScenarioGrid.of(
        base,
        workload__params__stride=(1, 2, 3, 4, 8, 12, 16, 24),
        workload__params__length=(128, 256, 512, 1024),
        workload__params__base=(0, 8, 64, 128, 1024),
    ).expand()
    report = benchmark(evaluate_batch, specs)
    assert report.analytic_count == len(specs) == 160


def test_batch_grid_mixed_with_indexed(benchmark):
    """Strided + indexed points: the soa tier carries the gathers."""
    from repro.batch import evaluate_batch
    from repro.scenarios import ScenarioSpec

    mapping = {"kind": "matched-xor", "params": {"t": 3, "s": 4}}
    specs = []
    for stride in (1, 3, 8, 96):
        for length in (64, 128):
            specs.append(
                ScenarioSpec.from_dict(
                    {
                        "name": f"mix-s{stride}-l{length}",
                        "mapping": mapping,
                        "memory": {"t": 3},
                        "workload": {
                            "kind": "strided",
                            "params": {
                                "base": 0,
                                "stride": stride,
                                "length": length,
                            },
                        },
                    }
                )
            )
    for bits in (5, 6, 7, 8):
        specs.append(
            ScenarioSpec.from_dict(
                {
                    "name": f"mix-bitrev{bits}",
                    "mapping": mapping,
                    "memory": {"t": 3},
                    "workload": {
                        "kind": "bit-reversal",
                        "params": {"bits": bits},
                    },
                }
            )
        )
    report = benchmark(evaluate_batch, specs)
    assert len(report.results) == len(specs)
    assert report.soa_count > 0


# -- program-grid fallback tier -------------------------------------------
#
# Program/decoupled points cannot take the analytic or soa tiers — the
# fallback tier is their whole story, and these benches record how fast
# it runs serially, sharded over 4 workers, and as a bare per-point
# loop.  The committed 64-point example is the fixture, so the bench
# measures exactly what `repro scenario run examples/... --engine batch
# --batch-workers 4` runs.  On multi-core CI the workers=4 series
# should sit well under the serial one; `lab history
# --flag-regressions` trends all three (see the history-smoke CI job).


def _program_grid_specs():
    from pathlib import Path

    from repro.scenarios import load_scenarios

    path = (
        Path(__file__).resolve().parent.parent
        / "examples"
        / "scenario_program_grid_64.json"
    )
    return load_scenarios(path.read_text())


_PROGRAM_SPECS = _program_grid_specs()


def test_program_grid_64_serial(benchmark):
    """The 64-point program grid through the serial fallback tier."""
    from repro.batch import evaluate_batch

    report = benchmark.pedantic(
        evaluate_batch, args=(_PROGRAM_SPECS,), rounds=2, iterations=1
    )
    assert len(report.results) == 64
    assert report.fallback_count == 64


def test_program_grid_64_workers4(benchmark):
    """The same grid with the fallback tier sharded over 4 workers."""
    from functools import partial

    from repro.batch import evaluate_batch

    report = benchmark.pedantic(
        partial(evaluate_batch, _PROGRAM_SPECS, workers=4),
        rounds=2,
        iterations=1,
    )
    assert len(report.results) == 64
    assert report.workers == 4


def test_program_grid_64_kernel_baseline(benchmark):
    """Per-point simulate() over the identical grid — the denominator."""
    from repro.scenarios import simulate

    def run_all():
        return [simulate(spec) for spec in _PROGRAM_SPECS]

    results = benchmark.pedantic(run_all, rounds=2, iterations=1)
    assert len(results) == 64
