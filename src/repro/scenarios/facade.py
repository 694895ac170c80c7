"""The scenario facade: spec in, normalised metrics out.

Two entry points:

* :func:`build_machine` — spec to live ``(MemoryConfig, AccessPlanner,
  MemorySystem)``, the wiring every experiment runner used to do by
  hand;
* :func:`simulate` — build the machine, generate the workload (or the
  program), drive the memory, and normalise the metrics every caller
  previously extracted ad hoc (latency, stalls, conflict-freedom,
  efficiency, per-module utilisation) into one JSON-safe
  :class:`ScenarioResult`.

A spec with a ``program`` section runs a whole vector program through
the one :class:`~repro.processor.engine.ProgramEngine` API — the same
path the workload-driven ``decoupled`` drive uses — and the result
additionally carries the per-instruction ``timeline``, total machine
cycles, the overlap fraction, the measured-vs-analytic chaining
speedup, and the end-to-end numerical-correctness verdict.

Both entry points raise :class:`~repro.errors.ConfigurationError` for
infeasible combinations (a dynamic mapping without a strided workload,
the Figure 6 engine on a gather, a register shorter than the vector, a
program under a non-decoupled drive), so a bad spec fails loudly before
any simulation starts.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import add

from repro.core.gather import IndexedAccess, plan_indexed
from repro.core.planner import AccessPlanner
from repro.errors import ConfigurationError
from repro.mappings.base import AddressMapping
from repro.mappings.dynamic import DynamicSchemeSelector
from repro.memory.config import MemoryConfig
from repro.memory.system import AccessResult, MemorySystem
from repro.obs.tracer import resolve_tracer
from repro.processor.engine import ProgramEngine, single_load_program
from repro.scenarios import components as _components  # registers kinds
from repro.scenarios.components import (
    DecoupledDrive,
    Figure6Drive,
    PlannerDrive,
    Workload,
)
from repro.scenarios.registry import DRIVE, MAPPING, PROGRAM, WORKLOAD, build
from repro.scenarios.spec import ScenarioSpec

__unused = _components  # imported for its registration side effect

#: Column names of one :attr:`ScenarioResult.timeline` row, in order.
#: Matches :data:`repro.processor.engine.TIMELINE_FIELDS` (asserted in
#: the tests); duplicated here so reading a stored result needs no
#: processor import.
TIMELINE_FIELDS = (
    "position",
    "mnemonic",
    "unit",
    "start_cycle",
    "end_cycle",
    "duration",
    "mode",
    "conflict_free",
    "port",
    "stream",
)


def _jsonify(value):
    """Extras values to their JSON-facing form (tuples become lists)."""
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    return value


@dataclass(frozen=True)
class ScenarioResult:
    """Normalised outcome of simulating one scenario.

    All fields are JSON scalars or lists thereof, so a result can be
    stored as a lab artifact or printed by the CLI without any custom
    encoding.  ``extras`` carries drive-specific observations (total
    machine cycles, chained instruction count, latch occupancy...).
    ``timeline`` — per-instruction cycle accounting, one row of
    :data:`TIMELINE_FIELDS` values per executed instruction — is only
    populated by the decoupled-machine paths (empty for planner and
    figure6 drives, which simulate accesses, not instructions).
    """

    name: str
    drive: str
    schemes: tuple[str, ...]
    access_count: int
    element_count: int
    latency: int
    minimum_latency: int
    conflict_free: bool
    issue_stalls: int
    wait_count: int
    service_ratio: int
    module_count: int
    module_busy_cycles: tuple[int, ...]
    extras: tuple[tuple[str, object], ...] = field(default_factory=tuple)
    timeline: tuple[tuple, ...] = field(default_factory=tuple)

    @property
    def cycles_per_element(self) -> float:
        return self.latency / self.element_count

    @property
    def excess_latency(self) -> int:
        """Cycles above the conflict-free minimum."""
        return self.latency - self.minimum_latency

    @property
    def efficiency(self) -> float:
        """Delivered elements per cycle, against the minimum-latency ideal."""
        return self.minimum_latency / self.latency

    @property
    def module_utilisation(self) -> float:
        """Mean fraction of the run each module spent busy."""
        if not self.module_busy_cycles or self.latency == 0:
            return 0.0
        return sum(self.module_busy_cycles) / (
            len(self.module_busy_cycles) * self.latency
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "drive": self.drive,
            "schemes": list(self.schemes),
            "access_count": self.access_count,
            "element_count": self.element_count,
            "latency": self.latency,
            "minimum_latency": self.minimum_latency,
            "excess_latency": self.excess_latency,
            "conflict_free": self.conflict_free,
            "issue_stalls": self.issue_stalls,
            "wait_count": self.wait_count,
            "cycles_per_element": self.cycles_per_element,
            "efficiency": self.efficiency,
            "service_ratio": self.service_ratio,
            "module_count": self.module_count,
            "module_utilisation": self.module_utilisation,
            "module_busy_cycles": list(self.module_busy_cycles),
            "extras": {key: _jsonify(value) for key, value in self.extras},
            "timeline": [
                dict(zip(TIMELINE_FIELDS, row)) for row in self.timeline
            ],
        }

    def metric_rows(self) -> list[list]:
        """``[metric, value]`` rows for tables and lab artifacts."""
        data = self.to_dict()
        rows = []
        for key in (
            "drive",
            "access_count",
            "element_count",
            "latency",
            "minimum_latency",
            "excess_latency",
            "conflict_free",
            "issue_stalls",
            "wait_count",
            "cycles_per_element",
            "efficiency",
            "module_utilisation",
        ):
            value = data[key]
            if isinstance(value, float):
                value = round(value, 6)
            rows.append([key, value])
        rows.append(["schemes", " ".join(self.schemes)])
        for key, value in self.extras:
            rows.append([f"extra:{key}", value])
        return rows


#: Set to ``0``/``off``/``false``/``no`` to disable machine-template
#: memoization (every ``build_config`` call then re-derives the mapping
#: and config from scratch).
MACHINE_CACHE_ENV = "REPRO_MACHINE_CACHE"

_MACHINE_CACHE_CAPACITY = 512
_machine_cache: OrderedDict[tuple, MemoryConfig] = OrderedDict()
_machine_cache_lock = threading.Lock()
_machine_cache_hits = 0
_machine_cache_misses = 0


def machine_cache_enabled() -> bool:
    """Whether :func:`build_config` reuses machine templates."""
    value = os.environ.get(MACHINE_CACHE_ENV, "1").strip().lower()
    return value not in ("0", "off", "false", "no")


def machine_cache_stats() -> dict[str, int]:
    """Hit/miss/occupancy counters of the machine-template cache."""
    with _machine_cache_lock:
        return {
            "machine_cache_hits": _machine_cache_hits,
            "machine_cache_misses": _machine_cache_misses,
            "machine_cache_entries": len(_machine_cache),
        }


def clear_machine_cache() -> None:
    """Empty the machine-template cache (tests, benchmarks)."""
    global _machine_cache_hits, _machine_cache_misses
    with _machine_cache_lock:
        _machine_cache.clear()
        _machine_cache_hits = 0
        _machine_cache_misses = 0


def _freeze(value):
    """A params value as a hashable cache-key component."""
    if isinstance(value, dict):
        return tuple(
            (key, _freeze(value[key])) for key in sorted(value)
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _machine_cache_key(spec: ScenarioSpec) -> tuple | None:
    """Cache key of a spec's machine layer, or None when uncacheable.

    ``dynamic`` mappings resolve against the workload, so their machine
    depends on more than the mapping/memory sections and is rebuilt
    every time.  Everything else is a pure function of the two spec
    sections (the same determinism the content-addressed artifact cache
    already relies on), so identical sections — the common case across
    a grid's program/workload axes — share one frozen
    :class:`MemoryConfig` and mapping object.
    """
    if not machine_cache_enabled():
        return None
    if spec.mapping.kind == "dynamic":
        return None
    memory = spec.memory
    return (
        spec.mapping.kind,
        _freeze(spec.mapping.params),
        memory.t,
        memory.q,
        memory.qp,
        memory.ports,
        memory.address_bits,
    )


def _machine_cache_lookup(key: tuple) -> MemoryConfig | None:
    global _machine_cache_hits, _machine_cache_misses
    with _machine_cache_lock:
        config = _machine_cache.get(key)
        if config is None:
            _machine_cache_misses += 1
            return None
        _machine_cache.move_to_end(key)
        _machine_cache_hits += 1
        return config


def _machine_cache_store(key: tuple, config: MemoryConfig) -> None:
    with _machine_cache_lock:
        _machine_cache[key] = config
        _machine_cache.move_to_end(key)
        while len(_machine_cache) > _MACHINE_CACHE_CAPACITY:
            _machine_cache.popitem(last=False)


def build_workload(spec: ScenarioSpec) -> Workload:
    """The live workload of a spec (which must declare one)."""
    if spec.workload is None:
        raise ConfigurationError(
            f"scenario {spec.name or spec.describe()!r} declares no workload; "
            "add a 'workload' (or 'program') section to simulate it"
        )
    return build(WORKLOAD, spec.workload)


def resolve_mapping(
    spec: ScenarioSpec, workload: Workload | None = None
) -> AddressMapping:
    """The concrete mapping of a spec.

    A ``dynamic`` mapping is a per-stride *selector*, not a mapping; it
    needs a single strided workload to resolve against (exactly the
    restriction the paper's Section 1 draws against dynamic schemes).
    """
    mapping, _dynamic = _resolve_mapping_info(spec, workload)
    return mapping


def _resolve_mapping_info(
    spec: ScenarioSpec, workload: Workload | None = None
) -> tuple[AddressMapping, bool]:
    """The concrete mapping plus whether it was workload-resolved."""
    mapping = build(
        MAPPING, spec.mapping, address_bits=spec.memory.address_bits
    )
    if isinstance(mapping, DynamicSchemeSelector):
        if workload is None and spec.workload is not None:
            workload = build_workload(spec)
        if workload is None:
            raise ConfigurationError(
                "a dynamic mapping needs a strided workload to select the "
                "per-stride scheme; this spec has no workload"
            )
        vector = workload.single_vector()
        return mapping.mapping_for_stride(vector.stride), True
    return mapping, False


def build_config(
    spec: ScenarioSpec, workload: Workload | None = None
) -> MemoryConfig:
    """The memory configuration of a spec (geometry validation included).

    The program path needs only this — the
    :class:`~repro.processor.engine.ProgramEngine` builds its own
    machine from the config — while :func:`build_machine` layers the
    planner and memory system on top for the access-driven paths.

    Identical mapping/memory sections share one frozen config (and
    mapping object) through the machine-template cache, so a grid
    sweeping program or workload axes stops re-deriving its machine
    per point; disable with ``REPRO_MACHINE_CACHE=0``.
    """
    key = _machine_cache_key(spec)
    if key is not None:
        cached = _machine_cache_lookup(key)
        if cached is not None:
            return cached
    mapping, dynamic = _resolve_mapping_info(spec, workload)
    if spec.memory.ports > mapping.module_count:
        raise ConfigurationError(
            f"scenario field 'memory.ports' ({spec.memory.ports}) exceeds "
            f"the module count M={mapping.module_count} of mapping "
            f"{spec.mapping.kind!r}: each port needs at least one module "
            "to talk to"
        )
    config = MemoryConfig(
        mapping,
        spec.memory.t,
        input_capacity=spec.memory.q,
        output_capacity=spec.memory.qp,
        ports=spec.memory.ports,
    )
    # A registered kind may hand back a dynamic selector even when the
    # spec kind isn't literally "dynamic"; those configs depend on the
    # workload, so only workload-independent machines are shared.
    if key is not None and not dynamic:
        _machine_cache_store(key, config)
    return config


def build_machine(
    spec: ScenarioSpec, workload: Workload | None = None
) -> tuple[MemoryConfig, AccessPlanner, MemorySystem]:
    """Materialise the machine layer of a spec.

    Returns the memory configuration, the access planner and the
    cycle-accurate memory system — identical objects to what the
    hand-wired constructors produce, so results are bit-for-bit equal.
    """
    config = build_config(spec, workload)
    planner = AccessPlanner(config.mapping, config.t)
    return config, planner, MemorySystem(config)


def simulate(spec: ScenarioSpec, tracer=None) -> ScenarioResult:
    """Run one scenario end to end and normalise its metrics.

    ``tracer`` (an :class:`repro.obs.tracer.Tracer`) collects the
    cycle-level event timeline of whichever drive runs — kernel
    module/port/stream events for the access-driven paths, plus
    machine-unit instruction spans for the program paths — for export
    as Chrome trace JSON (``repro scenario run --trace``).
    """
    tracer = resolve_tracer(tracer)
    drive = build(DRIVE, spec.drive)
    if spec.program is not None:
        if not isinstance(drive, DecoupledDrive):
            raise ConfigurationError(
                f"scenario programs run on the decoupled machine; set "
                f"drive kind to 'decoupled' (got {spec.drive.kind!r})"
            )
        return _simulate_program(spec, build_config(spec), drive, tracer)
    workload = build_workload(spec)
    config, planner, system = build_machine(spec, workload)
    if isinstance(drive, PlannerDrive):
        return _simulate_planner(
            spec, workload, config, planner, system, drive, tracer
        )
    if isinstance(drive, Figure6Drive):
        return _simulate_figure6(
            spec, workload, config, planner, system, tracer
        )
    if isinstance(drive, DecoupledDrive):
        return _simulate_decoupled(spec, workload, config, drive, tracer)
    raise ConfigurationError(  # pragma: no cover - registry emits the three
        f"drive kind {spec.drive.kind!r} returned an unknown descriptor"
    )


#: Evaluation engines ``simulate_grid`` (and the CLI) accept.
ENGINE_NAMES = ("kernel", "batch")


def simulate_grid(
    grid,
    *,
    engine: str = "kernel",
    validate: int = 0,
    workers: int | None = None,
    tracer=None,
) -> list[ScenarioResult]:
    """Simulate every design point of a grid (or a list of specs).

    ``engine`` picks the evaluation strategy: ``"kernel"`` runs each
    point through :func:`simulate` (the per-point cycle-accurate
    path), ``"batch"`` hands the whole batch to
    :func:`repro.batch.evaluate_batch` — the analytic ``T + L + 1``
    fast path for conflict-free planner points plus the kernel's
    aggregate-only entry point for the rest, with identical results
    either way.  ``validate`` (batch engine only) re-runs that
    many sampled points through the per-point kernel and raises on any
    field mismatch.  ``workers`` (batch engine only) shards the
    fallback tier — figure6/decoupled/program points — over that many
    worker processes.  ``tracer`` is only meaningful for the kernel
    engine (the batch engine materialises no per-cycle events).
    """
    from repro.scenarios.grid import ScenarioGrid

    specs = grid.expand() if isinstance(grid, ScenarioGrid) else list(grid)
    if engine == "kernel":
        return [simulate(spec, tracer) for spec in specs]
    if engine == "batch":
        from repro.batch import evaluate_batch

        return list(
            evaluate_batch(
                specs, validate=validate, workers=workers
            ).results
        )
    raise ConfigurationError(
        f"unknown evaluation engine {engine!r} "
        f"(known: {', '.join(ENGINE_NAMES)})"
    )


def _aggregate(
    spec: ScenarioSpec,
    config: MemoryConfig,
    runs: list[tuple[str, AccessResult]],
    extras: tuple[tuple[str, object], ...] = (),
    timeline: tuple[tuple, ...] = (),
) -> ScenarioResult:
    """Fold per-access results into one scenario-level record.

    Multi-access workloads (kernels) are simulated back to back, so
    totals add and conflict-freedom is the conjunction.
    """
    schemes = []
    busy = [0] * config.module_count
    elements = latency = stalls = waits = 0
    conflict_free = True
    for scheme, run in runs:
        if scheme not in schemes:
            schemes.append(scheme)
        elements += run.element_count
        latency += run.latency
        stalls += run.issue_stall_cycles
        waits += run.wait_count
        conflict_free = conflict_free and run.conflict_free
        busy = list(map(add, busy, run.module_busy_cycles))
    return ScenarioResult(
        name=spec.name,
        drive=spec.drive.kind,
        schemes=tuple(schemes),
        access_count=len(runs),
        element_count=elements,
        latency=latency,
        minimum_latency=(config.service_ratio + 1) * len(runs) + elements,
        conflict_free=conflict_free,
        issue_stalls=stalls,
        wait_count=waits,
        service_ratio=config.service_ratio,
        module_count=config.module_count,
        module_busy_cycles=tuple(busy),
        extras=extras,
        timeline=timeline,
    )


def _simulate_planner(
    spec: ScenarioSpec,
    workload: Workload,
    config: MemoryConfig,
    planner: AccessPlanner,
    system: MemorySystem,
    drive: PlannerDrive,
    tracer=None,
) -> ScenarioResult:
    tracer = resolve_tracer(tracer)
    runs: list[tuple[str, AccessResult]] = []
    # Accesses run back to back, so each one's kernel events are shifted
    # by the latency accumulated before it — the exported timeline shows
    # the workload as one continuous run.
    offset = 0
    for access in workload.accesses():
        if isinstance(access, IndexedAccess):
            plan = plan_indexed(
                config.mapping, config.t, access, mode=drive.indexed_mode
            )
        else:
            plan = planner.plan(access, mode=drive.mode)
        run = system.run_plan(plan, tracer=tracer.shifted(offset))
        offset += run.latency
        runs.append((plan.scheme, run))
    return _aggregate(spec, config, runs)


def _simulate_figure6(
    spec: ScenarioSpec,
    workload: Workload,
    config: MemoryConfig,
    planner: AccessPlanner,
    system: MemorySystem,
    tracer=None,
) -> ScenarioResult:
    from repro.hardware.oos_engine import Figure6Engine

    vector = workload.single_vector()
    engine = Figure6Engine(planner, vector)
    run = system.run_stream(engine.request_stream(), tracer=tracer)
    report = engine.report()
    extras = (
        ("latch_peak_occupancy", report.latch_peak_occupancy),
        ("latch_capacity", report.latch_capacity),
        ("generator_adds", report.generator1_adds + report.generator2_adds),
    )
    return _aggregate(spec, config, [("conflict_free", run)], extras)


def program_engine(
    config: MemoryConfig,
    drive: DecoupledDrive,
    register_length: int,
    tracer=None,
) -> ProgramEngine:
    """The :class:`~repro.processor.engine.ProgramEngine` a decoupled
    drive describes — the one both decoupled paths and ``repro check``
    run programs on."""
    return ProgramEngine(
        config,
        register_length,
        execute_startup=drive.execute_startup,
        chaining=drive.chaining,
        plan_mode=drive.plan_mode,  # type: ignore[arg-type]
        memory_streams=drive.memory_streams,
        tracer=tracer,
    )


def _simulate_decoupled(
    spec: ScenarioSpec,
    workload: Workload,
    config: MemoryConfig,
    drive: DecoupledDrive,
    tracer=None,
) -> ScenarioResult:
    vector = workload.single_vector()
    register_length = drive.register_length or vector.length
    if register_length < vector.length:
        raise ConfigurationError(
            f"register_length {register_length} is shorter than the "
            f"workload vector ({vector.length} elements)"
        )
    engine = program_engine(config, drive, register_length, tracer)
    # The implicit program: one VLOAD (plus a dependent VADD when
    # chaining, which makes the chained overlap observable).
    program = single_load_program(vector, drive.chaining)
    inputs = (
        (
            vector.base,
            vector.stride,
            tuple(float(i) for i in range(vector.length)),
        ),
    )
    run = engine.run(program, inputs)
    load_scheme = run.memory_runs[0][0]
    extras = (
        ("total_cycles", run.total_cycles),
        ("chained_instructions", run.chained_count),
        ("conflict_free_loads", run.conflict_free_loads),
        ("load_scheme", load_scheme),
        ("overlap_fraction", run.overlap_fraction),
    )
    return _aggregate(
        spec, config, list(run.memory_runs), extras, timeline=run.timeline
    )


def _simulate_program(
    spec: ScenarioSpec,
    config: MemoryConfig,
    drive: DecoupledDrive,
    tracer=None,
) -> ScenarioResult:
    """Run a whole-program scenario through the :class:`ProgramEngine`.

    Memory metrics (latency, stalls, conflict-freedom...) aggregate over
    every LOAD/STORE the program issued; machine-level observations land
    in ``extras`` and the per-instruction ``timeline``.  When the drive
    enables chaining, the program is also run on an otherwise-identical
    non-chaining machine, and the measured decoupled/chained speedup is
    reported next to the analytic
    :func:`repro.processor.chaining.program_chaining_speedup` prediction
    with the model's stated tolerance.
    """
    from repro.processor.chaining import (
        CHAINING_MODEL_TOLERANCE,
        program_chaining_speedup,
    )
    from repro.scenarios.components import DEFAULT_PROGRAM_REGISTER_LENGTH

    register_length = drive.register_length or DEFAULT_PROGRAM_REGISTER_LENGTH
    scenario_program = build(
        PROGRAM, spec.program, register_length=register_length
    )
    engine = program_engine(config, drive, register_length, tracer)
    run = engine.run(
        scenario_program.program,
        scenario_program.inputs,
        scenario_program.expected,
    )
    extras: list[tuple[str, object]] = [
        ("program", scenario_program.label),
        ("instruction_count", len(scenario_program.program)),
        ("memory_instructions",
         scenario_program.program.memory_instruction_count()),
        ("register_length", register_length),
        ("total_cycles", run.total_cycles),
        ("chained_instructions", run.chained_count),
        ("conflict_free_loads", run.conflict_free_loads),
        ("overlap_fraction", run.overlap_fraction),
        ("memory_ports", config.ports),
        ("memory_streams", run.machine.memory_streams),
        ("stream_concurrency_peak", run.stream_concurrency_peak),
    ]
    if run.outputs_correct is not None:
        extras.append(("numerically_correct", run.outputs_correct))
        if run.output_errors:
            extras.append(("output_errors", run.output_errors[:5]))
    if drive.chaining:
        measured = engine.measured_chaining_speedup(
            scenario_program.program, scenario_program.inputs, chained_run=run
        )
        extras.append(("chaining_speedup", measured))
        # The analytic model assumes every access is conflict-free and
        # a serial memory unit (one in-flight access); only report it
        # (and its acceptance tolerance) when both premises hold, so
        # consumers never compare against an inapplicable prediction.
        model_applicable = run.machine.memory_streams == 1 and all(
            access.conflict_free for _scheme, access in run.memory_runs
        )
        extras.append(("chaining_model_applicable", model_applicable))
        if model_applicable:
            extras.extend(
                (
                    (
                        "chaining_speedup_model",
                        program_chaining_speedup(
                            scenario_program.program,
                            register_length,
                            config.service_ratio,
                            drive.execute_startup,
                        ),
                    ),
                    ("chaining_model_tolerance", CHAINING_MODEL_TOLERANCE),
                )
            )
    return _aggregate(
        spec,
        config,
        list(run.memory_runs),
        tuple(extras),
        timeline=run.timeline,
    )
