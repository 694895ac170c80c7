"""Span tracing installed from outside the program.

:func:`install` replaces public functions and methods of ``repro`` with
wrappers that record one span per call: name, start, end, parent span,
request id and self time (duration minus the time its child spans
cover).  The per-word ``MemoryStore`` calls are too many for one span
each, so they are aggregate counters instead, whose time still counts
as child time of the enclosing span.  Everything stays in memory until
:meth:`Recorder.dump`.

The program itself is unchanged: with no wrappers installed it runs
exactly as shipped, which is how the untraced end-to-end runs measure.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

_now = time.perf_counter_ns

#: Per-word storage methods, counted rather than spanned.
STORAGE_METHODS = ("read", "write", "read_vector", "write_vector")


class Recorder:
    """In-memory spans and counters, keyed by the active request id."""

    def __init__(self):
        self.spans: list[tuple] = []
        #: (counter name, request id) -> [calls, nanoseconds]
        self.counters: dict[tuple, list[int]] = defaultdict(lambda: [0, 0])
        #: (value name, request id) -> summed value
        self.values: dict[tuple, float] = defaultdict(float)
        #: run id -> bench request id, for spans on queue threads
        self.run_requests: dict[str, str] = {}
        self.queue_waits: dict[str, float] = {}
        self._returned: dict[str, int] = {}
        self._started: set[str] = set()
        self._queue_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.default_request: str | None = None

    # -- per-thread state --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> str | None:
        return getattr(self._local, "request", self.default_request)

    @request.setter
    def request(self, value: str | None) -> None:
        self._local.request = value

    # -- recording ---------------------------------------------------------

    def enter(self) -> tuple:
        stack = self._stack()
        parent = stack[-1][1] if stack else None
        frame = ([0], next(self._ids), parent, _now())
        stack.append(frame)
        return frame

    def leave(self, name: str, frame: tuple) -> None:
        end = _now()
        stack = self._stack()
        stack.pop()
        child, span_id, parent, start = frame
        duration = end - start
        if stack:
            stack[-1][0][0] += duration
        self.spans.append(
            (name, start, end, parent, self.request, duration - child[0], span_id)
        )

    def span(self, name: str, function, observe=None):
        """``function`` wrapped to record one span per call."""
        recorder = self

        def wrapper(*args, **kwargs):
            frame = recorder.enter()
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.leave(name, frame)
            if observe is not None:
                observe(recorder, result)
            return result

        return functools.wraps(function)(wrapper)

    def generator_span(self, name: str, function):
        """A generator function wrapped so each ``next`` is one span.

        Time the consumer spends between items is not the generator's.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            generator = function(*args, **kwargs)
            while True:
                frame = recorder.enter()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    recorder.leave(name, frame)
                yield item

        return functools.wraps(function)(wrapper)

    def counted(self, name: str, function):
        """``function`` wrapped as an aggregate counter (no span).

        Only the outermost counted call is timed, so a bulk call that
        loops over single-word calls is not counted twice.
        """
        recorder = self
        local = self._local

        def wrapper(*args, **kwargs):
            if getattr(local, "counting", False):
                recorder.counters[name, recorder.request][0] += 1
                return function(*args, **kwargs)
            local.counting = True
            start = _now()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = _now() - start
                local.counting = False
                cell = recorder.counters[name, recorder.request]
                cell[0] += 1
                cell[1] += elapsed
                stack = recorder._stack()
                if stack:
                    stack[-1][0][0] += elapsed

        return functools.wraps(function)(wrapper)

    def add(self, name: str, value: float) -> None:
        self.values[name, self.request] += value

    # -- submission bookkeeping (lab service) ------------------------------

    def submitted(self, run_id: str) -> None:
        """``SubmissionQueue.submit`` returned for ``run_id``."""
        with self._queue_lock:
            if run_id in self._started:
                self._started.discard(run_id)
                self.queue_waits[run_id] = 0.0
            else:
                self._returned[run_id] = _now()

    def execution_started(self, run_id: str) -> None:
        """``run_id`` left the queue; its wait ends here."""
        with self._queue_lock:
            returned = self._returned.pop(run_id, None)
            if returned is None:
                self._started.add(run_id)
            else:
                self.queue_waits[run_id] = (_now() - returned) / 1e6

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span and counter as JSON (after the run)."""
        data = {
            "spans": [
                {
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    "request": request,
                    "self_ns": self_ns,
                    "id": span_id,
                }
                for name, start, end, parent, request, self_ns, span_id in self.spans
            ],
            "counters": [
                {"name": name, "request": request, "calls": calls, "ns": ns}
                for (name, request), (calls, ns) in self.counters.items()
            ],
            "values": [
                {"name": name, "request": request, "value": value}
                for (name, request), value in self.values.items()
            ],
            "queue_waits": [
                {"request": self.run_requests.get(run_id), "ms": wait}
                for run_id, wait in self.queue_waits.items()
            ],
        }
        with open(path, "w") as handle:
            json.dump(data, handle)


def _kernel_cycles(recorder: Recorder, run) -> None:
    recorder.add("memory.kernel.sim_cycles", run.total_cycles)


def _jobs_report(recorder: Recorder, report) -> None:
    recorder.add("lab.jobs", len(report.outcomes))
    recorder.add("lab.cache_hits", report.cache_hits)


def install(recorder: Recorder) -> None:
    """Wrap every traced layer of ``repro`` (call once per process)."""
    import repro.batch.engine as batch_engine
    import repro.batch.fallback as batch_fallback
    import repro.batch.prepare as batch_prepare
    import repro.check as check
    import repro.scenarios as scenarios
    import repro.scenarios.facade as facade
    import repro.serve.service as service
    from repro.core.planner import AccessPlanner, plan_cache_stats
    from repro.lab.backends import ProcessPoolBackend
    from repro.lab.store import ArtifactStore
    from repro.memory.kernel import MemoryKernel
    from repro.memory.storage import MemoryStore
    from repro.obs.history import HistoryDB
    from repro.processor.decoupled import DecoupledVectorMachine
    from repro.processor.engine import ProgramEngine
    from repro.serve.queue import SubmissionQueue
    from repro.serve.routes import RequestHandler

    span = recorder.span

    # The batch engine calls its tiers through names it imported.
    batch_engine.prepare_point = span("batch.prepare_point", batch_engine.prepare_point)
    batch_engine.simulate_runs = span(
        "batch.soa.simulate_runs", batch_engine.simulate_runs
    )
    batch_engine.run_fallback_tier = span(
        "batch.fallback", batch_engine.run_fallback_tier
    )

    AccessPlanner.plan = span("core.planner.plan", AccessPlanner.plan)
    MemoryKernel.run = span("memory.kernel.run", MemoryKernel.run, _kernel_cycles)
    for method in STORAGE_METHODS:
        setattr(
            MemoryStore,
            method,
            recorder.counted("memory.storage.rw", getattr(MemoryStore, method)),
        )
    DecoupledVectorMachine.run = span(
        "processor.decoupled.run", DecoupledVectorMachine.run
    )
    ProgramEngine.run = span("processor.engine.run", ProgramEngine.run)

    build_config = span("scenarios.build_config", facade.build_config)
    facade.build_config = build_config
    batch_prepare.build_config = build_config
    simulate = span("scenarios.simulate", facade.simulate)
    for module in (facade, scenarios, batch_fallback, batch_engine):
        module.simulate = simulate

    run_jobs = span("lab.run_jobs", service.run_jobs, _jobs_report)

    def traced_run_jobs(*args, **kwargs):
        # Plans made in pool workers count in their own processes.
        before = plan_cache_stats()
        try:
            return run_jobs(*args, **kwargs)
        finally:
            after = plan_cache_stats()
            for key in ("hits", "misses"):
                recorder.add(
                    f"core.planner.plan_cache_{key}",
                    after[f"plan_cache_{key}"] - before[f"plan_cache_{key}"],
                )

    service.run_jobs = traced_run_jobs
    service.write_run_artifacts = span(
        "lab.write_run_artifacts", service.write_run_artifacts
    )
    ArtifactStore.save = span("lab.store.save", ArtifactStore.save)
    ArtifactStore.load = span("lab.store.load", ArtifactStore.load)
    ProcessPoolBackend.run = recorder.generator_span(
        "lab.backend", ProcessPoolBackend.run
    )
    check.require_submittable = span(
        "check.require_submittable", check.require_submittable
    )
    HistoryDB.ingest_manifest = span(
        "obs.history.ingest_manifest", HistoryDB.ingest_manifest
    )

    # Service plumbing: request ids ride an HTTP header into handler
    # threads, and a run id carries them onto the queue's threads.
    dispatch = RequestHandler._dispatch

    def traced_dispatch(handler, method):
        recorder.request = handler.headers.get("X-Bench-Request")
        frame = recorder.enter()
        try:
            return dispatch(handler, method)
        finally:
            recorder.leave("serve.http", frame)

    RequestHandler._dispatch = traced_dispatch

    queue_submit = SubmissionQueue.submit

    def traced_submit(queue, submission):
        recorder.run_requests[submission.run_id] = recorder.request
        try:
            return queue_submit(queue, submission)
        finally:
            recorder.submitted(submission.run_id)

    SubmissionQueue.submit = traced_submit

    execute = service.LabService._execute

    def traced_execute(lab_service, submission):
        recorder.execution_started(submission.run_id)
        recorder.request = recorder.run_requests.get(submission.run_id)
        frame = recorder.enter()
        try:
            return execute(lab_service, submission)
        finally:
            recorder.leave("serve.execute", frame)

    service.LabService._execute = traced_execute
    service.LabService.run_status = span(
        "serve.run_status", service.LabService.run_status
    )


#: Spans whose call count is a per-layer metric.
COUNTED_SPANS = (
    "batch.prepare_point",
    "core.planner.plan",
    "memory.kernel.run",
    "scenarios.build_config",
    "lab.store.save",
    "lab.store.load",
    "serve.run_status",
)

#: Spans whose summed self time is a per-layer metric.
TIMED_SPANS = (
    "batch.prepare_point",
    "batch.soa.simulate_runs",
    "batch.fallback",
    "core.planner.plan",
    "memory.kernel.run",
    "processor.decoupled.run",
    "processor.engine.run",
    "scenarios.build_config",
    "scenarios.simulate",
    "lab.run_jobs",
    "lab.store.save",
    "lab.store.load",
    "lab.write_run_artifacts",
    "lab.backend",
    "check.require_submittable",
    "obs.history.ingest_manifest",
    "serve.http",
    "serve.execute",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarise(data: dict, timed: set, hits: set) -> dict:
    """Per-layer metrics from a :meth:`Recorder.dump`.

    Only spans of the ``timed`` request ids count; ``hits`` are the
    requests that resent an earlier grid.  ``attributed_ms`` is the
    self time of every recorded span and counter.
    """
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    hit_saves = 0
    for span in data["spans"]:
        if span["request"] not in timed:
            continue
        name = span["name"]
        calls[name] += 1
        self_ns[name] += span["self_ns"]
        total_ns[name] += span["end_ns"] - span["start_ns"]
        if name == "lab.store.save" and span["request"] in hits:
            hit_saves += 1
    for counter in data["counters"]:
        if counter["request"] in timed:
            calls[counter["name"]] += counter["calls"]
            self_ns[counter["name"]] += counter["ns"]
    values: dict[str, float] = defaultdict(float)
    for value in data["values"]:
        if value["request"] in timed:
            values[value["name"]] += value["value"]
    waits = sorted(
        wait["ms"] for wait in data["queue_waits"] if wait["request"] in timed
    )

    metrics = {}
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = calls[name]
    for name in TIMED_SPANS:
        metrics[f"{name}.self_ms"] = self_ns[name] / 1e6
    metrics["memory.storage.rw.calls"] = calls["memory.storage.rw"]
    metrics["memory.storage.rw.self_ms"] = self_ns["memory.storage.rw"] / 1e6
    cycles = values["memory.kernel.sim_cycles"]
    metrics["memory.kernel.sim_cycles"] = cycles
    metrics["memory.kernel.host_ns_per_cycle"] = _ratio(
        total_ns["memory.kernel.run"], cycles
    )
    metrics["batch.analytic_share"] = _ratio(
        values["batch.analytic"], values["batch.points"]
    )
    metrics["batch.soa_share"] = _ratio(values["batch.soa"], values["batch.points"])
    metrics["core.planner.plan_cache_hit_ratio"] = _ratio(
        values["core.planner.plan_cache_hits"],
        values["core.planner.plan_cache_hits"]
        + values["core.planner.plan_cache_misses"],
    )
    metrics["lab.cache_hit_ratio"] = _ratio(values["lab.cache_hits"], values["lab.jobs"])
    metrics["lab.store.save.hit_request_calls"] = hit_saves
    metrics["serve.queue_wait_ms"] = waits[len(waits) // 2] if waits else 0.0
    metrics["trace.attributed_ms"] = sum(self_ns.values()) / 1e6
    return metrics
