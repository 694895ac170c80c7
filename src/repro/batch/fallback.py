"""Sharded execution of the batch engine's fallback tier.

The analytic and soa tiers answer planner-drive points wholesale, but
figure6/decoupled/program points still run the ordinary per-point
:func:`repro.scenarios.simulate` — serially, until this module.
:func:`run_fallback_tier` chunks those points across a process pool,
following the same conventions as
:class:`repro.lab.backends.ProcessPoolBackend` (one worker per CPU by
default via :func:`repro.lab.backends.default_worker_count`, an
in-process short-circuit when a pool could not pay for itself) while
keeping results indistinguishable from the serial tier:

* specs cross the boundary as their canonical JSON (the same rule the
  lab's spool protocol follows: only specs and JSON-safe payloads
  travel between processes);
* results come back as ordinary frozen ``ScenarioResult`` objects and
  are reassembled in input order, whatever order chunks finish in;
* a captured exception crosses back as the exception object itself
  when it pickles, and otherwise as its ``(type name, message)`` pair
  rebuilt into a stand-in whose :func:`repro.lab.backends.describe_error`
  rendering — ``TypeName: message`` — is byte-identical to the
  in-process path.

On POSIX the pool forks, so workers inherit the parent's warmed plan
and machine-template caches for free; each worker then grows its own.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

from repro.errors import SimulationError
from repro.scenarios.facade import ScenarioResult, simulate
from repro.scenarios.spec import ScenarioSpec

__all__ = ["resolve_fallback_workers", "run_fallback_tier"]

#: Chunks submitted per worker: small enough to amortise pickling,
#: large enough that a slow point cannot idle the rest of the pool.
_CHUNKS_PER_WORKER = 4


def resolve_fallback_workers(workers: int | None) -> int:
    """Normalise the ``workers=`` knob.

    ``None`` means serial (the historical behaviour); ``0`` means one
    worker per CPU, the same default ``repro lab run --jobs`` uses.
    """
    if workers is None:
        return 1
    if (
        isinstance(workers, bool)
        or not isinstance(workers, int)
        or workers < 0
    ):
        raise SimulationError(
            f"batch workers must be an int >= 0 (0 = one per CPU), "
            f"got {workers!r}"
        )
    if workers == 0:
        from repro.lab.backends import default_worker_count

        return default_worker_count()
    return workers


def _portable_result(spec: ScenarioSpec) -> tuple:
    """Simulate one spec in a worker; always return something picklable."""
    try:
        return ("ok", simulate(spec))
    except Exception as error:  # parity: the serial tier captures all
        try:
            pickle.dumps(error)
        except Exception:
            return ("opaque-error", type(error).__name__, str(error))
        return ("error", error)


def _simulate_chunk(payload: tuple[int, list[str]]) -> tuple[int, list]:
    """Pool worker: one chunk of spec JSON in, tagged results out."""
    start, texts = payload
    return start, [
        _portable_result(ScenarioSpec.from_json(text)) for text in texts
    ]


def _rebuild_error(name: str, message: str) -> BaseException:
    """A stand-in for an exception that could not cross the boundary.

    The dynamic class carries the original type name, so the canonical
    ``TypeName: message`` rendering (and therefore lab failure records)
    matches the serial tier exactly.
    """
    cls = type(name, (SimulationError,), {"__module__": __name__})
    return cls(message)


def _untag(tagged: tuple) -> ScenarioResult | BaseException:
    if tagged[0] == "ok":
        return tagged[1]
    if tagged[0] == "error":
        return tagged[1]
    return _rebuild_error(tagged[1], tagged[2])


def _pool_context():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_fallback_tier(
    specs: list[ScenarioSpec], *, workers: int = 1, on_error: str = "raise"
) -> list[ScenarioResult | BaseException]:
    """Evaluate the fallback points; results in input order.

    ``on_error="capture"`` records a point's exception in place of its
    result; ``"raise"`` re-raises the failure of the lowest-index
    failing point (the same point the serial tier would have raised
    at — simulation is side-effect free, so the extra points a pool
    may have evaluated first are unobservable).
    """
    if workers <= 1 or len(specs) <= 1:
        results: list[ScenarioResult | BaseException] = []
        for spec in specs:
            try:
                results.append(simulate(spec))
            except Exception as error:
                if on_error == "raise":
                    raise
                results.append(error)
        return results

    worker_count = min(workers, len(specs))
    chunk_count = min(len(specs), worker_count * _CHUNKS_PER_WORKER)
    size = -(-len(specs) // chunk_count)  # ceil division
    payloads = [
        (start, [spec.to_json() for spec in specs[start : start + size]])
        for start in range(0, len(specs), size)
    ]
    slots: list = [None] * len(specs)
    with ProcessPoolExecutor(
        max_workers=worker_count, mp_context=_pool_context()
    ) as pool:
        for start, tagged_chunk in pool.map(_simulate_chunk, payloads):
            for offset, tagged in enumerate(tagged_chunk):
                slots[start + offset] = _untag(tagged)
    if on_error == "raise":
        for result in slots:
            if isinstance(result, BaseException):
                raise result
    return slots
