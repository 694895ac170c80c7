"""One in-process sweep client in a fresh interpreter.

Usage: python3 perfbench/sweep_child.py WORKLOAD SEED SECONDS MODE SPANS

MODE is ``setup`` (measure set-up and exit), ``run`` (untraced timed
phase plus the correctness gate) or ``trace`` (the same with the span
wrappers installed; spans go to the SPANS file).  Prints one JSON
object on stdout.  ``PYTHONPATH`` must name the program's ``src``.
"""

import sys
import time

import calibrate

_reference_before = calibrate.median_reference_ms()
_setup_started = time.perf_counter()

import repro.cli  # noqa: E402,F401  - the front end a sweep user loads
from repro.batch import evaluate_batch  # noqa: E402
from repro.scenarios import ScenarioSpec, simulate  # noqa: E402

_setup_s = time.perf_counter() - _setup_started
_setup_reference = (_reference_before + calibrate.median_reference_ms()) / 2

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

def _evaluate(request, recorder):
    """(seconds, specs, report) of one request; parsing the specs is
    input, so it is not timed."""
    specs = [ScenarioSpec.from_dict(data) for data in request.specs]
    if recorder is not None:
        recorder.default_request = f"t{request.index}"
    started = time.perf_counter()
    report = evaluate_batch(specs, on_error="capture")
    elapsed = time.perf_counter() - started
    if recorder is not None:
        recorder.default_request = "gate"
        for name, value in (
            ("batch.points", len(specs)),
            ("batch.analytic", report.analytic_count),
            ("batch.soa", report.soa_count),
            ("core.planner.plan_cache_hits", report.plan_cache_hits),
            ("core.planner.plan_cache_misses", report.plan_cache_misses),
        ):
            recorder.values[name, f"t{request.index}"] += value
    return elapsed, specs, report


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv) -> dict:
    workload, seed, seconds, mode, spans_path = argv
    seed, seconds = int(seed), float(seconds)
    out = {"setup_s": _setup_s, "setup_reference_ms": _setup_reference}
    if mode == "setup":
        return out
    recorder = None
    if mode == "trace":
        recorder = tracer.Recorder()
        tracer.install(recorder)

    tally = gate.Tally(workload, seed)
    quiet = calibrate.Quiet(os.getpid(), exclude_tid=threading.get_native_id())
    latencies, durations, references, timed_requests, resent = [], [], [], [], []
    overlapped, lingered_s = 0, 0.0
    peak_rss_mb = None
    points = 0
    busy = 0.0
    for request in workloads.stream(workload, seed):
        if busy >= seconds:
            break
        elapsed, specs, report = _evaluate(request, recorder)
        reference, lingered, overlap = quiet.reference()
        busy += elapsed + lingered
        references.append(reference)
        overlapped += overlap
        lingered_s += lingered
        latencies.append(elapsed)
        durations.append(elapsed + lingered)
        timed_requests.append(f"t{request.index}")
        resent.append(request.resend)
        points += len(specs)
        for index, (data, spec, result) in enumerate(
            zip(request.specs, specs, report.results)
        ):
            if isinstance(result, BaseException):
                tally.fail(spec.name, f"{type(result).__name__}: {result}")
                continue
            record = result.to_dict()
            tally.point(
                request, index, spec.name, gate.result_failures(data, record),
                record, (spec, record),
            )
        if len(latencies) == workloads.RSS_REQUESTS[workload]:
            peak_rss_mb = _peak_rss_mb()
    if peak_rss_mb is None:
        peak_rss_mb = _peak_rss_mb()

    # -- correctness gate, outside the timed phase --------------------------
    for spec, record in tally.sample:
        if simulate(spec).to_dict() != record:
            tally.fail(spec.name, "differs from per-point simulate()")

    def default_records() -> list:
        records = []
        for request in workloads.digest_requests(workload):
            _elapsed, _specs, report = _evaluate(request, None)
            records.extend(
                repr(result) if isinstance(result, BaseException)
                else result.to_dict()
                for result in report.results
            )
        return records

    out.update(tally.finish(default_records))
    if recorder is not None:
        recorder.dump(spans_path)
    out.update(
        busy_s=busy,
        points=points,
        requests=len(latencies),
        latencies=latencies,
        durations=durations,
        references=references,
        overlapped_references=overlapped,
        lingered_s=lingered_s,
        timed_requests=timed_requests,
        resent=resent,
        peak_rss_mb=peak_rss_mb,
    )
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
