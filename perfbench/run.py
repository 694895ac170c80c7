"""The repository benchmark: one command, three seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload strided-sweep --seed 3 --seconds 25 --trace 0

Workloads (see ``layers.json`` for why each exists and which layers it
loads):

* ``strided-sweep``: grids of planner-drive single-access points
  through ``evaluate_batch`` (analytic and SoA tiers);
* ``program-sweep``: grids of decoupled-drive programs through serial
  ``evaluate_batch`` (the fallback tier: kernel, store, machine);
* ``lab-service``: grids POSTed to a ``repro lab serve`` process.

Each is a closed loop with one client.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload for half the time
untraced and half with span wrappers installed, and prints the
per-layer metrics.
Every run ends with a correctness gate outside the timed phase; any
failure makes the command exit 1.  The last stdout line is the JSON
result.  Exits 2 without a result when the program's ``src`` tree is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

import calibrate  # noqa: E402
import lab_client  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters (or servers) whose set-up time is measured per
#: run, half of them before the timed phase and half after it.
SETUP_SAMPLES = 9

#: Server processes one lab-service run is spread over; each start is
#: also a set-up sample.
LAB_SEGMENTS = 5
CHILD_TIMEOUT = 150

#: What the set-up phase of each workload imports, for ``-X importtime``.
SETUP_IMPORTS = {
    "strided-sweep": "import repro.cli, repro.batch, repro.scenarios",
    "program-sweep": "import repro.cli, repro.batch, repro.scenarios",
    "lab-service": "import repro.cli, repro.lab, repro.serve",
}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``kind`` metrics (``end_to_end`` or
    ``per_layer``) that ``BENCHMARK.json`` declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {metric["name"]: metric["unit"] for metric in declared}


def percentile(values: list[float], share: int) -> float:
    """The ``share``-th percentile (exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[share - 1]


def environment() -> dict:
    """The children's environment: ours, with the program on the path."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


# -- in-process sweeps -------------------------------------------------------


def sweep_child(workload: str, seed: int, seconds: float, mode: str) -> dict:
    spans = OUT / f"spans-{workload}.json"
    command = [
        sys.executable, str(HERE / "sweep_child.py"),
        workload, str(seed), str(seconds), mode, str(spans),
    ]
    done = subprocess.run(
        command, env=environment(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child failed:\n{done.stderr[-4000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["spans"] = spans
    return result


def run_sweep(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    if trace:
        return [
            sweep_child(workload, seed, seconds / 2, "run"),
            sweep_child(workload, seed, seconds / 2, "trace"),
        ]
    before = [
        sweep_child(workload, seed, 0, "setup") for _ in range(SETUP_SAMPLES // 2)
    ]
    timed = sweep_child(workload, seed, seconds, "run")
    after = [
        sweep_child(workload, seed, 0, "setup") for _ in range(SETUP_SAMPLES // 2)
    ]
    timed["setup_samples"] = [
        (child["setup_s"], child["setup_reference_ms"])
        for child in before + [timed] + after
    ]
    return [timed]


# -- lab service -------------------------------------------------------------


def run_lab(seed: int, seconds: float, trace: bool) -> list[dict]:
    env = environment()

    def phase(name: str, spans: Path | None, phase_seconds: float, segments: int) -> dict:
        root = OUT / f"{name}-root"
        shutil.rmtree(root, ignore_errors=True)
        try:
            result = lab_client.run_phase(
                lambda: lab_client.Server(root, OUT / f"{name}.log", env, spans),
                "lab-service", seed, phase_seconds, SRC, segments,
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        result["spans"] = spans
        return result

    def setup() -> tuple[float, float]:
        root = OUT / "setup-root"
        shutil.rmtree(root, ignore_errors=True)
        server = lab_client.Server(root, OUT / "setup.log", env, None)
        server.stop()
        shutil.rmtree(root, ignore_errors=True)
        return server.setup_s, server.setup_reference_ms

    if trace:
        return [
            phase("serve", None, seconds / 2, 1),
            phase("serve", OUT / "spans-lab-service.json", seconds / 2, 1),
        ]
    extra = (SETUP_SAMPLES - LAB_SEGMENTS) // 2
    before = [setup() for _ in range(extra)]
    timed = phase("serve", None, seconds, LAB_SEGMENTS)
    after = [setup() for _ in range(extra)]
    timed["setup_samples"] = before + timed["setup_samples"] + after
    return [timed]


# -- metrics -----------------------------------------------------------------


def end_to_end(phase: dict, host_scaled: bool = True) -> dict:
    """The end-to-end metrics, timings scaled to the nominal host speed
    (see :mod:`calibrate`) unless ``host_scaled`` is false."""
    latencies, durations = phase["latencies"], phase["durations"]
    setups = [seconds for seconds, _reference in phase["setup_samples"]]
    if host_scaled:
        references = phase["references"]
        latencies = calibrate.scaled_series(latencies, references)
        durations = calibrate.scaled_series(durations, references)
        setups = [calibrate.scaled(*sample) for sample in phase["setup_samples"]]
    hits = [value for value, hit in zip(latencies, phase["resent"]) if hit]
    misses = [value for value, hit in zip(latencies, phase["resent"]) if not hit]

    def ms(values: list[float]) -> list[float]:
        return [value * 1000 for value in values]

    return {
        "setup_s": statistics.median(setups),
        "points_per_s": phase["points"] / sum(durations),
        "request_ms_p50": statistics.median(ms(latencies)),
        "request_ms_p90": percentile(ms(latencies), 90),
        "hit_request_ms_p50": statistics.median(ms(hits)),
        "miss_request_ms_p50": statistics.median(ms(misses)),
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def import_times(workload: str) -> dict:
    """``-X importtime`` of the workload's set-up imports, in ms."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", SETUP_IMPORTS[workload]],
        env=environment(), capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"import probe failed:\n{done.stderr[-4000:]}")
    repro_us = numpy_us = 0
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        if not name.startswith("  ") and (
            name.strip() == "repro" or name.strip().startswith("repro.")
        ):
            repro_us += int(cumulative)
        if name.strip() == "numpy":
            numpy_us += int(cumulative)
    return {
        "setup.import_repro_cli_ms": repro_us / 1000,
        "setup.import_numpy_ms": numpy_us / 1000,
    }


def per_layer(workload: str, untraced: dict, traced: dict) -> dict:
    data = json.loads(Path(traced["spans"]).read_text())
    metrics = tracer.summarise(
        data,
        set(traced["timed_requests"]),
        {
            request
            for request, resent in zip(traced["timed_requests"], traced["resent"])
            if resent
        },
    )
    metrics.update(import_times(workload))
    wall_ms = traced["busy_s"] * 1000
    traced_pps = traced["points"] / traced["busy_s"]
    untraced_pps = untraced["points"] / untraced["busy_s"]
    metrics.update(
        {
            "trace.wall_ms": wall_ms,
            "trace.unattributed_ms": wall_ms - metrics["trace.attributed_ms"],
            "trace.points_per_s_traced": traced_pps,
            "trace.points_per_s_untraced": untraced_pps,
            "trace.overhead_ratio": untraced_pps / traced_pps,
            "gate.shared_port_excess_points": traced["shared_port_excess"],
            "host.reference_ms": statistics.median(untraced["references"]),
            "host.overlapped_references": untraced["overlapped_references"],
            "host.lingered_ms": untraced["lingered_s"] * 1000,
        }
    )
    return metrics


def host_speed(workload: str, phase: dict) -> None:
    """Print the unscaled figures and the reference, flagging a run
    whose reference was unlike the nominal host's or overlapped the
    program's own work."""
    raw = end_to_end(phase, host_scaled=False)
    unscaled = ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
    reference = statistics.median(phase["references"])
    print(
        f"[{workload}] host speed: median reference {reference:.4f} ms against "
        f"{calibrate.NOMINAL_MS} ms nominal; {phase['overlapped_references']} of "
        f"{len(phase['references'])} references overlapped program work; "
        f"program lingered {phase['lingered_s'] * 1000:.1f} ms after answering; "
        f"unscaled: {unscaled}"
    )
    expected = calibrate.DEFINITION_REFERENCE_MS[workload]
    if abs(reference / expected - 1) > calibrate.REFERENCE_TOLERANCE:
        print(
            f"[{workload}] FLAG: median reference is more than "
            f"{calibrate.REFERENCE_TOLERANCE:.0%} off the {expected} ms measured "
            "when the benchmark was defined; compare the unscaled figures "
            "with the parent's on this host"
        )
    if phase["overlapped_references"] > len(phase["references"]) // 10:
        print(
            f"[{workload}] FLAG: over a tenth of the references ran while the "
            "program was busy, so the scaled figures are suspect"
        )


def report(workload: str, phases: list[dict], metrics: dict, units: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    attempted = sum(phase["points"] for phase in phases)
    failed = sum(phase["failed"] for phase in phases)
    for index, phase in enumerate(phases):
        label = ("untraced", "traced")[index] if len(phases) > 1 else "run"
        print(
            f"[{workload}] {label}: {phase['requests']} requests "
            f"({sum(phase['resent'])} resent), {phase['points']} points "
            f"in {phase['busy_s']:.3f} s; re-simulated {phase['resimulated']} "
            f"points; results digest {phase['run_digest'][:16]}"
        )
        if phase["shared_port_excess"]:
            print(
                f"[{workload}] note: {phase['shared_port_excess']} points "
                "report conflict_free with latency above T+L+1 while more "
                "streams were in flight than the memory has ports"
            )
        for failure in phase["failures"]:
            print(f"[{workload}] FAILED: {failure}")
    print(f"[{workload}] error_rate: {failed / attempted:.6f} ratio ({failed} of {attempted} points)")
    phase = phases[-1]
    counts = {
        "request_ms_p50": len(phase["latencies"]),
        "request_ms_p90": len(phase["latencies"]),
        "hit_request_ms_p50": sum(phase["resent"]),
        "miss_request_ms_p50": len(phase["resent"]) - sum(phase["resent"]),
        "setup_s": len(phase.get("setup_samples", ())),
    }
    for name, value in metrics.items():
        samples = f" (n={counts[name]})" if name in counts else ""
        print(f"[{workload}] {name}: {value:.6g} {units[name]}{samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    started = time.perf_counter()
    if args.workload == "lab-service":
        phases = run_lab(args.seed, args.seconds, trace)
    else:
        phases = run_sweep(args.workload, args.seed, args.seconds, trace)

    failed = sum(phase["failed"] for phase in phases)
    if trace:
        untraced, traced = phases
        metrics = per_layer(args.workload, untraced, traced)
        units = metric_units("per_layer")
        if traced["run_digest"] != untraced["run_digest"]:
            traced["failures"].append("traced results digest != untraced")
            traced["failed"] += 1
            failed += 1
    else:
        host_speed(args.workload, phases[0])
        metrics = end_to_end(phases[0])
        units = metric_units("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    report(args.workload, phases, metrics, units)
    print(f"[{args.workload}] wall time of this command: {time.perf_counter() - started:.1f} s")
    result = {
        "correct": failed == 0,
        "attempted": sum(phase["points"] for phase in phases),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
