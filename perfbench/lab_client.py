"""The lab-service workload: one closed-loop HTTP client.

The server is ``repro lab serve`` with CLI defaults, a free port and a
fresh ``--root``, in its own process.  Each request POSTs one grid to
``/v1/runs`` and polls the run until it is done; the client then
fetches every result and revalidates each with ``If-None-Match``.
With one client, the service's duplicate collapse never triggers.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import gate
import workloads

HERE = Path(__file__).resolve().parent
POLL_SECONDS = 0.002
#: A run not done after this long fails its points.
RUN_TIMEOUT = 60.0
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
_LISTENING = re.compile(r"listening on http://([^:/\s]+):(\d+)")


class Server:
    """One ``repro lab serve`` process on the lab root ``root``."""

    def __init__(self, root: Path, log: Path, env: dict, spans: Path | None):
        self.log = log
        serve_args = ["lab", "serve", "--port", "0", "--root", str(root)]
        if spans is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [
                sys.executable, str(HERE / "serve_traced.py"), str(spans), *serve_args
            ]
        reference_before = calibrate.median_reference_ms()
        started = time.perf_counter()
        with open(log, "w") as handle:
            self.process = subprocess.Popen(
                command, stdout=handle, stderr=subprocess.STDOUT, env=env
            )
        try:
            self.host, self.port = self._wait_listening(started)
            self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        self.setup_reference_ms = (
            reference_before + calibrate.median_reference_ms()
        ) / 2

    def _wait_listening(self, started: float) -> tuple[str, int]:
        while time.perf_counter() - started < START_TIMEOUT:
            match = _LISTENING.search(self.log.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start; log:\n{self.log.read_text()}")

    def _wait_healthy(self, started: float) -> None:
        while time.perf_counter() - started < START_TIMEOUT:
            try:
                connection = http.client.HTTPConnection(self.host, self.port, timeout=5)
                connection.request("GET", "/v1/healthz")
                if connection.getresponse().status == 200:
                    connection.close()
                    return
                connection.close()
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /v1/healthz")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024

    def stop(self) -> None:
        """SIGTERM (the service drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class Client:
    """HTTP calls to one server, one connection per call.

    A kept-alive connection stalls on the delayed ACK of the server's
    separately written response body (about 40 ms per call on Linux),
    so each call opens its own connection, as ``urllib`` does.
    """

    def __init__(self, server: Server):
        self.host, self.port = server.host, server.port

    def call(self, method, path, body=None, headers=None):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request(
                method, path, body=body,
                headers={"Connection": "close", **(headers or {})},
            )
            response = connection.getresponse()
            return response.status, response.getheader("ETag"), response.read()
        finally:
            connection.close()


def submit(client: Client, request_id: str, specs) -> tuple[float, dict | None, str]:
    """POST one grid and poll it to the end: (seconds, run, error)."""
    headers = {"Content-Type": "application/json", "X-Bench-Request": request_id}
    body = json.dumps(list(specs))
    started = time.perf_counter()
    status, _etag, raw = client.call("POST", "/v1/runs", body, headers)
    if status != 202:
        return time.perf_counter() - started, None, f"POST answered {status}: {raw[:200]!r}"
    run = json.loads(raw)
    while run["state"] not in ("done", "failed"):
        if time.perf_counter() - started > RUN_TIMEOUT:
            return time.perf_counter() - started, None, "run did not finish"
        time.sleep(POLL_SECONDS)
        status, _etag, raw = client.call("GET", run["url"], headers=headers)
        if status != 200:
            return time.perf_counter() - started, None, f"poll answered {status}"
        run = json.loads(raw)
    elapsed = time.perf_counter() - started
    if run["state"] != "done":
        return elapsed, None, f"run failed: {run.get('error')}"
    return elapsed, run, ""


def fetch_results(client: Client, request_id: str, run: dict, specs) -> list:
    """Every job's artifact (or an error string), in ``specs`` order.

    Each is fetched, then revalidated with its ETag, which must answer
    304 with no body.
    """
    headers = {"X-Bench-Request": request_id}
    by_name = {}
    for job in run["jobs"]:
        status, etag, raw = client.call("GET", job["result_url"], headers=headers)
        if status != 200:
            by_name[job["job_id"]] = f"result answered {status}"
            continue
        artifact = json.loads(raw)
        again, _etag, body = client.call(
            "GET", job["result_url"], headers={**headers, "If-None-Match": etag}
        )
        if again != 304 or body:
            artifact = f"revalidation answered {again}"
        by_name[job["job_id"]] = artifact
    results = []
    for spec in specs:
        matches = [
            value for job_id, value in by_name.items()
            if job_id.startswith(f"SC-{spec['name']}-")
        ]
        results.append(matches[0] if len(matches) == 1 else "no unique result")
    return results


def run_phase(start, workload: str, seed: int, seconds: float, src: Path,
              segments: int = 1) -> dict:
    """The timed phase, then the correctness gate.

    ``start()`` launches a server on the run's lab root.  The timed
    phase is split evenly over ``segments`` server processes started
    one after another on that root, so cached results carry over and a
    slow or fast process does not decide the whole run.
    """
    tally = gate.Tally(workload, seed)
    latencies, durations, references, timed_requests, resent = [], [], [], [], []
    setups, peaks = [], []
    overlapped, lingered_s = 0, 0.0
    points = 0
    stream = workloads.stream(workload, seed)
    server = None
    try:
        for _segment in range(segments):
            if server is not None:
                server.stop()
            server = start()
            setups.append((server.setup_s, server.setup_reference_ms))
            client = Client(server)
            quiet = calibrate.Quiet(server.process.pid)
            served, spent, peak = 0, 0.0, None
            while spent < seconds / segments:
                request = next(stream)
                request_id = f"t{request.index}"
                started = time.perf_counter()
                elapsed, run, error = submit(client, request_id, request.specs)
                results = (
                    fetch_results(client, request_id, run, request.specs)
                    if run is not None
                    else [error] * request.points
                )
                answered = time.perf_counter() - started
                reference, lingered, overlap = quiet.reference()
                durations.append(answered + lingered)
                spent += durations[-1]
                references.append(reference)
                overlapped += overlap
                lingered_s += lingered
                latencies.append(elapsed)
                timed_requests.append(request_id)
                resent.append(request.resend)
                points += request.points
                for index, (spec, artifact) in enumerate(zip(request.specs, results)):
                    if isinstance(artifact, str):
                        tally.fail(spec["name"], artifact)
                        continue
                    tally.point(
                        request, index, spec["name"],
                        gate.artifact_failures(spec, artifact),
                        gate.artifact_record(artifact), (spec, artifact),
                    )
                served += 1
                if served == workloads.RSS_REQUESTS[workload]:
                    peak = server.peak_rss_mb()
            peaks.append(peak if peak is not None else server.peak_rss_mb())
        gate_result = _gate(tally, client, workload, src)
    finally:
        if server is not None:
            server.stop()
    return {
        **gate_result,
        "busy_s": sum(durations),
        "points": points,
        "requests": len(latencies),
        "latencies": latencies,
        "durations": durations,
        "references": references,
        "overlapped_references": overlapped,
        "lingered_s": lingered_s,
        "timed_requests": timed_requests,
        "resent": resent,
        "setup_samples": setups,
        "peak_rss_mb": sorted(peaks)[len(peaks) // 2],
    }


def _gate(tally, client: Client, workload: str, src: Path) -> dict:
    """The correctness gate against the last server, after the timed phase."""
    for name in resimulate(tally.sample, src):
        tally.fail(name, "differs from per-point simulate()")

    def default_records() -> list:
        records = []
        for request in workloads.digest_requests(workload):
            _elapsed, run, error = submit(client, "gate", request.specs)
            results = (
                fetch_results(client, "gate", run, request.specs)
                if run is not None
                else [error] * request.points
            )
            records.extend(
                result if isinstance(result, str) else gate.artifact_record(result)
                for result in results
            )
        return records

    return tally.finish(default_records)


def resimulate(sample, src: Path) -> list[str]:
    """Names of sampled points whose artifact differs from a per-point
    ``simulate()`` in this process."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.scenarios import ScenarioSpec, simulate

    failures = []
    for spec, artifact in sample:
        scenario = ScenarioSpec.from_dict(spec)
        result = simulate(scenario)
        rows = json.loads(json.dumps(result.metric_rows()))
        if rows != artifact["rows"] or artifact["notes"] != [scenario.describe()]:
            failures.append(spec["name"])
    return failures
