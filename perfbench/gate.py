"""Correctness checks the benchmark applies outside its timed phase.

Works on plain dicts so the same rules cover in-process results
(``ScenarioResult.to_dict()``) and lab artifacts fetched over HTTP
(``[metric, value]`` rows).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import workloads

EXPECTED_DIGESTS = Path(__file__).with_name("expected_digests.json")

#: Artifact fields that depend only on the design point (no run ids,
#: timestamps or package version).
ARTIFACT_FIELDS = ("title", "headers", "rows", "checks", "notes", "all_passed")


def digest(records: list) -> str:
    """SHA-256 of the records' canonical JSON."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_digest(workload: str) -> str | None:
    return json.loads(EXPECTED_DIGESTS.read_text()).get(workload)


def artifact_record(artifact: dict) -> dict:
    """The part of a lab artifact the digest covers."""
    return {key: artifact.get(key) for key in ARTIFACT_FIELDS}


def row_fields(artifact: dict) -> dict:
    """A lab artifact's ``[metric, value]`` rows as a dict."""
    return {row[0]: row[1] for row in artifact.get("rows", [])}


def shared_port(concurrency_peak, ports) -> bool:
    """Whether a run really had more memory streams in flight at once
    than the memory has ports.

    The paper's ``T + L + 1`` latency holds for an access that has its
    port to itself.  Streams that share a port wait for its grants, and
    the kernel does not count a lost grant as a conflict, so such an
    access can report ``conflict_free`` with a higher latency.
    """
    return (
        isinstance(concurrency_peak, int)
        and isinstance(ports, int)
        and concurrency_peak > ports
    )


def invariant_failures(
    spec: dict, latency, minimum, conflict_free, numerically_correct, shared: bool
) -> tuple[list[str], bool]:
    """Paper invariants for one point: (failures, shared-port excess).

    * ``latency >= minimum_latency`` (``T + L + 1`` per access) always;
    * conflict-free implies ``latency == minimum_latency`` unless the
      run shared a port (``shared``, see :func:`shared_port`);
    * programs report numerically correct outputs.

    The second value flags a conflict-free point whose latency exceeds
    the minimum while its streams shared a port.
    """
    failures = []
    if not isinstance(latency, int) or not isinstance(minimum, int):
        return [f"latency fields missing: {latency!r}, {minimum!r}"], False
    if latency < minimum:
        failures.append(f"latency {latency} < minimum {minimum}")
    excess = bool(conflict_free) and latency != minimum
    if excess and not shared:
        failures.append(
            f"conflict-free but latency {latency} != minimum {minimum}"
        )
    if "program" in spec and numerically_correct is not True:
        failures.append(f"numerically_correct is {numerically_correct!r}")
    return failures, excess and shared


def result_failures(spec: dict, result: dict) -> tuple[list[str], bool]:
    """:func:`invariant_failures` for a ``ScenarioResult.to_dict()``."""
    extras = result["extras"]
    return invariant_failures(
        spec,
        result["latency"],
        result["minimum_latency"],
        result["conflict_free"],
        extras.get("numerically_correct"),
        shared_port(extras.get("stream_concurrency_peak"), extras.get("memory_ports")),
    )


def artifact_failures(spec: dict, artifact: dict) -> tuple[list[str], bool]:
    """:func:`invariant_failures` for a lab artifact."""
    rows = row_fields(artifact)
    failures, shared = invariant_failures(
        spec,
        rows.get("latency"),
        rows.get("minimum_latency"),
        rows.get("conflict_free"),
        rows.get("extra:numerically_correct"),
        shared_port(
            rows.get("extra:stream_concurrency_peak"), rows.get("extra:memory_ports")
        ),
    )
    if artifact.get("all_passed") is not True:
        failures.append("artifact checks did not all pass")
    return failures, shared


class Tally:
    """A run's failed points, digest records and re-simulation sample.

    The sample is ``sample_size`` points drawn with a seeded generator
    from the first ``workloads.RESIM_GRIDS`` grids of the stream, which
    every run reaches, so a seed always re-checks the same points.
    """

    def __init__(self, workload: str, seed: int, sample_size: int = 12):
        self.workload = workload
        self.seed = seed
        self.sample_size = sample_size
        self.sample: list = []
        self.digest_records: list = []
        self.failures: list[str] = []
        self.failed = 0
        self.shared_port_excess = 0
        positions = [
            (grid, index)
            for grid in range(workloads.RESIM_GRIDS)
            for index in range(workloads.GRID_POINTS[workload])
        ]
        self._chosen = set(random.Random(f"resim:{seed}").sample(positions, sample_size))

    def fail(self, name: str, message: str, points: int = 1) -> None:
        self.failed += points
        self.failures.append(f"{name}: {message}")

    def point(self, request, index: int, name: str, check, digest_record, item) -> None:
        """Point ``index`` of ``request``, answered.

        ``check`` is the ``(failures, shared-port excess)`` pair of the
        invariants, ``digest_record`` what the digest covers, and
        ``item`` what a re-simulation needs (kept if the point is in
        the sample).
        """
        problems, shared = check
        self.shared_port_excess += shared
        if problems:
            self.fail(name, "; ".join(problems))
        if not request.resend and request.grid < workloads.DIGEST_REQUESTS:
            self.digest_records.append(digest_record)
        if not request.resend and (request.grid, index) in self._chosen:
            self.sample.append(item)

    def finish(self, default_records) -> dict:
        """Check the expected digest and summarise the gate.

        On the default seed the run's own first grids are the digest
        set; on any other seed ``default_records()`` evaluates it.
        """
        run_digest = digest(self.digest_records)
        missing = self.sample_size - len(self.sample)
        if missing:
            self.fail(
                "re-simulation",
                f"{missing} sampled points lie beyond the requests this run made",
                missing,
            )
        if self.seed == workloads.DEFAULT_SEED:
            found, points = run_digest, len(self.digest_records)
        else:
            records = default_records()
            found, points = digest(records), len(records)
        expected = expected_digest(self.workload)
        if found != expected:
            self.fail("digest", f"results digest {found} != expected {expected}", points)
        return {
            "failed": self.failed,
            "failures": self.failures[:20],
            "shared_port_excess": self.shared_port_excess,
            "run_digest": run_digest,
            "resimulated": len(self.sample),
        }
