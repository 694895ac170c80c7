"""The check pipeline: parse → lint → build → analyze → report.

:func:`check_document` accepts exactly the document shapes
``repro scenario run`` and ``POST /v1/runs`` accept — one spec, one
grid, or a list of either — and never raises on bad input: parse and
build failures become ``SL303``/``SL304`` findings so one malformed
entry cannot hide the diagnostics for the rest.  A program spec runs
once on the machine its drive describes (``HZ201``/``HZ202`` report
that run); a program the machine rejects is an ``SL303`` finding too.

:func:`require_submittable` is the front-door subset (spec lint plus
grid dedupe, no simulation objects built) that the lab executor and the
serve schemas run at submit time; error findings there become a
:class:`~repro.check.findings.CheckError` carrying the structured
findings across the boundary.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError
from repro.scenarios.components import DEFAULT_PROGRAM_REGISTER_LENGTH
from repro.scenarios.facade import build_config, build_workload, program_engine
from repro.scenarios.grid import ScenarioGrid
from repro.scenarios.registry import DRIVE, PROGRAM, build
from repro.scenarios.spec import ScenarioSpec

from repro.check.conflict import analyze_conflicts
from repro.check.dedupe import dedupe_findings
from repro.check.findings import CheckError, CheckReport, Finding
from repro.check.hazards import analyze_program
from repro.check.lint import lint_grid_axes, lint_spec

__all__ = [
    "check_document",
    "check_path",
    "require_submittable",
    "submit_findings",
]


def check_path(path) -> CheckReport:
    """Check one spec/grid file on disk."""
    path = Path(path)
    return check_document(path.read_text(), source=str(path))


def check_document(text: str, *, source: str = "<input>") -> CheckReport:
    """Run every analysis pass over one JSON document."""
    findings: list[Finding] = []
    located: list[tuple[ScenarioSpec, str]] = []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        findings.append(
            Finding(
                "SL304",
                "error",
                source,
                f"invalid scenario JSON: {error}",
            )
        )
        return CheckReport(tuple(findings))
    documents = data if isinstance(data, list) else [data]
    for document in documents:
        findings.extend(_collect(document, source, located))
    findings.extend(dedupe_findings(located))
    for spec, location in located:
        findings.extend(_check_spec(spec, location))
    return CheckReport(tuple(findings))


def _collect(
    document, source: str, located: list[tuple[ScenarioSpec, str]]
) -> list[Finding]:
    """Parse one document entry into located specs (SL304/SL305)."""
    findings: list[Finding] = []
    if isinstance(document, dict) and "base" in document:
        try:
            grid = ScenarioGrid.from_dict(document)
            expanded = grid.expand()
        except ReproError as error:
            findings.append(
                Finding("SL304", "error", source, str(error))
            )
            return findings
        findings.extend(lint_grid_axes(grid, location=source))
        for spec in expanded:
            located.append((spec, _location(source, spec, len(located))))
        return findings
    try:
        spec = ScenarioSpec.from_dict(document)
    except ReproError as error:
        findings.append(Finding("SL304", "error", source, str(error)))
        return findings
    located.append((spec, _location(source, spec, len(located))))
    return findings


def _location(source: str, spec: ScenarioSpec, index: int) -> str:
    return f"{source}:{spec.name or f'spec[{index}]'}"


def _check_spec(spec: ScenarioSpec, location: str) -> list[Finding]:
    """Lint one spec; when clean, build it and run the deep passes."""
    findings = lint_spec(spec, location=location)
    if any(finding.severity == "error" for finding in findings):
        return findings
    register_length = DEFAULT_PROGRAM_REGISTER_LENGTH
    try:
        drive = build(DRIVE, spec.drive)
        workload = (
            build_workload(spec) if spec.workload is not None else None
        )
        config = build_config(spec, workload)
        scenario_program = None
        if spec.program is not None:
            register_length = (
                getattr(drive, "register_length", None)
                or DEFAULT_PROGRAM_REGISTER_LENGTH
            )
            scenario_program = build(
                PROGRAM, spec.program, register_length=register_length
            )
    except ReproError as error:
        findings.append(Finding("SL303", "error", location, str(error)))
        return findings
    findings.extend(
        analyze_conflicts(
            spec,
            config,
            workload=workload,
            scenario_program=scenario_program,
            drive=drive,
            register_length=register_length,
            location=location,
        )
    )
    if scenario_program is not None:
        engine = program_engine(config, drive, register_length)
        try:
            run = engine.run(scenario_program.program, scenario_program.inputs)
        except ReproError as error:
            findings.append(
                Finding(
                    "SL303",
                    "error",
                    f"{location}.program",
                    f"the program fails on the decoupled machine: {error}",
                )
            )
            return findings
        findings.extend(
            analyze_program(scenario_program.program, run, location=location)
        )
    return findings


def submit_findings(
    specs, *, source: str = "submit"
) -> list[Finding]:
    """The front-door passes: spec lint plus dedupe, nothing built."""
    findings: list[Finding] = []
    located: list[tuple[ScenarioSpec, str]] = []
    for index, spec in enumerate(specs):
        location = f"{source}:{spec.name or f'spec[{index}]'}"
        findings.extend(lint_spec(spec, location=location))
        located.append((spec, location))
    findings.extend(dedupe_findings(located))
    return findings


def require_submittable(
    specs, *, source: str = "submit"
) -> list[Finding]:
    """Submit-time gate: raise on error findings, return the warnings."""
    findings = submit_findings(specs, source=source)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        raise CheckError(
            f"{len(errors)} static check error(s) in submitted "
            f"scenarios; first: {errors[0].render()}",
            findings=tuple(errors),
        )
    return [f for f in findings if f.severity == "warn"]
