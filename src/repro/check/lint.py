"""Spec lint: registry and shape checks that need no simulation.

* ``SL301`` *error* — unknown component kind (with close-match hints);
* ``SL302`` *error* — unknown, reserved, or missing factory parameter;
* ``SL305`` *warn* — a grid axis lists the same value twice (every
  repeat expands to an identical design point);
* ``SL306`` *error* — a program spec whose drive is not ``decoupled``.

The remaining ``SL3xx`` rules live in the runner, which owns parsing
(``SL304``) and component building, including the program's machine
run (``SL303``).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.scenarios.grid import ScenarioGrid
from repro.scenarios.registry import (
    MAPPING,
    PROGRAM,
    factory_parameters,
    spec_components,
    validate_kind,
)
from repro.scenarios.spec import ScenarioSpec

from repro.check.findings import Finding

__all__ = ["lint_grid_axes", "lint_spec"]

#: Context names :func:`repro.scenarios.registry.build` injects per
#: category; a spec parameter with one of these names is rejected as
#: shadowing before the factory ever runs.
_CONTEXT_NAMES: dict[str, frozenset[str]] = {
    MAPPING: frozenset({"address_bits"}),
    PROGRAM: frozenset({"register_length"}),
}


def lint_spec(spec: ScenarioSpec, *, location: str) -> list[Finding]:
    """Registry-level findings for one spec (no components built)."""
    findings = []
    for category, component in spec_components(spec):
        where = f"{location}.{category}"
        try:
            validate_kind(category, component.kind)
        except ConfigurationError as error:
            findings.append(Finding("SL301", "error", where, str(error)))
            continue
        findings.extend(
            _parameter_findings(category, component, where)
        )
    if spec.program is not None and spec.drive.kind != "decoupled":
        findings.append(
            Finding(
                "SL306",
                "error",
                f"{location}.drive",
                f"scenario programs run on the decoupled machine; set "
                f"drive kind to 'decoupled' (got {spec.drive.kind!r})",
            )
        )
    return findings


def _parameter_findings(
    category: str, component, where: str
) -> list[Finding]:
    signature = factory_parameters(category, component.kind)
    if signature is None:
        return []  # **kwargs factory: any name goes
    accepted, required = signature
    reserved = _CONTEXT_NAMES.get(category, frozenset())
    provided = frozenset(component.param_dict())
    findings = []
    for name in sorted(provided & reserved):
        findings.append(
            Finding(
                "SL302",
                "error",
                where,
                f"parameter {name!r} shadows a reserved context name of "
                f"{category} kind {component.kind!r}; the scenario layer "
                f"supplies it",
            )
        )
    for name in sorted(provided - accepted):
        close = sorted(accepted - reserved - provided)
        hint = f" (accepted: {', '.join(close)})" if close else ""
        findings.append(
            Finding(
                "SL302",
                "error",
                where,
                f"unknown parameter {name!r} for {category} kind "
                f"{component.kind!r}{hint}",
            )
        )
    for name in sorted(required - reserved - provided):
        findings.append(
            Finding(
                "SL302",
                "error",
                where,
                f"missing required parameter {name!r} for {category} "
                f"kind {component.kind!r}",
            )
        )
    return findings


def lint_grid_axes(grid: ScenarioGrid, *, location: str) -> list[Finding]:
    """``SL305``: axis values that repeat within one axis."""
    findings = []
    for path, values in grid.axes:
        seen = []
        for value in values:
            if value in seen:
                findings.append(
                    Finding(
                        "SL305",
                        "warn",
                        f"{location}.axes[{path}]",
                        f"axis {path!r} lists value {value!r} more than "
                        f"once; the repeats expand to identical design "
                        f"points",
                    )
                )
                break
            seen.append(value)
    return findings
