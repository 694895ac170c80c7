"""Static conflict/hazard analysis for scenario specs and programs.

``repro check <spec.json|grid.json>`` runs four passes.  Each program
spec runs once on the decoupled machine it describes, because
``HZ201``/``HZ202`` report that machine's own batches; every other
pass, and every spec without a program, simulates nothing:

* **conflict analysis** (``CF1xx``) — closed-form conflict-free /
  conflict-prone verdicts from the paper's stride-family arithmetic,
  with the predicted ``T+L+1`` minimum access time where it applies;
* **program hazards** (``HZ2xx``) — RAW/WAR/WAW chains, dead writes,
  store/load span aliasing, and the batches and batch breaks the
  decoupled machine forms (``HZ201``/``HZ202``);
* **spec lint** (``SL3xx``) — unknown kinds/parameters, invalid
  geometry, degenerate grid axes;
* **grid dedupe** (``DD4xx``) — duplicate design points flagged before
  submission.

Findings speak one grammar — ``RULE_ID · severity · location ·
message`` — and the submit-time subset also guards the lab executor
and the serve API, so a bad submission is rejected with structured
diagnostics instead of burning simulation cycles.
"""

from repro.check.findings import CheckError, CheckReport, Finding
from repro.check.runner import (
    check_document,
    check_path,
    require_submittable,
    submit_findings,
)

__all__ = [
    "CheckError",
    "CheckReport",
    "Finding",
    "check_document",
    "check_path",
    "require_submittable",
    "submit_findings",
]
