"""Analytic fast path: exact metrics for conflict-free design points.

The paper's closed form — a conflict-free access of length ``L``
completes in exactly ``T + L + 1`` cycles with zero issue stalls and
zero module waits — is the same arithmetic :mod:`repro.check.conflict`
quotes in its CF101 findings, and the 360-point consistency suite pins
the static verdict against kernel measurement (``tests/check/
test_conflict_consistency.py``).  So for a planner-drive spec whose
every access plans conflict-free, the full :class:`ScenarioResult` is
pure arithmetic: no cycle loop, no request records, nothing to
simulate.

Claim condition (anything else returns ``None`` and falls through to
simulation):

* no ``program`` section and a workload present;
* the drive is the planner drive (``figure6`` and ``decoupled`` carry
  engine-specific extras an analytic result cannot reproduce);
* every access is strided (indexed accesses have no closed-form
  verdict — the CF103 rule);
* every access plans successfully under the drive's mode *and* the
  plan is conflict-free (the CF101 condition exactly).

Errors are transparent: a spec that cannot build, or whose forced
plan mode raises :class:`~repro.errors.OrderingError`, raises here
exactly as :func:`repro.scenarios.simulate` would — so batch and
per-point evaluation fail the same way on the same spec.

The heavy lifting lives in :mod:`repro.batch.prepare`, which decides
conflict-freedom with the Lemma-1 chunk arithmetic for the paper's
XOR mappings (no request order is ever materialised) and with the
real planner everywhere else.
"""

from __future__ import annotations

from repro.scenarios.facade import ScenarioResult
from repro.scenarios.spec import ScenarioSpec

__all__ = ["analytic_result"]


def analytic_result(spec: ScenarioSpec) -> ScenarioResult | None:
    """The spec's exact metrics without simulation, or ``None``.

    A returned result is field-for-field identical to what
    :func:`repro.scenarios.simulate` measures — latency equals the
    ``T + L + 1`` minimum per access, stalls and waits are zero, busy
    cycles are ``T`` times each module's request count — which the
    batch equivalence suite asserts point by point.
    """
    from repro.batch.prepare import prepare_point

    point = prepare_point(spec)
    return point.result if point.kind == "analytic" else None
