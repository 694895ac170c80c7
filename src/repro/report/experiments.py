"""Experiment runners: one function per reproduced table/figure/number.

Each ``run_eNN`` function regenerates one artifact of the paper (see the
experiment index in DESIGN.md) and returns an :class:`ExperimentResult`
carrying the table rows plus explicit paper-vs-measured checks.  The
``benchmarks/`` suite wraps these in pytest-benchmark targets, and
``benchmarks/run_all.py`` renders them into EXPERIMENTS.md.

Machines are constructed through :mod:`repro.scenarios` specs (see
:func:`_spec_machine`), so every experiment's memory + mapping
combination is one declarative, serializable design point — the same
currency ``repro scenario run`` and the lab's parameterised jobs use.
The runners accept keyword parameters (lambda/t/s/y...) which
``repro.lab.experiment_spec`` exposes as hashed job params for
sweep-style grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from repro.analysis.efficiency import (
    matched_ordered_efficiency,
    matched_proposed_efficiency,
    unmatched_ordered_efficiency,
    unmatched_proposed_efficiency,
)
from repro.analysis.fractions import (
    matched_design_fraction,
    monte_carlo_fraction,
    unmatched_design_fraction,
)
from repro.analysis.tradeoffs import (
    families_vs_length,
    matched_design_point,
    ordered_design_point,
    unmatched_design_point,
)
from repro.analysis.validation import (
    validate_families,
    weighted_measured_efficiency,
)
from repro.core.distributions import canonical_temporal_distribution
from repro.core.shortvec import plan_short_vector
from repro.core.subsequences import build_subsequences
from repro.core.vector import VectorAccess
from repro.hardware.oos_engine import Figure6Engine
from repro.processor.chaining import (
    chained_pair_latency,
    decoupled_pair_latency,
)
from repro.processor.decoupled import DecoupledVectorMachine
from repro.processor.isa import VAdd, VLoad
from repro.processor.program import Program
from repro.scenarios import (
    ComponentSpec,
    MemorySpec,
    ScenarioSpec,
    build_machine,
)


def _spec_machine(
    t: int,
    mapping_kind: str,
    mapping_params: dict,
    q: int = 1,
    qp: int = 1,
):
    """``(MemoryConfig, AccessPlanner, MemorySystem)`` from a spec.

    The single machine-construction path of every experiment: the
    combination is first expressed as a declarative
    :class:`~repro.scenarios.ScenarioSpec` and then materialised by the
    scenarios facade, so each experiment's design point is available as
    serializable data (and produces bit-identical machines to the old
    hand wiring).
    """
    spec = ScenarioSpec(
        mapping=ComponentSpec.of(mapping_kind, **mapping_params),
        memory=MemorySpec(t=t, q=q, qp=qp),
    )
    return build_machine(spec)


@dataclass(frozen=True)
class Check:
    """One paper-vs-measured assertion."""

    claim: str
    expected: str
    measured: str
    passed: bool


@dataclass
class ExperimentResult:
    """A regenerated artifact: a table plus its checks."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, claim: str, expected, measured) -> None:
        self.checks.append(
            Check(claim, str(expected), str(measured), expected == measured)
        )

    def check_close(
        self, claim: str, expected: float, measured: float, tolerance: float
    ) -> None:
        passed = abs(expected - measured) <= tolerance
        self.checks.append(
            Check(claim, f"{expected:.4g}", f"{measured:.4g}", passed)
        )

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)


# -- E01: Figure 3 ------------------------------------------------------

#: The first nine rows of Figure 3 (m=t=3, s=3): entry [r][b] is the
#: address stored in module b, row r.
FIGURE3_ROWS = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [9, 8, 11, 10, 13, 12, 15, 14],
    [18, 19, 16, 17, 22, 23, 20, 21],
    [27, 26, 25, 24, 31, 30, 29, 28],
    [36, 37, 38, 39, 32, 33, 34, 35],
    [45, 44, 47, 46, 41, 40, 43, 42],
    [54, 55, 52, 53, 50, 51, 48, 49],
    [63, 62, 61, 60, 59, 58, 57, 56],
    [64, 65, 66, 67, 68, 69, 70, 71],
]


def run_e01() -> ExperimentResult:
    """Regenerate the Figure 3 address layout (m=t=3, s=3)."""
    config, _planner, _system = _spec_machine(3, "matched-xor", {"t": 3, "s": 3})
    mapping = config.mapping
    result = ExperimentResult(
        "E01",
        "Figure 3: XOR mapping layout, m=t=3, s=3",
        ["row"] + [f"mod{b}" for b in range(8)],
        [],
    )
    generated = []
    for row in range(9):
        by_module = {}
        for address in range(row * 8, row * 8 + 8):
            by_module[mapping.module_of(address)] = address
        generated.append([by_module[b] for b in range(8)])
        result.rows.append([row] + generated[-1])
    result.check("layout matches Figure 3", FIGURE3_ROWS, generated)
    return result


# -- E02: Section 3 worked example --------------------------------------

PAPER_CTP_STRIDE12 = [2, 7, 5, 2, 0, 5, 3, 0, 6, 3, 1, 6, 4, 1, 7, 4]
PAPER_SUBSEQ_MODULES = [(2, 5, 0, 3, 6, 1, 4, 7), (7, 2, 5, 0, 3, 6, 1, 4)]


def run_e02() -> ExperimentResult:
    """Stride 12, A1=16, L=64 on the Figure 3 mapping (Section 3)."""
    config, e02_planner, _system = _spec_machine(
        3, "matched-xor", {"t": 3, "s": 3}
    )
    mapping = config.mapping
    vector = VectorAccess(16, 12, 64)
    ctp = canonical_temporal_distribution(mapping, vector)[:16]

    plan = build_subsequences(vector, w=3, t=3)
    subsequence_modules = []
    for j in range(plan.subsequences_per_chunk):
        indices = plan.subsequence_indices(0, j)
        subsequence_modules.append(
            tuple(mapping.module_of(vector.address_of(i)) for i in indices)
        )

    result = ExperimentResult(
        "E02",
        "Section 3 example: stride 12, A1=16, L=64",
        ["item", "value"],
        [
            ["CTP (one period)", " ".join(map(str, ctp))],
            ["subsequence 1 modules", " ".join(map(str, subsequence_modules[0]))],
            ["subsequence 2 modules", " ".join(map(str, subsequence_modules[1]))],
        ],
    )
    result.check("canonical period", PAPER_CTP_STRIDE12, ctp)
    result.check(
        "subsequence module orders",
        PAPER_SUBSEQ_MODULES,
        subsequence_modules,
    )
    ordered_cf = e02_planner.plan(vector, mode="ordered").conflict_free
    result.check("ordered access conflicts (not CF)", False, ordered_cf)
    return result


# -- E03: Theorem 1 / matched window -------------------------------------


def run_e03(
    lambda_exponent: int = 7,
    t: int = 3,
    s: int = 4,
    sigmas: tuple[int, ...] = (1, 3, 5),
    bases: tuple[int, ...] = (0, 1, 16, 777),
) -> ExperimentResult:
    """Latency per stride family, matched memory L=128, M=T=8, s=4."""
    config, planner, system = _spec_machine(t, "matched-xor", {"t": t, "s": s})
    length = 1 << lambda_exponent
    minimum = config.service_ratio + length + 1

    result = ExperimentResult(
        "E03",
        f"Theorem 1: matched window, L={length}, T={1 << t}, s={s}",
        [
            "family x",
            "scheme",
            "worst latency",
            "min latency",
            "conflict-free",
            "ordered CF",
        ],
        [],
    )
    window = list(range(max(0, s - (lambda_exponent - t)), s + 1))
    for family in range(s + 3):
        worst = 0
        all_cf = True
        ordered_cf = True
        scheme = ""
        for sigma in sigmas:
            for base in bases:
                vector = VectorAccess(base, sigma * (1 << family), length)
                plan = planner.plan(vector, mode="auto")
                scheme = plan.scheme
                run = system.run_plan(plan)
                worst = max(worst, run.latency)
                all_cf = all_cf and run.conflict_free
                ordered_plan = planner.plan(vector, mode="ordered")
                ordered_cf = ordered_cf and ordered_plan.conflict_free
        result.rows.append(
            [family, scheme, worst, minimum, all_cf, ordered_cf]
        )
        expected_cf = family in window
        result.check(
            f"family {family} conflict-free == {expected_cf}",
            expected_cf,
            all_cf,
        )
        if expected_cf:
            result.check(
                f"family {family} latency == T+L+1 = {minimum}",
                minimum,
                worst,
            )
    result.notes.append(
        f"window predicted by Theorem 1: x in [{window[0]}, {window[-1]}]; "
        "ordered access is conflict-free only for x = s"
    )
    return result


# -- E04: Section 3.1 bounded excess latency ------------------------------


def run_e04(
    lambda_exponent: int = 7, t: int = 3, s: int = 4
) -> ExperimentResult:
    """Subsequence-only ordering with q=2, q'=1: latency <= 2T + L."""
    config, planner, system = _spec_machine(
        t, "matched-xor", {"t": t, "s": s}, q=2, qp=1
    )
    length = 1 << lambda_exponent
    service = config.service_ratio
    bound = 2 * service + length

    result = ExperimentResult(
        "E04",
        f"Section 3.1: subsequence order, q=2, q'=1, L={length}",
        ["family x", "sigma", "base", "latency", "bound 2T+L", "excess"],
        [],
    )
    worst_excess = 0
    for family in range(s + 1):
        for sigma in (1, 3, 7):
            for base in (0, 5, 100, 12345):
                vector = VectorAccess(base, sigma * (1 << family), length)
                plan = planner.plan(vector, mode="subsequence")
                run = system.run_plan(plan)
                excess = run.latency - (service + length + 1)
                worst_excess = max(worst_excess, excess)
                if base == 0 and sigma in (1, 3):
                    result.rows.append(
                        [family, sigma, base, run.latency, bound, excess]
                    )
                result.check(
                    f"x={family} sigma={sigma} A1={base}: latency <= 2T+L",
                    True,
                    run.latency <= bound,
                )
    result.notes.append(
        f"worst observed excess over T+L+1: {worst_excess} cycles "
        f"(paper bound: at most T-1 = {service - 1})"
    )
    return result


# -- E05/E06: Figure 7 and Section 4.1 examples ---------------------------

#: Figure 7's in-italic example: lambda=5, A1=6, S=16 on (t=2, s=3, y=7);
#: subsequences are consecutive element groups landing in these modules.
PAPER_E05_SUBSEQ = [(2, 6, 10, 14), (0, 4, 8, 12)]
PAPER_E06_SUBSEQ = [(0, 12, 8, 4), (4, 0, 12, 8)]


def run_e05() -> ExperimentResult:
    """Figure 7 mapping table and both Section 4.1 worked examples."""
    config, _planner, _system = _spec_machine(
        2, "section-xor", {"t": 2, "s": 3, "y": 7}
    )
    mapping = config.mapping
    result = ExperimentResult(
        "E05",
        "Figure 7: section mapping t=2, m=4, s=3, y=7 + Section 4.1 examples",
        ["item", "value"],
        [],
    )

    # First rows of the layout: address -> module for 0..31.
    first_block = [mapping.module_of(address) for address in range(32)]
    expected_block = []
    for address in range(32):
        low = (address & 3) ^ ((address >> 3) & 3)
        expected_block.append(low)  # section field is 0 below address 128
    result.rows.append(
        ["modules of addresses 0..15", " ".join(map(str, first_block[:16]))]
    )
    result.check(
        "low-window layout matches Eq. (2)", expected_block, first_block
    )
    # Block structure: addresses 2**y .. 2**y + 3 live in section 1.
    sections = [mapping.section_of(128 + i) for i in range(4)]
    result.check("block at 2**y maps to section 1", [1, 1, 1, 1], sections)

    # Example 1 (x=4, sigma=1, A1=6, L=32): subsequences of Lemma 4.
    vector = VectorAccess(6, 16, 32)
    plan = build_subsequences(vector, w=7, t=2)
    observed = []
    for j in range(2):
        indices = plan.subsequence_indices(0, j)
        observed.append(
            tuple(mapping.module_of(vector.address_of(i)) for i in indices)
        )
        result.rows.append(
            [f"x=4 subsequence {j + 1} modules", " ".join(map(str, observed[-1]))]
        )
    result.check("Section 4.1 example 1 modules", PAPER_E05_SUBSEQ, observed)

    # Example 2 (x=6, sigma=3, A1=0): Px=8, two subsequences.
    vector2 = VectorAccess(0, 3 * 64, 8)
    plan2 = build_subsequences(vector2, w=7, t=2)
    observed2 = []
    for j in range(2):
        indices = plan2.subsequence_indices(0, j)
        observed2.append(
            tuple(mapping.module_of(vector2.address_of(i)) for i in indices)
        )
        result.rows.append(
            [
                f"x=6 subsequence {j + 1} modules",
                " ".join(map(str, observed2[-1])),
            ]
        )
    result.check("Section 4.1 example 2 modules", PAPER_E06_SUBSEQ, observed2)
    return result


# -- E07: Theorem 3 / unmatched window ------------------------------------


def run_e07(
    lambda_exponent: int = 7,
    t: int = 3,
    s: int = 4,
    y: int = 9,
) -> ExperimentResult:
    """Unmatched memory L=128, T=8, M=64: conflict-free families 0..9."""
    config, planner, system = _spec_machine(
        t, "section-xor", {"t": t, "s": s, "y": y}
    )
    length = 1 << lambda_exponent
    minimum = config.service_ratio + length + 1

    result = ExperimentResult(
        "E07",
        f"Theorem 3: unmatched window, L={length}, T={1 << t}, M=64, "
        f"s={s}, y={y}",
        ["family x", "scheme", "worst latency", "min latency", "conflict-free"],
        [],
    )
    for family in range(y + 3):
        worst = 0
        all_cf = True
        scheme = ""
        for sigma in (1, 3, 5):
            for base in (0, 6, 777, 54321):
                vector = VectorAccess(base, sigma * (1 << family), length)
                plan = planner.plan(vector, mode="auto")
                scheme = plan.scheme
                run = system.run_plan(plan)
                worst = max(worst, run.latency)
                all_cf = all_cf and run.conflict_free
        result.rows.append([family, scheme, worst, minimum, all_cf])
        expected_cf = family <= y
        result.check(
            f"family {family} conflict-free == {expected_cf}",
            expected_cf,
            all_cf,
        )
        if expected_cf:
            result.check(
                f"family {family} latency == {minimum}", minimum, worst
            )
    result.notes.append(
        "window predicted by Section 4.3: 0 <= x <= 2(lambda-t)+1 = 9"
    )
    return result


# -- E08: Section 5-A fractions -------------------------------------------


def run_e08(samples: int = 1500) -> ExperimentResult:
    """Fraction of conflict-free strides: analytic and Monte-Carlo."""
    result = ExperimentResult(
        "E08",
        "Section 5-A: fraction of conflict-free strides (lambda=7, t=3)",
        ["design", "analytic f", "analytic (float)", "monte carlo"],
        [],
    )
    matched_f = matched_design_fraction(7, 3)
    unmatched_f = unmatched_design_fraction(7, 3)

    _, matched_planner, _ = _spec_machine(3, "matched-xor", {"t": 3, "s": 4})
    _, unmatched_planner, _ = _spec_machine(
        3, "section-xor", {"t": 3, "s": 4, "y": 9}
    )
    matched_mc = monte_carlo_fraction(matched_planner, 128, samples=samples)
    unmatched_mc = monte_carlo_fraction(unmatched_planner, 128, samples=samples)

    result.rows.append(
        ["matched M=T=8", str(matched_f), float(matched_f), matched_mc]
    )
    result.rows.append(
        ["unmatched M=64", str(unmatched_f), float(unmatched_f), unmatched_mc]
    )
    result.check("matched fraction = 31/32", Fraction(31, 32), matched_f)
    result.check(
        "unmatched fraction = 1023/1024", Fraction(1023, 1024), unmatched_f
    )
    result.check_close(
        "matched Monte-Carlo near 31/32", float(matched_f), matched_mc, 0.02
    )
    result.check_close(
        "unmatched Monte-Carlo near 1023/1024",
        float(unmatched_f),
        unmatched_mc,
        0.01,
    )
    return result


# -- E09/E16: Section 5-B efficiency ---------------------------------------


def run_e09(length: int = 128) -> ExperimentResult:
    """Efficiency under uniform strides: model vs simulation, 4 schemes."""
    t = 3
    result = ExperimentResult(
        "E09",
        "Section 5-B: efficiency under a uniform stride distribution",
        ["scheme", "window w", "model eta", "simulated eta"],
        [],
    )

    schemes = [
        (
            "proposed, matched (s=4)",
            4,
            ("matched-xor", {"t": 3, "s": 4}),
            "auto",
            matched_proposed_efficiency(7, 3),
        ),
        (
            "proposed, unmatched (s=4, y=9)",
            9,
            ("section-xor", {"t": 3, "s": 4, "y": 9}),
            "auto",
            unmatched_proposed_efficiency(7, 3),
        ),
        (
            "ordered, matched (s=0)",
            0,
            ("interleaved", {"m": 3}),
            "ordered",
            matched_ordered_efficiency(3),
        ),
        (
            "ordered, unmatched (M=64, s=0)",
            3,
            ("interleaved", {"m": 6}),
            "ordered",
            unmatched_ordered_efficiency(6, 3),
        ),
    ]

    for name, window, (mapping_kind, mapping_params), mode, model in schemes:
        _, planner, system = _spec_machine(
            t, mapping_kind, mapping_params, q=8, qp=8
        )
        validations = validate_families(
            planner, system, window, length, max_family=window + t + 1, mode=mode
        )
        measured = weighted_measured_efficiency(validations, t, window)
        result.rows.append([name, window, float(model), measured])
        result.check_close(
            f"{name}: simulated eta matches model",
            float(model),
            measured,
            0.06,
        )

    result.check_close(
        "paper: proposed matched eta = 0.914",
        0.914,
        float(matched_proposed_efficiency(7, 3)),
        0.001,
    )
    result.check_close(
        "paper: proposed unmatched eta = 0.997",
        0.997,
        float(unmatched_proposed_efficiency(7, 3)),
        0.001,
    )
    result.check_close(
        "paper: ordered matched eta = 0.4",
        0.4,
        float(matched_ordered_efficiency(3)),
        0.001,
    )
    result.check_close(
        "paper: ordered unmatched eta = 0.84",
        0.84,
        float(unmatched_ordered_efficiency(6, 3)),
        0.003,
    )
    return result


def run_e16(length: int = 512) -> ExperimentResult:
    """Per-family steady-state cost: model 2**min(i,t) vs simulation."""
    t, s = 3, 4
    _, planner, system = _spec_machine(
        t, "matched-xor", {"t": t, "s": s}, q=8, qp=8
    )
    validations = validate_families(
        planner, system, window_high=s, length=length, max_family=s + t + 2
    )
    result = ExperimentResult(
        "E16",
        "Section 5-B model check: cycles/element per family (matched, s=4)",
        ["family x", "model", "measured", "conflict-free"],
        [],
    )
    for validation in validations:
        result.rows.append(
            [
                validation.family,
                validation.model_cycles_per_element,
                validation.measured_cycles_per_element,
                validation.conflict_free,
            ]
        )
        result.check_close(
            f"family {validation.family} cost matches model",
            validation.model_cycles_per_element,
            validation.measured_cycles_per_element,
            0.15 * validation.model_cycles_per_element + 0.1,
        )
    return result


# -- E10: Section 5-C short vectors ----------------------------------------


def run_e10(t: int = 3, s: int = 4) -> ExperimentResult:
    """Short vectors: composite (OOO prefix + ordered tail) vs all-ordered."""
    config, planner, system = _spec_machine(
        t, "matched-xor", {"t": t, "s": s}, q=4, qp=4
    )

    result = ExperimentResult(
        "E10",
        "Section 5-C: short/odd-length vectors, composite access (t=3, s=4)",
        [
            "length V",
            "family x",
            "prefix (OOO)",
            "composite latency",
            "ordered latency",
            "min latency",
        ],
        [],
    )
    for family, length in [
        (0, 96), (0, 100), (1, 48), (2, 72), (2, 30), (3, 40), (4, 24), (4, 100)
    ]:
        vector = VectorAccess(7, 3 * (1 << family), length)
        composite = plan_short_vector(planner, vector)
        ordered = planner.plan(vector, mode="ordered")
        composite_run = system.run_stream(composite.request_stream())
        ordered_run = system.run_plan(ordered)
        minimum = config.service_ratio + length + 1
        result.rows.append(
            [
                length,
                family,
                composite.prefix_length,
                composite_run.latency,
                ordered_run.latency,
                minimum,
            ]
        )
        # The OOO prefix is conflict-free; only the prefix/tail junction
        # and the short ordered tail can conflict, so the composite is at
        # worst a service-time's worth of cycles behind the better of the
        # two pure strategies (and usually ahead of all-ordered).
        service = config.service_ratio
        result.check(
            f"V={length} x={family}: composite within T-1 of all-ordered",
            True,
            composite_run.latency <= ordered_run.latency + service - 1,
        )
        _w, _key_of, chunk = planner.decomposition(vector)
        if length % chunk == 0:
            result.check(
                f"V={length} x={family}: full multiple of chunk is optimal",
                minimum,
                composite_run.latency,
            )
    result.notes.append(
        "prefix length is the paper's V = k * 2**(w+t-x); the tail is "
        "accessed in order"
    )
    return result


# -- E11: Section 5-H families vs length ------------------------------------


def run_e11(t: int = 3) -> ExperimentResult:
    """Conflict-free family count vs vector length (unmatched, m=2t)."""
    result = ExperimentResult(
        "E11",
        "Section 5-H: conflict-free families vs vector length (m=2t, t=3)",
        [
            "lambda",
            "L",
            "ordered (any length)",
            "proposed (any length)",
            "proposed (L=2^lambda)",
        ],
        [],
    )
    for lam in range(t, t + 7):
        sensitivity = families_vs_length(lam, t)
        result.rows.append(
            [
                lam,
                1 << lam,
                sensitivity.ordered_any_length,
                sensitivity.proposed_any_length,
                sensitivity.proposed_fixed_length,
            ]
        )
    expected = families_vs_length(7, t)
    result.check("ordered any-length families = t+1", 4, expected.ordered_any_length)
    result.check(
        "proposed fixed-length families = 2(lambda-t+1)",
        10,
        expected.proposed_fixed_length,
    )
    return result


# -- E12: ordering comparison ------------------------------------------------


def run_e12(lambda_exponent: int = 7, t: int = 3, s: int = 4) -> ExperimentResult:
    """Canonical vs subsequence vs conflict-free across the window."""
    length = 1 << lambda_exponent
    minimum = (1 << t) + length + 1
    result = ExperimentResult(
        "E12",
        f"Ordering comparison, matched L={length}, T={1 << t}, s={s}",
        [
            "family x",
            "canonical (q=1)",
            "canonical (q=2)",
            "subsequence (q=2)",
            "conflict-free (q=1)",
            "min",
        ],
        [],
    )
    _, planner, system_q1 = _spec_machine(
        t, "matched-xor", {"t": t, "s": s}, q=1, qp=1
    )
    _, _, system_q2 = _spec_machine(
        t, "matched-xor", {"t": t, "s": s}, q=2, qp=1
    )

    for family in range(s + 1):
        vector = VectorAccess(16, 3 * (1 << family), length)
        canonical = planner.plan(vector, mode="ordered")
        subsequence = planner.plan(vector, mode="subsequence")
        conflict_free = planner.plan(vector, mode="conflict_free")
        lat_canon_q1 = system_q1.run_plan(canonical).latency
        lat_canon_q2 = system_q2.run_plan(canonical).latency
        lat_subseq = system_q2.run_plan(subsequence).latency
        run_cf = system_q1.run_plan(conflict_free)
        result.rows.append(
            [
                family,
                lat_canon_q1,
                lat_canon_q2,
                lat_subseq,
                run_cf.latency,
                minimum,
            ]
        )
        result.check(
            f"family {family}: conflict-free order reaches minimum with q=1",
            minimum,
            run_cf.latency,
        )
        result.check(
            f"family {family}: subsequence order within 2T+L",
            True,
            lat_subseq <= 2 * (1 << t) + length,
        )
    return result


# -- E13: Section 5-E module cost ---------------------------------------------


def run_e13(lambda_exponent: int = 7, t: int = 3) -> ExperimentResult:
    """Module count vs conflict-free window (the squaring law)."""
    points = [
        ordered_design_point(t, t),
        ordered_design_point(2 * t, t),
        matched_design_point(lambda_exponent, t),
        unmatched_design_point(lambda_exponent, t),
    ]
    result = ExperimentResult(
        "E13",
        "Section 5-E: module cost of widening the window (lambda=7, t=3)",
        ["design", "modules", "CF families", "stride fraction", "eta"],
        [
            [
                point.name,
                point.modules,
                point.window_families,
                float(point.stride_fraction),
                float(point.efficiency),
            ]
            for point in points
        ],
    )
    matched = matched_design_point(lambda_exponent, t)
    unmatched = unmatched_design_point(lambda_exponent, t)
    result.check(
        "doubling the window squares the module count",
        matched.modules**2,
        unmatched.modules,
    )
    result.check(
        "window roughly doubles",
        2 * matched.window_families,
        unmatched.window_families,
    )
    return result


# -- E14: Section 5-F chaining ------------------------------------------------


def run_e14(lambda_exponent: int = 7, t: int = 3, s: int = 4) -> ExperimentResult:
    """Chained vs decoupled LOAD + VADD on the full machine."""
    length = 1 << lambda_exponent
    startup = 4
    result = ExperimentResult(
        "E14",
        f"Section 5-F: chaining LOAD->VADD, L={length}, T={1 << t}",
        ["mode", "total cycles", "analytic model"],
        [],
    )

    config, _planner, _system = _spec_machine(t, "matched-xor", {"t": t, "s": s})

    def build_e14_machine(chaining: bool) -> DecoupledVectorMachine:
        machine = DecoupledVectorMachine(
            config,
            register_length=length,
            execute_startup=startup,
            chaining=chaining,
        )
        machine.store.write_vector(0, 3, [float(i) for i in range(length)])
        machine.store.write_vector(65536, 1, [2.0] * length)
        return machine

    program = Program(
        [
            VLoad(1, 65536, 1),  # operand already loaded before the chain
            VLoad(2, 0, 3),  # the conflict-free strided load
            VAdd(3, 2, 1),  # chains on V2
        ]
    )

    for chaining in (False, True):
        machine = build_e14_machine(chaining)
        run = machine.run(program)
        pair_model = (
            chained_pair_latency(length, 1 << t, startup)
            if chaining
            else decoupled_pair_latency(length, 1 << t, startup)
        )
        first_load = run.timings[0].duration
        result.rows.append(
            [
                "chained" if chaining else "decoupled",
                run.total_cycles,
                first_load + pair_model,
            ]
        )
        result.check(
            f"{'chained' if chaining else 'decoupled'} total matches model",
            first_load + pair_model,
            run.total_cycles,
        )
    decoupled_total = result.rows[0][1]
    chained_total = result.rows[1][1]
    result.check(
        "chaining strictly faster", True, chained_total < decoupled_total
    )
    return result


# -- E15: hardware equivalence --------------------------------------------------


def run_e15(lambda_exponent: int = 7, t: int = 3, s: int = 4) -> ExperimentResult:
    """Figure 6 engine == abstract conflict-free plan, with budgets."""
    _, planner, _ = _spec_machine(t, "matched-xor", {"t": t, "s": s})
    result = ExperimentResult(
        "E15",
        "Figures 4-6: hardware models reproduce the abstract streams",
        ["family x", "streams equal", "latch peak", "latch capacity", "adds/elem"],
        [],
    )
    length = 1 << lambda_exponent
    for family in range(s + 1):
        vector = VectorAccess(777, 3 * (1 << family), length)
        plan = planner.plan(vector, mode="conflict_free")
        engine = Figure6Engine(planner, vector)
        equal = engine.request_stream() == plan.request_stream()
        report = engine.report()
        adds = (report.generator1_adds + report.generator2_adds) / length
        result.rows.append(
            [
                family,
                equal,
                report.latch_peak_occupancy,
                report.latch_capacity,
                adds,
            ]
        )
        result.check(f"family {family}: engine stream equals plan", True, equal)
        result.check(
            f"family {family}: latch budget 2*2**t respected",
            True,
            report.latch_peak_occupancy <= (1 << t),
        )
        result.check(
            f"family {family}: about two adds per element (addr+reg)",
            True,
            adds <= 2.0,
        )
    return result


def registry_entries() -> list[tuple[str, str, Callable[[], ExperimentResult]]]:
    """Declarative ``(experiment_id, title, runner)`` triples, report order.

    This is the hook ``repro.lab`` uses to wrap every runner as a job:
    the title comes from the runner's docstring (available without
    running anything), so a registry can be built cheaply and
    identically in every worker process.
    """
    entries = []
    for experiment_id in sorted(ALL_EXPERIMENTS):
        runner = ALL_EXPERIMENTS[experiment_id]
        doc = (runner.__doc__ or "").strip().splitlines()
        title = doc[0].rstrip(".") if doc else experiment_id
        entries.append((experiment_id, title, runner))
    return entries


ALL_EXPERIMENTS = {
    "E01": run_e01,
    "E02": run_e02,
    "E03": run_e03,
    "E04": run_e04,
    "E05": run_e05,
    "E07": run_e07,
    "E08": run_e08,
    "E09": run_e09,
    "E10": run_e10,
    "E11": run_e11,
    "E12": run_e12,
    "E13": run_e13,
    "E14": run_e14,
    "E15": run_e15,
    "E16": run_e16,
}
