"""Program hazard analysis: def-use chains and the machine's batches.

:func:`analyze_program` renders the ``HZ2xx`` rules for one program:

- ``HZ201`` *info* — batchability summary (N memory ops → K batches);
- ``HZ202`` *info* — why each batch broke, per boundary;
- ``HZ203`` *info* — RAW/WAR/WAW dependency counts;
- ``HZ204`` *warn* — dead register write (overwritten before read);
- ``HZ205`` *info* — store/load address spans that overlap;
- ``HZ206`` *info* — register written but never read.

``HZ201`` and ``HZ202`` report one run of the program on the decoupled
machine the spec describes: the batch partition and the
:class:`~repro.processor.decoupled.BatchBreak` records of its
:class:`~repro.processor.decoupled.MachineResult`.  The machine's
:meth:`~repro.processor.decoupled.DecoupledVectorMachine.run` is the one
statement of the batching rules — operand readiness depends on cycle
timing (chaining, execute start-up) and gather/scatter spans on data,
so no second model of them could agree.  The remaining rules read only
the instruction list.
"""

from __future__ import annotations

from repro.processor.decoupled import MachineResult
from repro.processor.engine import ProgramRun
from repro.processor.isa import VLoad, VStore
from repro.processor.program import Program, def_use_events

from repro.check.findings import Finding

__all__ = ["analyze_program"]

#: Cap on per-rule findings for one program.
_FINDING_CAP = 8


def analyze_program(
    program: Program, run: ProgramRun, *, location: str
) -> list[Finding]:
    """Every ``HZ2xx`` finding for one program and its machine run."""
    findings = _batch_findings(
        program, run.result, run.machine.memory_streams, location
    )
    findings.extend(_def_use_findings(program, location))
    findings.extend(
        _span_findings(program, run.machine.register_length, location)
    )
    return findings


def _batch_findings(
    program: Program,
    result: MachineResult,
    memory_streams: int,
    location: str,
) -> list[Finding]:
    """HZ201 batch summary and HZ202 breaks, from the machine's run."""
    memory = result.memory_timings()
    batches = sum(1 for timing in memory if timing.stream == 0)
    findings = [
        Finding(
            "HZ201",
            "info",
            f"{location}.program",
            f"{len(memory)} memory instruction(s) form {batches} "
            f"batch(es) under memory_streams={memory_streams}; peak "
            f"stream concurrency {result.stream_concurrency_peak}",
        )
    ]
    for break_ in result.breaks[:_FINDING_CAP]:
        findings.append(
            Finding(
                "HZ202",
                "info",
                f"{location}.program[{break_.position}]",
                f"batch break before "
                f"{program.instructions[break_.position].mnemonic}: "
                f"{break_.reason}",
            )
        )
    if len(result.breaks) > _FINDING_CAP:
        findings.append(
            Finding(
                "HZ202",
                "info",
                f"{location}.program",
                f"{len(result.breaks) - _FINDING_CAP} further batch "
                f"breaks (capped at {_FINDING_CAP} per program)",
            )
        )
    return findings


def _def_use_findings(program: Program, location: str) -> list[Finding]:
    """HZ203 dependency counts, HZ204 dead writes, HZ206 unread."""
    raw = war = waw = 0
    last_def: dict[int, int] = {}
    read_since_def: dict[int, bool] = {}
    dead: list[tuple[int, int, int]] = []  # (register, def, redef)
    for position, _instruction, reads, writes in def_use_events(program):
        for register in sorted(reads):
            if register in last_def:
                raw += 1
                read_since_def[register] = True
        for register in sorted(writes):
            if register in last_def:
                if read_since_def.get(register):
                    war += 1
                else:
                    waw += 1
                    dead.append((register, last_def[register], position))
            last_def[register] = position
            read_since_def[register] = False
    findings = [
        Finding(
            "HZ203",
            "info",
            f"{location}.program",
            f"register dependencies: {raw} RAW, {war} WAR, {waw} WAW",
        )
    ]
    for register, defined, redefined in dead[:_FINDING_CAP]:
        findings.append(
            Finding(
                "HZ204",
                "warn",
                f"{location}.program[{defined}]",
                f"dead write: V{register} written at instruction "
                f"{defined} is overwritten at instruction {redefined} "
                f"before any read",
            )
        )
    never_read = sorted(
        (register, defined)
        for register, defined in last_def.items()
        if not read_since_def.get(register)
    )
    for register, defined in never_read[:_FINDING_CAP]:
        findings.append(
            Finding(
                "HZ206",
                "info",
                f"{location}.program[{defined}]",
                f"V{register} (last written at instruction {defined}) "
                f"is never read afterwards; fine for final stores' "
                f"sources, wasted work otherwise",
            )
        )
    return findings


def _span_findings(
    program: Program, register_length: int, location: str
) -> list[Finding]:
    """HZ205: strided store/load address spans that overlap."""
    spans: list[tuple[int, str, bool, tuple[int, int]]] = []
    for position, instruction in enumerate(program):
        if not isinstance(instruction, (VLoad, VStore)):
            continue
        length = instruction.length or register_length
        low = min(
            instruction.base, instruction.base + (length - 1) * instruction.stride
        )
        high = max(
            instruction.base, instruction.base + (length - 1) * instruction.stride
        )
        spans.append(
            (
                position,
                instruction.mnemonic,
                isinstance(instruction, VStore),
                (low, high),
            )
        )
    findings = []
    overlaps = 0
    for i, (pos_a, mn_a, store_a, span_a) in enumerate(spans):
        for pos_b, mn_b, store_b, span_b in spans[i + 1 :]:
            if not (store_a or store_b):
                continue
            if span_a[1] < span_b[0] or span_b[1] < span_a[0]:
                continue
            overlaps += 1
            if overlaps <= _FINDING_CAP:
                findings.append(
                    Finding(
                        "HZ205",
                        "info",
                        f"{location}.program[{pos_b}]",
                        f"{mn_b} at {pos_b} "
                        f"[{span_b[0]}..{span_b[1]}] overlaps "
                        f"{mn_a} at {pos_a} "
                        f"[{span_a[0]}..{span_a[1]}]; the machine "
                        f"serialises such pairs within a batch",
                    )
                )
    if overlaps > _FINDING_CAP:
        findings.append(
            Finding(
                "HZ205",
                "info",
                f"{location}.program",
                f"{overlaps - _FINDING_CAP} further store/load span "
                f"overlaps (capped at {_FINDING_CAP} per program)",
            )
        )
    return findings
