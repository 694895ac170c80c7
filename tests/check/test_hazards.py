"""``repro check``'s batch report is the decoupled machine's own record.

``HZ201``/``HZ202`` come from one run of the spec's program.  These
tests pin them to :class:`DecoupledVectorMachine` runs on the same
design point, keep two programs on which a static model of the batching
rules disagreed with the machine, and state the partition rules as
properties over generated programs.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_document
from repro.mappings import SectionXorMapping
from repro.memory import MemoryConfig
from repro.processor import DecoupledVectorMachine, MachineResult
from repro.scenarios import ComponentSpec
from repro.scenarios.registry import PROGRAM, build, example_params, kinds

REGISTER_LENGTH = 64
STREAMS = [1, 2, 4]
CAPACITY = "stream slots"
HAZARD = re.compile(r"^register hazard on (V\d+(?:, V\d+)*) drains the batch$")


def spec_document(
    program: dict,
    streams: int,
    *,
    ports: int | None = None,
    chaining: bool = False,
    register_length: int = REGISTER_LENGTH,
) -> dict:
    return {
        "name": "hz",
        "mapping": {"kind": "section-xor", "params": {"t": 3, "s": 4, "y": 9}},
        "memory": {"t": 3, "ports": ports or streams},
        "program": program,
        "drive": {
            "kind": "decoupled",
            "params": {
                "register_length": register_length,
                "memory_streams": streams,
                "chaining": chaining,
            },
        },
    }


def machine_run(document: dict):
    """The program of ``document`` run on a hand-built machine (no
    check or facade code involved)."""
    drive = document["drive"]["params"]
    register_length = drive["register_length"]
    scenario = build(
        PROGRAM,
        ComponentSpec.from_dict(document["program"]),
        register_length=register_length,
    )
    config = MemoryConfig(
        SectionXorMapping(3, 4, 9), 3, ports=document["memory"]["ports"]
    )
    machine = DecoupledVectorMachine(
        config,
        register_length,
        chaining=drive["chaining"],
        memory_streams=drive["memory_streams"],
    )
    for init in scenario.inputs:
        machine.store.write_vector(*init)
    return scenario.program, machine.run(scenario.program)


def batches(result: MachineResult) -> list[tuple[int, ...]]:
    """The batch partition, read from stream slots: a batch starts at
    every memory instruction on slot 0."""
    out: list[list[int]] = []
    for timing in result.memory_timings():
        if timing.stream == 0:
            out.append([])
        out[-1].append(timing.position)
    return [tuple(batch) for batch in out]


def reported(document: dict) -> tuple[int, int, list[tuple[int, str]], int]:
    """``(batch count, peak concurrency, [(position, reason)], further
    breaks past the cap)`` from ``repro check``'s HZ201/HZ202
    findings."""
    report = check_document(json.dumps(document), source="hz")
    [summary] = [f for f in report.findings if f.rule_id == "HZ201"]
    count, peak = re.search(
        r"form (\d+) batch\(es\) .* peak stream concurrency (\d+)$",
        summary.message,
    ).groups()
    breaks: list[tuple[int, str]] = []
    further = 0
    for finding in report.findings:
        if finding.rule_id != "HZ202":
            continue
        located = re.search(r"\[(\d+)\]$", finding.location)
        if located is None:
            further = int(finding.message.split()[0])
        else:
            reason = finding.message.split(": ", 1)[1]
            breaks.append((int(located.group(1)), reason))
    return int(count), int(peak), breaks, further


def example_document(kind: str, streams: int) -> dict:
    return spec_document(
        {"kind": kind, "params": example_params(PROGRAM, kind)}, streams
    )


@pytest.mark.parametrize("kind", kinds(PROGRAM))
@pytest.mark.parametrize("streams", STREAMS)
def test_check_reports_the_machines_batches(kind, streams):
    document = example_document(kind, streams)
    _program, result = machine_run(document)
    count, peak, breaks, further = reported(document)
    assert count == len(batches(result)), f"{kind} streams={streams}"
    assert peak == result.stream_concurrency_peak <= streams
    assert breaks == [
        (break_.position, break_.reason) for break_ in result.breaks[:8]
    ]
    assert further == max(len(result.breaks) - 8, 0)


@pytest.mark.parametrize("kind", kinds(PROGRAM))
@pytest.mark.parametrize("streams", STREAMS)
def test_every_break_names_a_batch_boundary(kind, streams):
    program, result = machine_run(example_document(kind, streams))
    assert_breaks_are_boundaries(program, result)


def assert_breaks_are_boundaries(program, result: MachineResult) -> None:
    """Breaks and batch boundaries correspond one to one: the batch
    after a break starts at the first memory instruction at or after
    the break's position.  Only a last break with no memory
    instruction after it has no batch to open."""
    memory_positions = [
        position
        for position, instruction in enumerate(program)
        if instruction.is_memory
    ]
    opened = [
        next((p for p in memory_positions if p >= break_.position), None)
        for break_ in result.breaks
    ]
    if opened and opened[-1] is None:
        opened.pop()
    assert opened == [batch[0] for batch in batches(result)[1:]]
    assert all(break_.reason for break_ in result.breaks)


def fill(*bases: int, stride: int = 1, count: int = 64) -> list[str]:
    return [
        f".fill base={base}, stride={stride}, count={count}, value=1.5"
        for base in bases
    ]


# (a) The store of an execute result is not late: the machine starts
# the batch after the operand is ready, so the store joins it.
STORE_AFTER_EXECUTE = [
    *fill(0, 1000, 2000, 3000, 4000, 5000),
    *fill(6000, stride=3),
    "vload v0, base=0, stride=1",
    "vload v1, base=1000, stride=1",
    "vadd v2, v0, v1",
    "vload v3, base=2000, stride=1",
    "vload v4, base=3000, stride=1",
    "vload v5, base=4000, stride=1",
    "vload v6, base=5000, stride=1",
    "vload v7, base=6000, stride=3",
    "vstore v2, base=9000, stride=1",
]

# (b) A gather's span is known once its index register is: the store
# that follows it touches disjoint addresses and joins its batch.
STORE_AFTER_GATHER = [
    ".init base=0, stride=1, values="
    + ";".join(str(index) for index in range(REGISTER_LENGTH)),
    *fill(1000, 2000),
    "vload v0, base=0, stride=1",
    "vload v1, base=1000, stride=1",
    "vgather v2, v0, base=2000",
    "vstore v1, base=9000, stride=1",
]


@pytest.mark.parametrize(
    "lines, streams, expected, break_positions",
    [
        (
            STORE_AFTER_EXECUTE,
            2,
            [(0, 1), (3, 4), (5, 6), (7, 8)],
            [2, 5, 7],
        ),
        (STORE_AFTER_EXECUTE, 4, [(0, 1), (3, 4, 5, 6), (7, 8)], [2, 7]),
        (STORE_AFTER_GATHER, 2, [(0, 1), (2, 3)], [2]),
        (STORE_AFTER_GATHER, 4, [(0, 1), (2, 3)], [2]),
    ],
    ids=["execute-store-2", "execute-store-4", "gather-store-2", "gather-store-4"],
)
def test_check_reports_runtime_batches_a_static_model_missed(
    lines, streams, expected, break_positions
):
    document = spec_document(
        {"kind": "asm", "params": {"text": "\n".join(lines)}}, streams
    )
    _program, result = machine_run(document)
    assert batches(result) == expected
    count, _peak, breaks, _further = reported(document)
    assert count == len(expected)
    assert [position for position, _reason in breaks] == break_positions
    assert breaks == [(b.position, b.reason) for b in result.breaks]


# -- properties over generated programs -------------------------------

GEN_LENGTH = 16
DATA_BASES = (0, 1024, 2048, 3072)
INDEX_BASE = 8192
#: Index values stay below this, so every gathered word is filled.
INDEX_RANGE = 8


@st.composite
def straight_line_programs(draw) -> str:
    """Assembler text mixing loads, stores, gathers, scatters and
    execute ops; ``.fill``/``.init`` preload every word a load or
    gather can read, and only registers holding index data serve as
    gather/scatter index operands."""
    lines = fill(*DATA_BASES, count=3 * GEN_LENGTH + INDEX_RANGE)
    lines.append(
        f".init base={INDEX_BASE}, stride=1, values="
        + ";".join(str(i % INDEX_RANGE) for i in range(GEN_LENGTH))
    )
    defined: set[int] = set()
    indices: set[int] = set()
    register = st.integers(min_value=0, max_value=7)
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        op = draw(
            st.sampled_from(
                [
                    "vload", "index", "vstore", "vgather", "vscatter",
                    "vadd", "vmul", "vscale", "vsum",
                ]
            )
        )
        base = draw(st.sampled_from(DATA_BASES))
        offset = draw(st.integers(min_value=0, max_value=INDEX_RANGE))
        stride = draw(st.integers(min_value=1, max_value=3))
        if op in ("vgather", "vscatter") and not indices:
            op = "index"
        elif op not in ("vload", "index") and not defined:
            op = "vload"
        if op == "index":
            dst = draw(register)
            lines.append(f"vload v{dst}, base={INDEX_BASE}, stride=1")
            defined.add(dst)
            indices.add(dst)
            continue
        if op == "vload":
            dst = draw(register)
            lines.append(f"vload v{dst}, base={base + offset}, stride={stride}")
        elif op == "vstore":
            src = draw(st.sampled_from(sorted(defined)))
            lines.append(f"vstore v{src}, base={base + offset}, stride={stride}")
            continue
        elif op == "vgather":
            dst = draw(register)
            index = draw(st.sampled_from(sorted(indices)))
            lines.append(f"vgather v{dst}, v{index}, base={base}")
        elif op == "vscatter":
            src = draw(st.sampled_from(sorted(defined)))
            index = draw(st.sampled_from(sorted(indices)))
            lines.append(f"vscatter v{src}, v{index}, base={base}")
            continue
        else:
            dst = draw(register)
            a = draw(st.sampled_from(sorted(defined)))
            b = draw(st.sampled_from(sorted(defined)))
            lines.append(
                {
                    "vadd": f"vadd v{dst}, v{a}, v{b}",
                    "vmul": f"vmul v{dst}, v{a}, v{b}",
                    "vscale": f"vscale v{dst}, v{a}, scalar=2.0",
                    "vsum": f"vsum v{dst}, v{a}",
                }[op]
            )
        defined.add(dst)
        indices.discard(dst)
    return "\n".join(lines)


def closed_batch(
    found: list[tuple[int, ...]], position: int
) -> tuple[int, ...]:
    """The batch a break at ``position`` closed: the last one that
    started before it."""
    return [batch for batch in found if batch[0] < position][-1]


@settings(max_examples=60, deadline=None)
@given(
    text=straight_line_programs(),
    streams=st.integers(min_value=1, max_value=4),
    two_ports=st.booleans(),
    chaining=st.booleans(),
)
def test_machine_batches_obey_the_batching_rules(
    text, streams, two_ports, chaining
):
    document = spec_document(
        {"kind": "asm", "params": {"text": text}},
        streams,
        ports=2 if two_ports and streams > 1 else 1,
        chaining=chaining,
        register_length=GEN_LENGTH,
    )
    program, result = machine_run(document)
    found = batches(result)

    # The batches partition the memory positions in program order, each
    # one a set of concurrent streams no wider than memory_streams.
    memory = result.memory_timings()
    assert [p for batch in found for p in batch] == [t.position for t in memory]
    by_position = {timing.position: timing for timing in memory}
    for batch in found:
        assert len(batch) <= streams
        assert [by_position[p].stream for p in batch] == list(range(len(batch)))
        assert len({by_position[p].start_cycle for p in batch}) == 1
    assert_breaks_are_boundaries(program, result)

    for break_ in result.breaks:
        closed = closed_batch(found, break_.position)
        if CAPACITY in break_.reason:
            assert len(closed) == streams, break_
        hazard = HAZARD.match(break_.reason)
        if hazard:
            named = {int(name[1:]) for name in hazard.group(1).split(", ")}
            instruction = program.instructions[break_.position]
            batch_reads = {
                r for p in closed for r in program.instructions[p].reads()
            }
            batch_writes = {
                r for p in closed for r in program.instructions[p].writes()
            }
            reads = set(instruction.reads())
            writes = set(instruction.writes())
            conflict = reads & batch_writes | writes & (batch_reads | batch_writes)
            assert named and named == conflict, break_

    report = check_document(json.dumps(document), source="generated")
    assert report.exit_code == 0, report.render()
    count, peak, _breaks, _further = reported(document)
    assert (count, peak) == (len(found), result.stream_concurrency_peak)
