"""Tests for program validation and the assembler."""

from __future__ import annotations

import pytest

from repro.errors import ProgramError
from repro.processor.isa import VAdd, VLoad, VScale, VStore
from repro.processor.program import Program, assemble, disassemble


class TestValidation:
    def test_valid_program(self):
        program = Program([VLoad(1, 0, 1), VScale(2, 1, 2.0), VStore(2, 0, 1)])
        program.validate(register_count=4)

    def test_register_out_of_range(self):
        program = Program([VLoad(9, 0, 1)])
        with pytest.raises(ProgramError):
            program.validate(register_count=4)

    def test_use_before_def(self):
        program = Program([VAdd(2, 0, 1)])
        with pytest.raises(ProgramError):
            program.validate(register_count=4)

    def test_memory_instruction_count(self):
        program = Program([VLoad(1, 0, 1), VScale(2, 1, 2.0), VStore(2, 0, 1)])
        assert program.memory_instruction_count() == 2

    def test_len_and_iter(self):
        program = Program([VLoad(1, 0, 1)])
        assert len(program) == 1
        assert list(program) == [VLoad(1, 0, 1)]


class TestAssembler:
    def test_basic_program(self):
        program = assemble(
            """
            # daxpy-ish
            vload  v1, base=100, stride=3
            vload  v2, base=4096, stride=1
            vscale v3, v1, scalar=2.5
            vadd   v4, v3, v2
            vstore v4, base=8192, stride=1
            """
        )
        assert len(program) == 5
        assert program.instructions[0] == VLoad(1, 100, 3)
        assert program.instructions[2] == VScale(3, 1, 2.5)
        assert program.instructions[4] == VStore(4, 8192, 1)

    def test_length_keyword(self):
        program = assemble("vload v1, base=0, stride=2, length=20")
        assert program.instructions[0] == VLoad(1, 0, 2, 20)

    def test_unknown_mnemonic(self):
        with pytest.raises(ProgramError):
            assemble("vxyz v1, v2, v3")

    def test_bad_register_token(self):
        with pytest.raises(ProgramError):
            assemble("vadd w1, v2, v3")

    def test_missing_scalar(self):
        with pytest.raises(ProgramError):
            assemble("vscale v1, v2, factor=2")

    def test_bad_numeric(self):
        with pytest.raises(ProgramError):
            assemble("vload v1, base=abc, stride=1")

    def test_missing_operands(self):
        with pytest.raises(ProgramError):
            assemble("vload v1, base=0")
        with pytest.raises(ProgramError):
            assemble("vadd v1, v2")

    def test_comments_and_blanks_ignored(self):
        program = assemble("\n# nothing\n\nvload v1, base=0, stride=1\n")
        assert len(program) == 1


class TestRoundTrip:
    def test_assemble_disassemble_assemble(self):
        source = "\n".join(
            [
                "vload v1, base=100, stride=3",
                "vload v2, base=4096, stride=1, length=20",
                "vscale v3, v1, scalar=2.5",
                "vadd v4, v3, v2",
                "vsub v5, v4, v2",
                "vmul v6, v5, v5",
                "vsadd v7, v6, scalar=1.0",
                "vstore v7, base=8192, stride=1",
            ]
        )
        first = assemble(source)
        text = disassemble(first)
        second = assemble(text)
        assert first.instructions == second.instructions


class TestAssemblerErrorLocation:
    """Every parse failure names the offending line and source text."""

    def test_missing_operand_reports_line_and_source(self):
        source = "vload v1, base=0, stride=4\nvload v2, stride=1, length=4"
        with pytest.raises(ProgramError) as excinfo:
            assemble(source)
        error = excinfo.value
        assert error.line_number == 2
        assert error.source_line == "vload v2, stride=1, length=4"
        assert "line 2" in str(error)
        assert "vload v2, stride=1, length=4" in str(error)
        assert "base=<value>" in str(error)

    def test_unknown_mnemonic_is_located(self):
        with pytest.raises(ProgramError) as excinfo:
            assemble("# comment\n\nvwarp v1, v2, v3")
        assert excinfo.value.line_number == 3
        assert "vwarp" in str(excinfo.value)

    def test_instruction_constructor_errors_are_located(self):
        # stride 0 is rejected by VLoad itself; the location must not be
        # lost on the re-raise.
        with pytest.raises(ProgramError) as excinfo:
            assemble("vload v1, base=0, stride=0")
        assert excinfo.value.line_number == 1
        assert excinfo.value.source_line == "vload v1, base=0, stride=0"

    def test_bad_register_token_is_located(self):
        with pytest.raises(ProgramError) as excinfo:
            assemble("vadd r1, v2, v3")
        assert excinfo.value.line_number == 1
        assert "r1" in str(excinfo.value)

    def test_hand_built_program_errors_carry_no_location(self):
        program = Program([VAdd(1, 2, 3)])
        with pytest.raises(ProgramError) as excinfo:
            program.validate(8)
        assert excinfo.value.line_number is None
        assert excinfo.value.source_line is None


class TestParseSource:
    def test_directives_become_memory_inits(self):
        from repro.processor.program import parse_source

        program, inits = parse_source(
            ".init base=0, stride=2, values=1;2;3\n"
            "vload v1, base=0, stride=2, length=3\n"
            ".fill base=100, stride=1, count=4, value=7.5\n"
        )
        assert len(program) == 1
        assert inits == ((0, 2, (1.0, 2.0, 3.0)), (100, 1, (7.5,) * 4))

    def test_directive_errors_are_located(self):
        from repro.processor.program import parse_source

        with pytest.raises(ProgramError) as excinfo:
            parse_source("vadd v1, v1, v1\n.init base=0, stride=2")
        assert excinfo.value.line_number == 2
        assert "values" in str(excinfo.value)

    def test_unknown_directive_rejected(self):
        from repro.processor.program import parse_source

        with pytest.raises(ProgramError, match="unknown directive"):
            parse_source(".warp base=0")

    def test_assemble_rejects_directives(self):
        with pytest.raises(ProgramError, match="not allowed"):
            assemble(".init base=0, stride=1, values=1")


#: Integer operands whose text is not an integer: each must be a
#: located ProgramError, never an OverflowError/ValueError or a
#: silently truncated value.
BAD_INTEGER_OPERANDS = [
    "vload v2, base=1e400, stride=1",
    "vload v2, base=inf, stride=1",
    "vload v2, base=nan, stride=1",
    "vload v2, base=1.5, stride=1",
    "vstore v1, base=0, stride=-inf",
    "vload v2, base=0, stride=2.5",
    "vload v2, base=0, stride=1, length=nan",
    "vgather v2, v1, base=1e400",
    "vscatter v1, v1, base=0.5",
    ".fill base=0, stride=1, count=inf, value=1",
]


class TestIntegerOperands:
    @staticmethod
    def source(line: str) -> str:
        return (
            ".fill base=0, stride=1, count=64, value=1\n"
            "vload v1, base=0, stride=1\n"
            f"{line}"
        )

    @pytest.mark.parametrize("line", BAD_INTEGER_OPERANDS)
    def test_parser_raises_a_located_program_error(self, line):
        from repro.processor.program import parse_source

        parse = parse_source if line.startswith(".") else assemble
        with pytest.raises(ProgramError) as excinfo:
            parse(line)
        assert excinfo.value.line_number == 1
        assert excinfo.value.source_line == line

    @pytest.mark.parametrize("line", BAD_INTEGER_OPERANDS)
    def test_check_reports_sl303_without_raising(self, line):
        import json

        from repro.check import check_document

        document = {
            "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
            "memory": {"t": 3},
            "program": {"kind": "asm", "params": {"text": self.source(line)}},
            "drive": {"kind": "decoupled", "params": {}},
        }
        report = check_document(json.dumps(document), source="s")
        [error] = report.errors
        assert error.rule_id == "SL303"
        assert "line 3" in error.message

    @pytest.mark.parametrize("line", BAD_INTEGER_OPERANDS)
    def test_simulate_raises_a_repro_error(self, line):
        from repro.errors import ReproError
        from repro.scenarios import ComponentSpec, MemorySpec, ScenarioSpec, simulate

        spec = ScenarioSpec(
            mapping=ComponentSpec.of("matched-xor", t=3, s=4),
            memory=MemorySpec(t=3),
            program=ComponentSpec.of("asm", text=self.source(line)),
            drive=ComponentSpec.of("decoupled"),
        )
        with pytest.raises(ReproError, match="line 3"):
            simulate(spec)

    def test_integral_float_text_still_assembles(self):
        [load] = assemble("vload v1, base=1e3, stride=-2, length=4.0")
        assert (load.base, load.stride, load.length) == (1000, -2, 4)
