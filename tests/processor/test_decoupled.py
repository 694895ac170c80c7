"""Tests for the decoupled access/execute machine."""

from __future__ import annotations

import pytest

from repro.errors import ProgramError
from repro.memory.config import MemoryConfig
from repro.processor.decoupled import DecoupledVectorMachine
from repro.processor.isa import VAdd, VLoad, VScale, VStore, VSum
from repro.processor.program import Program


def make_machine(**kwargs) -> DecoupledVectorMachine:
    defaults = dict(
        config=MemoryConfig.matched(t=3, s=4),
        register_length=128,
    )
    defaults.update(kwargs)
    return DecoupledVectorMachine(**defaults)


class TestDataMovement:
    def test_load_store_roundtrip(self):
        machine = make_machine()
        values = [float(i) * 0.5 for i in range(128)]
        machine.store.write_vector(0, 12, values)
        machine.run(
            Program([VLoad(1, 0, 12), VStore(1, 100000, 1)])
        )
        assert machine.store.read_vector(100000, 1, 128) == values

    def test_daxpy_values(self):
        machine = make_machine()
        xs = [float(i) for i in range(128)]
        ys = [100.0 + i for i in range(128)]
        machine.store.write_vector(0, 3, xs)
        machine.store.write_vector(50000, 1, ys)
        machine.run(
            Program(
                [
                    VLoad(1, 0, 3),
                    VLoad(2, 50000, 1),
                    VScale(3, 1, 2.0),
                    VAdd(4, 3, 2),
                    VStore(4, 50000, 1),
                ]
            )
        )
        result = machine.store.read_vector(50000, 1, 128)
        assert result == [2.0 * x + y for x, y in zip(xs, ys)]

    def test_partial_length(self):
        machine = make_machine()
        machine.store.write_vector(0, 1, [1.0] * 40)
        machine.run(
            Program([VLoad(1, 0, 1, 40), VScale(2, 1, 3.0, 40),
                     VStore(2, 5000, 1, 40)])
        )
        assert machine.store.read_vector(5000, 1, 40) == [3.0] * 40

    def test_execute_may_overwrite_its_own_source(self):
        machine = make_machine()
        xs = [float(i) for i in range(128)]
        machine.store.write_vector(0, 1, xs)
        machine.run(
            Program(
                [
                    VLoad(1, 0, 1),
                    VAdd(1, 1, 1),
                    VScale(1, 1, 0.5),
                    VStore(1, 5000, 1),
                    VSum(1, 1),
                    VStore(1, 6000, 1),
                ]
            )
        )
        assert machine.store.read_vector(5000, 1, 128) == xs
        assert machine.store.read_vector(6000, 1, 128) == [sum(xs)] * 128

    def test_length_exceeding_register_rejected(self):
        machine = make_machine()
        machine.store.write_vector(0, 1, [0.0] * 200)
        with pytest.raises(ProgramError):
            machine.run(Program([VLoad(1, 0, 1, 200)]))


class TestTiming:
    def test_conflict_free_load_duration(self):
        machine = make_machine()
        machine.store.write_vector(0, 12, [0.0] * 128)
        result = machine.run(Program([VLoad(1, 0, 12)]))
        timing = result.timings[0]
        assert timing.duration == 8 + 128 + 1
        assert timing.conflict_free
        assert timing.mode == "conflict_free"

    def test_out_of_window_load_slower(self):
        machine = make_machine()
        machine.store.write_vector(0, 1 << 6, [0.0] * 128)
        result = machine.run(Program([VLoad(1, 0, 1 << 6)]))
        timing = result.timings[0]
        assert timing.duration > 137
        assert not timing.conflict_free

    def test_execute_waits_for_register(self):
        machine = make_machine()
        machine.store.write_vector(0, 12, [1.0] * 128)
        result = machine.run(Program([VLoad(1, 0, 12), VScale(2, 1, 2.0)]))
        load, scale = result.timings
        assert scale.start_cycle == load.end_cycle + 1
        assert scale.mode == "decoupled"

    def test_memory_unit_serialises_accesses(self):
        machine = make_machine()
        machine.store.write_vector(0, 12, [1.0] * 128)
        machine.store.write_vector(10000, 1, [1.0] * 128)
        result = machine.run(
            Program([VLoad(1, 0, 12), VLoad(2, 10000, 1)])
        )
        first, second = result.timings
        assert second.start_cycle == first.end_cycle + 1

    def test_store_waits_for_source_register(self):
        machine = make_machine()
        machine.store.write_vector(0, 12, [1.0] * 128)
        result = machine.run(
            Program([VLoad(1, 0, 12), VStore(1, 90000, 1)])
        )
        load, store = result.timings
        assert store.start_cycle >= load.end_cycle + 1


class TestChaining:
    def test_chained_faster_than_decoupled(self):
        program = Program([VLoad(1, 0, 12), VScale(2, 1, 2.0)])
        results = {}
        for chaining in (False, True):
            machine = make_machine(chaining=chaining)
            machine.store.write_vector(0, 12, [1.0] * 128)
            results[chaining] = machine.run(program).total_cycles
        assert results[True] < results[False]
        # Chaining hides nearly the whole execute: the chained total is
        # within startup+2 of the bare load latency.
        assert results[True] <= 137 + 4 + 2

    def test_chained_mode_recorded(self):
        machine = make_machine(chaining=True)
        machine.store.write_vector(0, 12, [1.0] * 128)
        result = machine.run(Program([VLoad(1, 0, 12), VScale(2, 1, 2.0)]))
        assert result.timings[1].mode == "chained"
        assert result.chained_count() == 1

    def test_no_chaining_on_conflicting_load(self):
        """Section 5-F: only deterministic (conflict-free) loads chain."""
        machine = make_machine(chaining=True)
        machine.store.write_vector(0, 1 << 6, [1.0] * 128)
        result = machine.run(
            Program([VLoad(1, 0, 1 << 6), VScale(2, 1, 2.0)])
        )
        assert result.timings[1].mode == "decoupled"

    def test_chained_values_still_correct(self):
        machine = make_machine(chaining=True)
        xs = [float(i) for i in range(128)]
        machine.store.write_vector(0, 12, xs)
        machine.run(
            Program([VLoad(1, 0, 12), VScale(2, 1, 3.0), VStore(2, 70000, 1)])
        )
        assert machine.store.read_vector(70000, 1, 128) == [3.0 * x for x in xs]


class TestConstruction:
    def test_bad_register_length(self):
        with pytest.raises(ProgramError):
            make_machine(register_length=0)

    def test_bad_startup(self):
        with pytest.raises(ProgramError):
            make_machine(execute_startup=0)

    def test_program_validated(self):
        machine = make_machine()
        with pytest.raises(ProgramError):
            machine.run(Program([VAdd(1, 2, 3)]))


class TestResultAccounting:
    def test_summary_counts(self):
        machine = make_machine()
        machine.store.write_vector(0, 12, [1.0] * 128)
        machine.store.write_vector(30000, 1, [1.0] * 128)
        result = machine.run(
            Program(
                [
                    VLoad(1, 0, 12),
                    VLoad(2, 30000, 1),
                    VAdd(3, 1, 2),
                    VStore(3, 30000, 1),
                ]
            )
        )
        assert len(result.memory_timings()) == 3
        assert result.conflict_free_loads() == 3
        assert result.total_cycles == max(t.end_cycle for t in result.timings)
