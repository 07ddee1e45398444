"""Tests for the Program container."""

import pytest

from repro.errors import ProgramError
from repro.isa.builder import ProgramBuilder
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program


def _program(count=4):
    return Program(instructions=[Instruction(op=Opcode.NOP)] * count)


def test_pc_limit_and_contains():
    program = _program(4)
    assert program.pc_limit == 16
    assert program.contains_pc(0)
    assert program.contains_pc(12)
    assert not program.contains_pc(16)
    assert not program.contains_pc(2)  # misaligned
    assert not program.contains_pc(-4)


def test_fetch_valid_and_invalid():
    program = _program(2)
    assert program.fetch(4).op is Opcode.NOP
    with pytest.raises(ProgramError):
        program.fetch(8)
    assert program.fetch_or_none(8) is None
    assert program.fetch_or_none(6) is None


@pytest.mark.parametrize("pc,valid", [
    (-4, False), (-1, False),  # negative
    (2, False), (13, False),  # misaligned
    (16, False), (20, False),  # one past the end, and beyond
    (0, True), (12, True),  # first and last valid
])
def test_fetch_or_none_bounds(pc, valid):
    instructions = [Instruction(op=Opcode.LDA, dest=1, src1=1, imm=k)
                    for k in range(4)]
    program = Program(instructions=instructions)
    assert program.contains_pc(pc) is valid
    if valid:
        assert program.fetch_or_none(pc) is instructions[pc // 4]
        assert program.fetch(pc) is instructions[pc // 4]
    else:
        assert program.fetch_or_none(pc) is None
        with pytest.raises(ProgramError):
            program.fetch(pc)


def test_fetch_or_none_follows_replaced_image():
    program = _program(4)
    program.replace_instructions([Instruction(op=Opcode.NOP)] * 2)
    assert program.fetch_or_none(4) is not None
    assert program.fetch_or_none(8) is None


def test_empty_program_rejected():
    with pytest.raises(ProgramError, match="no instructions"):
        Program(instructions=[])


def test_bad_entry_rejected():
    with pytest.raises(ProgramError):
        Program(instructions=[Instruction(op=Opcode.NOP)], entry=4)
    with pytest.raises(ProgramError):
        Program(instructions=[Instruction(op=Opcode.NOP)], entry=2)


def test_label_lookup():
    b = ProgramBuilder()
    b.label("here")
    b.halt()
    program = b.build()
    assert program.pc_of_label("here") == 0
    assert program.label_of_pc(0) == "here"
    assert program.label_of_pc(4) is None
    with pytest.raises(ProgramError):
        program.pc_of_label("gone")


def test_listing_and_dump(memory_program):
    listing = memory_program.listing()
    assert len(listing) == len(memory_program)
    assert listing[0][0] == 0
    dump = memory_program.dump()
    assert "main:" in dump
    assert "ld" in dump


def test_function_of_pc_outside_functions():
    program = _program(4)
    assert program.function_of_pc(0) is None
    assert program.function_entry(0) is None
