"""Tests for the probe interface, fetch groups and fetch-slot helpers."""

import pytest

from repro.cpu.dynops import DynInst
from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.probes import (SLOT_EMPTY, SLOT_INST, SLOT_OFFPATH, FetchGroup,
                              Probe, empty_slot, inst_slot, offpath_slot)
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import Opcode
from repro.workloads import suite_program

from tests.conftest import counting_loop


def test_slot_constructors():
    inst = Instruction(op=Opcode.NOP)
    d = DynInst(seq=0, pc=0x20, inst=inst, fetch_cycle=0)
    slot = inst_slot(d)
    assert slot.kind == SLOT_INST
    assert slot.pc == 0x20
    assert slot.dyninst is d

    off = offpath_slot(0x44)
    assert off.kind == SLOT_OFFPATH
    assert off.pc == 0x44
    assert off.dyninst is None

    empty = empty_slot()
    assert empty.kind == SLOT_EMPTY
    assert empty.pc is None


def test_empty_slot_is_shared_singleton():
    assert empty_slot() is empty_slot()


def test_base_probe_is_all_noops():
    probe = Probe()
    probe.attach(object())
    probe.on_fetch_slots(0, FetchGroup((), 4, None, None, False, 0, 0))
    probe.on_issue(None, 0)
    probe.on_retire(None, 0)
    probe.on_abort(None, 0)
    probe.on_cycle_end(0)


def test_multiple_probes_see_identical_streams():
    class Recorder(Probe):
        def __init__(self):
            self.retires = []
            self.cycles = 0

        def on_retire(self, dyninst, cycle):
            self.retires.append(dyninst.seq)

        def on_cycle_end(self, cycle):
            self.cycles += 1

    program = counting_loop(iterations=50)
    core = OutOfOrderCore(program)
    first = core.add_probe(Recorder())
    second = core.add_probe(Recorder())
    core.run()
    assert first.retires == second.retires
    assert first.cycles == second.cycles


def test_probe_attach_called_with_core():
    class Attacher(Probe):
        def __init__(self):
            self.core = None

        def attach(self, core):
            self.core = core

    program = counting_loop(iterations=5)
    core = OutOfOrderCore(program)
    probe = core.add_probe(Attacher())
    assert probe.core is core


def _dyn(pc, seq=0):
    return DynInst(seq=seq, pc=pc, inst=Instruction(op=Opcode.NOP),
                   fetch_cycle=0)


def _kinds(group):
    return [(slot.kind, slot.pc) for slot in group.slots]


class TestFetchGroup:
    def test_stalled_group_is_all_empty(self):
        group = FetchGroup((), 4, None, None, False, 1, 0)
        assert _kinds(group) == [(SLOT_EMPTY, None)] * 4

    def test_prefix_below_entry_is_offpath(self):
        insts = [_dyn(0x18), _dyn(0x1c)]
        group = FetchGroup(insts, 4, 0x10, 0x18, False, 0, 0x100)
        assert _kinds(group) == [(SLOT_OFFPATH, 0x10), (SLOT_OFFPATH, 0x14),
                                 (SLOT_INST, 0x18), (SLOT_INST, 0x1c)]
        assert group.slots[2].dyninst is insts[0]

    def test_taken_branch_leaves_offpath_suffix(self):
        group = FetchGroup([_dyn(0x10)], 4, 0x10, 0x10, True, 0, 0x18)
        # 0x18 and 0x1c lie past the program's end: nothing is there.
        assert _kinds(group) == [(SLOT_INST, 0x10), (SLOT_OFFPATH, 0x14),
                                 (SLOT_EMPTY, None), (SLOT_EMPTY, None)]

    def test_fetch_running_off_the_image_pads_with_empties(self):
        group = FetchGroup([_dyn(0x14)], 4, 0x10, 0x14, False, 0, 0x100)
        assert _kinds(group) == [(SLOT_OFFPATH, 0x10), (SLOT_INST, 0x14),
                                 (SLOT_EMPTY, None), (SLOT_EMPTY, None)]

    def test_slots_are_built_once(self):
        group = FetchGroup([_dyn(0)], 2, 0, 0, False, 0, 8)
        assert group.slots is group.slots


class _GroupKeeper(Probe):
    """Keeps every fetch group; optionally materialises it at publish."""

    def __init__(self, eager):
        self.eager = eager
        self.groups = []  # (cycle, group, slots seen at publish or None)

    def on_fetch_slots(self, cycle, group):
        self.groups.append((cycle, group,
                            _signature(group) if self.eager else None))


def _signature(group):
    return [(slot.kind, slot.pc,
             None if slot.dyninst is None else slot.dyninst.seq)
            for slot in group.slots]


@pytest.fixture(scope="module")
def li_groups():
    program = suite_program("li", scale=1)
    core = OutOfOrderCore(program)
    keeper = core.add_probe(_GroupKeeper(eager=False))
    core.run()
    return program, core, keeper.groups


class TestFetchGroupGeometry:
    def test_every_group_matches_its_block(self, li_groups):
        program, core, groups = li_groups
        width = core.config.fetch_width
        block_bytes = width * INSTRUCTION_BYTES
        inst_slots = 0
        for cycle, group, _ in groups:
            slots = group.slots
            assert len(slots) == width
            assert group.context == core.context
            if group.block_start is None:
                assert not group.insts
                assert {slot.kind for slot in slots} == {SLOT_EMPTY}
                continue
            assert group.block_start % block_bytes == 0
            assert (group.block_start <= group.entry_pc
                    < group.block_start + block_bytes)
            for index, slot in enumerate(slots):
                if slot.kind == SLOT_EMPTY:
                    continue
                assert slot.pc == group.block_start + index * INSTRUCTION_BYTES
                if slot.kind == SLOT_OFFPATH:
                    assert program.contains_pc(slot.pc)
                else:
                    assert slot.dyninst.fetch_cycle == cycle
                    inst_slots += 1
            assert [slot.dyninst for slot in slots
                    if slot.kind == SLOT_INST] == list(group.insts)
        assert inst_slots == core.fetched
        kinds = {slot.kind for _, group, _ in groups for slot in group.slots}
        assert kinds == {SLOT_INST, SLOT_OFFPATH, SLOT_EMPTY}

    def test_groups_kept_past_the_callback_stay_exact(self, li_groups):
        program, _, late = li_groups
        core = OutOfOrderCore(program)
        keeper = core.add_probe(_GroupKeeper(eager=True))
        core.run()
        assert len(keeper.groups) == len(late)
        for (cycle, _, eager), (late_cycle, group, _) in zip(keeper.groups,
                                                             late):
            assert cycle == late_cycle
            assert _signature(group) == eager
