"""Observation interface between cores and profiling hardware.

Every core publishes its activity through :class:`Probe` callbacks.  The
ProfileMe unit, the event-counter baseline, and the ground-truth collector
are all probes: they see the same machine through the same pinhole, which
is what makes "counters vs. ProfileMe on identical executions"
(Figure 2) a controlled comparison.

Fetch groups
------------
``on_fetch_slots`` reports one :class:`FetchGroup` per fetch cycle: the
predicted-path instructions the fetcher delivered (``insts``) plus the
geometry of the fetch block they came from (``width``, ``block_start``,
``entry_pc``, ``taken``) and the hardware context that fetched it.

The section 4.1.1 instruction-selection hardware works from *fetch
opportunities* — the paper's term for the ``width`` slots available each
cycle.  A slot carries a DynInst (predicted-path instruction), a bare PC
(instruction present in the fetch block but off the predicted path), or
nothing (fetcher stalled / no instruction at that address).  The group
builds its :attr:`FetchGroup.slots` only when a probe asks for them,
from the geometry it recorded at fetch: most observers never do.  The
event counters and the ground-truth collector read ``insts`` directly,
and the ProfileMe unit skips whole groups on its countdown counters and
walks the slots only in the cycle where one of them fires.  The build
depends on nothing that changes after fetch, so a group kept past the
callback materialises the same slots whenever it is asked.

On the SMT machine every thread core publishes onto the machine's one
bus, so a group's ``context`` is the thread that fetched it.
"""

from dataclasses import dataclass
from typing import Optional

from repro.cpu.dynops import DynInst
from repro.isa.instruction import INSTRUCTION_BYTES

SLOT_INST = "inst"  # predicted-path instruction (enters the pipeline)
SLOT_OFFPATH = "offpath"  # instruction in the block, off the predicted path
SLOT_EMPTY = "empty"  # no instruction available this opportunity


@dataclass
class FetchSlot:
    """One fetch opportunity in one cycle."""

    __slots__ = ("kind", "dyninst", "pc")

    kind: str
    dyninst: Optional[DynInst]
    pc: Optional[int]


def inst_slot(dyninst):
    return FetchSlot(kind=SLOT_INST, dyninst=dyninst, pc=dyninst.pc)


def offpath_slot(pc):
    return FetchSlot(kind=SLOT_OFFPATH, dyninst=None, pc=pc)


_EMPTY_SLOT = FetchSlot(kind=SLOT_EMPTY, dyninst=None, pc=None)


def empty_slot():
    # Empty slots carry no per-instance state; share one object (probes
    # must treat slots as read-only, which they do).
    return _EMPTY_SLOT


class FetchGroup:
    """One cycle's fetch: predicted-path instructions plus block geometry.

    *insts* are the DynInsts fetched this cycle, in fetch order; they sit
    at consecutive PCs starting at *entry_pc* inside the *width*-slot
    block that starts at *block_start*.  *taken* says the last of them
    was predicted taken, so the rest of the block is off the predicted
    path.  A stalled fetcher publishes a group with no instructions and
    ``block_start=None``.  *pc_limit* is the program's one-past-the-end
    PC at fetch time: it decides which in-block addresses outside
    *insts* hold an off-path instruction and which hold nothing.  A
    group without such addresses (a stalled cycle, or the in-order
    core's one-slot groups) never reads it.
    """

    __slots__ = ("insts", "width", "block_start", "entry_pc", "taken",
                 "context", "pc_limit", "_slots")

    def __init__(self, insts, width, block_start, entry_pc, taken, context,
                 pc_limit=0):
        self.insts = insts
        self.width = width
        self.block_start = block_start
        self.entry_pc = entry_pc
        self.taken = taken
        self.context = context
        self.pc_limit = pc_limit
        self._slots = None

    @property
    def slots(self):
        """The cycle's ``width`` fetch opportunities, in slot order."""
        if self._slots is None:
            self._slots = self._build_slots()
        return self._slots

    def _build_slots(self):
        width = self.width
        if self.block_start is None:
            return (_EMPTY_SLOT,) * width
        slots = []
        pc = self.block_start
        # Opportunities before the entry point hold instructions that are
        # in the fetch block but off the predicted path (section 4.1.1).
        while pc < self.entry_pc:
            slots.append(self._offpath_or_empty(pc))
            pc += INSTRUCTION_BYTES
        for dyninst in self.insts:
            slots.append(inst_slot(dyninst))
        pc += len(self.insts) * INSTRUCTION_BYTES
        if self.taken:
            # Slots after a predicted-taken branch hold off-path
            # instructions from the same block.
            block_end = self.block_start + width * INSTRUCTION_BYTES
            while pc < block_end:
                slots.append(self._offpath_or_empty(pc))
                pc += INSTRUCTION_BYTES
        slots.extend([_EMPTY_SLOT] * (width - len(slots)))
        return tuple(slots)

    def _offpath_or_empty(self, pc):
        # Program.contains_pc against the limit captured at fetch.
        if 0 <= pc < self.pc_limit and pc % INSTRUCTION_BYTES == 0:
            return offpath_slot(pc)
        return _EMPTY_SLOT


class Probe:
    """Base class: overriding any subset of callbacks is fine."""

    def attach(self, core):
        """Called once when the probe is registered with a core."""

    def on_fetch_slots(self, cycle, group):
        """The :class:`FetchGroup` fetched in *cycle*."""

    def on_issue(self, dyninst, cycle):
        """*dyninst* was issued to a functional unit at *cycle*."""

    def on_retire(self, dyninst, cycle):
        """*dyninst* retired (architecturally committed) at *cycle*."""

    def on_abort(self, dyninst, cycle):
        """*dyninst* left the machine without retiring at *cycle*."""

    def on_cycle_end(self, cycle):
        """The core finished simulating *cycle*."""
