"""Program container: an instruction image plus initial data memory.

Mutation contract: a :class:`Program` is *mostly* immutable — transforms
(`repro.analysis.optimize`) build new Program objects — but a handful of
in-place mutators exist for live patching (PGO applying a layout to a
program a long-running session is already executing).  Every mutator is
decorated with :func:`_mutator`, which (a) registers its name in
``Program.MUTATING_APIS`` and (b) bumps ``Program.version`` after the
call.  Consumers that cache decoded forms of the instruction image (the
decoded-block trace cache in ``repro.cpu.tracecache``) revalidate
against ``version`` and drop their cache on any change.  Mutating the
instruction image *without* going through a registered mutator (e.g.
assigning to ``program.instructions[i]`` directly) is a contract
violation; ``tests/cpu/test_tracecache_invalidation.py`` gates, via AST
introspection, that every method writing ``self`` state is registered.
"""

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ProgramError
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction

# Names of every registered in-place mutator (populated by @_mutator).
_MUTATING_APIS = []


def _mutator(fn):
    """Register *fn* as a mutating Program API; bump ``version`` after it.

    The bump happens in a ``finally`` so a mutator that raises halfway
    still invalidates downstream caches — over-invalidation is safe,
    a stale decoded block is not.
    """
    _MUTATING_APIS.append(fn.__name__)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        try:
            return fn(self, *args, **kwargs)
        finally:
            self.version += 1

    return wrapper


@dataclass
class Program:
    """A linked program ready for simulation.

    Attributes:
        instructions: instruction image; the instruction at index ``i`` has
            PC ``4 * i``.
        labels: label name -> byte address.
        initial_memory: word-aligned byte address -> 64-bit value, used to
            seed data memory before execution.
        entry: byte address of the first instruction to execute.
        name: optional human-readable name (used in reports).
    """

    instructions: List[Instruction]
    labels: Dict[str, int] = field(default_factory=dict)
    initial_memory: Dict[int, int] = field(default_factory=dict)
    entry: int = 0
    name: str = "anonymous"
    functions: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    # Monotonic mutation counter; bumped by every @_mutator call.  Not
    # part of equality/repr: two programs with the same image are the
    # same program regardless of their patch history.
    version: int = field(default=0, init=False, repr=False, compare=False)

    # Public registry of every in-place mutating API (see module
    # docstring); the trace-cache gating test enumerates this.
    MUTATING_APIS = _MUTATING_APIS

    def __post_init__(self):
        if not self.instructions:
            raise ProgramError("program has no instructions")
        if self.entry % INSTRUCTION_BYTES != 0:
            raise ProgramError("entry point %#x is not instruction-aligned"
                               % self.entry)
        if not self.contains_pc(self.entry):
            raise ProgramError("entry point %#x is outside the program"
                               % self.entry)

    def __len__(self):
        return len(self.instructions)

    @property
    def pc_limit(self):
        """One past the last valid PC (byte address)."""
        return len(self.instructions) * INSTRUCTION_BYTES

    def contains_pc(self, pc):
        """True if *pc* addresses an instruction in this program."""
        return 0 <= pc < self.pc_limit and pc % INSTRUCTION_BYTES == 0

    def fetch(self, pc):
        """Return the instruction at byte address *pc*.

        Raises ProgramError for out-of-range or misaligned addresses; the
        cores use :meth:`fetch_or_nop` on speculative (possibly garbage)
        paths instead.
        """
        inst = self.fetch_or_none(pc)
        if inst is None:
            raise ProgramError("PC %#x is not a valid instruction address" % pc)
        return inst

    def fetch_or_none(self, pc):
        """Return the instruction at *pc*, or None if *pc* is invalid.

        Wrong-path fetches may chase garbage indirect-jump targets; real
        hardware would take an access fault, which (like any other abort)
        simply kills the speculative instructions.  Returning None lets the
        fetcher model that without raising.

        The OOO core calls this once per fetched instruction, so the
        :meth:`contains_pc` test is inlined here.
        """
        if pc < 0 or pc % INSTRUCTION_BYTES:
            return None
        index = pc // INSTRUCTION_BYTES
        instructions = self.instructions
        if index >= len(instructions):
            return None
        return instructions[index]

    def function_of_pc(self, pc):
        """Return the name of the function containing *pc*, or None.

        Function extents are recorded by the program builder; workloads in
        this package always declare them, which is what makes the
        interprocedural path analysis (Figure 6, right panel) possible
        without binary-level symbol recovery.
        """
        for name, (start, end) in self.functions.items():
            if start <= pc < end:
                return name
        return None

    def function_entry(self, pc):
        """Return the entry PC of the function containing *pc*, or None."""
        for start, end in self.functions.values():
            if start <= pc < end:
                return start
        return None

    def pc_of_label(self, label):
        """Resolve *label* to its byte address."""
        try:
            return self.labels[label]
        except KeyError:
            raise ProgramError("unknown label %r" % (label,)) from None

    def label_of_pc(self, pc):
        """Return the (first) label at *pc*, or None."""
        for name, addr in self.labels.items():
            if addr == pc:
                return name
        return None

    def listing(self) -> List[Tuple[int, str]]:
        """Return [(pc, disassembly), ...] for the whole program."""
        rows = []
        for index, inst in enumerate(self.instructions):
            rows.append((index * INSTRUCTION_BYTES, inst.disassemble()))
        return rows

    # ------------------------------------------------------------------
    # In-place mutation (see module docstring for the cache contract).

    @_mutator
    def note_mutation(self):
        """Explicitly invalidate cached decoded state.

        The escape hatch for callers that mutated program state outside
        the registered APIs (tests, REPL surgery): calling this bumps
        ``version`` so every decoded-block cache drops its blocks.
        """

    @_mutator
    def patch(self, pc, instruction):
        """Replace the instruction at byte address *pc* in place."""
        if not self.contains_pc(pc):
            raise ProgramError("patch at invalid PC %#x" % pc)
        if not isinstance(instruction, Instruction):
            raise ProgramError("patch needs an Instruction, got %r"
                               % (instruction,))
        self.instructions[pc // INSTRUCTION_BYTES] = instruction

    @_mutator
    def replace_instructions(self, instructions):
        """Swap in a whole new instruction image in place.

        The live-patch variant of building a new Program: a PGO pass can
        apply a transformed image to a program object other components
        (interpreter, caches, service sessions) already hold references
        to.  The entry point must remain valid in the new image.
        """
        instructions = list(instructions)
        if not instructions:
            raise ProgramError("program has no instructions")
        limit = len(instructions) * INSTRUCTION_BYTES
        if not 0 <= self.entry < limit:
            raise ProgramError("entry point %#x is outside the new image"
                               % self.entry)
        self.instructions[:] = instructions

    @_mutator
    def add_label(self, name, pc):
        """Attach label *name* to byte address *pc* in place."""
        if not self.contains_pc(pc):
            raise ProgramError("label %r at invalid PC %#x" % (name, pc))
        self.labels[name] = pc

    def dump(self):
        """Return a printable listing with labels, for debugging."""
        by_pc = {}
        for name, addr in self.labels.items():
            by_pc.setdefault(addr, []).append(name)
        lines = []
        for pc, text in self.listing():
            for name in by_pc.get(pc, []):
                lines.append("%s:" % name)
            lines.append("  %#06x  %s" % (pc, text))
        return "\n".join(lines)
