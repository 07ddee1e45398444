"""The Fetched Instruction Counter (section 4.1.1).

Software writes a pseudo-random value; the counter decrements as the
fetcher advances, and the instruction (or fetch opportunity) it lands on
is selected for profiling.  Both counting disciplines the paper discusses
are implemented:

* ``CountMode.INSTRUCTIONS`` — decrement once per instruction fetched on
  the predicted control path.  Every selection lands on an instruction,
  but the hardware must handle the variable number (0..fetch_width) of
  predicted-path instructions per cycle.
* ``CountMode.FETCH_OPPORTUNITIES`` — decrement once per fetch opportunity
  (fetch_width per cycle, unconditionally).  Simpler hardware, but a
  selection may land on an off-path instruction or on no instruction at
  all, "effectively reducing the useful sampling rate".

The yield difference between the two modes is quantified by
``benchmarks/bench_ablation_fetch_modes.py``.

The counter is a countdown, so software need not model it slot by slot:
:meth:`FetchedInstructionCounter.skip_ahead` subtracts a whole fetch
group's count (its instructions, or its ``width`` opportunities) in one
step whenever the counter cannot reach zero inside that group.  Only the
group it fires in is walked slot by slot with
:meth:`~FetchedInstructionCounter.tick`, which is what keeps an idle
profiling unit's cost per fetch cycle constant.
"""

import enum

from repro.cpu.probes import SLOT_INST
from repro.errors import ConfigError


class CountMode(enum.Enum):
    """What one counter decrement corresponds to."""

    INSTRUCTIONS = "instructions"
    FETCH_OPPORTUNITIES = "fetch_opportunities"


class FetchedInstructionCounter:
    """Software-writable countdown over the fetch stream."""

    def __init__(self, mode=CountMode.INSTRUCTIONS):
        if not isinstance(mode, CountMode):
            raise ConfigError("mode must be a CountMode, got %r" % (mode,))
        self.mode = mode
        self._counts_insts = mode is CountMode.INSTRUCTIONS
        self._remaining = None  # None = disarmed

    @property
    def armed(self):
        return self._remaining is not None

    def write(self, value):
        """Arm the counter with *value* (the software's random interval)."""
        if value < 1:
            raise ConfigError("counter value must be >= 1, got %r" % (value,))
        self._remaining = value

    def disarm(self):
        self._remaining = None

    def tick(self, slot):
        """Advance over one fetch slot; True if the counter fired on it."""
        if self._remaining is None:
            return False
        if self._counts_insts and slot.kind != SLOT_INST:
            return False
        self._remaining -= 1
        if self._remaining == 0:
            self._remaining = None
            return True
        return False

    def span(self, group):
        """How many of *group*'s slots this counter decrements on."""
        return len(group.insts) if self._counts_insts else group.width

    def fires_in(self, group):
        """True if the counter reaches zero inside fetch *group*."""
        remaining = self._remaining
        return remaining is not None and remaining <= self.span(group)

    def skip_ahead(self, group):
        """Advance over all of fetch *group* in one step, if it can.

        Returns True when the counter did not reach zero inside the
        group and has been decremented past it (a disarmed counter skips
        trivially).  Returns False, leaving the counter untouched, when
        it fires inside the group: the caller then walks
        ``group.slots`` with :meth:`tick` to find the selected slot.
        """
        remaining = self._remaining
        if remaining is None:
            return True
        count = self.span(group)
        if remaining <= count:
            return False
        self._remaining = remaining - count
        return True
