"""Differential test: the skip-ahead ProfileMe unit vs a per-slot walk.

:meth:`ProfileMeUnit.on_fetch_slots` skips every fetch group in which
neither the major nor the minor Fetched Instruction Counter can fire,
and walks slot by slot only where one does.  That is an optimisation of
the hardware model, not a change to it: on any stream of fetch groups
it must select the same slots, in the same order, and deliver the same
records as the plain per-slot countdown.  The reference below is that
plain walk — it ticks both counters on every slot of every group, the
way the section 4.1.1 hardware decrements them.

Hypothesis draws random fetch-group streams (stalled cycles, off-path
block prefixes, taken branches, slots past the program's end, two
hardware contexts) with random retire/abort timing, in both count
modes, for group sizes 1-3, one or two register sets, and the one-shot
``arm_major_at`` mode the two-speed scheduler uses.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu.dynops import DynInst
from repro.cpu.probes import FetchGroup
from repro.events import AbortReason, Event
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import Opcode
from repro.profileme.fetch_counter import CountMode
from repro.profileme.unit import ProfileMeConfig, ProfileMeUnit

_NOP = Instruction(op=Opcode.NOP)


class _LoggingUnit(ProfileMeUnit):
    """Logs every member selection: (cycle, ordinal, slot kind, pc, ctx)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.selection_log = []

    def _select_member(self, group, slot, cycle, context):
        self.selection_log.append((cycle, group.selections, slot.kind,
                                   slot.pc, context))
        super()._select_member(group, slot, cycle, context)


class SkipAheadUnit(_LoggingUnit):
    """The unit under test, unchanged apart from the selection log."""


class PerSlotUnit(_LoggingUnit):
    """Reference: tick both counters on every slot of every fetch group."""

    def on_fetch_slots(self, cycle, fetch):
        for slot in fetch.slots:
            if self.minor.armed and self.minor.tick(slot):
                self._select_member(self._selecting_group, slot, cycle,
                                    fetch.context)
            if self.major.tick(slot):
                self.stats.selections += 1
                if (len(self._groups) >= self.config.register_sets
                        or self._selecting_group is not None):
                    self.stats.dropped_busy += 1
                else:
                    self._start_group(slot, cycle, fetch.context)
                if self.auto_rearm:
                    self._arm_major()


@st.composite
def fetch_streams(draw):
    """A width and a list of per-cycle fetch-group descriptions."""
    width = draw(st.sampled_from([1, 2, 4]))
    cycles = []
    for index in range(draw(st.integers(min_value=1, max_value=60))):
        context = draw(st.integers(min_value=0, max_value=1))
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            cycles.append(("stall", context))
            continue
        prefix = draw(st.integers(min_value=0, max_value=width - 1))
        count = draw(st.integers(min_value=0, max_value=width - prefix))
        taken = count > 0 and draw(st.booleans())
        # Where the program ends inside this block: beyond it the block
        # holds nothing (empty slots) rather than off-path instructions.
        end = draw(st.integers(min_value=prefix + count, max_value=width))
        insts = [(draw(st.integers(min_value=0, max_value=12)),
                  draw(st.integers(min_value=0, max_value=5)) == 0)
                 for _ in range(count)]  # (completion delay, aborts?)
        cycles.append(("fetch", context, index, prefix, insts, taken, end))
    return width, cycles


def _drive(unit, width, cycles, arms):
    """Feed one fetch stream to *unit*; returns the delivered samples."""
    delivered = []
    unit.handler = delivered.extend
    unit.attach(None)
    block_bytes = width * INSTRUCTION_BYTES
    done_at = {}  # cycle -> [(dyninst, aborts)]
    seq = 0
    for cycle, entry in enumerate(cycles + [None] * 14):
        for dyninst, aborts in done_at.pop(cycle, []):
            if aborts:
                dyninst.events |= int(Event.ABORTED | Event.BAD_PATH)
                dyninst.abort_reason = AbortReason.MISPREDICT_SQUASH
                unit.on_abort(dyninst, cycle)
            else:
                dyninst.retire_cycle = cycle
                dyninst.events |= int(Event.RETIRED)
                unit.on_retire(dyninst, cycle)
        if cycle in arms:
            unit.arm_major_at(arms[cycle])
        if entry is not None and entry[0] == "stall":
            unit.on_fetch_slots(cycle, FetchGroup((), width, None, None,
                                                  False, entry[1]))
        elif entry is not None:
            _, context, index, prefix, insts, taken, end = entry
            block_start = index * block_bytes
            entry_pc = block_start + prefix * INSTRUCTION_BYTES
            group_insts = []
            for offset, (delay, aborts) in enumerate(insts):
                dyninst = DynInst(seq=seq, pc=entry_pc
                                  + offset * INSTRUCTION_BYTES,
                                  inst=_NOP, fetch_cycle=cycle,
                                  context=context)
                seq += 1
                group_insts.append(dyninst)
                done_at.setdefault(cycle + 1 + delay, []).append(
                    (dyninst, aborts))
            unit.on_fetch_slots(cycle, FetchGroup(
                group_insts, width, block_start, entry_pc, taken, context,
                block_start + end * INSTRUCTION_BYTES))
        unit.on_cycle_end(cycle)
    unit.finalize()
    return delivered


configs = st.builds(
    ProfileMeConfig,
    mean_interval=st.integers(min_value=1, max_value=24),
    jitter=st.sampled_from([0.0, 0.5, 0.9]),
    distribution=st.sampled_from(["uniform", "geometric"]),
    mode=st.sampled_from(list(CountMode)),
    group_size=st.integers(min_value=1, max_value=3),
    pair_window=st.integers(min_value=1, max_value=12),
    register_sets=st.integers(min_value=1, max_value=2),
    buffer_depth=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)

# One-shot mode: software arms the major counter at chosen cycles.
one_shot_arms = st.one_of(
    st.none(),
    st.dictionaries(st.integers(min_value=0, max_value=60),
                    st.integers(min_value=1, max_value=20), max_size=6))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=configs, stream=fetch_streams(), arms=one_shot_arms)
def test_skip_ahead_matches_per_slot_walk(config, stream, arms):
    width, cycles = stream
    auto_rearm = arms is None
    units = [cls(config, auto_rearm=auto_rearm)
             for cls in (SkipAheadUnit, PerSlotUnit)]
    fast, reference = units
    delivered = [_drive(unit, width, cycles, arms or {}) for unit in units]

    assert fast.selection_log == reference.selection_log
    assert delivered[0] == delivered[1]
    assert fast.stats == reference.stats
    assert fast.major.armed == reference.major.armed
    assert fast._next_tag == reference._next_tag


def test_differential_reaches_every_selection_kind():
    """Both units agree on a stream whose selections hit every slot kind."""
    config = ProfileMeConfig(mean_interval=3, jitter=0.0, group_size=3,
                             pair_window=2,
                             mode=CountMode.FETCH_OPPORTUNITIES, seed=3)
    cycles = [("fetch", index % 2, index, 1, [(2, index % 3 == 0)], True, 3)
              for index in range(30)]
    cycles[7] = ("stall", 1)
    units = [cls(config) for cls in (SkipAheadUnit, PerSlotUnit)]
    delivered = [_drive(unit, 4, cycles, {}) for unit in units]
    assert delivered[0] == delivered[1]
    assert units[0].selection_log == units[1].selection_log
    stats = units[0].stats
    assert stats.tagged and stats.offpath_selections and stats.empty_selections
