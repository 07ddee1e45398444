"""Tests for the Fetched Instruction Counter."""

import pytest

from repro.cpu.probes import FetchGroup
from repro.errors import ConfigError
from repro.profileme.fetch_counter import (CountMode,
                                           FetchedInstructionCounter)


class _FakeDyn:
    def __init__(self, pc):
        self.pc = pc


def _group(pattern):
    """A fetch group whose slots follow *pattern*: i=inst, o=offpath, e=empty.

    Off-path slots before the instructions are the block prefix below
    the entry PC; off-path slots after them follow a predicted-taken
    branch; trailing empties lie past the program's end.  An all-empty
    pattern is a stalled fetch cycle.
    """
    width = len(pattern)
    if set(pattern) == {"e"}:
        group = FetchGroup((), width, None, None, False, 0, 0)
    else:
        count = pattern.count("i")
        entry = pattern.index("i") if count else width
        suffix = pattern[entry + count:]
        limit = 4 * len(pattern.rstrip("e"))
        insts = [_FakeDyn(4 * (entry + k)) for k in range(count)]
        group = FetchGroup(insts, width, 0, 4 * entry, suffix[:1] == "o", 0,
                           limit)
    kinds = "".join(slot.kind[0] for slot in group.slots)
    assert kinds == pattern, "unrealisable fetch pattern %r" % pattern
    return group


def _consume(counter, group):
    """Skip ahead over *group*, or walk it when the counter fires inside.

    Returns the index of the selected slot, or None if the counter did
    not reach zero in this group.
    """
    if counter.skip_ahead(group):
        return None
    for index, slot in enumerate(group.slots):
        if counter.tick(slot):
            return index
    raise AssertionError("skip_ahead refused a group the counter skips")


class TestInstructionMode:
    def test_counts_only_instructions(self):
        counter = FetchedInstructionCounter(CountMode.INSTRUCTIONS)
        counter.write(3)
        assert _consume(counter, _group("ioe")) is None  # 1 counted
        assert _consume(counter, _group("oie")) is None  # 1 counted
        assert _consume(counter, _group("iiii")) == 0  # 3rd instruction

    def test_never_selects_offpath_or_empty(self):
        counter = FetchedInstructionCounter(CountMode.INSTRUCTIONS)
        counter.write(1)
        assert _consume(counter, _group("ooee")) is None
        index = _consume(counter, _group("oi"))
        assert index == 1

    def test_disarmed_after_fire(self):
        counter = FetchedInstructionCounter(CountMode.INSTRUCTIONS)
        counter.write(1)
        assert _consume(counter, _group("i")) == 0
        assert not counter.armed
        assert _consume(counter, _group("iiii")) is None


class TestOpportunityMode:
    def test_counts_every_slot(self):
        counter = FetchedInstructionCounter(CountMode.FETCH_OPPORTUNITIES)
        counter.write(6)
        assert _consume(counter, _group("iiii")) is None  # 4 counted
        assert _consume(counter, _group("ooii")) == 1  # lands on offpath

    def test_can_select_empty_slot(self):
        counter = FetchedInstructionCounter(CountMode.FETCH_OPPORTUNITIES)
        counter.write(2)
        assert _consume(counter, _group("ie")) == 1


class TestValidation:
    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            FetchedInstructionCounter("instructions")

    def test_rejects_nonpositive_value(self):
        counter = FetchedInstructionCounter()
        with pytest.raises(ConfigError):
            counter.write(0)

    def test_disarm(self):
        counter = FetchedInstructionCounter()
        counter.write(5)
        counter.disarm()
        assert _consume(counter, _group("iiii")) is None


class TestSkipAhead:
    def test_skips_whole_group_in_one_step(self):
        counter = FetchedInstructionCounter(CountMode.INSTRUCTIONS)
        counter.write(5)
        assert counter.span(_group("oii")) == 2
        assert counter.skip_ahead(_group("oii"))
        assert not counter.fires_in(_group("iie"))
        assert counter.fires_in(_group("iii"))  # 3 left, 3 counted

    def test_refuses_firing_group_and_leaves_counter_untouched(self):
        counter = FetchedInstructionCounter(CountMode.FETCH_OPPORTUNITIES)
        counter.write(4)
        assert not counter.skip_ahead(_group("iiii"))
        assert counter.armed
        assert _consume(counter, _group("iiii")) == 3

    def test_opportunity_mode_counts_width_even_when_stalled(self):
        counter = FetchedInstructionCounter(CountMode.FETCH_OPPORTUNITIES)
        counter.write(5)
        assert counter.span(_group("eeee")) == 4
        assert counter.skip_ahead(_group("eeee"))
        assert _consume(counter, _group("eeee")) == 0

    def test_instruction_mode_skips_stalled_cycles_for_free(self):
        counter = FetchedInstructionCounter(CountMode.INSTRUCTIONS)
        counter.write(1)
        for _ in range(10):
            assert counter.skip_ahead(_group("eeee"))
        assert _consume(counter, _group("oi")) == 1

    def test_disarmed_counter_always_skips(self):
        counter = FetchedInstructionCounter()
        assert counter.skip_ahead(_group("iiii"))
        assert not counter.fires_in(_group("iiii"))
        assert not counter.armed
