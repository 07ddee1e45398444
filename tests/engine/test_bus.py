"""Tests for ProbeBus subscription and fast-path dispatch."""

from repro.cpu.ooo.core import OutOfOrderCore
from repro.cpu.probes import Probe
from repro.engine.bus import PROBE_CALLBACKS, ProbeBus, probe_overrides

from tests.conftest import counting_loop


class NullProbe(Probe):
    """Overrides nothing."""


class RetireOnly(Probe):
    def __init__(self):
        self.calls = 0

    def on_retire(self, dyninst, cycle):
        self.calls += 1


class FullProbe(Probe):
    def __init__(self):
        self.calls = {name: 0 for name in PROBE_CALLBACKS}

    def on_fetch_slots(self, cycle, group):
        self.calls["on_fetch_slots"] += 1

    def on_issue(self, dyninst, cycle):
        self.calls["on_issue"] += 1

    def on_retire(self, dyninst, cycle):
        self.calls["on_retire"] += 1

    def on_abort(self, dyninst, cycle):
        self.calls["on_abort"] += 1

    def on_cycle_end(self, cycle):
        self.calls["on_cycle_end"] += 1


class DuckProbe:
    """Never subclasses Probe; defines a subset of the interface."""

    def __init__(self):
        self.retired = 0

    def attach(self, core):
        self.core = core

    def on_retire(self, dyninst, cycle):
        self.retired += 1


class TestSubscription:
    def test_null_probe_subscribes_nothing(self):
        bus = ProbeBus()
        bus.subscribe(NullProbe())
        assert bus.fetch_slots == []
        assert bus.issue == []
        assert bus.retire == []
        assert bus.abort == []
        assert bus.cycle_end == []
        assert len(bus.probes) == 1

    def test_partial_override_subscribes_exactly_those(self):
        bus = ProbeBus()
        probe = RetireOnly()
        bus.subscribe(probe)
        assert bus.subscriptions(probe) == ("on_retire",)
        assert bus.retire == [probe.on_retire]
        assert bus.issue == []

    def test_full_override_subscribes_all(self):
        bus = ProbeBus()
        probe = FullProbe()
        bus.subscribe(probe)
        assert bus.subscriptions(probe) == PROBE_CALLBACKS

    def test_duck_typed_probe(self):
        bus = ProbeBus()
        probe = DuckProbe()
        bus.subscribe(probe)
        assert bus.subscriptions(probe) == ("on_retire",)

    def test_instance_level_callback(self):
        probe = NullProbe()
        seen = []
        probe.on_cycle_end = lambda cycle: seen.append(cycle)
        assert probe_overrides(probe, "on_cycle_end")
        bus = ProbeBus()
        bus.subscribe(probe)
        assert bus.cycle_end == [probe.on_cycle_end]

    def test_attach_order_preserved(self):
        bus = ProbeBus()
        first, second = RetireOnly(), RetireOnly()
        bus.subscribe(first)
        bus.subscribe(second)
        assert bus.probes == [first, second]
        assert bus.retire == [first.on_retire, second.on_retire]


class TestDetach:
    def test_detach_removes_probe_and_callbacks(self):
        bus = ProbeBus()
        probe = FullProbe()
        bus.subscribe(probe)
        returned = bus.detach(probe)
        assert returned is probe
        assert bus.probes == []
        for attr in ("fetch_slots", "issue", "retire", "abort", "cycle_end"):
            assert getattr(bus, attr) == []

    def test_detach_keeps_other_probes_in_attach_order(self):
        bus = ProbeBus()
        first, middle, last = RetireOnly(), RetireOnly(), RetireOnly()
        for probe in (first, middle, last):
            bus.subscribe(probe)
        bus.detach(middle)
        assert bus.probes == [first, last]
        assert bus.retire == [first.on_retire, last.on_retire]

    def test_detach_unknown_probe_raises(self):
        bus = ProbeBus()
        bus.subscribe(RetireOnly())
        try:
            bus.detach(RetireOnly())  # never attached
        except ValueError:
            pass
        else:
            raise AssertionError("detach of an unattached probe must raise")

    def test_reattach_after_detach(self):
        bus = ProbeBus()
        probe = RetireOnly()
        bus.subscribe(probe)
        bus.detach(probe)
        bus.subscribe(probe)
        assert bus.probes == [probe]
        assert bus.retire == [probe.on_retire]

    def test_core_remove_probe_restores_fast_path(self):
        """Detaching the last probe returns the core to probe-free timing."""
        bare = OutOfOrderCore(counting_loop(iterations=50))
        bare_cycles = bare.run()

        detached = OutOfOrderCore(counting_loop(iterations=50))
        probe = detached.add_probe(FullProbe())
        detached.remove_probe(probe)
        assert detached.probes == []
        assert detached.run() == bare_cycles
        assert probe.calls["on_retire"] == 0

    def test_detach_mid_run_stops_deliveries(self):
        core = OutOfOrderCore(counting_loop(iterations=50))
        keeper = core.add_probe(RetireOnly())
        victim = core.add_probe(RetireOnly())

        class DetachAt(Probe):
            """Detaches *victim* at a fixed cycle, from inside dispatch."""

            def __init__(self, at):
                self.at = at

            def on_cycle_end(self, cycle):
                if cycle == self.at:
                    core.remove_probe(victim)

        core.add_probe(DetachAt(at=40))
        core.run()
        assert victim.calls < keeper.calls
        assert keeper.calls == core.retired


class TestCoreDispatch:
    def test_selective_probe_only_sees_retires(self, tiny_program):
        core = OutOfOrderCore(tiny_program)
        probe = core.add_probe(RetireOnly())
        core.run()
        assert probe.calls == core.retired

    def test_full_probe_sees_everything(self):
        core = OutOfOrderCore(counting_loop(iterations=50))
        probe = core.add_probe(FullProbe())
        cycles = core.run()
        assert probe.calls["on_cycle_end"] == cycles
        assert probe.calls["on_fetch_slots"] > 0
        assert probe.calls["on_issue"] > 0
        assert probe.calls["on_retire"] == core.retired
        assert probe.calls["on_abort"] == core.aborted

    def test_probe_free_run_matches_probed_run(self):
        """The no-probe fast path must not change machine timing."""
        bare = OutOfOrderCore(counting_loop(iterations=100))
        bare_cycles = bare.run()
        probed = OutOfOrderCore(counting_loop(iterations=100))
        probed.add_probe(FullProbe())
        probed_cycles = probed.run()
        assert bare_cycles == probed_cycles
        assert bare.retired == probed.retired
        assert bare.architectural_registers() \
            == probed.architectural_registers()

    def test_probes_property_compatibility(self, tiny_program):
        core = OutOfOrderCore(tiny_program)
        probe = core.add_probe(RetireOnly())
        assert core.probes == [probe]
