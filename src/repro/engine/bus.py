"""Per-callback probe dispatch.

The cores used to fan out every event with ``for probe in self.probes:
probe.on_x(...)`` — every attached probe paid a call per event even for
callbacks it never overrode, and the fan-out loop itself ran on events
nobody observed.  ``on_fetch_slots`` and ``on_cycle_end`` fire every
cycle, so that overhead sat directly on the simulator's hottest loop.

:class:`ProbeBus` inverts the dispatch: at attach time it inspects which
callbacks the probe actually implements and builds one subscriber list
per callback.  The cores iterate the (usually short, often empty) lists
of bound methods directly; an empty list means the core can skip not
just the dispatch but the *event construction* (e.g. building the
per-cycle :class:`~repro.cpu.probes.FetchGroup` nobody will look at).
This is the subscription-over-core structure mature simulators use for
introspection (cf. the Simics probe framework).
"""

from repro.cpu.probes import Probe

# The complete observation interface, in pipeline order.
PROBE_CALLBACKS = ("on_fetch_slots", "on_issue", "on_retire", "on_abort",
                   "on_cycle_end")

# callback name -> ProbeBus attribute holding its subscriber list.
_LISTS = {
    "on_fetch_slots": "fetch_slots",
    "on_issue": "issue",
    "on_retire": "retire",
    "on_abort": "abort",
    "on_cycle_end": "cycle_end",
}


def probe_overrides(probe, name):
    """True if *probe* provides its own implementation of callback *name*.

    Both class-level overrides (the normal case) and instance-level
    callables are honoured; the no-op stubs on :class:`Probe` do not
    count.  Duck-typed probes that never subclass :class:`Probe` are
    supported: any callable they define is an implementation.
    """
    if name in getattr(probe, "__dict__", {}):
        return callable(getattr(probe, name))
    impl = getattr(type(probe), name, None)
    return impl is not None and impl is not getattr(Probe, name)


class ProbeBus:
    """Subscriber lists for each probe callback, built at attach time.

    The per-callback attributes (``fetch_slots``, ``issue``, ``retire``,
    ``abort``, ``cycle_end``) hold bound methods in attach order; cores
    iterate them directly on the hot path.  ``probes`` preserves the
    full attach-ordered probe list for introspection and compatibility.
    """

    __slots__ = ("probes", "fetch_slots", "issue", "retire", "abort",
                 "cycle_end")

    def __init__(self):
        self.probes = []
        self.fetch_slots = []
        self.issue = []
        self.retire = []
        self.abort = []
        self.cycle_end = []

    def subscribe(self, probe):
        """Register *probe*, wiring only the callbacks it implements."""
        self.probes.append(probe)
        for name, attr in _LISTS.items():
            if probe_overrides(probe, name):
                getattr(self, attr).append(getattr(probe, name))
        return probe

    def detach(self, probe):
        """Unregister *probe*, rebuilding every subscriber list.

        Detach is rare (a one-shot two-speed window probe tearing down,
        a watch session ending) so the lists are rebuilt wholesale from
        the surviving probes — attach order is preserved and the hot
        path keeps iterating plain lists of bound methods.  Detaching a
        probe that was never attached raises ``ValueError``: a double
        detach is a lifecycle bug worth hearing about.
        """
        self.probes.remove(probe)
        for name, attr in _LISTS.items():
            setattr(self, attr, [getattr(p, name) for p in self.probes
                                 if probe_overrides(p, name)])
        return probe

    def subscriptions(self, probe):
        """The callback names *probe* is subscribed to (for tests/tools)."""
        return tuple(name for name in PROBE_CALLBACKS
                     if probe_overrides(probe, name))
