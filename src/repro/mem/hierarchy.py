"""Two-level memory hierarchy: split L1 I/D + unified L2 + flat memory.

Every access returns ``(latency_cycles, events)`` where *events* is a
plain-int bit mask of :class:`~repro.events.Event` flags (int, not enum:
the cores fold these masks into per-instruction event fields millions of
times per run, and IntFlag's operators pay an enum lookup per ``|``);
the cores fold the events into the per-instruction record that ProfileMe
(or an event counter) observes.  Latencies are loosely calibrated to a late-90s Alpha system:
fast L1, ~12-cycle L2, ~80-cycle memory, ~30-cycle software TLB refill.

Warm-state contract: a :class:`MemoryHierarchy` instance is part of the
cross-engine warm state (:class:`repro.cpu.warm.WarmState`) — in
chained two-speed mode the functional fast-forward and the detailed OOO
windows share ONE instance, so all cache/TLB contents and hit/miss
counters accumulate across engine hand-offs; in batched mode each
planned window runs on its own :meth:`MemoryHierarchy.clone`.  The model
is therefore stateful only in ways both engines agree on: replacement
state (:meth:`MemoryHierarchy.resident`) and the counters in
:meth:`MemoryHierarchy.stats`.
"""

from dataclasses import dataclass, field

from repro.events import Event
from repro.mem.cache import Cache, CacheConfig
from repro.mem.tlb import Tlb, TlbConfig

# Raw flag values for the int event masks returned by every access.
_L2_MISS = int(Event.L2_MISS)
_ITB_MISS = int(Event.ITB_MISS)
_ICACHE_MISS = int(Event.ICACHE_MISS)
_DTB_MISS = int(Event.DTB_MISS)
_DCACHE_MISS = int(Event.DCACHE_MISS)

# Attribute names of the stateful units (caches and TLBs).
_UNITS = ("l1i", "l1d", "l2", "itlb", "dtlb")


@dataclass(frozen=True)
class HierarchyConfig:
    """All memory-system geometry and latency parameters."""

    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l1i", size_bytes=64 * 1024, line_bytes=64, associativity=2))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l1d", size_bytes=64 * 1024, line_bytes=64, associativity=2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l2", size_bytes=2 * 1024 * 1024, line_bytes=64,
        associativity=4))
    itlb: TlbConfig = field(default_factory=lambda: TlbConfig(
        name="itlb", entries=64))
    dtlb: TlbConfig = field(default_factory=lambda: TlbConfig(
        name="dtlb", entries=128))

    l1_hit_latency: int = 2  # load-to-use on an L1 hit
    l2_hit_latency: int = 12
    memory_latency: int = 80
    tlb_miss_latency: int = 30  # software-refill style penalty
    ifetch_hit_latency: int = 0  # extra cycles on an L1I hit (pipelined away)


class MemoryHierarchy:
    """Latency/event model shared by both cores."""

    def __init__(self, config=None):
        self.config = config or HierarchyConfig()
        self.l1i = Cache(self.config.l1i)
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        self.itlb = Tlb(self.config.itlb)
        self.dtlb = Tlb(self.config.dtlb)

    # ------------------------------------------------------------------

    def _miss_path(self, addr):
        """L2 lookup shared by I- and D-side L1 misses."""
        if self.l2.access(addr):
            return self.config.l2_hit_latency, 0
        return self.config.memory_latency, _L2_MISS

    def ifetch(self, addr):
        """Instruction fetch at *addr* -> (latency, events).

        Latency 0 means the fetch pipeline absorbs the access (steady-state
        hit); misses stall the fetcher for the returned number of cycles.
        """
        events = 0
        latency = self.config.ifetch_hit_latency
        if not self.itlb.access(addr):
            events |= _ITB_MISS
            latency += self.config.tlb_miss_latency
        if not self.l1i.access(addr):
            events |= _ICACHE_MISS
            extra, more = self._miss_path(addr)
            latency += extra
            events |= more
        return latency, events

    def dread(self, addr):
        """Data load at *addr* -> (latency, events)."""
        events = 0
        latency = self.config.l1_hit_latency
        if not self.dtlb.access(addr):
            events |= _DTB_MISS
            latency += self.config.tlb_miss_latency
        if not self.l1d.access(addr):
            events |= _DCACHE_MISS
            extra, more = self._miss_path(addr)
            latency += extra
            events |= more
        return latency, events

    def dwrite(self, addr):
        """Data store at *addr* -> (latency, events).

        Modelled write-allocate; the returned latency is the tag-check cost
        (stores complete into a write buffer and do not stall retirement).
        """
        events = 0
        latency = 1
        if not self.dtlb.access(addr):
            events |= _DTB_MISS
            latency += self.config.tlb_miss_latency
        if not self.l1d.access(addr):
            events |= _DCACHE_MISS
            _, more = self._miss_path(addr)
            events |= more
        return latency, events

    def stats(self):
        """Aggregate hit/miss counts for reporting."""
        return {name: (getattr(self, name).hits, getattr(self, name).misses)
                for name in _UNITS}

    def resident(self):
        """Resident contents of every unit: cache sets and TLB pages."""
        return {name: getattr(self, name).resident() for name in _UNITS}

    def clone(self):
        """An independent hierarchy with every unit cloned.

        The config (and any field a subclass adds) is shared; caches and
        TLBs are copied, so accesses on either side never reach the other.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        for name in _UNITS:
            setattr(twin, name, getattr(self, name).clone())
        return twin

    def register_probes(self, registry, prefix="mem"):
        """Expose every level under ``mem.<unit>.*``.

        Counters (hits/misses/accesses) plus the derived miss-rate
        fraction per unit; the reads close over the live units, so a
        registry snapshot always reflects the warm shared state.
        """
        for unit_name in _UNITS:
            unit = getattr(self, unit_name)
            base = "%s.%s" % (prefix, unit_name)
            registry.register(base + ".hits",
                              lambda u=unit: u.hits,
                              kind="counter", unit="accesses",
                              description="%s hits" % unit_name)
            registry.register(base + ".misses",
                              lambda u=unit: u.misses,
                              kind="counter", unit="accesses",
                              description="%s misses" % unit_name)
            registry.register(base + ".accesses",
                              lambda u=unit: u.accesses,
                              kind="counter", unit="accesses",
                              description="%s total accesses" % unit_name)
            registry.register(base + ".miss_rate",
                              lambda u=unit: u.miss_rate,
                              kind="fraction", unit="ratio",
                              description="%s misses / accesses"
                              % unit_name)
