"""The shared core skeleton: run loop, limits, and probe plumbing.

Every machine model subclasses :class:`CoreBase` and implements
:meth:`~CoreBase.advance` — its smallest schedulable step (one clock
cycle for the cycle-driven cores, one instruction for the greedy
in-order timing model).  Everything around that step is owned here:

* probe registration through a :class:`~repro.engine.bus.ProbeBus`;
* the run loop with ``max_cycles`` / ``max_retired`` limits;
* deadlock detection (retire-free cycle stretches raise loudly);
* fetch-stall requests (the profiling-interrupt cost model);
* resumable ``drain=False`` stepping for time-sliced scheduling.

Subclasses own their stage state and statistics (``halted``, ``fetched``,
``retired``, ``aborted``, ``mispredicts``) — aggregate machines like the
SMT model expose some of these as properties over their member cores,
which is why :class:`CoreBase` never assigns them itself.
"""

from repro.engine.bus import ProbeBus
from repro.errors import SimulationError


class CoreBase:
    """Common machinery for every execution substrate."""

    def __init__(self, config, context=0, bus=None):
        self.config = config
        self.context = context  # hardware context id (SMT thread / process)
        # A machine built from member cores (SMT) hands them its own bus,
        # so every member publishes straight to the machine's observers.
        self.bus = ProbeBus() if bus is None else bus
        self.cycle = 0
        self.next_seq = 0
        self.fetch_stall_until = 0
        self._last_retire_cycle = 0
        self._probe_registry = None  # built lazily by probe_registry()

    # ------------------------------------------------------------------
    # Observation.

    @property
    def probes(self):
        """All attached probes, in attach order."""
        return self.bus.probes

    def add_probe(self, probe):
        """Register a profiling/measurement probe."""
        self.bus.subscribe(probe)
        probe.attach(self)
        return probe

    def remove_probe(self, probe):
        """Detach *probe*, rebuilding the bus subscriber lists."""
        return self.bus.detach(probe)

    def probe_registry(self):
        """The core's introspection registry, built on first request.

        An unobserved machine never constructs it — the registry is the
        observation plane, not part of the machine — so the no-probe
        fast path stays untouched.  Providers beyond the core itself
        (counters, the ProfileMe unit, the service) register onto this
        same instance so one ``repro probes list`` sees everything.
        """
        if self._probe_registry is None:
            from repro.probes.registry import ProbeRegistry
            self._probe_registry = ProbeRegistry()
            self._register_probes(self._probe_registry)
        return self._probe_registry

    def _register_probes(self, registry):
        """Register this machine's full probe subtree.

        The default covers a single-context machine: the common core
        stats, the model-specific pipeline gauges, and the attached
        memory hierarchy / branch predictor (registered once, under
        their own global prefixes).  Aggregate machines (SMT) override
        this wholesale.
        """
        self._register_core_probes(registry)
        self._register_pipeline_probes(registry)
        hierarchy = getattr(self, "hierarchy", None)
        if hierarchy is not None:
            hierarchy.register_probes(registry)
        predictor = getattr(self, "predictor", None)
        if predictor is not None:
            predictor.register_probes(registry)

    def _register_core_probes(self, registry):
        """The ``cpu<ctx>.core.*`` subtree every model exposes identically."""
        prefix = "cpu%d.core" % self.context
        registry.register(prefix + ".cycles", lambda: self.cycle,
                          kind="counter", unit="cycles",
                          description="cycles simulated")
        registry.register(prefix + ".retired", lambda: self.retired,
                          kind="counter", unit="instructions",
                          description="instructions retired")
        registry.register(prefix + ".fetched", lambda: self.fetched,
                          kind="counter", unit="instructions",
                          description="instructions fetched")
        registry.register(prefix + ".aborted", lambda: self.aborted,
                          kind="counter", unit="instructions",
                          description="instructions aborted (squashed)")
        registry.register(prefix + ".mispredicts", lambda: self.mispredicts,
                          kind="counter", unit="branches",
                          description="mispredicted branches")
        registry.register(prefix + ".ipc", lambda: self.ipc,
                          kind="gauge", unit="instructions/cycle",
                          description="retired instructions per cycle")
        registry.register(prefix + ".halted", lambda: int(self.halted),
                          kind="gauge", unit="bool",
                          description="1 when the machine has halted")

    def _register_pipeline_probes(self, registry):
        """Model-specific structure gauges; the base model has none."""

    def request_fetch_stall(self, cycles):
        """Stall instruction fetch for *cycles* (profiling-interrupt cost)."""
        self.fetch_stall_until = max(self.fetch_stall_until,
                                     self.cycle + cycles)

    # ------------------------------------------------------------------
    # Run loop.

    def advance(self):
        """Advance the simulation by one schedulable step."""
        raise NotImplementedError

    def run(self, max_cycles=None, max_retired=None, deadlock_limit=20000,
            drain=True):
        """Simulate until the machine halts or a limit is reached.

        Returns the number of cycles simulated.  *deadlock_limit* bounds
        retire-free cycle stretches and turns scheduler bugs into loud
        failures rather than hangs (``None`` disables the check).  With
        ``drain=False`` in-flight instructions are left intact so the
        simulation can be resumed (time-sliced scheduling); architectural
        state is then only valid after a final draining run.
        """
        start_cycle = self.cycle
        while not self.halted:
            if (max_cycles is not None
                    and self.cycle - start_cycle >= max_cycles):
                break
            if max_retired is not None and self.retired >= max_retired:
                break
            self.advance()
            if (deadlock_limit is not None
                    and self.cycle - self._last_retire_cycle
                    > deadlock_limit):
                raise SimulationError(
                    self._deadlock_message(deadlock_limit))
        if drain:
            self._drain()
        return self.cycle - start_cycle

    def _deadlock_message(self, deadlock_limit):
        return ("no instruction retired for %d cycles at cycle %d"
                % (deadlock_limit, self.cycle))

    def _drain(self):
        """Dispose of in-flight state when the simulation stops."""

    # ------------------------------------------------------------------
    # Statistics.

    @property
    def ipc(self):
        if self.cycle == 0:
            return 0.0
        return self.retired / self.cycle
