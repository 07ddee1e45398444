"""Engine-speed benchmark: simulated cycles/sec vs. attached probes.

Measures the probe-dispatch overhead of the simulation engine on both
cores, with 0, 1, and 3 probes attached, and emits JSON so future PRs
can track engine-speed regressions::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --out engine_throughput.json

Probe mix (chosen to exercise the dispatch fast path):

* ``0 probes`` — the fast path: no observer should cost nothing.
* ``1 probe``  — a *selective* probe overriding only ``on_retire``
  (the shape of a typical event counter).
* ``3 probes`` — selective + a no-override null probe + a probe
  overriding every callback (the shape of ProfileMe + ground truth).
  Its fetch callback takes the cycle's ``FetchGroup`` and never asks
  for ``group.slots``, so no per-slot object is built.

For each configuration the report includes the number of probe-callback
invocations the engine actually performs and the number the legacy
dispatch design (call every probe for every event) would have performed;
the delta is the ProbeBus win.  Event totals are measured once per core
by a calibration probe, so both figures are exact, not sampled.
"""

import argparse
import json
import sys
import time

from repro.cpu.probes import Probe
from repro.harness import make_core
from repro.workloads import suite_program

CALLBACKS = ("on_fetch_slots", "on_issue", "on_retire", "on_abort",
             "on_cycle_end")


class NullProbe(Probe):
    """Overrides nothing: under ProbeBus dispatch it is never called."""


class SelectiveProbe(Probe):
    """Overrides only on_retire — the event-counter shape."""

    def __init__(self):
        self.retired = 0

    def on_retire(self, dyninst, cycle):
        self.retired += 1


class FullProbe(Probe):
    """Overrides every callback; also serves as the event calibrator."""

    def __init__(self):
        self.counts = dict.fromkeys(CALLBACKS, 0)

    def on_fetch_slots(self, cycle, group):
        self.counts["on_fetch_slots"] += 1

    def on_issue(self, dyninst, cycle):
        self.counts["on_issue"] += 1

    def on_retire(self, dyninst, cycle):
        self.counts["on_retire"] += 1

    def on_abort(self, dyninst, cycle):
        self.counts["on_abort"] += 1

    def on_cycle_end(self, cycle):
        self.counts["on_cycle_end"] += 1


def _overridden(probe):
    """Callback names *probe* actually implements (ProbeBus's criterion)."""
    names = []
    for name in CALLBACKS:
        impl = getattr(type(probe), name, None)
        if impl is not None and impl is not getattr(Probe, name):
            names.append(name)
    return names


PROBE_SETS = {
    "0_probes": lambda: [],
    "1_probe": lambda: [SelectiveProbe()],
    "3_probes": lambda: [SelectiveProbe(), NullProbe(), FullProbe()],
}


def _calibrate(program, core_kind):
    """Exact per-callback event counts for one run of *program*."""
    core = make_core(program, core_kind=core_kind)
    calibrator = FullProbe()
    core.add_probe(calibrator)
    core.run()
    return calibrator.counts


def _timed_run(program, core_kind, probes, repeats):
    best = None
    cycles = 0
    for _ in range(repeats):
        core = make_core(program, core_kind=core_kind)
        for probe in probes:
            core.add_probe(probe)
        start = time.perf_counter()
        cycles = core.run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return cycles, best


def _functional_rates(program, repeats):
    """Functional-path throughput: the ceiling on two-speed fast-forward.

    ``interpreter`` is the bare dispatch-table step loop; ``fast_forward``
    adds the shared warm-state models (caches, TLBs, predictor) the
    two-speed engine keeps hot between detailed windows.
    """
    from repro.cpu.warm import WarmState, fast_forward
    from repro.isa.interpreter import Interpreter

    rates = {}
    for label in ("interpreter", "fast_forward"):
        best = None
        retired = 0
        for _ in range(repeats):
            interp = Interpreter(program)
            start = time.perf_counter()
            if label == "interpreter":
                interp.run_to_halt()
            else:
                fast_forward(interp, WarmState(), 10**12)
            elapsed = time.perf_counter() - start
            retired = interp.retired
            best = elapsed if best is None else min(best, elapsed)
        rates[label] = {
            "retired": retired,
            "wall_s": round(best, 6),
            "retired_per_sec": round(retired / best) if best else 0,
        }
    return rates


def run_benchmark(scale=2, repeats=3):
    results = {"workload": "compress", "scale": scale, "cores": {}}
    program = suite_program("compress", scale=scale)
    results["functional"] = _functional_rates(program, repeats)
    for core_kind in ("ooo", "inorder"):
        events = _calibrate(program, core_kind)
        events_total = sum(events.values())
        core_results = {"events": events}
        for label, factory in PROBE_SETS.items():
            probes = factory()
            cycles, elapsed = _timed_run(program, core_kind, probes,
                                         repeats)
            # Legacy dispatch touched every probe for every event; with
            # no probes it still swept every dispatch site once per
            # event.  ProbeBus only calls overridden callbacks and skips
            # empty subscriber lists outright.
            legacy = events_total * max(1, len(probes))
            engine = sum(events[name]
                         for probe in probes
                         for name in _overridden(probe))
            core_results[label] = {
                "probes": len(probes),
                "cycles": cycles,
                "wall_s": round(elapsed, 6),
                "cycles_per_sec": round(cycles / elapsed) if elapsed else 0,
                "callback_invocations": engine,
                "legacy_equivalent_invocations": legacy,
            }
        results["cores"][core_kind] = core_results
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=2,
                        help="workload scale factor")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best is reported)")
    parser.add_argument("--out", help="write the JSON report here")
    args = parser.parse_args(argv)

    results = run_benchmark(scale=args.scale, repeats=args.repeats)
    text = json.dumps(results, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as stream:
            stream.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
