"""Ground-truth collection: what the simulator knows exactly.

The paper evaluates ProfileMe's estimators by comparing sampled estimates
against exact counts from a cycle-accurate simulator (Figure 3, Figure 7).
``GroundTruthCollector`` is a probe that records those exact quantities:

* per-PC fetch/retire/abort counts and event counts (Figure 3 truth);
* optionally, per-cycle counts of issued instructions that eventually
  retire, and per-PC in-progress intervals (exact wasted-issue-slot
  computation for Figure 7);
* optionally, the retire-cycle series (windowed IPC, section 6).

It is *measurement infrastructure*, not part of the ProfileMe proposal:
nothing in ``repro.profileme`` reads it.
"""

from dataclasses import dataclass, field
from typing import Dict

from repro.cpu.probes import Probe
from repro.events import Event

# The event kinds tracked per PC (a dict per PC would be slow).
TRACKED_EVENTS = (
    Event.DCACHE_MISS,
    Event.ICACHE_MISS,
    Event.DTB_MISS,
    Event.ITB_MISS,
    Event.L2_MISS,
    Event.BRANCH_TAKEN,
    Event.MISPREDICT,
    Event.STORE_FORWARD,
)


@dataclass
class PcTruth:
    """Exact per-static-instruction counters."""

    fetched: int = 0
    retired: int = 0
    aborted: int = 0
    events: Dict[Event, int] = field(default_factory=dict)
    latency_sum: int = 0  # fetch -> retire-ready, retired instructions
    latency_count: int = 0

    def count_event(self, flag):
        return self.events.get(flag, 0)


class GroundTruthCollector(Probe):
    """Exact per-PC statistics plus optional time series."""

    def __init__(self, collect_intervals=False, collect_retire_series=False,
                 collect_issue_series=False):
        self.per_pc = {}
        self.collect_intervals = collect_intervals
        self.collect_retire_series = collect_retire_series
        self.collect_issue_series = collect_issue_series

        self.intervals = {}  # pc -> [(fetch_cycle, retire_ready_cycle)]
        self.retire_series = {}  # cycle -> retired count
        self.issued_retired_series = {}  # issue cycle -> eventually-retired count
        self.total_fetched = 0
        self.total_retired = 0
        self.total_aborted = 0

    def _truth(self, pc):
        truth = self.per_pc.get(pc)
        if truth is None:
            truth = PcTruth()
            self.per_pc[pc] = truth
        return truth

    # ------------------------------------------------------------------

    def on_fetch_slots(self, cycle, group):
        insts = group.insts
        for dyninst in insts:
            self._truth(dyninst.pc).fetched += 1
        self.total_fetched += len(insts)

    def _record_done(self, dyninst):
        truth = self._truth(dyninst.pc)
        events = dyninst.events
        for flag in TRACKED_EVENTS:
            if events & flag:
                truth.events[flag] = truth.events.get(flag, 0) + 1
        return truth

    def on_retire(self, dyninst, cycle):
        truth = self._record_done(dyninst)
        truth.retired += 1
        self.total_retired += 1
        in_progress = dyninst.fetch_to_retire_ready
        if in_progress is not None:
            truth.latency_sum += in_progress
            truth.latency_count += 1
        if self.collect_retire_series:
            self.retire_series[cycle] = self.retire_series.get(cycle, 0) + 1
        if self.collect_issue_series and dyninst.issue_cycle is not None:
            issue = dyninst.issue_cycle
            self.issued_retired_series[issue] = (
                self.issued_retired_series.get(issue, 0) + 1)
        if self.collect_intervals and in_progress is not None:
            self.intervals.setdefault(dyninst.pc, []).append(
                (dyninst.fetch_cycle, dyninst.exec_complete_cycle))

    def on_abort(self, dyninst, cycle):
        truth = self._record_done(dyninst)
        truth.aborted += 1
        self.total_aborted += 1

    # ------------------------------------------------------------------
    # Exact metrics.

    def wasted_issue_slots(self, pc, issue_width):
        """Exact wasted issue slots while instances of *pc* were in progress.

        For each retired instance, counts ``issue_width`` slots per cycle
        of its [fetch, retire-ready) interval minus the issue slots used
        during that interval by instructions that eventually retired.
        Requires collect_intervals and collect_issue_series.
        """
        if not (self.collect_intervals and self.collect_issue_series):
            raise ValueError("enable collect_intervals and "
                             "collect_issue_series to compute exact waste")
        used = 0
        available = 0
        for start, end in self.intervals.get(pc, ()):
            available += issue_width * (end - start)
            for cyc in range(start, end):
                used += self.issued_retired_series.get(cyc, 0)
        return available - used

    def windowed_ipc(self, window_cycles, end_cycle=None):
        """Retired-instruction counts per fixed window (section 6).

        Returns a list of per-window IPC values from the retire series.
        """
        if not self.collect_retire_series:
            raise ValueError("enable collect_retire_series for windowed IPC")
        if not self.retire_series:
            return []
        last = end_cycle if end_cycle is not None else max(self.retire_series)
        windows = [0] * (last // window_cycles + 1)
        for cycle, count in self.retire_series.items():
            if cycle <= last:
                windows[cycle // window_cycles] += count
        return [count / window_cycles for count in windows]
