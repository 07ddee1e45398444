"""Shared plumbing: host calibration, memory, percentiles, spans, results.

Nothing here imports ``repro``: ``run.py`` must be able to fail cleanly
(non-zero exit, no result line) in a directory that holds only the
benchmark, and the setup-time children must time the ``repro`` imports
themselves.
"""

import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

# A fixed pure-Python loop measures how fast the host runs the
# interpreter right now.  ``host.calib_loop_per_s`` reports it around a
# run; short chunks of it around every measured interval scale host
# times to a reference host (see ``host_speed``).  Every reading of this
# process is kept, so a run can report its mean (``host.speed``).
SPEEDS = []
CALIB_ITERATIONS = 300_000
CHUNK_ITERATIONS = 20_000
# Loop speed of the reference host that reported times are scaled to
# (the 2-core x86-64 host, CPython 3.11, this benchmark was tuned on).
REFERENCE_LOOP_PER_S = 6.5e6


def loop_per_s(iterations):
    """Iterations per second of one pass of the calibration loop."""
    table = {}
    acc = 0
    start = time.perf_counter()
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = i
    return iterations / (time.perf_counter() - start)


def calib_loop_per_s():
    """Calibration loop speed, best of 3 passes (diagnostic)."""
    return max(loop_per_s(CALIB_ITERATIONS) for _ in range(3))


def host_speed():
    """Host speed now, relative to the reference host (>1 is faster).

    The shared host's speed drifts by tens of percent within a minute;
    multiplying an interval's wall time by the mean speed measured just
    before and just after it gives the interval in reference-host
    seconds, which is what every end-to-end time metric reports.  The
    loop runs in the measured process, so a slowdown of that whole
    process (a trace hook, a sampling timer, a thread holding the GIL)
    slows it too and cancels; the raw wall figures each run keeps next
    to the scaled ones show it.
    """
    speed = loop_per_s(CHUNK_ITERATIONS) / REFERENCE_LOOP_PER_S
    SPEEDS.append(speed)
    return speed


def mean_host_speed():
    """Mean of this process's ``host_speed`` readings (1.0 if none)."""
    return sum(SPEEDS) / len(SPEEDS) if SPEEDS else 1.0


def values(pairs, scaled):
    """The values of ``(raw wall value, host speed factor)`` pairs, raw
    or scaled to reference-host time."""
    return [value * factor if scaled else value for value, factor in pairs]


def time_unit(name):
    """Unit of an end-to-end time metric, from its name's suffix."""
    for suffix, unit in (("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError("not a time metric: %s" % name)


def self_peak_rss_mb():
    """Peak resident set of this process, in MB (Linux: ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open("/proc/%d/status" % pid) as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM for pid %d" % pid)


def child_pids(pid):
    """Direct children of a live process (Linux /proc)."""
    pids = []
    task_dir = "/proc/%d/task" % pid
    for task in os.listdir(task_dir):
        with open(os.path.join(task_dir, task, "children")) as stream:
            pids.extend(int(token) for token in stream.read().split())
    return pids


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(round(fraction * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def child_env():
    """Environment for child interpreters: ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def reference_time(function):
    """``(result, reference-host seconds)`` of one call."""
    before = host_speed()
    start = time.perf_counter()
    result = function()
    wall = time.perf_counter() - start
    return result, wall * (before + host_speed()) / 2


def measure_setup(workload, repeats):
    """Set-up time over *repeats* fresh child interpreters.

    Each child (``setup_child.py``) imports ``repro`` and builds the
    workload's programs once its interpreter is up, and reports that as
    ``(wall seconds, host speed factor)``; interpreter spawn is
    excluded.  Returns the list of those pairs.
    """
    setups = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), workload],
            env=child_env(), capture_output=True, text=True, timeout=120,
            check=True)
        reply = json.loads(out.stdout.strip().splitlines()[-1])
        setups.append((reply["wall"], reply["factor"]))
    return setups


class Tracer:
    """In-memory spans around calls into the program's public functions.

    A span is ``(name, start, end, parent index)``; spans nest through a
    stack (the benchmark's timed loops are single-threaded).  ``wrap``
    swaps a module or class attribute for a timing wrapper and
    ``restore`` puts every original back.  A disabled tracer records
    nothing; toggling ``enabled`` pauses and resumes recording.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self._patched = []

    def span(self, name):
        return _Span(self, name)

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr, name):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        # None: *owner* inherits the attribute, so restoring deletes it.
        self._patched.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, traced)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched = []

    def total(self, name, within=None):
        """Summed duration of every span called *name*; with *within*,
        only those nested (at any depth) in a span called *within*."""
        return sum(end - start for index, (span_name, start, end, _)
                   in enumerate(self.spans) if span_name == name
                   and (within is None or self._inside(index, within)))

    def _inside(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_time(self, name):
        """Summed self time: duration minus the time child spans cover."""
        children = {}
        for span_name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] = children.get(parent, 0.0) + (end - start)
        return sum(end - start - children.get(index, 0.0)
                   for index, (span_name, start, end, _)
                   in enumerate(self.spans) if span_name == name)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as stream:
            json.dump([{"name": name, "start": start, "end": end,
                        "parent": parent}
                       for name, start, end, parent in self.spans], stream)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.index = None

    def __enter__(self):
        if self.tracer.enabled:
            self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc_info):
        if self.index is not None:
            self.tracer._close(self.index)


class Ledger:
    """Attempted/failed operations plus named metrics with units."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.metrics = {}

    def op(self, ok, what=""):
        """Count one attempted operation; a falsy *ok* is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def check(self, name, got, want):
        """Count one pinned-value comparison."""
        return self.op(got == want, "%s: got %r, want %r" % (name, got, want))

    def put(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def result(self):
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}
