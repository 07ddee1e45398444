"""Parallel session execution: fan independent specs across processes.

Simulation sessions are embarrassingly parallel — each
:class:`~repro.engine.session.SessionSpec` is self-contained and seeded,
so a sweep over sampling intervals, seeds, or workloads can use every
host core.  Results come back detached (simulator objects dropped,
profiles and statistics kept) and in spec order, so a parallel sweep is
a drop-in replacement for the serial loop it replaces::

    specs = [SessionSpec(program=prog,
                         profile=ProfileMeConfig(mean_interval=s, seed=i))
             for i, s in enumerate(intervals)]
    results = run_sessions_parallel(specs, workers=4)

Determinism: a spec's configs carry explicit seeds, so the same spec
produces the same profile in any process; ``run_sessions_parallel(specs,
workers=1)`` and ``workers=N`` are verified byte-equivalent in
``tests/engine/test_parallel.py``.
"""

import multiprocessing
import os
import traceback

from repro.engine.session import run_session
from repro.errors import WorkerError


def _run_one(payload):
    """Worker body: run one spec; never let an exception cross the pool.

    An exception raised inside ``imap_unordered`` reaches the parent as
    a bare re-raise with no hint of *which* spec failed (the traceback
    below the pool machinery is gone).  Catch it here and ship the spec
    index, repr, and formatted worker traceback back as data; the parent
    re-raises a :class:`WorkerError` carrying all three.
    """
    index, spec = payload
    try:
        return index, run_session(spec).detach(), None
    except Exception:
        return index, repr(spec), traceback.format_exc()


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_sessions_parallel(specs, workers=None):
    """Run every spec; return detached results in spec order.

    *workers* defaults to ``min(len(specs), cpu_count)``; ``workers <= 1``
    runs inline (no processes), which keeps single-session calls and
    restricted environments on the exact same code path.
    """
    specs = list(specs)
    if not specs:
        return []
    if workers is None:
        workers = min(len(specs), os.cpu_count() or 1)
    if workers <= 1 or len(specs) == 1:
        return [run_session(spec).detach() for spec in specs]

    results = [None] * len(specs)
    with _pool_context().Pool(processes=workers) as pool:
        for index, result, failure in pool.imap_unordered(
                _run_one, list(enumerate(specs))):
            if failure is not None:
                raise WorkerError(
                    "spec %d (%s) failed in a worker process\n"
                    "--- worker traceback ---\n%s"
                    % (index, result, failure))
            results[index] = result
    return results


# ----------------------------------------------------------------------
# Batched two-speed windows (repro.engine.twospeed batch mode).

# Per-worker shared context: (program, machine_config, profile).  Set by
# the pool initializer so each WindowPlan payload ships only the state
# that differs per window, not the program image every time.
_WINDOW_CONTEXT = None


def _init_window_worker(program, machine_config, profile):
    global _WINDOW_CONTEXT
    _WINDOW_CONTEXT = (program, machine_config, profile)


def _run_window_payload(plan):
    """Worker body: run one window; ship failures back as data."""
    from repro.engine.twospeed import run_window

    program, machine_config, profile = _WINDOW_CONTEXT
    try:
        return plan.index, run_window(program, machine_config, profile,
                                      plan), None
    except Exception:
        return plan.index, None, traceback.format_exc()


def run_windows(program, machine_config, profile, plans, workers=1):
    """Run planned two-speed windows; return results in plan order.

    Windows are independent (each plan carries a private architectural
    snapshot and a private ``WarmState.clone()``, and the window's core
    runs on that clone), so execution order and process placement
    cannot change results: ``workers=1`` runs inline and ``workers=N``
    fans across processes, and the two are byte-equivalent
    (``tests/engine/test_twospeed_batched.py``).
    """
    from repro.engine.twospeed import run_window

    plans = list(plans)
    if not plans:
        return []
    if workers is None:
        workers = min(len(plans), os.cpu_count() or 1)
    if workers <= 1 or len(plans) == 1:
        return [run_window(program, machine_config, profile, plan)
                for plan in plans]

    results = [None] * len(plans)
    with _pool_context().Pool(
            processes=min(workers, len(plans)),
            initializer=_init_window_worker,
            initargs=(program, machine_config, profile)) as pool:
        for index, result, failure in pool.imap_unordered(
                _run_window_payload, plans):
            if failure is not None:
                raise WorkerError(
                    "two-speed window %d failed in a worker process\n"
                    "--- worker traceback ---\n%s" % (index, failure))
            results[index] = result
    return results
