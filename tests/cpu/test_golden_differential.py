"""Golden cycle-exactness differential for the hot-loop optimizations.

The performance pass over the cycle loops (ready/wakeup issue list,
LSQ store index, completion event wheel, probe fast paths) is required
to be *behavior preserving*: cycles, retired counts, architectural
registers, and the canonical-JSON profile database must all be
byte-identical to the unoptimized simulator.  This fixture pins those
outputs for a spread of workloads across all three cores and both
count modes; any divergence introduced by a "pure" performance change
fails here with the exact field that moved.

The committed fixture (``golden_cycle_exactness.json``) was captured
from the tree *before* the optimization pass.  It should only ever be
regenerated for an intentional behavior change (new ISA semantics, a
machine-config change, ...) — never to paper over a drifting
optimization.  Regenerate with::

    PYTHONPATH=src python tests/cpu/test_golden_differential.py --regen
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis.persistence import canonical_json
from repro.engine.session import SessionSpec, run_session
from repro.profileme.fetch_counter import CountMode
from repro.profileme.unit import ProfileMeConfig
from repro.workloads import classic_kernel, stall_kernel
from repro.workloads.suite import suite_program

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_cycle_exactness.json")

# Workloads chosen to cover the machinery the optimizations touch:
# biased-branch tight loops (compress), pointer chasing + recursion
# with helper calls (li), a serial dependence chain that exercises the
# wakeup path (dep_chain), and FP + memory streaming with store->load
# forwarding (daxpy).
WORKLOADS = ("suite:compress", "suite:li", "kernel:dep_chain",
             "classic:daxpy")
SMT_PAIRS = (("suite:compress", "kernel:dep_chain"),
             ("suite:li", "classic:daxpy"))
MODES = (CountMode.INSTRUCTIONS, CountMode.FETCH_OPPORTUNITIES)


def build_workload(name):
    kind, _, arg = name.partition(":")
    if kind == "suite":
        return suite_program(arg, scale=1)
    if kind == "kernel":
        return stall_kernel(arg, iterations=300)
    if kind == "classic":
        return classic_kernel(arg, n=96)[0]
    raise ValueError("unknown workload %r" % (name,))


def iter_cases():
    for mode in MODES:
        for name in WORKLOADS:
            for core_kind in ("ooo", "inorder"):
                yield "%s/%s/%s" % (name, core_kind, mode.value), \
                    (name,), core_kind, mode
        for pair in SMT_PAIRS:
            yield "%s+%s/smt/%s" % (pair[0], pair[1], mode.value), \
                pair, "smt", mode
    # No-probe runs (mode None -> no ProfileMe unit attached) pin the
    # probe-free fast paths: guarded Event-OR and publish skips must not
    # change timing on either single-context core.
    for name in WORKLOADS:
        for core_kind in ("ooo", "inorder"):
            yield "%s/%s/no-probe" % (name, core_kind), \
                (name,), core_kind, None
    # The SMT machine's thread cores publish on the machine's bus, so an
    # unobserved SMT run takes the same fast path; pin it too.
    for pair in SMT_PAIRS:
        yield "%s+%s/smt/no-probe" % pair, pair, "smt", None


CASES = list(iter_cases())


def capture_case(names, core_kind, mode):
    profile = (ProfileMeConfig(mean_interval=40, seed=5, mode=mode)
               if mode is not None else None)
    programs = tuple(build_workload(name) for name in names)
    if core_kind == "smt":
        spec = SessionSpec(programs=programs, core_kind="smt",
                           profile=profile, keep_records=False)
    else:
        spec = SessionSpec(program=programs[0], core_kind=core_kind,
                           profile=profile, keep_records=False)
    result = run_session(spec)
    core = result.core
    if core_kind == "smt":
        registers = [list(thread.architectural_registers())
                     for thread in core.threads]
    else:
        registers = list(core.architectural_registers())
    captured = {
        "cycles": result.cycles,
        "retired": result.stats.retired,
        "fetched": result.stats.fetched,
        "aborted": result.stats.aborted,
        "mispredicts": result.stats.mispredicts,
        "registers": registers,
    }
    if profile is not None:
        database = canonical_json(result.database.to_dict())
        captured["db_total_samples"] = result.database.total_samples
        captured["db_sha256"] = hashlib.sha256(database.encode()).hexdigest()
    return captured


def load_golden():
    with GOLDEN_PATH.open() as stream:
        return json.load(stream)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("label,names,core_kind,mode",
                         CASES, ids=[case[0] for case in CASES])
def test_matches_golden(golden, label, names, core_kind, mode):
    assert label in golden, (
        "no golden entry for %s — regenerate the fixture for intentional "
        "matrix changes" % label)
    assert capture_case(names, core_kind, mode) == golden[label]


def test_golden_covers_every_case():
    golden = load_golden()
    assert sorted(golden) == sorted(case[0] for case in CASES)


def regenerate():
    golden = {}
    for label, names, core_kind, mode in CASES:
        golden[label] = capture_case(names, core_kind, mode)
        print("captured", label)
    with GOLDEN_PATH.open("w") as stream:
        json.dump(golden, stream, indent=1, sort_keys=True)
        stream.write("\n")
    print("wrote", GOLDEN_PATH)


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to run without --regen (this rewrites the "
                 "golden fixture)")
    regenerate()
