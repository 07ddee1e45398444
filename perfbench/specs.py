"""The sessions each workload runs, and the programs they are built from.

Programs are fixed; the workload seed reaches the sampling hardware
(ProfileMe interval draws) and the ingest stream generator.  Simulated
cycle and retired counts therefore do not depend on the seed, and are
pinned once in ``pins.json``; sample counts and database digests do.
"""

PROFILE_DETAILED = "profile-detailed"
PROFILE_TWOSPEED = "profile-twospeed"
SERVICE_INGEST = "service-ingest"
WORKLOADS = (PROFILE_DETAILED, PROFILE_TWOSPEED, SERVICE_INGEST)

# (name, scale) of every program a workload builds.
PROGRAMS = {
    PROFILE_DETAILED: (("compress", 1), ("li", 1)),
    PROFILE_TWOSPEED: (("compress", 28),),
    # The ingest stream is captured from real profiled runs of these.
    SERVICE_INGEST: (("compress", 1), ("gcc", 1), ("li", 1), ("go", 1)),
}

# Products of a profile session that no seed can change: the ProfileMe
# unit never perturbs timing, and two-speed windows move with the
# sample points, so only their retired count is fixed.
SEED_INDEPENDENT = {
    PROFILE_DETAILED: ("cycles", "retired"),
    PROFILE_TWOSPEED: ("retired",),
}

DENSE_INTERVAL = 200
# Sparse enough to be a fetch-slot cost, dense enough that every seed
# samples compress@1 7+ times: at S=20000 it drew 1-3 samples, and a
# seed whose one sample carried no latency left `program_breakdown`
# nothing to report.
SPARSE_INTERVAL = 5_000
TWOSPEED_INTERVAL = 20_000
TWOSPEED_WINDOW = 400
CAPTURE_INTERVAL = 20


def import_program():
    """Import every ``repro`` module a workload calls (timed as set-up)."""
    import repro.analysis.aggregate  # noqa: F401
    import repro.analysis.bottlenecks  # noqa: F401
    import repro.analysis.cycles  # noqa: F401
    import repro.analysis.persistence  # noqa: F401
    import repro.analysis.reports  # noqa: F401
    import repro.cpu.functional  # noqa: F401
    import repro.cpu.inorder.core  # noqa: F401
    import repro.cpu.ooo.core  # noqa: F401
    import repro.cpu.smt  # noqa: F401
    import repro.engine.session  # noqa: F401
    import repro.engine.twospeed  # noqa: F401
    import repro.service.client  # noqa: F401
    import repro.service.fold  # noqa: F401
    import repro.workloads.suite  # noqa: F401


def build_programs(workload):
    """``{(name, scale): Program}`` for *workload*."""
    from repro.workloads.suite import suite_program

    return {key: suite_program(*key) for key in PROGRAMS[workload]}


def detailed_specs(programs, seed):
    """``[(name, SessionSpec)]``: the cycle-level profiled sessions."""
    from repro.engine.session import SessionSpec
    from repro.profileme.unit import ProfileMeConfig

    compress = programs[("compress", 1)]
    li = programs[("li", 1)]
    return [
        ("ooo-dense", SessionSpec(
            program=compress, core_kind="ooo",
            profile=ProfileMeConfig(mean_interval=DENSE_INTERVAL,
                                    paired=True, seed=seed))),
        ("ooo-sparse", SessionSpec(
            program=compress, core_kind="ooo",
            profile=ProfileMeConfig(mean_interval=SPARSE_INTERVAL,
                                    seed=seed))),
        ("inorder", SessionSpec(
            program=compress, core_kind="inorder",
            profile=ProfileMeConfig(mean_interval=2_000, seed=seed))),
        ("smt", SessionSpec(
            programs=(compress, li), core_kind="smt",
            profile=ProfileMeConfig(mean_interval=2_000, seed=seed))),
    ]


def twospeed_specs(programs, seed):
    """``[(name, SessionSpec)]``: the two-speed sessions, one per driver."""
    from repro.engine.session import SessionSpec
    from repro.profileme.unit import ProfileMeConfig

    program = programs[("compress", 28)]
    profile = ProfileMeConfig(mean_interval=TWOSPEED_INTERVAL, seed=seed)
    common = dict(program=program, profile=profile, exec_mode="two-speed",
                  window=TWOSPEED_WINDOW)
    return [
        ("chained", SessionSpec(**common)),
        ("batched", SessionSpec(batch_windows=True, window_workers=1,
                                **common)),
    ]


def session_specs(workload, programs, seed):
    if workload == PROFILE_DETAILED:
        return detailed_specs(programs, seed)
    return twospeed_specs(programs, seed)


def unprofiled(spec):
    """The same machine and program with no ProfileMe unit attached."""
    import dataclasses

    return dataclasses.replace(spec, profile=None)
