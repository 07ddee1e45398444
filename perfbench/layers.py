"""The traced run (``--trace 1``): per-layer metrics of every layer.

Whichever workload is named, the run measures the same fixed amount of
work in three sections, so every count it reports repeats exactly for a
seed:

* **detailed** — the ooo machine unprofiled, densely and sparsely
  profiled (``cpu.ooo``, ProfileMe overhead), the in-order and SMT
  machines unprofiled, then a warm-up, an untraced and a traced round of
  ``profile-detailed`` (driver time, reports), then the sessions'
  samples replayed through ``ProfileDatabase.add``;
* **two-speed** — ``FunctionalProfiler.run`` on the two-speed program at
  the same S (trace-cache interpreter), then a warm-up, an untraced and
  a traced round of ``profile-twospeed`` (per driver, time in detailed
  windows, ``OutOfOrderCore.run``, and in ``fast_forward``);
* **service** — ``TRACED_GROUPS`` drain groups of the ``service-ingest``
  loop against ``repro serve``, alternating untraced and traced groups,
  the pushed stream's repeat share against the long real capture's at
  the same length, and the final store's pickled size, merge and top-k
  times.

Spans are recorded only here, around calls into the program's public
functions, and written to ``.perfbench-out/trace-<workload>-<seed>.json``.
``trace.overhead_ratio`` is traced ÷ untraced wall time of the named
workload's own section.
"""

import os
import pickle
import statistics
import time

import common
import ingest
import sessions
import specs
import stream

TRACED_GROUPS = 120
SERVICE_WARMUP_GROUPS = ingest.WARMUP_GROUPS
OVERHEAD_REPEATS = 3
REPEATS = 5


def _median_time(function, repeats=REPEATS):
    """Median reference-host seconds of *repeats* calls."""
    return statistics.median(common.reference_time(function)[1]
                             for _ in range(repeats))


def _all_samples(driver):
    return list(driver.records) + list(driver.pairs) + list(driver.groups)


def detailed_section(seed, ledger, pins, tracer):
    """cpu.*, profileme.*, analysis.database.add, analysis.reports."""
    from repro.analysis.database import ProfileDatabase
    from repro.engine.session import run_session
    from repro.profileme.driver import ProfileMeDriver

    put = ledger.put
    put("workloads.build_s", common.reference_time(
        lambda: [specs.build_programs(workload)
                 for workload in specs.WORKLOADS])[1], "s")

    bench = sessions.ProfileWorkload(specs.PROFILE_DETAILED, seed, ledger,
                                     pins, tracer=tracer)
    by_name = dict(bench.specs)
    # ProfileMe overhead: the same ooo machine unprofiled, densely and
    # sparsely profiled, interleaved, median of OVERHEAD_REPEATS each.
    ooo = {"unprofiled": specs.unprofiled(by_name["ooo-dense"]),
           "dense": by_name["ooo-dense"], "sparse": by_name["ooo-sparse"]}
    ooo_s = {name: [] for name in ooo}
    for _ in range(OVERHEAD_REPEATS):
        for name, spec in ooo.items():
            result, seconds = common.reference_time(
                lambda spec=spec: run_session(spec))
            ooo_s[name].append(seconds)
            if name == "unprofiled":
                unprofiled_ooo = result
    ooo_s = {name: statistics.median(times) for name, times in ooo_s.items()}
    put("profileme.overhead_ratio_dense",
        ooo_s["dense"] / ooo_s["unprofiled"], "ratio")
    put("profileme.overhead_ratio_sparse",
        ooo_s["sparse"] / ooo_s["unprofiled"], "ratio")
    unprofiled = {"ooo-dense": (ooo_s["unprofiled"], unprofiled_ooo)}
    for name in ("inorder", "smt"):
        result, seconds = common.reference_time(
            lambda name=name: run_session(specs.unprofiled(by_name[name])))
        unprofiled[name] = (seconds, result)
    for name, core in (("ooo-dense", "ooo"), ("inorder", "inorder"),
                       ("smt", "smt")):
        seconds, result = unprofiled[name]
        put("cpu.%s.retired_per_s" % core, result.stats.retired / seconds,
            "1/s")
    put("cpu.cycles", sum(result.cycles
                          for _seconds, result in unprofiled.values()),
        "count")

    tracer.wrap(ProfileMeDriver, "handle_interrupt", "profileme.driver")
    try:
        tracer.enabled = False
        bench.run_round(timed=False)  # warm-up: reports build lazy caches
        plain = bench.run_round(timed=False)
        tracer.enabled = True
        traced = bench.run_round(timed=False)
    finally:
        tracer.restore()
        bench.close()
    put("profileme.driver.self_s", tracer.self_time("profileme.driver"), "s")
    put("analysis.reports_s", tracer.total("analysis.reports"), "s")

    results = bench.results
    for name, (_seconds, result) in unprofiled.items():
        # Observation neutrality: the ProfileMe unit never changes timing.
        ledger.check("detailed/%s.unprofiled_cycles" % name, result.cycles,
                     results[name].cycles)
    stats = [result.unit.stats for result in results.values()]
    put("profileme.samples",
        sum(result.driver.delivered for result in results.values()), "count")
    put("profileme.interrupts", sum(s.interrupts for s in stats), "count")
    put("profileme.dropped_busy", sum(s.dropped_busy for s in stats), "count")
    retired = sum(result.stats.retired for result in results.values())
    put("input.samples_per_kinstr",
        1000.0 * sum(result.driver.delivered for result in results.values())
        / retired, "1/kinstr")

    samples = [sample for result in results.values()
               for sample in _all_samples(result.driver)]
    dense = _all_samples(results["ooo-dense"].driver)

    def replay():
        database = ProfileDatabase()
        for sample in samples:
            database.add(sample)
        return database

    put("analysis.database.add_per_s",
        len(samples) / _median_time(replay), "1/s")
    replayed = ProfileDatabase()
    for sample in dense:
        replayed.add(sample)
    ledger.op(replayed.to_dict() == results["ooo-dense"].database.to_dict(),
              "replayed ooo-dense samples differ from the session database")
    return traced / plain


def twospeed_section(seed, ledger, pins, tracer):
    """cpu.tracecache, engine.twospeed.*."""
    import repro.engine.twospeed as twospeed
    from repro.cpu.functional import FunctionalProfiler
    from repro.cpu.ooo.core import OutOfOrderCore
    from repro.profileme.unit import ProfileMeConfig

    put = ledger.put
    bench = sessions.ProfileWorkload(specs.PROFILE_TWOSPEED, seed, ledger,
                                     pins, tracer=tracer)
    program = bench.programs[("compress", 28)]
    profiler = FunctionalProfiler(
        program, profile=ProfileMeConfig(
            mean_interval=specs.TWOSPEED_INTERVAL, seed=seed),
        collect_truth=False)
    functional, seconds = common.reference_time(profiler.run)
    put("cpu.tracecache.retired_per_s", functional.retired / seconds, "1/s")

    # Both drivers run each detailed window as one OutOfOrderCore.run
    # (the chained driver inline, the batched one inside run_window) and
    # fast-forward through twospeed.fast_forward.
    tracer.wrap(OutOfOrderCore, "run", "engine.twospeed.window")
    tracer.wrap(twospeed, "fast_forward", "engine.twospeed.fast_forward")
    try:
        tracer.enabled = False
        bench.run_round(timed=False)  # warm-up: reports build lazy caches
        plain = bench.run_round(timed=False)
        session_s = dict(bench.session_s)
        tracer.enabled = True
        traced = bench.run_round(timed=False)
    finally:
        tracer.restore()
        bench.close()
    results = bench.results
    for name in ("chained", "batched"):
        put("engine.twospeed.%s_retired_per_s" % name,
            results[name].stats.retired / session_s[name], "1/s")
        # The committed path is engine-independent.
        ledger.check("twospeed/%s.retired_vs_interpreter" % name,
                     results[name].stats.retired, functional.retired)
        session = "engine.session.%s" % name
        put("engine.twospeed.%s_window_s" % name,
            tracer.total("engine.twospeed.window", within=session), "s")
        put("engine.twospeed.%s_fast_forward_s" % name,
            tracer.total("engine.twospeed.fast_forward", within=session),
            "s")
    chained = results["chained"]
    put("engine.twospeed.windows", chained.two_speed.windows, "count")
    put("engine.twospeed.detailed_fraction",
        chained.two_speed.detailed_fraction, "ratio")
    put("engine.twospeed.skipped_samples",
        chained.two_speed.skipped_samples, "count")
    put("input.twospeed.samples_per_kinstr",
        1000.0 * chained.driver.delivered / chained.stats.retired,
        "1/kinstr")
    return traced / plain


def service_section(seed, ledger, tracer):
    """service.*, analysis.database.merge/topk, input.* of the stream."""
    import repro.service.client as client_module
    from repro.analysis.database import ProfileDatabase
    from repro.events import Event

    put = ledger.put
    server = ingest.ServerProcess()
    loop = None
    try:
        loop = ingest.IngestLoop(seed, server.address, ledger, tracer=tracer)
        tracer.wrap(client_module, "plan_push_frames",
                    "service.protocol.encode")
        walls = {False: 0.0, True: 0.0}
        ok = True
        try:
            tracer.enabled = False
            for _ in range(SERVICE_WARMUP_GROUPS):
                ok = ok and loop.group(timed=False)
            for index in range(TRACED_GROUPS):
                tracer.enabled = bool(index % 2)
                start = time.perf_counter()
                ok = ok and loop.group(timed=False)
                walls[tracer.enabled] += time.perf_counter() - start
        finally:
            tracer.enabled = True
            tracer.restore()
        stats = loop.verify()
        probes = loop.query_client.query(
            "probes", pattern="service.shard0.*")["probes"]
    finally:
        if loop is not None:
            loop.close()
        ledger.op(server.stop() == 0, "repro serve exited non-zero")

    traced_records = ingest.BATCH_RECORDS * ingest.BATCHES_PER_DRAIN \
        * (TRACED_GROUPS // 2)
    put("service.protocol.encode_records_per_s",
        traced_records / tracer.total("service.protocol.encode"), "1/s")
    put("service.client.push_s", tracer.total("service.client.push"), "s")
    put("service.fold.records_per_s",
        traced_records / tracer.total("service.fold"), "1/s")
    put("service.client.drain_s", tracer.total("service.client.drain"), "s")
    put("service.client.query_s", tracer.total("service.client.query"), "s")
    for name in ("records", "dropped_records", "fold_errors",
                 "worker_restarts"):
        put("service.server.%s" % name, stats[name], "count")
    for name in ("buckets", "evicted_samples"):
        put("service.shard0.%s" % name,
            probes["service.shard0.%s" % name]["value"], "count")
    # The pushed stream against the long real capture at its length.
    put("input.repeat_signature_share", loop.generator.repeat_share(),
        "ratio")
    put("input.real_repeat_signature_share",
        stream.RealCurve.load().repeat_share(loop.sent), "ratio")
    put("input.distinct_pcs", len(loop.generator.pcs), "count")

    store = loop.replica.snapshot_database()
    put("service.workers.snap_bytes",
        len(pickle.dumps(store, protocol=pickle.HIGHEST_PROTOCOL)), "bytes")
    views = []

    def merge():
        # What every query barrier does with the shard's snapshot.
        view = ProfileDatabase(rollup_interval=ingest.ROLLUP_INTERVAL)
        view.merge(store)
        views.append(view)

    put("analysis.database.merge_ms", 1e3 * _median_time(merge), "ms")
    put("analysis.database.topk_ms", 1e3 * _median_time(
        lambda: views[-1].top_by_event(Event.RETIRED, 10)), "ms")
    return walls[True] / max(walls[False], 1e-9)


def run(workload, seed, seconds, ledger, pins):
    """Every section; the named workload's section gives the overhead."""
    tracers = {name: common.Tracer() for name in specs.WORKLOADS}
    ratios = {
        specs.PROFILE_DETAILED: detailed_section(
            seed, ledger, pins, tracers[specs.PROFILE_DETAILED]),
        specs.PROFILE_TWOSPEED: twospeed_section(
            seed, ledger, pins, tracers[specs.PROFILE_TWOSPEED]),
        specs.SERVICE_INGEST: service_section(
            seed, ledger, tracers[specs.SERVICE_INGEST]),
    }
    ledger.put("trace.overhead_ratio", ratios[workload], "ratio")
    spans = common.Tracer()
    for name in specs.WORKLOADS:
        spans.spans.extend([["%s/%s" % (name, span[0])] + span[1:3]
                            + [span[3] + len(spans.spans)
                               if span[3] >= 0 else -1]
                            for span in tracers[name].spans])
    path = os.path.join(common.OUT_DIR, "trace-%s-%d.json" % (workload, seed))
    spans.write(path)
    return {"trace_file": path, "overhead_ratios": ratios,
            "spans": len(spans.spans)}
