"""``profile-detailed`` and ``profile-twospeed``: in-process profiled sessions.

One *round* runs every session of the workload, each followed by the
queries ``repro profile`` answers from its database: top-k by every
aggregated event, ``latency_table``, ``program_breakdown``,
``hierarchy_report`` and, for paired sampling, ``instruction_metrics`` +
``bottleneck_report``.  The first pass over them belongs to the session
(the profile is queryable when it ends); ``QUERY_PASSES - 1`` more
passes, like an analyst browsing the finished profile, add latency
samples only.  Every session's simulated counts and database digest are
checked against ``pins.json`` (or, for a seed with no pins, against the
untimed warm-up round of the same run).
"""

import gc
import hashlib
import statistics
import time

import specs
from common import (Tracer, host_speed, percentile, self_peak_rss_mb,
                    time_unit, values)

# Per-run products of one session that must repeat exactly.
PINNED_FIELDS = ("cycles", "retired", "samples", "dropped_busy", "digest")
REPORT_LIMIT = 8
QUERY_PASSES = 5


class CaptureClock:
    """Stamps the host time at which the ProfileMe hardware hands over samples.

    Wraps the *handler* every :class:`ProfileMeUnit` is built with, so the
    stamp is taken at the interrupt whichever driver consumes the samples:
    the detailed session's interrupt handler, a chained two-speed window,
    or a batched window whose samples reach the driver only after every
    window ran.  Capture-to-queryable freshness is measured from these
    stamps to the end of the session's reports.
    """

    def __init__(self):
        from repro.profileme.unit import ProfileMeUnit

        self._cls = ProfileMeUnit
        self._original = ProfileMeUnit.__dict__["__init__"]
        self.stamps = []
        original = self._original
        stamps = self.stamps

        def __init__(unit, config=None, handler=None, *args, **kwargs):
            if handler is not None:
                inner = handler

                def handler(batch):
                    stamps.append((time.perf_counter(), len(batch)))
                    return inner(batch)

            original(unit, config, handler, *args, **kwargs)

        ProfileMeUnit.__init__ = __init__

    def take(self):
        taken = list(self.stamps)
        self.stamps.clear()
        return taken

    def close(self):
        self._cls.__init__ = self._original


def session_products(result):
    """The pinned products of one finished session."""
    from repro.analysis.persistence import canonical_json

    stats = result.unit.stats if result.unit is not None \
        else result.sampling_stats
    digest = hashlib.sha256(canonical_json(
        result.database.to_dict()).encode("utf-8")).hexdigest()[:16]
    return {"cycles": result.cycles, "retired": result.stats.retired,
            "samples": result.driver.delivered,
            "dropped_busy": stats.dropped_busy, "digest": digest}


def session_queries(result, program, mean_interval):
    """The ``repro profile`` reports over one session, as callables.

    Each callable is one query: it returns the report's rows or text.
    """
    from repro.analysis.aggregate import hierarchy_report
    from repro.analysis.bottlenecks import instruction_metrics
    from repro.analysis.cycles import (event_attribution, format_breakdown,
                                       program_breakdown)
    from repro.analysis.database import AGGREGATED_EVENTS
    from repro.analysis.reports import bottleneck_report, latency_table
    from repro.events import Event

    database = result.database

    def top():
        return [database.top_by_event(flag, REPORT_LIMIT)
                for flag in AGGREGATED_EVENTS]

    def latencies():
        top = database.top_by_event(Event.RETIRED, REPORT_LIMIT)
        return latency_table(database, pcs=[pc for pc, _ in top],
                             program=program)

    def breakdown():
        totals, fractions = program_breakdown(database, mean_interval)
        return format_breakdown(totals, fractions,
                                event_attribution(database))

    queries = [top, latencies, breakdown,
               lambda: hierarchy_report(database, program, mean_interval,
                                        limit=REPORT_LIMIT)]
    if result.pair_analyzer is not None:
        queries.append(lambda: bottleneck_report(
            instruction_metrics(database, mean_interval / 2.0,
                                pair_analyzer=result.pair_analyzer),
            database, program=program, limit=REPORT_LIMIT))
    return queries


class ProfileWorkload:
    """Runs rounds of one profile workload and keeps their measurements."""

    def __init__(self, workload, seed, ledger, pins, tracer=None):
        from repro.engine.session import run_session

        self.workload = workload
        self.seed = seed
        self.ledger = ledger
        self.tracer = tracer or Tracer(enabled=False)
        self.programs = specs.build_programs(workload)
        self.specs = specs.session_specs(workload, self.programs, seed)
        self.run_session = run_session
        pinned = pins.get("sessions", {}).get(workload, {})
        by_seed = pins.get("seeds", {}).get(str(seed), {}).get(workload, {})
        self.expected = {name: dict(pinned.get(name, {}),
                                    **by_seed.get(name, {}))
                         for name, _ in self.specs}
        self.clock = CaptureClock()
        # Timed figures: raw wall values, each with the host speed
        # factor that scales it to reference-host time.
        self.rounds = []  # (wall s, factor, retired, samples) per round
        self.freshness_ms = []  # (ms, factor)
        self.query_ms = []  # (ms, factor)
        self.products = {}  # name -> products of the last round
        self.results = {}  # name -> SessionResult of the last round
        self.session_s = {}  # name -> reference-host s, last round

    def close(self):
        self.clock.close()

    def run_round(self, timed=True):
        """Run every session; returns the round's reference-host seconds."""
        retired = samples = 0
        wall_s = reference_s = 0.0
        for name, spec in self.specs:
            products, freshness, queries, seconds, factor = \
                self._session(name, spec)
            retired += products["retired"]
            samples += products["samples"]
            wall_s += seconds
            reference_s += seconds * factor
            if timed:
                self.freshness_ms.extend((ms, factor) for ms in freshness)
                self.query_ms.extend(queries)
        if timed:
            self.rounds.append((wall_s, reference_s / wall_s, retired,
                                samples))
        return reference_s

    def _session(self, name, spec):
        tracer = self.tracer
        self.clock.take()
        ok = False
        speed_before = host_speed()
        start = time.perf_counter()
        try:
            with tracer.span("engine.session.%s" % name):
                result = self.run_session(spec)
            ok = True
        finally:
            self.ledger.op(ok, "%s: session %s raised" % (self.workload,
                                                          name))
        session_wall = time.perf_counter() - start
        self.results[name] = result
        program = spec.resolved_programs()[0]
        # Collect the session's garbage first, so a collection it left
        # due does not land inside (and dominate) a sub-millisecond
        # report.  The collection itself stays in the session's time.
        gc.collect()
        queries = session_queries(result, program,
                                  spec.profile.mean_interval)
        first_pass = self._query_pass(name, queries)
        queryable = time.perf_counter()
        # The session and its first report pass are scaled by the host
        # speed around them, the later passes by the speed around those.
        speed_mid = host_speed()
        factor = (speed_before + speed_mid) / 2
        browsing = [ms for _ in range(QUERY_PASSES - 1)
                    for ms in self._query_pass(name, queries)]
        browse_factor = (speed_mid + host_speed()) / 2
        self.session_s[name] = session_wall * factor
        freshness_ms = []
        for stamp, count in self.clock.take():
            freshness_ms.extend([(queryable - stamp) * 1e3] * count)
        query_ms = [(ms, factor) for ms in first_pass] \
            + [(ms, browse_factor) for ms in browsing]
        products = session_products(result)
        self._check(name, products)
        return products, freshness_ms, query_ms, queryable - start, factor

    def _query_pass(self, name, queries):
        """Ask every query once; their wall times in ms."""
        query_ms = []
        for query in queries:
            asked = time.perf_counter()
            with self.tracer.span("analysis.reports"):
                text = query()
            query_ms.append((time.perf_counter() - asked) * 1e3)
            self.ledger.op(bool(text), "%s: empty report on %s"
                           % (self.workload, name))
        return query_ms

    def metrics(self, scaled):
        """The timed figures, in reference-host or raw wall time."""
        walls = values(((wall, factor) for wall, factor, _, _
                        in self.rounds), scaled)
        freshness = values(self.freshness_ms, scaled)
        queries = values(self.query_ms, scaled)
        return {
            "sim_retired_per_s": statistics.median(
                retired / wall for wall, (_, _, retired, _)
                in zip(walls, self.rounds)),
            "samples_per_s": statistics.median(
                samples / wall for wall, (_, _, _, samples)
                in zip(walls, self.rounds)),
            "freshness_p50_ms": percentile(freshness, 0.5),
            "freshness_p90_ms": percentile(freshness, 0.9),
            "query_p50_ms": percentile(queries, 0.5),
            "query_p90_ms": percentile(queries, 0.9),
        }

    def _check(self, name, products):
        expected = self.expected[name]
        previous = self.products.get(name)
        for field in PINNED_FIELDS:
            if field in expected:
                want = expected[field]
            elif previous is not None:
                want = previous[field]  # determinism within the run
            else:
                continue
            self.ledger.check("%s/%s.%s" % (self.workload, name, field),
                              products[field], want)
        self.products[name] = products


def run(workload, seed, seconds, ledger, pins):
    """The timed run: warm-up round, then rounds until *seconds* pass."""
    bench = ProfileWorkload(workload, seed, ledger, pins)
    try:
        bench.run_round(timed=False)
        deadline = time.perf_counter() + seconds
        while not bench.rounds or time.perf_counter() < deadline:
            bench.run_round()
    finally:
        bench.close()
    for name, value in bench.metrics(scaled=True).items():
        ledger.put(name, value, time_unit(name))
    ledger.put("peak_rss_mb", self_peak_rss_mb(), "MB")
    return {"rounds": len(bench.rounds),
            "freshness_samples": len(bench.freshness_ms),
            "query_samples": len(bench.query_ms),
            "raw": bench.metrics(scaled=False),
            "products": bench.products}
