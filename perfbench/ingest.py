"""``service-ingest``: a closed-loop generator against ``repro serve``.

The service runs in its own process (``serve_child.py``) with one shard
worker process, rollup buckets and bounded retention.  One generator
thread holds two connections:

* the push connection sends ``BATCHES_PER_DRAIN`` batches of
  ``BATCH_RECORDS`` records through ``ProfileClient.push``, then calls
  ``drain()``; each batch's freshness runs from handing it to ``push``
  to that ``drain()`` returning;
* the query connection then issues the next query of a fixed
  ``top``/``latency``/``epochs``/``stats`` rotation.  Every one of them
  is a full fold barrier, so their round trips form one distribution.

Records come from ``stream.StreamGenerator``; building them, and folding
the same payloads into an in-process ``ShardFolder`` replica, happen
between the timed intervals.  At the end the served export must equal
the replica's, and the ``stats`` query must account for every record.
"""

import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import common
import specs
import stream

BATCH_RECORDS = 256
BATCHES_PER_DRAIN = 4
ROLLUP_INTERVAL = 500
RETAIN_BUCKETS = 8
WARMUP_GROUPS = 32
SETUP_REPEATS = 5
QUERY_ROTATION = ("top", "latency", "epochs", "stats")
STOP_TIMEOUT_S = 20.0
START_TIMEOUT_S = 60.0


class ServerProcess:
    """``repro serve`` in a child interpreter, up to its first handshake."""

    def __init__(self):
        from repro.service.protocol import (check_ok, hello_frame,
                                            recv_frame, send_frame)

        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(common.HERE, "serve_child.py"),
             "--host", "127.0.0.1", "--port", "0", "--shards", "1",
             "--rollup-interval", str(ROLLUP_INTERVAL),
             "--retain-buckets", str(RETAIN_BUCKETS)],
            stdout=subprocess.PIPE, text=True, env=common.child_env(),
            cwd=common.ROOT)
        self.worker_pids = []
        # A child that never prints its lines is killed, so the reads
        # below see end of file instead of waiting forever.
        deadline = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        deadline.start()
        try:
            _, started, speed_before = self._line("started").split()
            listening = self._line("profile service listening on")
            deadline.cancel()
            self.address = listening.split()[4]
            host, port = self.address.rsplit(":", 1)
            with socket.create_connection((host, int(port)),
                                          timeout=30.0) as sock:
                send_frame(sock, hello_frame(version=2))
                check_ok(recv_frame(sock), "handshake")
                self.setup_wall = time.monotonic() - float(started)
            # Host speed: in the child before its stamp, here after.
            self.setup_factor = (float(speed_before)
                                 + common.host_speed()) / 2
            self.worker_pids = common.child_pids(self.proc.pid)
        except BaseException:
            deadline.cancel()
            self.stop()
            raise

    def _line(self, prefix):
        line = self.proc.stdout.readline()
        if not line.startswith(prefix):
            raise RuntimeError("repro serve: expected %r, got %r"
                               % (prefix, line))
        return line

    def peak_rss_mb(self):
        """Peak RSS of the server plus its shard worker."""
        return sum(common.proc_peak_rss_mb(pid)
                   for pid in [self.proc.pid] + self.worker_pids)

    def stop(self):
        """SIGTERM (graceful: workers stop first), then reap everything."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        for pid in self.worker_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return self.proc.returncode


class IngestLoop:
    """The single-threaded generator and its measurements."""

    def __init__(self, seed, address, ledger, tracer=None):
        from repro.service.client import ProfileClient
        from repro.service.fold import ShardFolder

        self.ledger = ledger
        self.tracer = tracer or common.Tracer(enabled=False)
        self.programs = specs.build_programs(specs.SERVICE_INGEST)
        self.corpus, retired = stream.capture(
            self.programs, seed, interval=specs.CAPTURE_INTERVAL)
        self.retired_per_record = retired / len(self.corpus)
        self.generator = stream.StreamGenerator(self.corpus, seed)
        counts = {}
        for record in self.corpus:
            counts[record.pc] = counts.get(record.pc, 0) + 1
        self.hot_pc = max(sorted(counts), key=counts.get)
        self.replica = ShardFolder(rollup_interval=ROLLUP_INTERVAL,
                                   retain_buckets=RETAIN_BUCKETS)
        self.push_client = ProfileClient(address)
        self.query_client = ProfileClient(address)
        self.sent = 0
        self.timed_records = 0
        # Timed figures as (raw wall value, host speed factor) pairs.
        self.ingest_s = []
        self.freshness_ms = []
        self.query_ms = []
        self.groups = 0
        self.fold_s = 0.0

    def close(self):
        self.push_client.close()
        self.query_client.close()

    def group(self, timed=True):
        """One drain group plus one query; False on a failure."""
        from repro.errors import ProtocolError, ServiceError
        from repro.service.protocol import encode_push_payload

        tracer = self.tracer
        batches = [self.generator.records(BATCH_RECORDS)
                   for _ in range(BATCHES_PER_DRAIN)]
        stamps = []
        speed_before = common.host_speed()
        start = time.perf_counter()
        for batch in batches:
            stamps.append(time.perf_counter())
            with tracer.span("service.client.push"):
                delivered = self.push_client.push(batch)
            if not self.ledger.op(delivered, "push not delivered"):
                return False
        try:
            with tracer.span("service.client.drain"):
                reply = self.push_client.drain()
        except (ServiceError, ProtocolError) as exc:
            self.ledger.op(False, "drain: %s" % (exc,))
            return False
        drained = time.perf_counter()
        self.sent += BATCH_RECORDS * BATCHES_PER_DRAIN
        if not self.ledger.op(reply.get("dropped_records") == 0,
                              "drain reports dropped records: %r" % (reply,)):
            return False
        command = QUERY_ROTATION[self.groups % len(QUERY_ROTATION)]
        self.groups += 1
        query_s = self.query(command)
        if query_s is None:
            return False
        factor = (speed_before + common.host_speed()) / 2
        if timed:
            self.ingest_s.append((drained - start, factor))
            self.timed_records += BATCH_RECORDS * BATCHES_PER_DRAIN
            self.freshness_ms.extend(((drained - stamp) * 1e3, factor)
                                     for stamp in stamps)
            self.query_ms.append((query_s * 1e3, factor))
        fold_start = time.perf_counter()
        for batch in batches:
            payload = encode_push_payload(batch)
            with tracer.span("service.fold"):
                self.replica.fold_payload(payload)
        # The worker flushes its memo at every barrier; so does the
        # replica, so rollup and retention see the same fold order.
        self.replica.flush()
        self.fold_s += time.perf_counter() - fold_start
        return True

    def query(self, command):
        """One query round trip; its wall seconds, None on failure."""
        from repro.errors import ProtocolError, ServiceError

        client = self.query_client
        start = time.perf_counter()
        try:
            with self.tracer.span("service.client.query"):
                if command == "top":
                    reply = client.query("top", event="RETIRED", limit=10)
                elif command == "latency":
                    reply = client.query("latency", pc=self.hot_pc)
                elif command == "epochs":
                    reply = client.epochs(limit=16)
                else:
                    reply = client.query("stats")
        except (ServiceError, ProtocolError) as exc:
            self.ledger.op(False, "query %s: %s" % (command, exc))
            return None
        elapsed = time.perf_counter() - start
        if not self.ledger.op(reply.get("dropped_records") == 0,
                              "query %s reports drops" % (command,)):
            return None
        return elapsed

    def replica_document(self):
        """The replica as the server exports it: shards merged into a
        fresh database (which never re-evicts)."""
        from repro.analysis.database import ProfileDatabase

        merged = ProfileDatabase(rollup_interval=ROLLUP_INTERVAL)
        merged.merge(self.replica.snapshot_database())
        return merged.to_dict()

    def verify(self):
        """Served export == replica; every sent record folded, none lost."""
        from repro.analysis.persistence import canonical_json

        ledger = self.ledger
        export = self.query_client.query("export")
        ledger.op(canonical_json(export["database"])
                  == canonical_json(self.replica_document()),
                  "served export differs from the in-process fold")
        stats = self.query_client.query("stats")["stats"]
        ledger.check("service.records", stats["records"], self.sent)
        for name in ("dropped_records", "fold_errors", "worker_restarts"):
            ledger.check("service.%s" % name, stats[name], 0)
        return stats


def metrics(loop, setups, scaled):
    """The timed figures of a run, in reference-host or raw wall time."""
    rate = loop.timed_records / sum(common.values(loop.ingest_s, scaled))
    freshness = common.values(loop.freshness_ms, scaled)
    queries = common.values(loop.query_ms, scaled)
    return {
        "setup_s": statistics.median(common.values(setups, scaled)),
        "samples_per_s": rate,
        "sim_retired_per_s": rate * loop.retired_per_record,
        "freshness_p50_ms": common.percentile(freshness, 0.5),
        "freshness_p90_ms": common.percentile(freshness, 0.9),
        "query_p50_ms": common.percentile(queries, 0.5),
        "query_p90_ms": common.percentile(queries, 0.9),
    }


def run(seed, seconds, ledger):
    """The timed run of ``service-ingest``."""
    setups = []  # (raw wall s, host speed factor) per server start

    def start_server():
        server = ServerProcess()
        setups.append((server.setup_wall, server.setup_factor))
        return server

    for _ in range(SETUP_REPEATS - 1):
        server = start_server()
        ledger.op(server.stop() == 0, "repro serve exited non-zero")
    server = start_server()
    loop = None
    try:
        loop = IngestLoop(seed, server.address, ledger)
        ok = all(loop.group(timed=False) for _ in range(WARMUP_GROUPS))
        deadline = time.perf_counter() + seconds
        while ok and (not loop.freshness_ms
                      or time.perf_counter() < deadline):
            ok = loop.group()
        stats = loop.verify()
        peak_rss = server.peak_rss_mb()
    finally:
        if loop is not None:
            loop.close()
        ledger.op(server.stop() == 0, "repro serve exited non-zero")
    for name, value in metrics(loop, setups, scaled=True).items():
        ledger.put(name, value, common.time_unit(name))
    ledger.put("peak_rss_mb", peak_rss, "MB")
    real = stream.RealCurve.load()
    return {"records_sent": loop.sent, "timed_records": loop.timed_records,
            "queries": len(loop.query_ms),
            "freshness_samples": len(loop.freshness_ms),
            "raw": metrics(loop, setups, scaled=False),
            "replica_fold_s": loop.fold_s,
            "repeat_signature_share": loop.generator.repeat_share(),
            "real_repeat_signature_share": real.repeat_share(loop.sent),
            "real_stream_records": real.length,
            "server_stats": stats}
