"""Real-shaped ProfileMe record streams for ``service-ingest``.

**Capture.**  The records come from real profiled sessions: compress,
gcc, li and go, each on the cycle-level out-of-order core at S=20, one
hardware context per program, merged by fetch cycle into one stream (a
four-context host feeding one collector).  Every run captures the four
programs at scale 1, ~3k records, as its *corpus*.

**The real curve.**  How often a (pc, wire signature) pair repeats
depends on how long the stream is: the same four programs at scale 160
(``capture_real.py``, once, ~615k records, longer than any run pushes)
repeat far more often than a 3k-record capture.  ``real_stream.json``
holds that long capture's distinct-pair count D(n) at every 64 records
up to 4096 and every 1024 records after.

**Generation.**  Replaying the corpus in laps would make every record
after the first lap a hit in the service's signature memo.  The
generator reproduces the long capture's *repeat structure* instead:

* the number of distinct (pc, signature) pairs among the first n
  records follows the real curve D(n), interpolated linearly between
  its points; past the curve's end (a run longer than the capture) it
  follows a power law fitted over the curve's second half;
* a record that must be new is the next corpus record in stream order;
  if its signature was already used, its 16-bit path-history field is
  redrawn until the pair is unseen (pc, opcode, events, latencies and
  address stay real);
* a record that must repeat copies the signature of a uniformly chosen
  earlier record, so hot signatures repeat in proportion to how often
  they already occurred;
* fetch cycles advance by the corpus's own inter-record gaps, so the
  stream walks through rollup buckets at the real rate.

Every draw comes from the seed.  Runs report the pushed stream's repeat
share next to the real curve's at the same length.
"""

import bisect
import dataclasses
import heapq
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REAL_STREAM = os.path.join(HERE, "real_stream.json")
CAPTURE_NAMES = ("compress", "gcc", "li", "go")
HISTORY_BITS = 16


def capture(programs, seed, interval=20):
    """Real records: one profiled detailed run per program, merged.

    Returns ``(records, retired)``, *retired* being the instructions the
    four runs retired between them.
    """
    streams = []
    retired = 0
    for context, name in enumerate(CAPTURE_NAMES):
        records, done = capture_program(programs[(name, 1)], context, seed,
                                        interval)
        streams.append(records)
        retired += done
    return list(heapq.merge(*streams,
                            key=lambda record: record.fetch_cycle)), retired


def capture_program(program, context, seed, interval):
    """``(records, retired)`` of one profiled run, tagged *context*."""
    from repro.engine.session import SessionSpec, run_session
    from repro.profileme.unit import ProfileMeConfig

    result = run_session(SessionSpec(
        program=program, core_kind="ooo",
        profile=ProfileMeConfig(mean_interval=interval, seed=seed)))
    return ([dataclasses.replace(record, context=context)
             for record in result.driver.records], result.stats.retired)


def _signature_span(payload):
    """The signature bytes of a one-record wire-v2 push payload.

    Skips what ``ShardFolder.fold_payload`` (``repro.service.fold``)
    parses before it slices the signature: the record count, the sample
    tag, the record length and the pc, fetch and done deltas.
    """
    from repro.service.protocol import _sv_decode, _uv_decode

    _count, offset = _uv_decode(payload, 0)
    length, offset = _uv_decode(payload, offset + 1)  # after the tag
    end = offset + length
    for _ in range(3):
        _delta, offset = _sv_decode(payload, offset)
    return bytes(payload[offset:end])


def wire_key(record):
    """``(pc, signature bytes)``: the identity the service's fold memo uses.

    The signature is everything a wire-v2 record carries after its
    delta-coded pc and cycle stamps (opcode, abort reason, events,
    context, history, address, latencies).
    """
    from repro.service.protocol import encode_push_payload

    return record.pc, _signature_span(encode_push_payload([record]))


def repeat_share(keys):
    """Share of records whose key occurred earlier in the stream."""
    keys = list(keys)
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0


def curve_lengths(total):
    """Prefix lengths at which a distinct curve is recorded."""
    lengths = list(range(64, min(total, 4096) + 1, 64))
    lengths += range(4096 + 1024, total + 1, 1024)
    if not lengths or lengths[-1] != total:
        lengths.append(total)
    return lengths


def distinct_curve(keys):
    """``[[n, distinct keys among the first n]]`` at ``curve_lengths``."""
    lengths = curve_lengths(len(keys))
    points = []
    seen = set()
    for count, key in enumerate(keys, 1):
        seen.add(key)
        if count == lengths[len(points)]:
            points.append([count, len(seen)])
    return points


class RealCurve:
    """The long real capture's distinct-pair count D(n), for any n."""

    def __init__(self, points):
        self.lengths = [0] + [n for n, _ in points]
        self.distinct = [0] + [d for _, d in points]
        self.length = self.lengths[-1]
        # Beyond the capture: D(n) = K n^b, fitted in log-log space over
        # the curve's second half and anchored on its end point.
        tail = [(math.log(n), math.log(d)) for n, d in points
                if n >= self.length / 2]
        mean_x = sum(x for x, _ in tail) / len(tail)
        mean_y = sum(y for _, y in tail) / len(tail)
        slope = (sum((x - mean_x) * (y - mean_y) for x, y in tail)
                 / sum((x - mean_x) ** 2 for x, _ in tail))
        self.exponent = min(1.0, slope)
        self.scale = self.distinct[-1] / self.length ** self.exponent

    @classmethod
    def load(cls):
        with open(REAL_STREAM) as stream:
            document = json.load(stream)
        return cls(document["curve"])

    def distinct_at(self, n):
        """Distinct pairs among the first *n* records (fractional)."""
        if n >= self.length:
            return self.scale * n ** self.exponent
        index = bisect.bisect_right(self.lengths, n)
        low, high = self.lengths[index - 1], self.lengths[index]
        d_low, d_high = self.distinct[index - 1], self.distinct[index]
        return d_low + (d_high - d_low) * (n - low) / (high - low)

    def repeat_share(self, n):
        return 1.0 - self.distinct_at(n) / n if n else 0.0


class StreamGenerator:
    """Seeded, unbounded record stream with the real curve's repeats."""

    def __init__(self, corpus, seed, curve=None):
        self.corpus = corpus
        self.curve = curve or RealCurve.load()
        self.rng = random.Random(seed)
        # Base signature: the wire key with the history field zeroed.
        # A generated signature is (base id, history); the pair maps one
        # to one onto real wire keys.
        bases = {}
        self.base_of = []
        self.base_template = []
        for index, record in enumerate(corpus):
            base = wire_key(dataclasses.replace(record, history=0))
            if base not in bases:
                bases[base] = len(bases)
                self.base_template.append(index)
            self.base_of.append(bases[base])
        # Field dicts of the templates: records are built by copying one
        # and setting three fields, far cheaper than the frozen
        # dataclass constructor on a stream of a million records.
        self._fields = [dict(record.__dict__) for record in corpus]
        self._record_type = type(corpus[0])
        self.gaps = [max(1, later.fetch_cycle - earlier.fetch_cycle)
                     for earlier, later in zip(corpus, corpus[1:])] or [1]
        self.seen = set()
        self.emitted = []  # signature of every record so far
        self.pcs = set()
        self.tick = 0
        self._next = 0  # next corpus record used as a new signature

    @property
    def count(self):
        return len(self.emitted)

    def target_distinct(self, n):
        return min(n, max(1, int(round(self.curve.distinct_at(n)))))

    def repeat_share(self):
        return 1.0 - len(self.seen) / self.count if self.count else 0.0

    def _new_signature(self):
        index = self._next % len(self.corpus)
        self._next += 1
        base = self.base_of[index]
        signature = (base << HISTORY_BITS) | self.corpus[index].history
        while signature in self.seen:
            signature = (base << HISTORY_BITS) \
                | self.rng.getrandbits(HISTORY_BITS)
        self.seen.add(signature)
        return signature

    def records(self, count):
        """The next *count* records of the stream."""
        out = []
        fields = self._fields
        gaps = self.gaps
        new_record = self._record_type.__new__
        record_type = self._record_type
        history_mask = (1 << HISTORY_BITS) - 1
        for _ in range(count):
            if len(self.seen) < self.target_distinct(self.count + 1):
                signature = self._new_signature()
            else:
                signature = self.emitted[self.rng.randrange(self.count)]
            self.emitted.append(signature)
            values = dict(fields[self.base_template[signature
                                                    >> HISTORY_BITS]])
            self.tick += gaps[self.count % len(gaps)]
            self.pcs.add(values["pc"])
            values["done_cycle"] += self.tick - values["fetch_cycle"]
            values["fetch_cycle"] = self.tick
            values["history"] = signature & history_mask
            record = new_record(record_type)
            object.__setattr__(record, "__dict__", values)
            out.append(record)
        return out
