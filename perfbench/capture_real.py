"""Write ``real_stream.json``: the distinct curve of a long real capture.

    python3 perfbench/capture_real.py --scale 160 --seed 1 --workers 2

Runs compress, gcc, li and go at *scale* on the out-of-order core with
ProfileMe at S=20 (one context each, as ``stream.capture`` does at scale
1), merges the four record streams by fetch cycle and records how many
distinct (pc, wire signature) pairs the first n records hold
(``stream.distinct_curve``).  The stream must be longer than any run of
``service-ingest`` pushes; the generator follows this curve.  Scale 160
takes about six minutes on two cores.
"""

import argparse
import heapq
import json
import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import stream  # noqa: E402

INTERVAL = 20


def _capture(job):
    """``[(fetch cycle, wire key)]`` of one program's profiled run."""
    from repro.workloads.suite import suite_program

    context, name, scale, seed = job
    records, retired = stream.capture_program(
        suite_program(name, scale), context, seed, INTERVAL)
    return [(record.fetch_cycle, stream.wire_key(record))
            for record in records], retired


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=160)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default=stream.REAL_STREAM)
    args = parser.parse_args(argv)
    jobs = [(context, name, args.scale, args.seed)
            for context, name in enumerate(stream.CAPTURE_NAMES)]
    start = time.perf_counter()
    with multiprocessing.Pool(args.workers) as pool:
        captured = pool.map(_capture, jobs, chunksize=1)
    keys = [key for _cycle, key in heapq.merge(
        *(pairs for pairs, _ in captured), key=lambda pair: pair[0])]
    curve = stream.distinct_curve(keys)
    document = {
        "programs": list(stream.CAPTURE_NAMES), "scale": args.scale,
        "interval": INTERVAL, "seed": args.seed, "core": "ooo",
        "records": len(keys),
        "retired": sum(retired for _, retired in captured),
        "distinct_pcs": len({pc for pc, _ in keys}),
        "repeat_share": stream.repeat_share(keys),
        "curve": curve,
    }
    with open(args.out, "w") as out:
        json.dump(document, out, separators=(",", ":"))
        out.write("\n")
    print("%d records, %.1f%% repeats, %.0f s"
          % (len(keys), 100 * document["repeat_share"],
             time.perf_counter() - start))


if __name__ == "__main__":
    main()
