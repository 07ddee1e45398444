"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload profile-detailed --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the workload and reports its end-to-end metrics;
``--trace 1`` runs the per-layer ledger instead (see README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any correctness
mismatch (a pinned count, a database digest, a lost record, a failed
query) is counted in ``failed`` and makes the command exit 1.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import specs  # noqa: E402

PINS = os.path.join(HERE, "pins.json")
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src``, or fail."""
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        raise SystemExit("perfbench: no program sources at %s" % common.SRC)
    sys.path.insert(0, common.SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(common.SRC):
        raise SystemExit("perfbench: imported repro from %s, not %s"
                         % (repro.__file__, common.SRC))


def load_pins():
    with open(PINS) as stream:
        return json.load(stream)


def measure(args, ledger, pins):
    """The timed (untraced) run: end-to-end metrics of one workload."""
    if args.workload == specs.SERVICE_INGEST:
        import ingest

        return ingest.run(args.seed, args.seconds, ledger)
    import sessions

    setups = common.measure_setup(args.workload, SETUP_REPEATS)
    ledger.put("setup_s", statistics.median(common.values(setups, True)),
               "s")
    detail = sessions.run(args.workload, args.seed, args.seconds, ledger,
                          pins)
    detail["raw"]["setup_s"] = statistics.median(common.values(setups,
                                                               False))
    return detail


def main(argv=None):
    args = parse_args(argv)
    import_program()
    pins = load_pins()
    ledger = common.Ledger()
    calib = [common.calib_loop_per_s()]
    if args.trace:
        import layers

        detail = layers.run(args.workload, args.seed, args.seconds, ledger,
                            pins)
    else:
        detail = measure(args, ledger, pins)
    calib.append(common.calib_loop_per_s())
    speed = common.mean_host_speed()
    detail["host.calib_loop_per_s"] = calib
    detail["host.speed"] = speed
    if args.trace:
        ledger.put("host.calib_loop_per_s", sum(calib) / len(calib), "1/s")
        ledger.put("host.speed", speed, "ratio")
    for name in sorted(ledger.metrics):
        metric = ledger.metrics[name]
        print("%-44s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print("%-44s %16.6g %s" % ("failed_share",
                               ledger.failed / max(1, ledger.attempted),
                               "ratio"))
    for failure in ledger.failures[:20]:
        print("FAILED: %s" % failure)
    print("detail: %s" % json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps(ledger.result(), sort_keys=True))
    return 0 if ledger.failed == 0 and ledger.attempted else 1


if __name__ == "__main__":
    sys.exit(main())
