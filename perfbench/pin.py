"""Write ``pins.json``: the pinned products of every profile session.

    python3 perfbench/pin.py --seeds 0-20

For each seed, runs each profile workload's sessions once and records
cycles, retired, samples, ``dropped_busy`` and the database digest.
Fields the seed cannot change (``specs.SEED_INDEPENDENT``) go under
``sessions`` and must agree across every seed; the rest go under
``seeds``.  Re-pinning is a deliberate act: a changed pin means the
simulation's output changed.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import sessions  # noqa: E402
import specs  # noqa: E402


def seed_range(text):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range, e.g. 0-20")
    args = parser.parse_args(argv)
    run.import_program()
    from repro.engine.session import run_session

    pins = {"sessions": {}, "seeds": {}}
    for workload in (specs.PROFILE_DETAILED, specs.PROFILE_TWOSPEED):
        programs = specs.build_programs(workload)
        fixed = specs.SEED_INDEPENDENT[workload]
        for seed in args.seeds:
            for name, spec in specs.session_specs(workload, programs, seed):
                products = sessions.session_products(run_session(spec))
                shared = pins["sessions"].setdefault(workload, {}) \
                    .setdefault(name, {})
                for field in fixed:
                    if shared.setdefault(field, products[field]) \
                            != products[field]:
                        raise SystemExit("%s/%s.%s depends on the seed"
                                         % (workload, name, field))
                pins["seeds"].setdefault(str(seed), {}) \
                    .setdefault(workload, {})[name] = {
                        field: products[field]
                        for field in sessions.PINNED_FIELDS
                        if field not in fixed}
            print("pinned %s seed %d" % (workload, seed), flush=True)
    with open(run.PINS, "w") as stream:
        json.dump(pins, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
