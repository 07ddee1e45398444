"""Time ``repro`` imports plus one workload's program builds.

Run in a fresh interpreter by ``common.measure_setup``; prints one JSON
line ``{"wall": seconds, "factor": host speed}``.  The clock starts
after interpreter spawn, so only the program's own import and build cost
is measured; the host speed, measured in this process just before and
just after, scales it to reference-host seconds (see
``common.host_speed``).
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import specs  # noqa: E402


def main(workload):
    before = common.host_speed()
    start = time.perf_counter()
    specs.import_program()
    specs.build_programs(workload)
    wall = time.perf_counter() - start
    factor = (before + common.host_speed()) / 2
    print(json.dumps({"wall": wall, "factor": factor}))


if __name__ == "__main__":
    main(sys.argv[1])
