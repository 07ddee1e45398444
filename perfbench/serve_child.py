"""Start ``repro serve`` in this interpreter, stamping when it came up.

Prints ``started <CLOCK_MONOTONIC seconds> <host speed>`` before
importing ``repro``, so the parent can time imports, worker start and
the first handshake without the interpreter's own spawn, and scale that
to reference-host seconds (``common.host_speed``, measured here just
before the stamp).  All further output is the server's (``repro serve``
prints the bound address once it listens).
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main(argv):
    speed = common.host_speed()
    print("started %.9f %.6f" % (time.monotonic(), speed), flush=True)
    from repro.tools.cli import main as repro_main

    return repro_main(["serve"] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
