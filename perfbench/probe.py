"""Fresh-interpreter probes: a workload's set-up and its warm (cached) pass.

Usage::

    python3 perfbench/probe.py setup  WORKLOAD SEED SIZE
    python3 perfbench/probe.py cached WORKLOAD SEED SIZE STORE

``setup`` performs everything the workload does before its first simulated
event (or first campaign cell dispatch) and replies with ``import_s``, the
reference seconds from this script's first line to the end of its imports;
``run.py`` times the whole set-up from outside, from spawn to the reply.
``cached`` runs the all-cache-hit pass against the run store at STORE,
which a cold pass filled, and replies with its time (measured here, imports
excluded) and the digest of its outputs.  Each reply is one JSON line.  It
also carries the ``calibration_s`` and ``speed`` of the reference clock
(``hostclock``) that ran from the first line until set-up ended.
"""

import hostclock

CLOCK = hostclock.ReferenceClock()
CLOCK.start()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

IMPORT_S = CLOCK.seconds()


def main(argv):
    mode, name, seed, size = argv[1], argv[2], int(argv[3]), argv[4]
    workload = workloads.make(name, size)
    if mode == "setup":
        workload.setup(seed)
        CLOCK.stop()
        reply = {"import_s": IMPORT_S}
    elif mode == "cached":
        CLOCK.stop()  # the warm pass is timed by a clock of its own
        reply = workload.warm_pass(seed, workloads.RunStore(argv[5]))
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
    reply.update(calibration_s=CLOCK.calibration_s, speed=CLOCK.speed)
    print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main(sys.argv)
