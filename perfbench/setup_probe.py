"""Time one set-up of cozero in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR ARG...

The clock starts at this script's first statement, before anything else is
imported, and stops once ``cozero.cli`` is imported from SRC_DIR and the
CLI's arguments (ARG...) are ready.  Then the calibration loop of worker.py
is timed once, for the machine's speed at that moment.  Prints both times,
in seconds, on one line.
"""
import time

START = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
import cozero.cli  # noqa: E402,F401

argv = list(sys.argv[2:])
elapsed = time.perf_counter() - START

import worker  # noqa: E402

print(elapsed, worker.loop_seconds())
