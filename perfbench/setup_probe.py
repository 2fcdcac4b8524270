"""Set-up probe of the covphase benchmark.

Run as `python3 perfbench/setup_probe.py MODEL...` in a fresh interpreter:
imports covphase the way the `covphase` command does, loads and validates
each named builtin model once, then prints the system-wide monotonic clock.
The parent reads the clock before starting the probe, so the difference is
the set-up time from process start, interpreter start-up included.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import covphase.cli  # noqa: E402  (path set up above)

for name in sys.argv[1:]:
    covphase.load_builtin(name)
print(repr(time.monotonic()))
