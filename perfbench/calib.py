"""CPU-speed calibration loop, run beside a repetition on the same CPU.

    python3 perfbench/calib.py

Prints ``ready``, then repeats a fixed unit of interpreter work (string
formatting, dict and set operations, as in the pipeline's own code) until
it gets SIGTERM, and then prints ``<units> <cpu_seconds>`` for the loop.
It exits by itself if its parent process goes away.

The host this benchmark runs on is shared: its speed swings by 1.5x within
seconds and drifts for minutes, which no number of repetitions averages
out.  A process that time-shares one CPU with the repetition sees the same
swings at the same moments, so the repetition's CPU time divided by this
loop's CPU time per unit is the program's cost with the host's speed
taken out.  The loop runs at nice 10, so the scheduler still switches
between the two every few milliseconds but gives it only about a tenth of
the CPU, and the repetition's wall time grows by about that much.
"""

from __future__ import annotations

import os
import signal
import sys
import time

UNIT_KEYS = 2000
NICE = 10


def unit() -> int:
    d = {}
    for i in range(UNIT_KEYS):
        d[f"k{i}"] = i * 2
    s = set(d.values())
    return sum(1 for k in d if d[k] in s)


def main() -> int:
    stop = False

    def on_term(*_):
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    os.nice(NICE)
    parent = os.getppid()
    print("ready", flush=True)
    units = 0
    c0 = time.process_time()
    while not stop:
        unit()
        units += 1
        if units % 64 == 0 and os.getppid() != parent:
            return 1
    print(units, time.process_time() - c0, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
